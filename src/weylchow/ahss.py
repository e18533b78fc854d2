"""Chart-driven Atiyah-Hirzebruch spectral sequence over truncated BP*.

Only differentials of the product form d(x) = v_i * Q_i(x) are applied, one
index at a time in increasing order.  Pages are modeled per block (s, mu):
s the topological degree, mu a monomial in v_1..v_m; the block's ambient
lattice Z^g is the integral basis of H^s (free generators, then p-torsion
generators whose p-multiples are boundaries from the start).

The engine exploits a structural fact: every cycle lattice K and boundary
lattice B arising from rule-form differentials is the preimage of a mod-p
subspace.  B always contains p * (torsion span) and is spanned by
differential images, which land in the torsion coordinates; K always
contains p * (everything), because p * x maps into p * (torsion span).  So
the page state is a pair of F_p-subspaces per block,

    Kbar in F_p^g                     (cycles; K = its preimage lattice),
    Wbar in the torsion coordinates   (boundaries; B = preimage inside Z^T),

with stage updates in plain mod-p linear algebra:

    Kbar_i = {x in Kbar_{i-1} : M_i x in Wbar_{i-1}(s + |d_i|, v_i mu)}
    Wbar_i = Wbar_{i-1} + M_i Kbar_{i-1}(s - |d_i|, mu / v_i)

Because the stage-0 state is the full space, this recursion is total: the
state of any block, however far outside the enumerated range, can be
computed on demand (stages strictly decrease along dependencies).  The
chart supplies bases and Milnor matrices in arbitrary degrees, so no
approximation ever enters; the window only scopes enumeration, validation,
and the reporting range.

Structure extraction: a block's E_infinity group K/B has free rank equal to
the number of free generators (free classes lose index, never rank) and
p-torsion of rank dim(Kbar ^ torsion span) - dim Wbar.  The collapse to
Z_(p)-coefficients kills all v-multiples; at mu = 1 a block contributes its
full structure, at mu != 1 only the classes that became cycles at mu
exactly: (Z/p)^t with t = dim Kbar(mu) - dim(Wbar(mu) + sum_j Kbar(mu/v_j)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import linalg
from .chart import Chart, integral_q_matrix, q_shift
from .poly import compositions

VMono = Tuple[int, ...]
Subspace = List[List[int]]  # reduced echelon row basis


class AhssError(Exception):
    pass


# ---------------------------------------------------------------------------
# F_p subspace helpers
# ---------------------------------------------------------------------------


def _reduce(vectors: List[List[int]], p: int) -> Subspace:
    vecs = [v for v in vectors if any(x % p for x in v)]
    if not vecs:
        return []
    red, pivots = linalg.rref_fp(vecs, p)
    return [red[r] for r in range(len(pivots))]


def _sub_contains(sub: Subspace, vec: List[int], p: int) -> bool:
    if not any(x % p for x in vec):
        return True
    if not sub:
        return False
    return linalg.solve_fp(list(sub), [x % p for x in vec], p) is not None


def _sub_sum(a: Subspace, b: Subspace, p: int) -> Subspace:
    return _reduce([list(v) for v in a] + [list(v) for v in b], p)


def _mat_apply(mat: List[List[int]], vec: List[int], p: int) -> List[int]:
    return [sum(row[j] * vec[j] for j in range(len(vec))) % p for row in mat]


def _conditioned_kernel(
    basis: Subspace, images: List[List[int]], allowed: Subspace, p: int
) -> Subspace:
    """{x in span(basis) : image(x) in span(allowed)}, reduced.

    images[j] is the image of basis[j] in the target coordinates.
    """
    if not basis:
        return []
    if all(not any(img) for img in images):
        return [list(v) for v in basis]
    k = len(basis)
    t = len(allowed)
    m = len(images[0])
    rows = []
    for i in range(m):
        rows.append([images[j][i] for j in range(k)] + [allowed[j][i] for j in range(t)])
    coeff_vecs = linalg.kernel_fp(rows, k + t, p)
    out = []
    for cv in coeff_vecs:
        vec = [0] * len(basis[0])
        for j in range(k):
            if cv[j]:
                for idx in range(len(vec)):
                    vec[idx] = (vec[idx] + cv[j] * basis[j][idx]) % p
        out.append(vec)
    return _reduce(out, p)


# ---------------------------------------------------------------------------
# v-monomials
# ---------------------------------------------------------------------------


def v_degree(p: int, mu: VMono) -> int:
    return -sum(2 * (p ** (i + 1) - 1) * e for i, e in enumerate(mu))


def v_label(mu: VMono) -> str:
    parts = []
    for i, e in enumerate(mu):
        if e == 1:
            parts.append("v_%d" % (i + 1))
        elif e > 1:
            parts.append("v_%d^%d" % (i + 1, e))
    return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# Page state with total on-demand recursion
# ---------------------------------------------------------------------------


class _PageComputer:
    """Memoized stage-state computer for arbitrary blocks.

    k(stage, s, mu) and w(stage, s, mu) implement the update recursion
    directly; stages strictly decrease along every dependency, with the
    full space at stage 0, so the recursion is total.
    """

    def __init__(self, chart: Chart, v_max: int):
        self.chart = chart
        self.p = chart.p
        self.v_max = v_max
        self._k: Dict[Tuple[int, int, VMono], Subspace] = {}
        self._w: Dict[Tuple[int, int, VMono], Subspace] = {}

    def rank(self, s: int) -> int:
        if s < 0:
            return 0
        return self.chart.integral_slice(s).rank

    def k(self, stage: int, s: int, mu: VMono) -> Subspace:
        rank = self.rank(s)
        if rank == 0:
            return []
        if stage == 0:
            return linalg.identity(rank)
        key = (stage, s, mu)
        if key in self._k:
            return self._k[key]
        prev = self.k(stage - 1, s, mu)
        shift = q_shift(self.p, stage)
        qmat = integral_q_matrix(self.chart, stage, s)
        images = [_mat_apply(qmat, v, self.p) for v in prev]
        if all(not any(img) for img in images):
            result = prev
        else:
            allowed = self.w(stage - 1, s + shift, _v_mult(mu, stage))
            result = _conditioned_kernel(prev, images, allowed, self.p)
        self._k[key] = result
        return result

    def w(self, stage: int, t: int, nu: VMono) -> Subspace:
        rank = self.rank(t)
        if rank == 0 or stage == 0:
            return []
        key = (stage, t, nu)
        if key in self._w:
            return self._w[key]
        parts: List[List[int]] = []
        for j in range(1, stage + 1):
            if nu[j - 1] == 0:
                continue
            shift = q_shift(self.p, j)
            src_s = t - shift
            src_mu = _v_div(nu, j)
            src_k = self.k(j - 1, src_s, src_mu)
            if not src_k:
                continue
            qmat = integral_q_matrix(self.chart, j, src_s)
            for v in src_k:
                img = _mat_apply(qmat, v, self.p)
                if any(img):
                    parts.append(img)
        result = _reduce(parts, self.p)
        self._w[key] = result
        return result


def _v_mult(mu: VMono, i: int) -> VMono:
    return tuple(e + (1 if idx == i - 1 else 0) for idx, e in enumerate(mu))


def _v_div(mu: VMono, i: int) -> VMono:
    return tuple(e - (1 if idx == i - 1 else 0) for idx, e in enumerate(mu))


@dataclass
class Block:
    s: int
    mu: VMono
    k_bar: Subspace
    w_bar: Subspace


@dataclass
class BlockStructure:
    free_rank: int
    torsion_rank: int
    free_reps: List[str] = field(default_factory=list)
    torsion_reps: List[str] = field(default_factory=list)


@dataclass
class AhssResult:
    chart: Chart
    v_max: int
    max_total: int
    blocks: Dict[Tuple[int, VMono], Block]
    pages: "_PageComputer"
    reliable_total: int

    def block(self, s: int, mu: VMono) -> Optional[Block]:
        return self.blocks.get((s, mu))


_STABLE_EXPONENT = 2  # v-columns stabilize at exponent 2 (see collapse_to_chow)


def run_ahss(chart: Chart, v_max: int, max_total: Optional[int] = None) -> AhssResult:
    """Run the stage-wise spectral sequence and materialize the final page.

    Blocks are enumerated in two families: every (s, mu) with s inside the
    declared window (the towers reported by the summary), plus all collapse
    candidates at totals up to max_total with v-exponents at most 2.  The
    state recursion computes blocks beyond the window exactly, so exponent
    2 suffices: along every dependency chain each v-index is divided at
    most once, hence the page state at a column with an exponent >= 3
    coincides with the state one v-step shallower and contributes nothing
    new to the collapse.

    max_total defaults to window - (2 p^v_max - 1) and may be raised up to
    the declared window.
    """
    p = chart.p
    if v_max < 1:
        raise AhssError("v_max must be >= 1")
    slack = q_shift(p, v_max)
    reliable_total = chart.window - slack
    if max_total is None:
        max_total = reliable_total
    if max_total > chart.window:
        raise AhssError(
            "requested total degree %d exceeds the declared window %d"
            % (max_total, chart.window)
        )
    pages = _PageComputer(chart, v_max)
    keys = set()
    # Every block with s in the window and total s - |mu| >= -v_max.
    v_sizes = [2 * (p ** (i + 1) - 1) for i in range(v_max)]  # |v_i|, as in v_degree
    v_monos = [mu for n in range(chart.window + v_max + 1) for mu in compositions(v_sizes, n)]
    for s in range(chart.window + 1):
        if pages.rank(s) > 0:
            keys.update((s, mu) for mu in v_monos if -v_degree(p, mu) <= s + v_max)
    capped = list(itertools.product(range(_STABLE_EXPONENT + 1), repeat=v_max))
    for total in range(0, max_total + 1):
        for mu in capped:
            s = total - v_degree(p, mu)
            if pages.rank(s) > 0:
                keys.add((s, mu))
    blocks: Dict[Tuple[int, VMono], Block] = {}
    for s, mu in sorted(keys):
        blocks[(s, mu)] = Block(s, mu, pages.k(v_max, s, mu), pages.w(v_max, s, mu))
    _check_pages(blocks, p)
    return AhssResult(chart, v_max, max_total, blocks, pages, reliable_total)


def _check_pages(blocks: Dict[Tuple[int, VMono], Block], p: int):
    for (s, mu), blk in blocks.items():
        for w in blk.w_bar:
            if not _sub_contains(blk.k_bar, w, p):
                raise AhssError(
                    "page inconsistency at (s=%d, %s): boundary outside cycles"
                    % (s, v_label(mu))
                )


# ---------------------------------------------------------------------------
# Structure extraction
# ---------------------------------------------------------------------------


def _torsion_intersection(chart: Chart, s: int, sub: Subspace, p: int) -> Subspace:
    """Intersection of the subspace with the torsion-coordinate span."""
    sl = chart.integral_slice(s)
    nfree = len(sl.free)
    if not sub:
        return []
    if nfree == 0:
        return [list(v) for v in sub]
    rows = [[v[coord] for v in sub] for coord in range(nfree)]
    coeffs = linalg.kernel_fp(rows, len(sub), p)
    out = []
    for cv in coeffs:
        vec = [0] * len(sub[0])
        for j, c in enumerate(cv):
            if c:
                for idx in range(len(vec)):
                    vec[idx] = (vec[idx] + c * sub[j][idx]) % p
        out.append(vec)
    return _reduce(out, p)


def block_structure(result: AhssResult, blk: Block) -> BlockStructure:
    """E_infinity structure of one block: K/B with readable labels."""
    chart = result.chart
    p = chart.p
    sl = chart.integral_slice(blk.s)
    nfree = len(sl.free)
    k_t = _torsion_intersection(chart, blk.s, blk.k_bar, p)
    torsion_rank = len(k_t) - len(blk.w_bar)
    free_reps = []
    proj = _reduce([v[:nfree] for v in blk.k_bar], p) if nfree else []
    covered = set()
    for row in proj:
        vec = [0] * sl.rank
        pivot = next(i for i, x in enumerate(row) if x)
        covered.add(pivot)
        for i, x in enumerate(row):
            vec[i] = x
        free_reps.append(_vector_label(chart, sl, vec))
    for i in range(nfree):
        if i not in covered:
            vec = [0] * sl.rank
            vec[i] = p
            free_reps.append(_vector_label(chart, sl, vec))
    torsion_reps = []
    w = [list(r) for r in blk.w_bar]
    for vec in k_t:
        if not _sub_contains(w, vec, p):
            torsion_reps.append(_vector_label(chart, sl, vec))
            w = _sub_sum(w, [vec], p)
    return BlockStructure(nfree, torsion_rank, free_reps, torsion_reps)


def _vector_label(chart: Chart, sl, vec: List[int]) -> str:
    monos = chart.basis_at(sl.degree)
    basis_vectors = sl.free + sl.torsion
    terms: Dict[int, int] = {}
    for coeff, bvec in zip(vec, basis_vectors):
        if coeff:
            for idx, c in enumerate(bvec):
                if c:
                    terms[idx] = terms.get(idx, 0) + coeff * c
    parts = []
    for idx, c in sorted(terms.items()):
        if c == 0:
            continue
        label = chart.mono_label(monos[idx])
        parts.append(label if c == 1 else "%d*%s" % (c, label))
    return " + ".join(parts) if parts else "0"


def einfinity_summary(result: AhssResult) -> Dict[int, List[Tuple[str, BlockStructure]]]:
    """Nonzero blocks per total degree within the reporting range."""
    out: Dict[int, List[Tuple[str, BlockStructure]]] = {}
    for (s, mu), blk in sorted(result.blocks.items()):
        total = s + v_degree(result.chart.p, mu)
        if total < 0 or total > result.max_total:
            continue
        st = block_structure(result, blk)
        if st.free_rank or st.torsion_rank:
            out.setdefault(total, []).append((v_label(mu), st))
    return out


@dataclass
class CollapseReport:
    """Ranks of E_infinity (x)_{BP*} Z_(p), by total degree."""

    per_degree: Dict[int, Tuple[int, int]]
    details: Dict[int, List[str]] = field(default_factory=dict)

    def free_rank(self, n: int) -> int:
        return self.per_degree.get(n, (0, 0))[0]

    def torsion_rank(self, n: int) -> int:
        return self.per_degree.get(n, (0, 0))[1]

    def chow_table(self) -> Dict[int, Tuple[int, int]]:
        return {n // 2: v for n, v in sorted(self.per_degree.items()) if n % 2 == 0}

    def odd_leftovers(self) -> Dict[int, Tuple[int, int]]:
        return {n: v for n, v in sorted(self.per_degree.items()) if n % 2 == 1}


def collapse_to_chow(result: AhssResult) -> CollapseReport:
    """Quotient E_infinity by every v_i-multiple, per total degree.

    v_i acts as the coordinate identity into the deeper block, so at mu = 1
    a block contributes its full E_inf structure, and at mu != 1 only the
    classes that became cycles at mu exactly.
    """
    chart = result.chart
    p = chart.p
    per_degree: Dict[int, Tuple[int, int]] = {}
    details: Dict[int, List[str]] = {}

    def add(total: int, free: int, tors: int):
        f0, t0 = per_degree.get(total, (0, 0))
        per_degree[total] = (f0 + free, t0 + tors)

    for (s, mu), blk in sorted(result.blocks.items()):
        total = s + v_degree(p, mu)
        if total < 0 or total > result.max_total:
            continue
        if mu == (0,) * result.v_max:
            st = block_structure(result, blk)
            if st.free_rank or st.torsion_rank:
                add(total, st.free_rank, st.torsion_rank)
                labels = details.setdefault(total, [])
                for rep in st.free_reps:
                    labels.append("free: %s" % rep)
                for rep in st.torsion_reps:
                    labels.append("Z/%d: %s" % (p, rep))
            continue
        denom = [list(r) for r in blk.w_bar]
        for idx in range(result.v_max):
            if mu[idx] > 0:
                prev_mu = _v_div(mu, idx + 1)
                prev = result.blocks.get((s, prev_mu))
                prev_k = prev.k_bar if prev is not None else result.pages.k(
                    result.v_max, s, prev_mu
                )
                denom = _sub_sum(denom, prev_k, p)
        t = len(blk.k_bar) - len(denom)
        if t:
            add(total, 0, t)
            labels = details.setdefault(total, [])
            for rep in _new_generator_reps(chart, blk, denom, p):
                labels.append("Z/%d: %s (v-part %s)" % (p, rep, v_label(mu)))
    return CollapseReport(per_degree, details)


def _new_generator_reps(chart: Chart, blk: Block, denom: Subspace, p: int) -> List[str]:
    sl = chart.integral_slice(blk.s)
    reps = []
    span = [list(r) for r in denom]
    for vec in blk.k_bar:
        if not _sub_contains(span, vec, p):
            reps.append(_vector_label(chart, sl, vec))
            span = _sub_sum(span, [vec], p)
    return reps


# ---------------------------------------------------------------------------
# Permanent cycles
# ---------------------------------------------------------------------------


@dataclass
class CycleVerdict:
    """The verdict on one class in block (s, mu).  stage is where a class
    that is not permanent fails: d = v_stage Q_stage, or v_max when it is a
    boundary on the final page; None for a permanent cycle."""

    expression: str
    permanent: bool
    reason: str
    s: int
    mu: Tuple[int, ...]
    stage: Optional[int] = None


def _parse_cycle_expression(chart: Chart, v_max: int, text: str):
    coeff = 1
    mu = [0] * v_max
    mono_parts: List[str] = []
    for token in text.replace(" ", "").split("*"):
        if not token:
            continue
        if token.isdigit():
            coeff *= int(token)
        elif token.startswith("v_") or (token.startswith("v") and token[1:2].isdigit()):
            body = token[2:] if token.startswith("v_") else token[1:]
            if "^" in body:
                idx_s, exp_s = body.split("^", 1)
                idx, exp = int(idx_s), int(exp_s)
            else:
                idx, exp = int(body), 1
            if not 1 <= idx <= v_max:
                raise AhssError("v-index %d outside v_max=%d" % (idx, v_max))
            mu[idx - 1] += exp
        else:
            mono_parts.append(token)
    if not mono_parts:
        raise AhssError("expression %r names no chart class" % text)
    mono = chart.resolve_name("*".join(mono_parts))
    return coeff, tuple(mu), mono


def permanent_cycle_check(result: AhssResult, expression: str) -> CycleVerdict:
    """True iff the element is a cycle on every page and is nonzero at E_inf.

    The element is coeff * (an integral lift of the named class) placed in
    the given v-column; lifts differ by p-multiples, which changes nothing.
    """
    chart = result.chart
    p = chart.p
    coeff, mu, mono = _parse_cycle_expression(chart, result.v_max, expression)
    s = chart.sig.mono_degree(mono)
    sl = chart.integral_slice(s)
    mono_vec = [0] * chart.dim(s)
    mono_vec[chart.mono_index(s)[mono]] = 1
    coords = linalg.solve_fp(sl.free + sl.torsion, mono_vec, p)
    if coords is None:
        raise AhssError("class in %r is not an integral class of the chart" % expression)
    vec = [coeff * c for c in coords]
    for stage in range(1, result.v_max + 1):
        k_bar = result.pages.k(stage, s, mu)
        if not _sub_contains(k_bar, vec, p):
            reason = "fails to be a cycle under d = v_%d Q_%d" % (stage, stage)
            return CycleVerdict(expression, False, reason, s, mu, stage)
    nfree = len(sl.free)
    if any(vec[:nfree]):
        return CycleVerdict(expression, True, "survives with nonzero free component", s, mu)
    w_bar = result.pages.w(result.v_max, s, mu)
    if _sub_contains(w_bar, vec, p):
        reason = "dies on the final page (boundary)"
        return CycleVerdict(expression, False, reason, s, mu, result.v_max)
    return CycleVerdict(expression, True, "survives all differentials with nonzero image", s, mu)
