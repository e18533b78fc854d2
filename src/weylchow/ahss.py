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
approximation ever enters; the window only scopes enumeration and the
reporting range.

The state reads mu only through its v-support sigma (sigma_j true iff v_j
divides mu): Kbar_i(s, mu) through sigma_1..sigma_{i-1}, Wbar_i(t, nu)
through sigma_1..sigma_i.  By induction on i: Kbar_i reads Kbar_{i-1}(s, mu)
and Wbar_{i-1}(., v_i mu), whose first i - 1 exponents are mu's; Wbar_i
reads Kbar_{j-1}(., nu / v_j) for the j <= i with v_j | nu, whose first
j - 2 exponents are nu's.  So k(i, s, sigma) and w(i, t, sigma) run the
recursion above on sigma itself, pass it on unchanged, and are memoized on
the part they read; they equal the pages of every mu of support sigma.

One object, AhssResult, is a chart's spectral sequence, computed on
demand: k and w are the memoized recursion, block(s, mu) is the final page
of one block, checked (every boundary a cycle) the first time a block of
its (s, sigma) is read,
and keys() lists the blocks of the reporting range (totals() those of
total degree 0..max_total).  Readers go only through these, so they are
correct on an object that was never swept.
run_ahss reads every key, which validates the whole window; the
restriction audit reads only the blocks it asks about.

Structure extraction: a block's E_infinity group K/B has free rank equal to
the number of free generators (free classes lose index, never rank) and
p-torsion of rank dim(Kbar ^ torsion span) - dim Wbar.  The collapse to
Z_(p)-coefficients kills all v-multiples; at mu = 1 a block contributes its
full structure, at mu != 1 only the classes that became cycles at mu
exactly: (Z/p)^t with t = dim Kbar(mu) - dim(Wbar(mu) + sum_j Kbar(mu/v_j)),
which is 0 unless mu is squarefree and prime to v_v_max (keys).

Every subspace here -- Kbar, Wbar, their sums and intersections -- is one
linalg.FpSubspace: a reduced echelon basis with its pivots.  A vector of a
block's F_p^g is a Python int with integral coordinate j (free coordinates
first) in bit j at p = 2 and in byte j at odd p.  Q_i acts through
integral_q_matrix's columns: M_i x sums the columns at the nonzero
coordinates of x, times them.  Kbar_i is prev.preimage(M_i images,
Wbar_{i-1}), Wbar_i an echelon insert of images, and the torsion part of
Kbar is the echelon rows with a pivot among the torsion coordinates.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress, product, repeat
from operator import add, mul
from typing import Dict, List, Optional, Tuple

from .chart import Chart, check_q_squares, integral_q_matrix, q_shift
from .linalg import FpSubspace
from .poly import compositions, mono_str

VMono = Tuple[int, ...]
VSupport = Tuple[bool, ...]  # sigma_j true iff v_j divides mu (module docstring)


class AhssError(Exception):
    pass


# ---------------------------------------------------------------------------
# v-monomials
# ---------------------------------------------------------------------------


def v_degree(p: int, mu: VMono) -> int:
    return -sum(2 * (p ** (i + 1) - 1) * e for i, e in enumerate(mu))


def v_label(mu: VMono) -> str:
    return mono_str(["v_%d" % (i + 1) for i in range(len(mu))], mu) or "1"


# ---------------------------------------------------------------------------
# The spectral sequence of a chart, computed on demand
# ---------------------------------------------------------------------------


_STABLE_EXPONENT = 2  # the v-exponent cap of the collapse candidates (see keys)


class AhssResult:
    """A chart's spectral sequence, computed on demand (module docstring).

    blocks holds the final-page blocks read so far.  max_total defaults to
    window - (2 p^v_max - 1) and may be raised up to the declared window.
    """

    def __init__(self, chart: Chart, v_max: int, max_total: Optional[int] = None):
        if v_max < 1:
            raise AhssError("v_max must be >= 1")
        if max_total is None:
            max_total = chart.window - q_shift(chart.p, v_max)
            if max_total < 0:  # no total degree would be reported
                raise AhssError("window %d cannot hold the pages up to v_max = %d; the smallest "
                                "that can is %d" % (chart.window, v_max, chart.window - max_total))
        elif max_total < 0:
            raise AhssError("requested total degree %d is negative" % max_total)
        if max_total > chart.window:
            raise AhssError(
                "requested total degree %d exceeds the declared window %d"
                % (max_total, chart.window)
            )
        self.chart = chart
        self.p = chart.p
        self.v_max = v_max
        self.max_total = max_total
        self.blocks: Dict[Tuple[int, VMono], Tuple[FpSubspace, FpSubspace]] = {}
        self._keys: Optional[List[Tuple[int, VMono]]] = None
        self._k: Dict[Tuple[int, int, VSupport], FpSubspace] = {}
        self._w: Dict[Tuple[int, int, VSupport], FpSubspace] = {}
        self._pages: Dict[Tuple[int, VSupport], Tuple[FpSubspace, FpSubspace]] = {}

    def rank(self, s: int) -> int:
        return self.chart.integral_slice(s).rank if s >= 0 else 0

    def keys(self) -> List[Tuple[int, VMono]]:
        """The blocks of the reporting range, sorted, in two families: every
        (s, mu) with s inside the declared window (the towers reported by
        the summary), plus all collapse candidates at totals up to max_total
        with v-exponents at most 2.  The state recursion computes blocks
        beyond the window exactly, and the cap loses nothing: a block's
        state depends only on the v-support of mu (module docstring), so a
        column with an exponent >= 2 has the state of the column one v-step
        shallower and adds nothing new to the collapse.  Nor does a column
        divisible by v_v_max, as the final Kbar reads only v_1..v_{v_max-1}:
        the other columns that can add torsion have every exponent <= 1.
        """
        if self._keys is None:
            p, v_max, window = self.p, self.v_max, self.chart.window
            keys = set()
            # Every block with s in the window and total s - |mu| >= -v_max.
            v_sizes = [2 * (p ** (i + 1) - 1) for i in range(v_max)]  # |v_i|, as in v_degree
            v_monos = [(n, mu) for n in range(window + v_max + 1)
                       for mu in compositions(v_sizes, n)]
            for s in range(window + 1):
                if self.rank(s) > 0:
                    keys.update((s, mu) for n, mu in v_monos if n <= s + v_max)
            capped = [(-v_degree(p, mu), mu)
                      for mu in product(range(_STABLE_EXPONENT + 1), repeat=v_max)]
            for total in range(0, self.max_total + 1):
                for n, mu in capped:
                    s = total + n
                    if self.rank(s) > 0:
                        keys.add((s, mu))
            self._keys = sorted(keys)
        return self._keys

    def totals(self) -> List[Tuple[int, int, VMono]]:
        """(total, s, mu) for each key of total degree s - |mu| in
        0..max_total, in key order, each distinct mu's degree found once."""
        degrees = {mu: v_degree(self.p, mu) for mu in {mu for _, mu in self.keys()}}
        return [(s + degrees[mu], s, mu) for s, mu in self.keys()
                if 0 <= s + degrees[mu] <= self.max_total]

    def block(self, s: int, mu: VMono) -> Tuple[FpSubspace, FpSubspace]:
        """(Kbar, Wbar) of the final page at (s, mu), the page of (s, sigma)
        for mu's support sigma, checked once per (s, sigma)."""
        blk = self.blocks.get((s, mu))
        if blk is None:
            sigma = tuple(map(bool, mu))
            if (s, sigma) not in self._pages:
                k_bar, w_bar = self.k(self.v_max, s, sigma), self.w(self.v_max, s, sigma)
                if not all(map(k_bar.contains, w_bar)):
                    # build_chart checks Q_i^2 = 0 inside the window only; a
                    # failure below it shows here first, so name it if it is
                    # the cause.
                    check_q_squares(self.chart, s + 2 * q_shift(self.p, self.v_max))
                    raise AhssError("page inconsistency at (s=%d, %s): boundary outside cycles"
                                    % (s, v_label(mu)))
                self._pages[s, sigma] = (k_bar, w_bar)
            blk = self.blocks[(s, mu)] = self._pages[s, sigma]
        return blk

    def k(self, stage: int, s: int, sigma: VSupport) -> FpSubspace:
        p = self.p
        rank = self.rank(s)
        if rank == 0 or stage == 0:
            return FpSubspace.full(p, rank)
        key = (stage, s, sigma[:stage - 1])  # the support k reads
        if key in self._k:
            return self._k[key]
        prev = self.k(stage - 1, s, sigma)
        t = s + q_shift(p, stage)
        cols = integral_q_matrix(self.chart, stage, s)
        images = [FpSubspace.image(p, cols, v) for v in prev]
        if not any(images):
            result = prev
        else:
            allowed = self.w(stage - 1, t, sigma)  # v_stage mu: the same first stage - 1 entries
            result = prev.preimage(images, allowed, self.rank(t))
        self._k[key] = result
        return result

    def w(self, stage: int, t: int, sigma: VSupport) -> FpSubspace:
        p = self.p
        if stage == 0 or self.rank(t) == 0:
            return FpSubspace(p)
        key = (stage, t, sigma[:stage])  # the support w reads
        if key in self._w:
            return self._w[key]
        result = FpSubspace(p)
        for j in compress(range(1, stage + 1), sigma):  # the j with v_j | nu
            src_s = t - q_shift(p, j)
            src_k = self.k(j - 1, src_s, sigma)  # nu / v_j: the same first j - 2 entries
            if src_k:
                cols = integral_q_matrix(self.chart, j, src_s)
                for v in src_k:
                    result.insert(FpSubspace.image(p, cols, v))
        self._w[key] = result
        return result


@dataclass
class BlockStructure:
    free_rank: int
    torsion_rank: int
    free_reps: List[str] = field(default_factory=list)
    torsion_reps: List[str] = field(default_factory=list)


def run_ahss(chart: Chart, v_max: int, max_total: Optional[int] = None) -> AhssResult:
    """The spectral sequence with every block of keys() read, so checked."""
    result = AhssResult(chart, v_max, max_total)
    for s, mu in result.keys():
        result.block(s, mu)
    return result


# ---------------------------------------------------------------------------
# Structure extraction
# ---------------------------------------------------------------------------


def free_classes(result: AhssResult, s: int, mu: VMono) -> List[List[int]]:
    """The free classes of the final page at (s, mu), as integer vectors
    over chart.basis_at(s)."""
    chart = result.chart
    p = chart.p
    sl = chart.integral_slice(s)
    nfree = len(sl.free)
    k_bar = result.block(s, mu)[0]
    # The rows with a free pivot, cut to the free coordinates, are the
    # echelon basis of Kbar's projection to the free part; a free
    # coordinate that is no pivot there survives only as p times itself.
    nproj = bisect_left(k_bar.pivots, nfree)
    free = [_lift(chart, sl, FpSubspace.unpack(p, row, sl.rank)[:nfree])
            for row in k_bar.rows[:nproj]]
    return free + [[p * c for c in FpSubspace.unpack(p, sl.free[i], chart.dim(s))]
                   for i in range(nfree) if i not in k_bar.pivots[:nproj]]


def block_ranks(result: AhssResult, s: int, mu: VMono) -> BlockStructure:
    """The ranks of one E_infinity block, without reps: the free rank of the
    integral slice and the new torsion rank dim(Kbar ^ torsion span) - dim Wbar."""
    nfree = len(result.chart.integral_slice(s).free)
    k_bar, w_bar = result.block(s, mu)
    return BlockStructure(nfree, len(k_bar.tail(nfree)) - len(w_bar))


def block_structure(result: AhssResult, s: int, mu: VMono) -> BlockStructure:
    """block_ranks with the reps: K/B labelled by free_classes and the new
    torsion classes."""
    chart = result.chart
    k_bar, w_bar = result.block(s, mu)
    st = block_ranks(result, s, mu)
    st.free_reps = [chart.class_label(s, vec) for vec in free_classes(result, s, mu)]
    st.torsion_reps = _new_reps(chart, chart.integral_slice(s), k_bar.tail(st.free_rank), w_bar)
    return st


def _lift(chart: Chart, sl, coeffs: List[int]) -> List[int]:
    """sum_j coeffs[j] * (integral basis vector j), over chart.basis_at(s)."""
    dim = chart.dim(sl.degree)
    out = [0] * dim
    for coeff, packed in zip(filter(None, coeffs), compress(sl.free + sl.torsion, coeffs)):
        out = list(map(add, out, map(mul, repeat(coeff), FpSubspace.unpack(chart.p, packed, dim))))
    return out


def einfinity_summary(result: AhssResult) -> Dict[int, List[Tuple[str, BlockStructure]]]:
    """Nonzero blocks per total degree within the reporting range, as
    block_ranks: ranks only, no reps (block_structure labels them)."""
    out: Dict[int, List[Tuple[str, BlockStructure]]] = {}
    for total, s, mu in result.totals():
        st = block_ranks(result, s, mu)
        if st.free_rank or st.torsion_rank:
            out.setdefault(total, []).append((v_label(mu), st))
    return out


@dataclass
class CollapseReport:
    """Ranks of E_infinity (x)_{BP*} Z_(p), by total degree."""

    per_degree: Dict[int, Tuple[int, int]]
    details: Dict[int, List[str]] = field(default_factory=dict)


def collapse_to_chow(result: AhssResult) -> CollapseReport:
    """Quotient E_infinity by every v_i-multiple, per total degree.

    v_i acts as the coordinate identity into the deeper block, so at mu = 1
    a block contributes its full E_inf structure, and at mu != 1 only the
    classes that became cycles at mu exactly.  Only the columns with every
    exponent <= 1 and v_v_max not dividing mu can have them (keys).
    """
    chart = result.chart
    p = chart.p
    per_degree: Dict[int, Tuple[int, int]] = {}
    details: Dict[int, List[str]] = {}

    def add(total: int, free: int, tors: int):
        f0, t0 = per_degree.get(total, (0, 0))
        per_degree[total] = (f0 + free, t0 + tors)

    for total, s, mu in result.totals():
        if mu == (0,) * result.v_max:
            st = block_structure(result, s, mu)
            if st.free_rank or st.torsion_rank:
                add(total, st.free_rank, st.torsion_rank)
                details.setdefault(total, []).extend(
                    ["free: %s" % rep for rep in st.free_reps]
                    + ["Z/%d: %s" % (p, rep) for rep in st.torsion_reps])
            continue
        if max(mu) > 1 or mu[-1]:
            continue  # some Kbar(mu / v_j) is Kbar(mu) itself (keys)
        k_bar, denom = result.block(s, mu)
        for j in compress(range(result.v_max), mu):
            denom = denom + result.block(s, mu[:j] + (0,) + mu[j + 1:])[0]
        t = len(k_bar) - len(denom)
        if t:
            add(total, 0, t)
            details.setdefault(total, []).extend(
                "Z/%d: %s (v-part %s)" % (p, rep, v_label(mu))
                for rep in _new_reps(chart, chart.integral_slice(s), k_bar, denom))
    return CollapseReport(per_degree, details)


def _new_reps(chart: Chart, sl, vectors: FpSubspace, span: FpSubspace) -> List[str]:
    """Labels of the rows of vectors that are new modulo span, in order."""
    span = span.copy()
    return [chart.class_label(sl.degree, _lift(chart, sl, FpSubspace.unpack(chart.p, vec, sl.rank)))
            for vec in vectors if span.insert(vec)]


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
    coords = FpSubspace.solve(p, sl.free + sl.torsion,
                              FpSubspace.unit(p, chart.position(mono)), chart.dim(s))
    if coords is None:
        raise AhssError("class in %r is not an integral class of the chart" % expression)
    vec = [coeff * c for c in FpSubspace.unpack(p, coords, sl.rank)]
    packed = FpSubspace.pack(p, vec)
    w_bar = result.block(s, mu)[1]
    sigma = tuple(map(bool, mu))
    for stage in range(1, result.v_max + 1):
        if not result.k(stage, s, sigma).contains(packed):
            reason = "fails to be a cycle under d = v_%d Q_%d" % (stage, stage)
            return CycleVerdict(expression, False, reason, s, mu, stage)
    nfree = len(sl.free)
    if any(vec[:nfree]):
        return CycleVerdict(expression, True, "survives with nonzero free component", s, mu)
    if w_bar.contains(packed):
        reason = "dies on the final page (boundary)"
        return CycleVerdict(expression, False, reason, s, mu, result.v_max)
    return CycleVerdict(expression, True, "survives all differentials with nonzero image", s, mu)
