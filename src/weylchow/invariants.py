"""Per-degree invariant rings of finite group actions.

The invariant subspace in each degree is the simultaneous kernel of
(g - id) over a generating set; the invariants of the generated group
coincide with those of its generators.  Over Z the result is a saturated
lattice, so Z_(p)-invariants are the Z-invariants localized.

Two computation paths:
  * plain: stack the (g - id) matrices on the degree slice and take an
    exact kernel;
  * signed-orbit: restrict first to the invariants of the subgroup of
    signed-permutation elements (computed combinatorially as signed orbit
    sums, valid in any characteristic), then impose the remaining
    generators by linear algebra on that much smaller space.  This is what
    makes the rank-4 Weyl computations feasible in high degrees.

Each (matrix, domain) pair acts through one slice object cached on the
GroupAction.  It holds the monomial images of the current degree only and
builds the next degree's from them, one linear form times one image per
monomial, in integers (the matrix times its denominator) or mod p.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .groups import GroupAction, MatrixRows
from .linalg import SubmoduleBasis
from .poly import (AlgebraSignature, Domain, Monomial, Polynomial, compositions, degree_slice,
                   power_products)


class InvariantError(Exception):
    pass


# ---------------------------------------------------------------------------
# Slice action of one matrix
# ---------------------------------------------------------------------------


class _SliceAction:
    """One matrix acting on the monomials of one exponent sum k at a time.

    The generators share one degree, so the slice of exponent sum k is
    `compositions((1,) * n, k)`, the order of `degree_slice`.  The images of
    its monomials are CSR arrays: image(monos[j]) is the sum of
    coef[e] * monos[idx[e]] over starts[j] <= e < starts[j + 1].  They are
    images under the integer matrix den * M, so the true image is that over
    den^k; over F_p the matrix is reduced mod p and den is 1.  Moving from k
    to k + 1 builds image(x_i * m) = L_i * image(m), i the first variable of
    x_i * m and L_i the image of x_i; moving down starts again at k = 0.
    """

    __slots__ = ("domain", "p", "den", "cols", "k", "monos", "starts", "idx", "coef")

    def __init__(self, matrix: MatrixRows, domain: Domain):
        self.domain = domain
        self.p = domain.p if domain.kind == "fp" else 0
        # coerce raises, as for any coefficient, on an entry outside the domain
        entries = [[domain.coerce(x) for x in row] for row in matrix]
        self.den = 1 if self.p else math.lcm(*(x.denominator for row in entries for x in row))
        self.cols = [[(r, int(row[i] * self.den)) for r, row in enumerate(entries) if row[i]]
                     for i in range(len(matrix))]
        self._reset()

    def _reset(self):
        self.k = 0
        self.monos = [(0,) * len(self.cols)]
        self.starts = array("I", [0, 1])
        self.idx = array("H", [0])
        self.coef = array("b", [1]) if self.p else [1]

    def move_to(self, k: int):
        if k < self.k:
            self._reset()
        while self.k < k:
            self._step()

    def _step(self):
        n, p = len(self.cols), self.p
        starts, idx, coef = self.starts, self.idx, self.coef
        monos = compositions((1,) * n, self.k + 1)
        index = {m: j for j, m in enumerate(monos)}
        up = [[index[m[:r] + (m[r] + 1,) + m[r + 1:]] for m in self.monos] for r in range(n)]
        parent = [(0, 0)] * len(monos)
        for r in reversed(range(n)):  # the first variable's entry is written last
            for t, j in enumerate(up[r]):
                parent[j] = (r, t)
        new_starts = array("I", [0])
        new_idx = array("H" if len(monos) <= 1 << 16 else "I")
        new_coef = array("b") if p else []
        acc = [0] * len(monos)
        for i, t in parent:
            seg_idx = idx[starts[t]:starts[t + 1]]
            seg = tuple(zip(seg_idx, coef[starts[t]:starts[t + 1]]))
            touched = set()
            for r, a in self.cols[i]:
                up_r = up[r]
                for u, c in seg:
                    acc[up_r[u]] += a * c
                touched.update(map(up_r.__getitem__, seg_idx))
            for v in touched:
                c = acc[v] % p if p else acc[v]
                acc[v] = 0
                if c:
                    new_idx.append(v)
                    new_coef.append(c)
            new_starts.append(len(new_idx))
        self.k += 1
        self.monos, self.starts, self.idx, self.coef = monos, new_starts, new_idx, new_coef

    def apply(self, vec: Sequence) -> List:
        """Image of a vector of domain values on the current slice."""
        den = 1 if self.p else math.lcm(*(c.denominator for c in vec))
        starts, idx, coef = self.starts, self.idx, self.coef
        out = [0] * len(self.monos)
        for j, c in enumerate(vec):
            if c:
                c = c.numerator * (den // c.denominator)
                for u, a in zip(idx[starts[j]:starts[j + 1]], coef[starts[j]:starts[j + 1]]):
                    out[u] += c * a
        if self.p:
            return [x % self.p for x in out]
        scale = den * self.den ** self.k
        return [self.domain.coerce(x if scale == 1 else Fraction(x, scale)) for x in out]


def _slice_action(action: GroupAction, matrix: MatrixRows, domain: Domain,
                  degree: int) -> _SliceAction:
    """The action's slice object for (matrix, domain), moved to the degree."""
    sa = action._slices.get((matrix, domain))
    if sa is None:
        sa = action._slices[matrix, domain] = _SliceAction(matrix, domain)
    sa.move_to(degree // action.gen_degree)
    return sa


def action_matrix(
    action: GroupAction,
    matrix: MatrixRows,
    degree: int,
    domain: Domain,
    slice_monos: Optional[List[Monomial]] = None,
) -> List[List]:
    """Matrix of one group element on the degree slice (columns = images).

    slice_monos, when given, must be the slice in `degree_slice` order.
    """
    sig = action.signature(domain)
    monos = degree_slice(sig, degree) if slice_monos is None else list(slice_monos)
    if not monos:
        return []
    sa = _slice_action(action, matrix, domain, degree)
    if monos != sa.monos:
        raise InvariantError("slice monomials are not the degree-%d slice" % degree)
    cols = [sa.apply([int(i == j) for i in range(len(monos))]) for j in range(len(monos))]
    return [list(row) for row in zip(*cols)]


# ---------------------------------------------------------------------------
# Signed permutation machinery
# ---------------------------------------------------------------------------


def signed_permutation(matrix: MatrixRows) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Decompose a matrix as x_j -> sign_j * x_{perm_j}, if possible."""
    n = len(matrix)
    perm = []
    signs = []
    for j in range(n):
        hits = [(i, matrix[i][j]) for i in range(n) if matrix[i][j] != 0]
        if len(hits) != 1 or abs(hits[0][1]) != 1:
            return None
        perm.append(hits[0][0])
        signs.append(1 if hits[0][1] > 0 else -1)
    if sorted(perm) != list(range(n)):
        return None
    return tuple(perm), tuple(signs)


def _signed_orbit_sums(monos, group, domain: Domain):
    """Invariant basis of a signed-permutation group acting on a slice.

    Each monomial orbit contributes its signed orbit sum when the signs are
    consistent along the orbit, and nothing otherwise; this holds in every
    characteristic.
    """
    index = {m: i for i, m in enumerate(monos)}
    visited = [False] * len(monos)
    basis = []
    p = domain.p if domain.kind == "fp" else 0
    for start, mono in enumerate(monos):
        if visited[start]:
            continue
        coeffs: Dict[int, int] = {}
        consistent = True
        for perm, signs in group:
            sign = 1
            img = [0] * len(mono)
            for j, e in enumerate(mono):
                if e:
                    img[perm[j]] = e
                    if signs[j] < 0 and e % 2:
                        sign = -sign
            key = index[tuple(img)]
            prev = coeffs.get(key)
            if prev is None:
                coeffs[key] = sign
            elif prev != sign and not (p and (prev - sign) % p == 0):
                consistent = False
        for key in coeffs:
            visited[key] = True
        if consistent:
            vec = [domain.coerce(0)] * len(monos)
            for key, sign in coeffs.items():
                vec[key] = domain.coerce(sign)
            basis.append(vec)
    return basis


def _signed_subgroup(action: GroupAction):
    """All signed-permutation elements of the group, with general coset gens.

    Returns (signed_elements, general_generators).  The signed elements of a
    finite matrix group form a subgroup; together with the non-signed
    generators of the action they generate the whole group.
    """
    general = [m for m in action.matrices if signed_permutation(m) is None]
    signed = set(map(signed_permutation, action.elements())) - {None}
    return sorted(signed), general


# ---------------------------------------------------------------------------
# Invariant bases
# ---------------------------------------------------------------------------

_ORBIT_PATH_THRESHOLD = 150


def invariant_basis(
    action: GroupAction, degree: int, domain: Domain, verify: bool = True
) -> SubmoduleBasis:
    """Exact basis of the degree-n invariants of the action over the domain."""
    sig = action.signature(domain)
    monos = degree_slice(sig, degree)
    if not monos:
        return SubmoduleBasis(domain, [], [])
    if degree == 0:
        return SubmoduleBasis(domain, monos, [[domain.coerce(1)]])
    all_signed = all(signed_permutation(m) is not None for m in action.matrices)
    if all_signed or len(monos) >= _ORBIT_PATH_THRESHOLD:
        signed_elements, gens = _signed_subgroup(action)
        candidates = _signed_orbit_sums(monos, signed_elements, domain)
    else:
        gens, units = action.matrices, (domain.coerce(0), domain.coerce(1))
        candidates = [[units[i == j] for i in range(len(monos))] for j in range(len(monos))]
    vectors = _restrict_by_generators(action, gens, degree, domain, monos, candidates)
    if domain.kind in ("int", "plocal"):
        vectors = linalg.hnf_basis([[int(x) for x in v] for v in vectors])
    basis = SubmoduleBasis(domain, monos, vectors)
    if verify:
        _verify_invariance(action, basis, degree, domain)
    return basis


def _restrict_by_generators(action, gens, degree, domain, monos, candidates):
    """Kernel of (g - 1) over the listed generators, inside the candidate span."""
    if not candidates or not gens:
        return candidates
    rows: List[List] = []
    for g in gens:
        sa = _slice_action(action, g, domain, degree)
        diff_cols = []
        for vec in candidates:
            moved = sa.apply(vec)
            diff_cols.append([a - b for a, b in zip(moved, vec)])
        for i in range(len(monos)):
            rows.append([diff_cols[j][i] for j in range(len(candidates))])
    coeff_vecs = _kernel_over(rows, len(candidates), domain)
    out = []
    for cv in coeff_vecs:
        vec = [domain.coerce(0)] * len(monos)
        for c, cand in zip(cv, candidates):
            if c != 0:
                for i, x in enumerate(cand):
                    if x != 0:
                        vec[i] = domain.add(vec[i], domain.mul(c, x))
        out.append(vec)
    return out


def _kernel_over(rows, ncols, domain: Domain):
    if domain.kind == "fp":
        int_rows = [[int(x) % domain.p for x in row] for row in rows]
        return linalg.kernel_fp(int_rows, ncols, domain.p)
    if domain.kind == "rat":
        return linalg.kernel_q(rows, ncols)
    return linalg.kernel_z(linalg._integerize_rows(rows), ncols)


def _verify_invariance(action, basis: SubmoduleBasis, degree: int, domain: Domain):
    for g in action.matrices:
        sa = _slice_action(action, g, domain, degree)
        for vec in basis.vectors:
            moved = sa.apply([domain.coerce(x) for x in vec])
            if any(a != domain.coerce(b) for a, b in zip(moved, vec)):
                raise InvariantError("computed vector is not invariant in degree %d" % degree)


def basis_polynomials(basis: SubmoduleBasis, sig: AlgebraSignature) -> List[Polynomial]:
    return [
        Polynomial(sig, {m: c for m, c in zip(basis.ambient, vec) if c != 0})
        for vec in basis.vectors
    ]


@dataclass
class InvariantReport:
    action_name: str
    domain: Domain
    by_degree: Dict[int, SubmoduleBasis]

    def rank(self, degree: int) -> int:
        basis = self.by_degree.get(degree)
        return basis.rank if basis else 0

    def ranks(self) -> Dict[int, int]:
        return {d: b.rank for d, b in sorted(self.by_degree.items())}


def invariant_report(
    action: GroupAction, max_degree: int, domain: Domain, verify: bool = True
) -> InvariantReport:
    """Invariant bases for all degrees up to max_degree.

    Degrees that cannot carry monomials (odd degrees over degree-2
    generators) are skipped.
    """
    stride = 2 if action.gen_degree == 2 else 1
    out: Dict[int, SubmoduleBasis] = {}
    for d in range(0, max_degree + 1, stride):
        out[d] = invariant_basis(action, d, domain, verify=verify)
    return InvariantReport(action.name, domain, out)


def poincare_series(action: GroupAction, max_degree: int, domain: Domain) -> Dict[int, int]:
    return invariant_report(action, max_degree, domain).ranks()


# ---------------------------------------------------------------------------
# Subring membership and algebra generators
# ---------------------------------------------------------------------------


def subring_membership(
    f: Polynomial, generators: Sequence[Polynomial]
) -> Tuple[bool, Optional[Dict[Tuple[int, ...], object]]]:
    """Decide whether f is a polynomial in the given homogeneous generators.

    Returns (inside, combination); combination maps generator-exponent
    tuples to coefficients.  Decided by a linear solve over all generator
    monomials of matching degree.
    """
    if not f.is_homogeneous():
        raise InvariantError("f must be homogeneous")
    for g in generators:
        if not g.is_homogeneous() or g.is_zero():
            raise InvariantError("generators must be homogeneous and nonzero")
    sig = f.sig
    domain = sig.domain
    if f.is_zero():
        return True, {}
    deg = f.degree()
    gen_degrees = [g.degree() for g in generators]
    tuples = compositions(gen_degrees, deg)
    if not tuples:
        return False, None
    products = power_products(generators, [(Polynomial.one(sig), t) for t in tuples])
    support = sorted(set().union(*[set(p.terms) for p in products], set(f.terms)))
    cols = [[poly.terms.get(m, domain.coerce(0)) for m in support] for poly in products]
    target = [f.terms.get(m, domain.coerce(0)) for m in support]
    if domain.kind == "fp":
        sol = linalg.solve_fp(
            [[int(x) for x in c] for c in cols], [int(x) for x in target], domain.p
        )
    else:
        sol = linalg.solve_q(cols, target)
        if sol is not None and domain.kind != "rat" and linalg.local_scale_power(sol, domain.p) != 0:
            sol = None
    if sol is None:
        return False, None
    return True, {t: c for t, c in zip(tuples, sol) if c != 0}


def algebra_generators(
    action: GroupAction, max_degree: int, domain: Domain
) -> List[Tuple[int, Polynomial]]:
    """Minimal generating set of the invariant ring up to max_degree.

    Walks degrees upward.  In each degree the decomposables (products of
    already-found generators) are expressed in the invariant basis; over Z
    or Z_(p) the quotient lattice is analyzed by Smith reduction, so new
    generators are primitive complements and p-divisibility cannot poison
    later degrees.  A torsion quotient means no generator choice makes the
    ring free over the found ones, and raises.
    """
    sig = action.signature(domain)
    gens: List[Tuple[int, Polynomial]] = []
    stride = 2 if action.gen_degree == 2 else 1
    for d in range(stride, max_degree + 1, stride):
        inv = invariant_basis(action, d, domain)
        if inv.rank == 0:
            continue
        monos = inv.ambient
        index = {m: i for i, m in enumerate(monos)}
        gen_degrees = [dd for dd, _ in gens]
        span_vectors: List[List] = []
        decomposables = [(Polynomial.one(sig), t) for t in compositions(gen_degrees, d) if sum(t)]
        for poly in power_products([g for _, g in gens], decomposables):
            vec = [domain.coerce(0)] * len(monos)
            for m, c in poly.terms.items():
                vec[index[m]] = c
            span_vectors.append(vec)
        if domain.kind in ("int", "plocal"):
            new_vecs = _lattice_complement(inv, span_vectors, domain)
        else:
            new_vecs = []
            current = [list(v) for v in span_vectors]
            for vec in inv.vectors:
                if not _in_span(current, vec, domain):
                    new_vecs.append(list(vec))
                    current.append(list(vec))
        for vec in new_vecs:
            poly = Polynomial(sig, {m: c for m, c in zip(monos, vec) if c != 0})
            gens.append((d, poly))
    return gens


def _lattice_complement(inv: SubmoduleBasis, span_vectors, domain: Domain):
    """Primitive new generators completing the decomposable span.

    Works in coordinates over the invariant lattice basis: Smith-reduce the
    decomposable columns; unit divisors are covered directions, zero rows
    give the free complement, and a divisor that is not a unit (over Z_(p):
    one divisible by p) would mean the quotient has torsion (no valid
    generator choice), which raises.
    """
    n = inv.rank
    coord_cols = []
    for vec in span_vectors:
        coords = linalg.solve_q(inv.vectors, [int(x) for x in vec])
        if coords is None or linalg.local_scale_power(coords, domain.p) != 0:
            raise InvariantError("decomposable outside the invariant lattice")
        # Clearing unit denominators scales the column by a unit: same span.
        den = math.lcm(*(c.denominator for c in coords))
        coord_cols.append([int(c * den) for c in coords])
    if not coord_cols:
        rows = [[0] for _ in range(n)]
    else:
        rows = [[col[i] for col in coord_cols] for i in range(n)]
    divisors, u_cols = linalg.snf_with_basis(rows)
    for dv in divisors:
        if linalg.local_scale_power([Fraction(1, dv)], domain.p) != 0:  # dv is not a unit
            raise InvariantError(
                "decomposable span has torsion quotient (divisor %d)" % dv
            )
    new_vecs = []
    for j in range(len(divisors), n):
        combo = [0] * len(inv.vectors[0])
        for i, c in enumerate(u_cols[j]):
            if c:
                for idx in range(len(combo)):
                    combo[idx] += c * int(inv.vectors[i][idx])
        new_vecs.append(combo)
    return new_vecs


def _in_span(span_vectors, vec, domain: Domain) -> bool:
    if not span_vectors:
        return linalg.is_zero_vec(vec)
    if domain.kind == "fp":
        sol = linalg.solve_fp(
            [[int(x) for x in c] for c in span_vectors], [int(x) for x in vec], domain.p
        )
        return sol is not None
    sol = linalg.solve_q(span_vectors, vec)
    return sol is not None and (
        domain.kind == "rat" or linalg.local_scale_power(sol, domain.p) == 0
    )
