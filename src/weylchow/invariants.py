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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .groups import GroupAction, GroupError, MatrixRows
from .linalg import SubmoduleBasis
from .poly import (AlgebraSignature, Domain, Monomial, Polynomial, compositions, degree_slice,
                   power_products)


class InvariantError(Exception):
    pass


# ---------------------------------------------------------------------------
# Slice action of one matrix
# ---------------------------------------------------------------------------


def _raw_gen_images(action: GroupAction, matrix: MatrixRows, domain: Domain):
    """Generator images as raw {exponent-tuple: coefficient} dicts.

    Raw dicts carry plain commutative multiplication, so this path requires
    no exterior generators and no Koszul signs (even degrees, or char 2).
    """
    n = len(action.gen_names)
    images = []
    for j in range(n):
        img: Dict[Monomial, object] = {}
        for i in range(n):
            c = matrix[i][j]
            if c != 0:
                mono = [0] * n
                mono[i] = 1
                img[tuple(mono)] = domain.coerce(c)
        images.append(img)
    return images


def _raw_mul(a, b, domain: Domain):
    out: Dict[Monomial, object] = {}
    if domain.kind == "fp":
        p = domain.p
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                mono = tuple(x + y for x, y in zip(m1, m2))
                out[mono] = (out.get(mono, 0) + c1 * c2) % p
        return {m: c for m, c in out.items() if c}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            s = out.get(mono, 0) + c1 * c2
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
    return out


class _SliceAction:
    """Applies one group element to vectors on a fixed degree slice."""

    def __init__(self, action: GroupAction, matrix: MatrixRows, degree: int, domain: Domain,
                 monos: List[Monomial]):
        self.action = action
        self.domain = domain
        self.monos = monos
        self.index = {m: i for i, m in enumerate(monos)}
        self.images = _raw_gen_images(action, matrix, domain)
        self._power_cache: Dict[Tuple[int, int], Dict] = {}
        self._mono_cache: Dict[Monomial, Dict] = {}

    def _power(self, i: int, e: int):
        key = (i, e)
        cached = self._power_cache.get(key)
        if cached is None:
            if e == 1:
                cached = self.images[i]
            else:
                half = self._power(i, e // 2)
                cached = _raw_mul(half, half, self.domain)
                if e % 2:
                    cached = _raw_mul(cached, self.images[i], self.domain)
            self._power_cache[key] = cached
        return cached

    def mono_image(self, mono: Monomial):
        cached = self._mono_cache.get(mono)
        if cached is None:
            cached = {(0,) * len(mono): self.domain.coerce(1)}
            for i, e in enumerate(mono):
                if e:
                    cached = _raw_mul(cached, self._power(i, e), self.domain)
            self._mono_cache[mono] = cached
        return cached

    def apply(self, vec):
        dom = self.domain
        out = [dom.coerce(0)] * len(self.monos)
        for j, c in enumerate(vec):
            if c == 0:
                continue
            for mono, a in self.mono_image(self.monos[j]).items():
                i = self.index[mono]
                out[i] = dom.add(out[i], dom.mul(c, a))
        return out


def action_matrix(
    action: GroupAction,
    matrix: MatrixRows,
    degree: int,
    domain: Domain,
    slice_monos: Optional[List[Monomial]] = None,
) -> List[List]:
    """Matrix of one group element on the degree slice (columns = images)."""
    sig = action.signature(domain)
    monos = slice_monos if slice_monos is not None else degree_slice(sig, degree)
    sa = _SliceAction(action, matrix, degree, domain, monos)
    cols = []
    for j, mono in enumerate(monos):
        img = sa.mono_image(mono)
        col = [domain.coerce(0)] * len(monos)
        for m, c in img.items():
            col[sa.index[m]] = c
        cols.append(col)
    return [[cols[j][i] for j in range(len(monos))] for i in range(len(monos))]


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
    if not general:
        n = len(action.gen_names)
        gens = [signed_permutation(m) for m in action.matrices]
        return _close_signed(gens, n, action.element_bound), []
    signed = []
    for m in action.elements():
        sp = signed_permutation(m)
        if sp is not None:
            signed.append(sp)
    return sorted(set(signed)), general


def _close_signed(gens, n, bound):
    ident = (tuple(range(n)), (1,) * n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for perm, signs in frontier:
            for gperm, gsigns in gens:
                nperm = tuple(gperm[perm[j]] for j in range(n))
                nsigns = tuple(signs[j] * gsigns[perm[j]] for j in range(n))
                cand = (nperm, nsigns)
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
                    if len(seen) > bound:
                        raise GroupError("signed subgroup closure exceeds bound")
        frontier = nxt
    return sorted(seen)


# ---------------------------------------------------------------------------
# Invariant bases
# ---------------------------------------------------------------------------

_ORBIT_PATH_THRESHOLD = 150


def _raw_path_ok(action: GroupAction, domain: Domain) -> bool:
    sig = action.signature(domain)
    if any(g.exterior for g in sig.generators):
        return False
    return domain.characteristic == 2 or all(g.degree % 2 == 0 for g in sig.generators)


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
    if not _raw_path_ok(action, domain):
        raise InvariantError("action/domain combination outside supported slice arithmetic")

    all_signed = all(signed_permutation(m) is not None for m in action.matrices)
    use_orbit = all_signed or len(monos) >= _ORBIT_PATH_THRESHOLD
    if use_orbit:
        signed_elements, general = _signed_subgroup(action)
        candidates = _signed_orbit_sums(monos, signed_elements, domain)
        if not general:
            vectors = candidates
        else:
            vectors = _restrict_by_generators(action, general, degree, domain, monos, candidates)
    else:
        rows: List[List] = []
        for m in action.matrices:
            am = action_matrix(action, m, degree, domain, monos)
            for i in range(len(monos)):
                row = list(am[i])
                row[i] = row[i] - 1
                rows.append(row)
        vectors = _kernel_over(rows, len(monos), domain)
    if domain.kind in ("int", "plocal"):
        vectors = linalg.hnf_basis([[int(x) for x in v] for v in vectors])
    basis = SubmoduleBasis(domain, monos, vectors)
    if verify:
        _verify_invariance(action, basis, degree, domain)
    return basis


def _restrict_by_generators(action, gens, degree, domain, monos, candidates):
    """Kernel of (g - 1) over the listed generators, inside the candidate span."""
    if not candidates:
        return []
    rows: List[List] = []
    for g in gens:
        sa = _SliceAction(action, g, degree, domain, monos)
        diff_cols = []
        for vec in candidates:
            moved = sa.apply(vec)
            diff_cols.append([a - b for a, b in zip(moved, vec)])
        for i in range(len(monos)):
            rows.append([diff_cols[j][i] for j in range(len(candidates))])
    coeff_vecs = _kernel_over(rows, len(candidates), domain)
    out = []
    for cv in coeff_vecs:
        vec = [domain.coerce(0) for _ in monos]
        for j, c in enumerate(cv):
            if c != 0:
                for i in range(len(monos)):
                    vec[i] = domain.add(vec[i], domain.mul(c, candidates[j][i]))
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
        sa = _SliceAction(action, g, degree, domain, basis.ambient)
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
