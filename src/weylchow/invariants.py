"""Per-degree invariant rings of finite group actions.

The invariants in each degree are the vectors that every generator fixes.
Over Q, Z and Z_(p) the answer is one lattice, Z^n cap ker_Q of the
defects, saturated, and its Hermite basis is the basis returned over all
three: the Z_(p)-invariants are the Z-invariants localized, and the
Q-invariants their span.  They are sought in the span of the signed orbit
sums of H, the subgroup of signed permutations, whose generators
`GroupAction.stabilizer` reads off one walk over the cosets of H without
closing the group; the sums are valid in any characteristic, and with
H = {1} they are the unit vectors of the degree slice.  The generators that
are not signed permutations act through the integer defects (den M - den^k)
v of the candidates, each found once per generator: in characteristic 0
stacked into one saturated kernel (`linalg.kernel_z`), over F_p imposed one
generator at a time, as `FpSubspace.preimage`s of the packed defects.  Values
become domain elements only in the returned basis.

A signed permutation sends each monomial to one signed monomial and acts
through one index table per exponent sum (_signed_table), read off the
table of the level below: the orbit sums walk the tables of H's generators,
and `_verify_invariance` reads each signed generator of the action through
its own.  Every other (matrix, domain) pair acts through one slice object
cached on the GroupAction.  It computes image(m) = L_i * image(m / x_i),
with i the first variable of m and L_i the image of x_i, in integers (den M,
_SliceAction, over Q, Z and Z_(p)) or mod p, only when the support of a
vector it is applied to needs it: the support of the orbit sums and their
parents, and in a degree without candidates nothing.  The slice and its
parent tables come from one `_level` table per action, which the basis, the
signed tables and every slice object share; images are read only through
defects, never back as a matrix.

Over F_p a homogeneous polynomial is one packed vector (the FpSubspace
layout: a bit per coordinate at p = 2, a byte at odd p) on the exponent
grid: x^e at position sum_{r<n-1} e_r B^r (grid_positions; Kronecker
substitution), the last exponent fixed by the degree.  A product of
monomials sits at the sum of their positions, so a product by a polynomial
is one FpSubspace.combine of shifted copies.  The grid serves the images of
a matrix (_GridAction: x_r shifts by B^r, x_{n-1} by 0, so an image is n
shifts of its parent's and one fold), the generator monomials of
subring_membership and the product of linear forms of dickson.build_dickson.
- The base: B above every exponent, or two monomials would share a
  position: D + 1 in degree D, 2^h + 1 for the Dickson product.  A slice
  object fixes B > k from the top level its caller will read
  (`invariant_report` passes its max_degree, and `algebra_generators`
  reads the report's bases); a level at or above B makes the object again.
- The headroom: a byte holds at most 255, so the products of at most
  (p - 1)^2 are folded once per `linalg._ROOM[p]` of them: more than once
  per image at p >= 11 with n = 4 (4 * 10^2 > 255).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import linalg
from .groups import GroupAction, MatrixRows, SignedPermutation
from .linalg import FpSubspace, SubmoduleBasis
from .poly import AlgebraSignature, Domain, Monomial, Polynomial, compositions, power_products


class InvariantError(Exception):
    pass


# ---------------------------------------------------------------------------
# Slice action of one matrix
# ---------------------------------------------------------------------------


def grid_positions(monos: Sequence[Sequence[int]], base: int) -> List[int]:
    """The position of each x^m of monos on the exponent grid of the base
    (module docstring): sum_{r<n-1} m_r base^r."""
    powers = [base ** r for r in range(len(monos[0]) - 1)] if monos else []
    return [sum(map(mul, m, powers)) for m in monos]


def grid_monomials(positions: Iterable[int], base: int, n: int, total: int) -> List[Monomial]:
    """grid_positions' inverse on the monomials in n variables of exponent sum total."""
    out = []
    for pos in positions:
        mono = [pos // base ** r % base for r in range(n - 1)]
        out.append((*mono, total - sum(mono)))
    return out


def _level(levels: Dict, n: int, k: int):
    """(monos, up, down) of exponent sum k, kept in levels (the action's
    `_monomials`): monos in `degree_slice` order, up[r][t] the index of x_r
    times monomial t of exponent sum k - 1, and down[j] = (i, t) when
    monomial j is x_i times monomial t of exponent sum k - 1, with i its
    first variable."""
    if k not in levels:
        monos = compositions((1,) * n, k)
        index = {m: j for j, m in enumerate(monos)}
        below = _level(levels, n, k - 1)[0] if k else []
        up = [[index[m[:r] + (m[r] + 1,) + m[r + 1:]] for m in below] for r in range(n)]
        down = [None] * len(monos)
        for r in reversed(range(n)):
            for t, j in enumerate(up[r]):
                down[j] = (r, t)
        levels[k] = (monos, up, down)
    return levels[k]


class _SliceAction:
    """One matrix over Q, Z or Z_(p) acting on monomials, each image computed
    when first read.

    image(k, j) is the image of monomial j of exponent sum k under the
    integer matrix den * M, as (indices, coefficients); the true image is
    that over den^k, and defect returns a list of width(k) integers, over
    the monomials of the slice.  _GridAction, its subclass, serves the
    matrices over F_p; signed permutations act through _signed_table.
    """

    __slots__ = ("levels", "p", "den", "cols", "memo")
    base = math.inf  # every level fits: _slice_action never starts it again

    def __init__(self, levels: Dict, matrix: MatrixRows, domain: Domain):
        self.levels, self.p = levels, domain.characteristic
        # coerce raises, as for any coefficient, on an entry outside the domain
        entries = [[domain.coerce(x) for x in row] for row in matrix]
        self.den = 1 if self.p else math.lcm(*(x.denominator for row in entries for x in row))
        self.cols = [[(r, int(row[i] * self.den)) for r, row in enumerate(entries) if row[i]]
                     for i in range(len(matrix))]
        self.memo: Dict[int, Dict[int, object]] = {}  # exponent sum -> {index: image}

    def keep(self, k: int):
        """Keep the levels a degree-k recursion reads: parents at k - 1 and,
        through them, the orbit-sum support of k - 2."""
        for level in [lv for lv in self.memo if not k - 2 <= lv <= k]:
            del self.memo[level]

    def image(self, k: int, j: int):
        images = self.memo.setdefault(k, {})
        if j in images or k == 0:
            return images.get(j, ((0,), (1,)))
        monos, up, down = _level(self.levels, len(self.cols), k)
        i, t = down[j]
        seg = tuple(zip(*self.image(k - 1, t)))
        acc: Dict[int, int] = {}
        for r, a in self.cols[i]:
            up_r = up[r]
            for u, c in seg:
                v = up_r[u]
                acc[v] = acc.get(v, 0) + a * c
        idx = array("H" if len(monos) <= 1 << 16 else "I", [v for v, c in acc.items() if c])
        images[j] = (idx, [c for c in acc.values() if c])
        return images[j]

    def width(self, k: int) -> int:
        return len(_level(self.levels, len(self.cols), k)[0])

    def defect(self, k: int, vec: Dict[int, int]) -> List[int]:
        """(den M - den^k) vec, for an integer vector given as {monomial index:
        value}: zero exactly when M fixes the vector."""
        out = [0] * self.width(k)
        scale = self.den ** k
        for j, c in vec.items():
            out[j] -= scale * c
            idx, coef = self.image(k, j)
            for u, a in zip(idx, coef):
                out[u] += c * a
        return out


class _GridAction(_SliceAction):
    """A matrix over F_p, each image one packed vector on the exponent grid
    of the module docstring: x^e at position sum_{r<n-1} e_r base^r, for
    levels below base only (_positions refuses the others).  image(m) is one
    FpSubspace.combine of the parent image moved up base^r positions for
    each x_r of column i (x_{n-1} moves nothing), and defect(k, vec) a
    packed vector of width(k) grid positions.
    """

    __slots__ = ("base", "pos")

    def __init__(self, levels: Dict, matrix: MatrixRows, domain: Domain, top: int):
        super().__init__(levels, matrix, domain)
        n, self.base = len(matrix), top + 1
        shifts = grid_positions([(0,) * r + (1,) + (0,) * (n - 1 - r) for r in range(n)], self.base)
        self.cols = [[(a, shifts[r]) for r, a in col] for col in self.cols]
        self.pos: Dict[int, List[int]] = {}  # exponent sum -> position by monomial index

    def _positions(self, k: int) -> List[int]:
        if k >= self.base:
            raise InvariantError("level %d does not fit a grid of base %d" % (k, self.base))
        if k not in self.pos:
            self.pos[k] = grid_positions(_level(self.levels, len(self.cols), k)[0], self.base)
        return self.pos[k]

    def image(self, k: int, j: int) -> int:
        images = self.memo.setdefault(k, {})
        if j in images or k == 0:
            return images.get(j, 1)
        i, t = _level(self.levels, len(self.cols), k)[2][j]
        parent = self.image(k - 1, t)
        images[j] = FpSubspace.combine(self.p, [(a, parent, s) for a, s in self.cols[i]])
        return images[j]

    def width(self, k: int) -> int:
        return max(self._positions(k)) + 1

    def defect(self, k: int, vec: Dict[int, int]) -> int:
        p, pos = self.p, self._positions(k)
        return FpSubspace.combine(p, [term for j, c in vec.items() for term in (
            (c % p, self.image(k, j), 0), (-c % p, 1, pos[j]))])


def _slice_action(action: GroupAction, matrix: MatrixRows, domain: Domain, k: int,
                  top: Optional[int] = None):
    """The action's slice object for (matrix, domain), kept for level k.  A
    grid whose base is at most k is made again, with base top + 1 (top, the
    highest level the caller will read, defaults to k)."""
    sa = action._slices.get((matrix, domain))
    if sa is None or sa.base <= k:
        top = k if top is None else max(k, top)
        sa = (_GridAction(action._monomials, matrix, domain, top) if domain.characteristic
              else _SliceAction(action._monomials, matrix, domain))
        action._slices[matrix, domain] = sa
    sa.keep(k)
    return sa


# ---------------------------------------------------------------------------
# Signed permutation machinery
# ---------------------------------------------------------------------------


def signed_permutation(matrix: MatrixRows) -> Optional[SignedPermutation]:
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


def _signed_table(action: GroupAction, sp: SignedPermutation,
                  k: int) -> Tuple[List[int], List[bool]]:
    """(images, flips) of sp = (perm, signs) on exponent sum k: monomial j
    goes to monomial images[j], times -1 when flips[j].  If down[j] = (i, t)
    (_level), x_i m_t goes to signs[i] x_perm[i] sp(m_t), so images[j] =
    up[perm[i]][images'[t]] and flips[j] = flips'[t] ^ (signs[i] < 0) from
    level k - 1, the highest kept level below k or, cold, level 0 upward.
    Kept on the action by sp, for levels k - 1 and k."""
    tables = action._slices.setdefault(sp, {})
    if k not in tables:
        perm, negated = sp[0], [s < 0 for s in sp[1]]
        level = max((lv for lv in tables if lv < k), default=0)
        images, flips = tables.setdefault(level, ([0], [False]))
        while level < k:
            level += 1
            up, down = _level(action._monomials, len(perm), level)[1:]
            tables[level] = images, flips = ([up[perm[i]][images[t]] for i, t in down],
                                             [flips[t] ^ negated[i] for i, t in down])
    for level in [lv for lv in tables if not k - 1 <= lv <= k]:
        del tables[level]
    return tables[k]


def _signed_orbit_sums(action: GroupAction, k: int, p: int) -> List[Dict[int, int]]:
    """Invariant basis of the signed-permutation subgroup H on the monomials
    of exponent sum k.

    Each monomial orbit, walked from its first monomial by the generators
    of H (the action's stabilizer()) through their tables (_signed_table),
    contributes its signed orbit sum, as {monomial index: sign}: a
    monomial's sign is the product of the step signs on the walk's path to
    it.  A step that gives a monomial two signs drops the orbit (some
    element of H fixes a monomial up to -1), except mod 2 (-1 = 1).  With
    H = {1} the candidates are the unit vectors.
    """
    steps = [_signed_table(action, sp, k) for sp in action.stabilizer()]
    size = len(_level(action._monomials, len(action.gen_names), k)[0])
    visited = [False] * size
    basis = []
    for start in range(size):
        if visited[start]:
            continue
        coeffs, consistent, queue = {start: 1}, True, [start]
        for j in queue:  # the loop reads what it appends
            sign = coeffs[j]
            for images, flips in steps:
                key = images[j]
                step = -sign if flips[j] else sign
                if key not in coeffs:
                    coeffs[key] = step
                    queue.append(key)
                elif coeffs[key] != step:
                    consistent = consistent and p == 2
        for key in queue:
            visited[key] = True
        if consistent:
            basis.append(coeffs)
    return basis


# ---------------------------------------------------------------------------
# Invariant bases
# ---------------------------------------------------------------------------

def invariant_basis(action: GroupAction, degree: int, domain: Domain,
                    top_degree: Optional[int] = None) -> SubmoduleBasis:
    """Exact basis of the degree-n invariants of the action over the domain,
    verified against every generator of the action.  top_degree, the highest
    degree the caller will ask for, sizes the F_p grids (_GridAction) so that
    a walk up to it builds each one once."""
    action.signature(domain)  # refuses a mod-p action over another domain
    k, rest = divmod(degree, action.gen_degree)
    if rest or k < 0:
        return SubmoduleBasis(domain, [], [])
    monos = _level(action._monomials, len(action.gen_names), k)[0]
    top = (degree if top_degree is None else top_degree) // action.gen_degree
    if action._signed is None:
        action._signed = tuple(map(signed_permutation, action.matrices))
    gens = [m for m, sp in zip(action.matrices, action._signed) if sp is None]
    candidates = _signed_orbit_sums(action, k, domain.characteristic)
    combos = [_combine(cv, candidates)
              for cv in _restrict_by_generators(action, gens, k, top, domain, candidates)]
    # Over Q, Z and Z_(p) this is the Hermite basis over the monomials too:
    # the candidates come in order of their first monomial, +1 there, with
    # disjoint supports, so a vector's first nonzero entry and its entries at
    # those first monomials are its candidate coordinates.
    vectors = [[vec.get(j, 0) for j in range(len(monos))] for vec in combos]
    zero = domain.coerce(0)  # most entries: one shared value
    basis = SubmoduleBasis(domain, monos, [[domain.coerce(x) if x else zero for x in vec]
                                           for vec in vectors])
    _verify_invariance(action, basis, k, top, domain)
    return basis


def _combine(coeffs: Sequence, candidates: List[Dict[int, int]]) -> Dict[int, object]:
    """sum_j coeffs[j] * candidates[j], as {monomial index: value}."""
    vec: Dict[int, object] = {}
    for c, cand in zip(coeffs, candidates):
        if c:
            for j, s in cand.items():
                vec[j] = vec.get(j, 0) + c * s
    return vec


def _restrict_by_generators(action, gens, k, top, domain, candidates):
    """Coefficient vectors over the candidates spanning what every listed
    generator fixes.  Over Q, Z and Z_(p): the Hermite basis of the saturated
    lattice they fix, one kernel_z of every generator's defects of the
    candidates, stacked.  Over F_p (stacking was measured slower): the
    generators one at a time, each an FpSubspace.preimage of the span the
    previous ones left, kept over the candidates taken last first so that its
    echelon rows, reversed, are the stacked-kernel basis (1 at one free
    candidate, 0 at the others); a span row's defect is the combination of
    the candidates' defects its coordinates give."""
    m, p = len(candidates), domain.characteristic
    if not p:
        rows = []
        for g in gens:
            sa = _slice_action(action, g, domain, k, top)
            rows += [row for row in zip(*[sa.defect(k, cand) for cand in candidates]) if any(row)]
        return linalg.kernel_z(rows, m)
    span = FpSubspace.full(p, m)
    for g in gens:
        if not span:
            break
        sa = _slice_action(action, g, domain, k, top)
        defects = [sa.defect(k, cand) for cand in reversed(candidates)]
        span = span.preimage([FpSubspace.image(p, defects, row) for row in span],
                             FpSubspace(p), sa.width(k))
    return [FpSubspace.unpack(p, row, m)[::-1] for row in reversed(span.rows)]


def _verify_invariance(action, basis: SubmoduleBasis, k: int, top: int, domain: Domain):
    """Every generator against every basis vector, each scaled once to
    integers: a signed permutation through its table (c at monomial j must
    be -c or c at images[j], as flips[j]), another matrix through a defect."""
    p, vectors = domain.characteristic, []
    for vec in basis.vectors:
        den = math.lcm(*(x.denominator for x in vec))
        vectors.append({j: x.numerator * (den // x.denominator) for j, x in enumerate(vec) if x})
    for g, sp in zip(action.matrices, action._signed):
        if sp is None:
            sa = _slice_action(action, g, domain, k, top)
            bad = any(sa.defect(k, ints) if p else any(sa.defect(k, ints)) for ints in vectors)
        else:
            images, flips = _signed_table(action, sp, k)
            bad = any((d % p if p else d) for ints in vectors for d in (
                ints.get(images[j], 0) + (c if flips[j] else -c) for j, c in ints.items()))
        if bad:
            raise InvariantError("computed vector is not invariant in degree %d"
                                 % (k * action.gen_degree))


def basis_polynomials(basis: SubmoduleBasis, sig: AlgebraSignature) -> List[Polynomial]:
    return [
        Polynomial(sig, {m: c for m, c in zip(basis.ambient, vec) if c != 0})
        for vec in basis.vectors
    ]


@dataclass
class InvariantReport:
    sig: AlgebraSignature  # the action's ring over the report's domain
    by_degree: Dict[int, SubmoduleBasis]

    def ranks(self) -> Dict[int, int]:
        return {d: b.rank for d, b in sorted(self.by_degree.items())}


def invariant_report(action: GroupAction, max_degree: int, domain: Domain) -> InvariantReport:
    """Invariant bases for all degrees up to max_degree.

    Degrees that cannot carry monomials (odd degrees over degree-2
    generators) are skipped.
    """
    stride = 2 if action.gen_degree == 2 else 1
    out: Dict[int, SubmoduleBasis] = {}
    for d in range(0, max_degree + 1, stride):
        out[d] = invariant_basis(action, d, domain, max_degree)
    return InvariantReport(action.signature(domain), out)


def poincare_series(action: GroupAction, max_degree: int, domain: Domain) -> Dict[int, int]:
    return invariant_report(action, max_degree, domain).ranks()


# ---------------------------------------------------------------------------
# Subring membership and algebra generators
# ---------------------------------------------------------------------------


def subring_membership(
    f: Polynomial, generators: Sequence[Polynomial]
) -> Tuple[bool, Optional[Dict[Tuple[int, ...], object]]]:
    """Decide whether f is a polynomial in the given homogeneous generators
    of positive degree.

    Returns (inside, combination); combination maps generator-exponent
    tuples to coefficients.  Decided by a linear solve over all generator
    monomials of f's degree D: over F_p without exterior generators packed
    on the exponent grid of base D + 1 (module docstring), each one
    generator times the monomial with one factor fewer, and otherwise as
    Polynomials (power_products).
    """
    degrees = [g.homogeneous_degrees() for g in [f, *generators]]
    if len(degrees[0]) > 1:
        raise InvariantError("f must be homogeneous")
    if any(len(degs) != 1 or not degs[0] for degs in degrees[1:]):
        raise InvariantError("generators must be homogeneous, nonzero and of positive degree")
    sig, domain = f.sig, f.sig.domain
    if f.is_zero():
        return True, {}
    deg = degrees[0][0]
    tuples = compositions([degs[0] for degs in degrees[1:]], deg)
    if not tuples:
        return False, None
    if domain.kind == "fp" and not sig._exterior:
        p, base = domain.p, deg + 1
        shifts = [list(zip(g.terms.values(), grid_positions(list(g.terms), base)))
                  for g in generators]
        packed = {(0,) * len(generators): 1}

        def product(t):  # g^t, packed
            if t not in packed:
                i = next(i for i, e in enumerate(t) if e)
                low = product(t[:i] + (t[i] - 1,) + t[i + 1:])
                packed[t] = FpSubspace.combine(p, [(c, low, s) for c, s in shifts[i]])
            return packed[t]

        target = FpSubspace.combine(p, [(c, 1, s) for c, s in zip(
            f.terms.values(), grid_positions(list(f.terms), base))])
        x = FpSubspace.solve(p, [product(t) for t in tuples], target, base ** max(len(sig) - 1, 0))
        found = None if x is None else (1, FpSubspace.unpack(p, x, len(tuples)))
    else:
        products = power_products(generators, [(Polynomial.one(sig), t) for t in tuples])
        support = sorted(set().union(*[set(p.terms) for p in products], set(f.terms)))
        cols = [[poly.terms.get(m, 0) for m in support] for poly in products]
        found = linalg.solve(domain, cols, [f.terms.get(m, 0) for m in support])
    if found is None or domain.scale_power(found[0]) != 0:
        return False, None
    g, y = found
    return True, {t: domain.coerce(Fraction(c, g)) for t, c in zip(tuples, y) if c}


def algebra_generators(report: InvariantReport, max_degree: int) -> List[Tuple[int, Polynomial]]:
    """Minimal generating set of the invariant ring up to max_degree, read
    from the report's bases, which must reach max_degree.

    Walks degrees upward.  In each degree the decomposables (products of
    already-found generators) are expressed in the invariant basis, and the
    quotient lattice is analyzed by Smith reduction, so new generators are
    primitive complements and p-divisibility cannot poison later degrees.
    A torsion quotient means no generator choice makes the ring free over
    the found ones, and raises.  Over the fields F_p and Q extraction is
    refused.
    """
    sig = report.sig
    domain = sig.domain
    if domain.kind not in ("int", "plocal"):
        raise InvariantError("generator extraction works over Z and Z_(p)")
    if max_degree > max(report.by_degree, default=-1):
        raise InvariantError("the report stops below degree %d" % max_degree)
    gens: List[Tuple[int, Polynomial]] = []
    for d, inv in sorted(report.by_degree.items()):
        if not 0 < d <= max_degree or inv.rank == 0:
            continue
        decomposables = [(Polynomial.one(sig), t) for t in compositions([dd for dd, _ in gens], d)]
        span_vectors = [[poly.terms.get(m, 0) for m in inv.ambient]
                        for poly in power_products([g for _, g in gens], decomposables)]
        for vec in _lattice_complement(inv, span_vectors, domain):
            gens.append((d, Polynomial(sig, {m: c for m, c in zip(inv.ambient, vec) if c != 0})))
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
        found = linalg.solve(domain, inv.vectors, [int(x) for x in vec])
        if found is None or domain.scale_power(found[0]) != 0:
            raise InvariantError("decomposable outside the invariant lattice")
        coord_cols.append(found[1])  # g times the coordinates, g a unit: same span
    divisors, u_cols = linalg.snf_with_basis([[col[i] for col in coord_cols] for i in range(n)])
    for dv in divisors:
        if domain.scale_power(dv) != 0:
            raise InvariantError(
                "decomposable span has torsion quotient (divisor %d)" % dv
            )
    # The complement's u_j in ambient coordinates: the basis matrix times u_j.
    ambient_rows = list(zip(*([int(x) for x in vec] for vec in inv.vectors)))
    return [[sum(map(mul, row, u)) for row in ambient_rows] for u in u_cols[len(divisors):]]

