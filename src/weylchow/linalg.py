"""Exact linear algebra over F_p, Q, and Z.

F_p algebra runs on FpSubspace, which packs a vector of F_p^n into one int;
the routines of characteristic 0 work on plain Python lists of ints, and
take Fractions only after clearing one common denominator.  No floating
point anywhere.  Q, Z and Z_(p) share one elimination, a column echelon by
Euclid (_echelon), with four readers: hnf_basis runs it on every row,
kernel_z on the rows of M (sparsest first) in the columns of (M over I),
rank_q counts its pivots, and solve, the solver for every domain, reads off
kernel_z the least g with g * target in the span (poly.Domain.scale_power:
is g a unit).  Kernels come out saturated and lattice bases Hermite-reduced,
so that torsion questions (membership up to a p-power, elementary-divisor
valuations) have exact answers.

Conventions: a "matrix" is a list of rows; a "basis" is a list of column
vectors spanning a subspace or lattice of the ambient coordinate space.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import lcm
from typing import Iterable, List, Optional, Sequence, Tuple

from .poly import FP_PRIMES, Domain

Vector = List[int]


class LinalgError(Exception):
    pass


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def identity(n: int) -> List[Vector]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# F_p subspaces and elimination
# ---------------------------------------------------------------------------

# The field widths of poly.FP_PRIMES: one bit per coordinate at p = 2, one
# byte at odd p with p (p - 1) <= 255.  At odd p, _FOLD reduces a byte mod p.
_FOLD = {p: bytes(x % p for x in range(256)) for p in FP_PRIMES if p > 2}
_BITS = {2: 1, **dict.fromkeys(_FOLD, 8)}
# How many products of two bytes in [0, p) a byte in [0, p) takes before a
# fold: (p - 1) + room * (p - 1)^2 <= 255, so 63 at p = 3 and 1 at p = 13.
_ROOM = {p: (256 - p) // (p - 1) ** 2 for p in _FOLD}


def _fold(p: int, v: int) -> int:
    """v with every byte reduced mod p."""
    n = (v.bit_length() + 7) >> 3
    return int.from_bytes(v.to_bytes(n, "little").translate(_FOLD[p]), "little")


def _reverse(p: int, v: int, n: int) -> int:
    """v in F_p^n with coordinate j moved to n - 1 - j: its n bits (p = 2) or
    bytes (odd p) in the opposite order."""
    if p == 2:
        return int(format(v, "0%db" % n)[::-1], 2)
    return int.from_bytes(v.to_bytes(n, "little"), "big")


class FpSubspace:
    """A subspace of F_p^n held as its reduced row echelon basis.

    rows[k] has its lowest nonzero coordinate, equal to 1, at pivots[k]; the
    pivots increase and every other row is zero at them, so the rows are the
    unique reduced echelon form of the span.  A vector is a Python int with
    coordinate j in bit j at p = 2, where a row operation is one XOR, and in
    byte j at odd p, where v - f * row is v + (p - f) * row followed by one
    reduction of every byte mod p (_fold).  Every vector keeps its bytes in
    [0, p), and no carry crosses a byte: each product is folded at once, and
    a coordinate in [0, p) plus one product of at most (p - 1)^2 is at most
    p (p - 1) <= 255.  A prime outside poly.FP_PRIMES, so every p >= 17,
    raises LinalgError here, and so in every F_p elimination of weylchow
    (membership over F_p too, and so action files with such a mod);
    poly.Domain refuses it for charts.  pack/unpack convert from and to
    lists.  Subspaces grow only through insert(); the other operations
    return new ones.  kernel() and solve() answer in the echelon form with
    pivots at the highest coordinate instead: they eliminate the columns
    last first and reverse the coordinates of what they read off.
    """

    __slots__ = ("p", "rows", "pivots")

    def __init__(self, p: int, vectors=()):
        if p not in _BITS:
            raise LinalgError("F_%d is not supported: packed vectors need p = 2 or an odd "
                              "prime with p (p - 1) <= 255" % p)
        self.p = p
        self.rows: List[int] = []
        self.pivots: List[int] = []
        for v in vectors:
            self.insert(v)

    @classmethod
    def _echelon(cls, p: int, rows: List[int], pivots: List[int]) -> "FpSubspace":
        """A subspace from rows and pivots already in reduced echelon form."""
        sub = cls(p)
        sub.rows, sub.pivots = rows, pivots
        return sub

    @classmethod
    def full(cls, p: int, n: int) -> "FpSubspace":
        return cls._echelon(p, [cls.unit(p, j) for j in range(n)], list(range(n)))

    @staticmethod
    def unit(p: int, j: int) -> int:
        """The unit vector e_j: bit j at p = 2, byte j at odd p."""
        return 1 << _BITS[p] * j

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def copy(self) -> "FpSubspace":
        return self._echelon(self.p, list(self.rows), list(self.pivots))

    def __add__(self, other: "FpSubspace") -> "FpSubspace":
        sub = self.copy()
        for v in other.rows:
            sub.insert(v)
        return sub

    def reduce(self, v: int) -> int:
        """The remainder of v modulo the span: v minus the span element that
        agrees with v at every pivot.  From pivots[k] it skips to the first
        pivot at or after v's lowest nonzero coordinate there (the rows
        subtracted so far are zero at that pivot)."""
        p, rows, pivots, bits = self.p, self.rows, self.pivots, _BITS[self.p]
        k, n = 0, len(pivots)
        while k < n and (w := v >> bits * pivots[k]):
            low = ((w & -w).bit_length() - 1) // bits
            if low:
                k = bisect_left(pivots, pivots[k] + low, k + 1)
                continue
            v = v ^ rows[k] if p == 2 else _fold(p, v + (p - (w & 255)) * rows[k])
            k += 1
        return v

    def contains(self, v: int) -> bool:
        return not self.reduce(v)

    def insert(self, v: int) -> bool:
        """Add v to the span; True when the span grew."""
        p, rows, bits = self.p, self.rows, _BITS[self.p]
        v = self.reduce(v)
        if not v:
            return False
        c = ((v & -v).bit_length() - 1) // bits
        if p != 2 and (inv := pow(v >> 8 * c & 255, p - 2, p)) != 1:
            v = _fold(p, v * inv)
        k = bisect_left(self.pivots, c)
        shift, mask = bits * c, (1 << bits) - 1
        for i in range(k):  # only rows with a smaller pivot can be nonzero at c
            if f := rows[i] >> shift & mask:
                rows[i] = rows[i] ^ v if p == 2 else _fold(p, rows[i] + (p - f) * v)
        rows.insert(k, v)
        self.pivots.insert(k, c)
        return True

    def tail(self, start: int) -> "FpSubspace":
        """The intersection with the span of the coordinates >= start: the
        rows whose pivot is at least start."""
        k = bisect_left(self.pivots, start)
        return self._echelon(self.p, self.rows[k:], self.pivots[k:])

    def preimage(self, images: List[int], allowed: "FpSubspace", width: int) -> "FpSubspace":
        """{x in self : M x in allowed}, where images[k] = M rows[k] lies in
        F_p^width.

        Each image is reduced modulo allowed and tracked with its row: the
        pairs (remainder | row) are eliminated in F_p^(width + n), and the
        echelon rows whose remainder part vanished are the answer's rows.
        """
        p = self.p
        pairs = FpSubspace(p, [self.join(p, allowed.reduce(img), row, width)
                               for row, img in zip(self.rows, images)]).tail(width)
        return self._echelon(p, [self.split(p, row, width)[1] for row in pairs.rows],
                             [c - width for c in pairs.pivots])

    @classmethod
    def tracking(cls, p: int, basis: List[int], width: int) -> "FpSubspace":
        """The span of the pairs (basis[j] | e_j) for vectors basis[j] of
        F_p^width, to solve in that basis with coordinates().  Its tail(width)
        holds the relations among the basis vectors; each has its pivot at
        the lowest j it involves, where basis[j] depends on the later ones."""
        units = cls.full(p, len(basis)).rows
        # Last pair first: for an echelon basis the pivots then fall, so no
        # insert subtracts a row or back-substitutes.
        return cls(p, [cls.join(p, v, e, width) for v, e in zip(basis, units)][::-1])

    def coordinates(self, v: int, width: int) -> Optional[int]:
        """For a tracking() span: c with sum_j c_j basis[j] = v, or None
        when v lies outside the span of the basis.  Reducing (v | 0) leaves
        (0 | -c) exactly when v = sum_j c_j basis[j]; c is zero at the pivots
        of the relations, so at every j where basis[j] depends on the later
        ones."""
        p = self.p
        low, high = self.split(p, self.reduce(v), width)
        if low:
            return None
        return high if p == 2 else _fold(p, (p - 1) * high)

    @classmethod
    def kernel(cls, p: int, cols: List[int], width: int) -> List[int]:
        """ker M, for the matrix M with columns cols in F_p^width: for each
        column f that depends on earlier ones, in order of f, e_f minus the
        coordinates of cols[f] in the independent columns before it.  These
        are the reduced echelon rows with pivots at the highest coordinate,
        read off the relations of the columns taken last first."""
        n = len(cols)
        relations = cls.tracking(p, cols[::-1], width).tail(width).rows
        return [_reverse(p, cls.split(p, v, width)[1], n) for v in reversed(relations)]

    @classmethod
    def solve(cls, p: int, cols: List[int], target: int, width: int) -> Optional[int]:
        """x with M x = target, for M as in kernel(), zero at every column
        that depends on earlier ones; None when target is outside the span."""
        x = cls.tracking(p, cols[::-1], width).coordinates(target, width)
        return None if x is None else _reverse(p, x, len(cols))

    @staticmethod
    def pack(p: int, values: Sequence[int]) -> int:
        """A vector from a sequence of integers, reduced mod p."""
        if p == 2:
            return sum(1 << j for j, x in enumerate(values) if x & 1)
        return int.from_bytes(bytes([x % p for x in values]), "little")

    @staticmethod
    def unpack(p: int, v: int, n: int) -> List[int]:
        """The coordinates of a vector of F_p^n as a list."""
        return [v >> j & 1 for j in range(n)] if p == 2 else list(v.to_bytes(n, "little"))

    @staticmethod
    def image(p: int, cols: List[int], v: int) -> int:
        """M v, for the matrix M with columns cols."""
        bits, out = _BITS[p], 0
        while v:
            j = ((v & -v).bit_length() - 1) // bits
            c = v >> 8 * j & 255 if bits == 8 else 1
            v ^= c << bits * j
            out = out ^ cols[j] if p == 2 else _fold(p, out + c * cols[j])
        return out

    @staticmethod
    def combine(p: int, terms: Iterable[Tuple[int, int, int]]) -> int:
        """sum c * v, with v moved s coordinates up, over the triples (c, v,
        s) of a coefficient in [0, p), a vector and a shift.  At odd p the
        sum is folded once per _ROOM[p] products, and once at the end."""
        out = 0
        if p == 2:
            for c, v, s in terms:
                if c:
                    out ^= v << s
            return out
        room = _ROOM[p]
        for c, v, s in terms:
            if not room:
                out, room = _fold(p, out), _ROOM[p]
            out += c * v << 8 * s
            room -= 1
        return _fold(p, out)

    @staticmethod
    def join(p: int, low: int, high: int, width: int) -> int:
        """The vector of F_p^(width + m) with low in the first width
        coordinates and high in the rest."""
        return low | high << _BITS[p] * width

    @staticmethod
    def split(p: int, v: int, width: int) -> Tuple[int, int]:
        """The inverse of join: (first width coordinates, the rest)."""
        return v & ((1 << _BITS[p] * width) - 1), v >> _BITS[p] * width


# ---------------------------------------------------------------------------
# Integer lattices
# ---------------------------------------------------------------------------


def _echelon(cols: List[Vector], stop: int) -> Tuple[List[Vector], List[Vector]]:
    """Column echelon form of cols on rows 0..stop-1 by Euclid: on each row
    the columns left are reduced by the one with the least nonzero |entry|
    until one is nonzero there, the row's pivot, made positive.  Returns the
    pivots in row order and the columns left, zero on rows 0..stop-1.  The
    steps are unimodular, so the columns left span the part of the lattice
    of cols that is zero on those rows.  cols are not changed."""
    work = [list(c) for c in cols]
    pivots: List[Vector] = []
    for row in range(stop):
        nz = [c for c in work if c[row]]
        while len(nz) > 1:
            nz.sort(key=lambda c: abs(c[row]))
            pivot = nz[0]
            for c in nz[1:]:
                q = c[row] // pivot[row]
                # both are zero on the rows above
                c[row:] = [x - q * y for x, y in zip(c[row:], pivot[row:])]
            nz = [c for c in nz if c[row]]
        if nz:
            pivot = nz[0]
            if pivot[row] < 0:
                pivot[row:] = [-x for x in pivot[row:]]
            pivots.append(pivot)
            work = [c for c in work if c is not pivot]
    return pivots, work


def kernel_z(rows: List[Sequence[int]], ncols: int) -> List[Vector]:
    """Hermite basis (hnf_basis) of the saturated integer kernel {x in
    Z^ncols : M x = 0}, M the matrix of rows.  The columns of (M over I) are
    put in echelon form on the rows of M (_echelon); the columns left are
    (0 over u), and their u span the kernel.  The rows go in sparsest
    first, a stable sort by nonzero count, which changes no output (the
    Hermite basis is canonical): a sparse row reduces only the few columns
    it is nonzero on, and a dense row, met last, only the columns left."""
    rows = sorted(rows, key=lambda row: sum(map(bool, row)))
    m = len(rows)
    cols = [[row[j] for row in rows] + unit for j, unit in enumerate(identity(ncols))]
    return hnf_basis([c[m:] for c in _echelon(cols, m)[1]])


def hnf_basis(cols: List[Vector]) -> List[Vector]:
    """Hermite-reduced basis of the lattice spanned by the given columns.

    Output columns are in column echelon form with positive pivots and
    off-pivot entries reduced; linearly dependent inputs are pruned.
    """
    basis = _echelon(cols, len(cols[0]) if cols else 0)[0]
    # Reduce earlier basis vectors by later pivots, lowest pivot first: a step changes
    # rows from its pivot on only, so earlier reductions stay and the form is canonical.
    for idx, pivot in enumerate(basis):
        prow = next(i for i, x in enumerate(pivot) if x)
        for earlier in basis[:idx]:
            if q := earlier[prow] // pivot[prow]:
                earlier[prow:] = [x - q * y for x, y in zip(earlier[prow:], pivot[prow:])]
    return basis


def _cleared(rows: List[Sequence]) -> List[Vector]:
    """The rows of ints and Fractions times one common denominator of all
    their entries, as ints; unchanged but for the type when it is 1."""
    den = lcm(*[x.denominator for row in rows for x in row])
    return [[x.numerator if den == 1 else x.numerator * (den // x.denominator) for x in row]
            for row in rows]


def rank_q(rows: List[Sequence]) -> int:
    """The rank over Q of rows of ints and Fractions: the pivot count of the
    echelon (_echelon) of the rows cleared of one common denominator."""
    ints = _cleared(rows)
    return len(_echelon(ints, len(ints[0]) if ints else 0)[0])


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def snf_with_basis(rows: List[List[int]]) -> Tuple[List[int], List[Vector]]:
    """Smith data of the column span: divisors d_i and an ambient basis u_i
    with col(M) = span{d_1 u_1, .., d_r u_r}.

    One pass over M: while the unreduced block (rows and columns from top on)
    is not zero, its least nonzero |entry|, the first in row order on a tie,
    is swapped to (top, top) and made positive, and the rows below and the
    columns right of it are reduced by it; once they are zero it is the next
    divisor.  u holds the columns of R^-1, R the product of the row
    operations, so M = R^-1 diag(d) C^-1: row_i -= q row_j is u_j += q u_i,
    and a row swap or negation swaps or negates u's columns.  The d_i need
    not divide one another; their p-valuations are those of the Smith form.
    """
    m = [list(r) for r in rows]
    u = identity(len(m))  # symmetric, so rows are columns
    divisors: List[int] = []
    top = 0
    while least := min(((abs(x), i, j) for i in range(top, len(m))
                        for j, x in enumerate(m[i][top:], top) if x), default=None):
        _, bi, bj = least
        m[top], m[bi] = m[bi], m[top]
        u[top], u[bi] = u[bi], u[top]
        for row in m:
            row[top], row[bj] = row[bj], row[top]
        if m[top][top] < 0:
            m[top] = [-x for x in m[top]]
            u[top] = [-x for x in u[top]]
        piv = m[top][top]
        for i in range(top + 1, len(m)):
            if q := m[i][top] // piv:
                m[i] = [x - q * y for x, y in zip(m[i], m[top])]
                u[top] = [x + q * y for x, y in zip(u[top], u[i])]
        for j in range(top + 1, len(m[top])):
            if q := m[top][j] // piv:
                for row in m:
                    row[j] -= q * row[top]
        if not any(row[top] for row in m[top + 1:]) and not any(m[top][top + 1:]):
            divisors.append(piv)
            top += 1
    return divisors, u


# ---------------------------------------------------------------------------
# Submodules and membership
# ---------------------------------------------------------------------------


@dataclass
class SubmoduleBasis:
    """Spanning vectors for a submodule of a based ambient slice.

    Over F_p the vectors are linearly independent; over Q, Z and Z_(p) they
    form a Hermite-reduced lattice basis (hnf_basis).  An invariant basis
    there is that of the saturated lattice Z^n cap ker_Q: the same vectors
    over all three domains, each entry coerced into the domain.
    """

    domain: Domain
    ambient: List  # basis labels for the ambient coordinates (e.g. monomials)
    vectors: List[Vector] = field(default_factory=list)

    @property
    def rank(self) -> int:
        return len(self.vectors)


@dataclass
class Membership:
    inside: bool
    scale_power: Optional[int]  # minimal k with p^k v in the span; None if no k works

    @property
    def verdict(self) -> str:
        if self.inside:
            return "inside"
        if self.scale_power is None:
            return "outside"
        return "inside-after-scaling p^%d" % self.scale_power


def solve(domain: Domain, cols: List[Sequence], target: Sequence) -> Optional[Tuple[int, Vector]]:
    """(g, y) with g * target = sum_j y_j cols[j], or None when target is
    outside the span of cols over the fraction field.  Over F_p, g = 1 and y
    is FpSubspace.solve's.  Over Q, Z and Z_(p) one common denominator of
    the whole system is cleared, which changes no solution; then (g, -y) is
    the vector of the Hermite basis of ker(target | cols) (kernel_z) with
    its pivot on the target's coordinate, so g > 0 is the least multiplier
    over every solution.  target lies in the span over the domain exactly
    when g is a unit there: domain.scale_power(g) == 0."""
    if domain.kind == "fp":
        p = domain.p
        x = FpSubspace.solve(p, [FpSubspace.pack(p, [int(c) for c in col]) for col in cols],
                             FpSubspace.pack(p, [int(c) for c in target]), len(target))
        return None if x is None else (1, FpSubspace.unpack(p, x, len(cols)))
    ker = kernel_z(_cleared(list(zip(target, *cols))), len(cols) + 1)
    if not ker or not ker[0][0]:
        return None
    return ker[0][0], [-c for c in ker[0][1:]]


def membership(v: Vector, s: SubmoduleBasis) -> Membership:
    """Exact membership of v in the span, with the minimal p-power if p-local."""
    if s.vectors and len(v) != len(s.vectors[0]):
        raise LinalgError("dimension mismatch")
    found = solve(s.domain, s.vectors, v)
    k = None if found is None else s.domain.scale_power(found[0])
    return Membership(k == 0, k)
