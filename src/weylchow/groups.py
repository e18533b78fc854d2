"""Finite matrix groups acting on the generator lattice of a graded algebra.

A GroupAction holds generating matrices acting on the column vector of
algebra generators (all of one degree, 1 or 2).  Builders cover the groups
used by the audits: signed permutation groups S_k^± on the SO(2k+1) torus
lattice, the same abstract group on the Spin(2k+1) weight lattice, GL_h(F_2)
on degree-1 generators, and the Weyl group of F_4 on its 4-dimensional
weight lattice.

Matrix entries are exact ints or Fractions.  The F_4 reflections need the
half-sum vector, so their matrices are half-integral in the e-basis; they
act integrally on any domain where 2 is a unit (Q, F_3, Z_(3)).

One breadth-first walk (_walk) runs on integers: an element is an integer
matrix N over a denominator d (the element is N/d), reduced mod the
action's prime when it has one and otherwise to lowest terms, and each
generator multiplies a given integer row once.  Keyed by the element it
closes the group (enumerate_group); keyed by the coset of the subgroup of
signed permutations it finds that subgroup's generators
(GroupAction.stabilizer) without closing the group.  It refuses a group past
10^6 classes or, with no prime and n <= 6, past the largest finite subgroup of GL_n(Q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import FpSubspace, rank_q, solve
from .poly import AlgebraSignature, Domain, Generator, QQ

MatrixRows = Tuple[Tuple[Fraction, ...], ...]
SignedPermutation = Tuple[Tuple[int, ...], Tuple[int, ...]]  # x_j -> signs[j] * x_{perm[j]}

_ELEMENT_BOUND = 10**6  # closures larger than this are refused as entry errors
# The largest order of a finite subgroup of GL_n(Q) (Feit; Nebe and Plesken,
# Finite rational matrix groups, Mem. AMS 556, 1995): a walk past it is infinite.
_RATIONAL_BOUND = {1: 2, 2: 12, 3: 48, 4: 1152, 5: 3840, 6: 103680}


class GroupError(Exception):
    pass


def _freeze(matrix: Sequence[Sequence]) -> MatrixRows:
    return tuple(tuple(Fraction(x) for x in row) for row in matrix)


def mat_mul(a: MatrixRows, b: MatrixRows) -> MatrixRows:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def mat_identity(n: int) -> MatrixRows:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


@dataclass
class GroupAction:
    """Generating matrices for a finite group acting on graded generators.

    gen_names/gen_degree describe the generators being acted on (all of the
    same degree).  Each matrix column j gives the image of generator j as a
    linear combination of the generators.  When mod is set, matrices live
    over F_mod and compose mod that prime (used for GL_h(F_2)).
    """

    name: str
    gen_names: Tuple[str, ...]
    gen_degree: int
    matrices: Tuple[MatrixRows, ...]
    mod: Optional[int] = None
    _elements: Optional[Tuple[MatrixRows, ...]] = field(default=None, repr=False)
    _stabilizer: Optional[Tuple[SignedPermutation, ...]] = field(default=None, repr=False,
                                                                 compare=False)
    # Owned by weylchow.invariants: each generator's signed permutation (None
    # for a matrix that is not one), the slice objects by (matrix, domain) and
    # the signed-permutation tables by (perm, signs), and the monomial tables
    # by exponent sum.
    _signed: Optional[Tuple[Optional[SignedPermutation], ...]] = field(default=None, repr=False,
                                                                      compare=False)
    _slices: Dict = field(default_factory=dict, repr=False, compare=False)
    _monomials: Dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.gen_names)
        mats = tuple(_freeze(m) for m in self.matrices)
        if self.mod is not None:
            mats = tuple(_freeze([[int(x) % self.mod for x in row] for row in m]) for m in mats)
        for m in mats:
            if len(m) != n or any(len(row) != n for row in m):
                raise GroupError("matrix size does not match generator count")
            if self.mod is not None:
                rows = [FpSubspace.pack(self.mod, [int(x) for x in row]) for row in m]
                if len(FpSubspace(self.mod, rows)) != n:
                    raise GroupError("generating matrix is singular mod %d" % self.mod)
            elif rank_q([list(row) for row in m]) != n:
                raise GroupError("generating matrix is singular")
        self.matrices = mats

    def signature(self, domain: Domain) -> AlgebraSignature:
        if self.mod is not None and domain.characteristic != self.mod:
            raise GroupError(
                "action %s is defined mod %d; domain %s unsupported" % (self.name, self.mod, domain)
            )
        return AlgebraSignature(
            [Generator(nm, self.gen_degree) for nm in self.gen_names], domain
        )

    def elements(self) -> Tuple[MatrixRows, ...]:
        if self._elements is None:
            self._elements = tuple(enumerate_group(self))
        return self._elements

    @property
    def order(self) -> int:
        return len(self.elements())

    def stabilizer(self) -> Tuple[SignedPermutation, ...]:
        """Generators of H, the subgroup of signed permutations, sorted and
        without the identity, by Schreier's lemma from one walk over the
        right cosets H u.  h u has the rows of u, permuted and each times a
        sign, so a coset is the set of its rows up to sign (mod p the rows
        are nonnegative: they key themselves, and H holds only permutations).
        A product met in a known coset is h times the coset's first element;
        matching their rows reads off h."""
        if self._stabilizer is None:
            n, found = len(self.gen_names), set()

            def again(prod, first):
                where = {r: (j, 1) for j, r in enumerate(first[1])}
                where.update({tuple(-x for x in r): (j, -1) for j, r in enumerate(first[1])})
                perm, signs = [0] * n, [1] * n
                for i, row in enumerate(prod[1]):
                    j, sign = where[row]
                    perm[j], signs[j] = i, sign
                found.add((tuple(perm), tuple(signs)))

            def coset(element):
                return element[0], frozenset(max(r, tuple(-x for x in r)) for r in element[1])

            _walk(self, coset, again)
            self._stabilizer = tuple(sorted(found - {(tuple(range(n)), (1,) * n)}))
        return self._stabilizer


class _RowProducts(dict):
    """Integer row -> the row times one integer matrix, mod p when p is set."""

    def __init__(self, matrix: Sequence[Sequence[int]], p: Optional[int]):
        super().__init__()
        self.cols, self.p = tuple(zip(*matrix)), p

    def __missing__(self, row):
        prod = tuple(sum(map(mul, row, col)) for col in self.cols)
        self[row] = prod = prod if self.p is None else tuple(x % self.p for x in prod)
        return prod


def _walk(action: GroupAction, key=None, again=None) -> Dict:
    """Breadth-first walk of the group from the identity, multiplying each
    element met on the right by each generator.  key maps an element (den,
    rows) to its class (the element itself when None); the first element
    met in a class stands for it, and again(product, first) is called for
    each product whose class was met before.  Returns the first elements
    by class.  Raises past a bound on the classes, which guards against
    infinite or wrongly entered generator sets: _RATIONAL_BOUND for an
    action with no mod on at most 6 generators, else _ELEMENT_BOUND.
    """
    n = len(action.gen_names)
    rational = None if action.mod else _RATIONAL_BOUND.get(n)
    bound, why = ((rational, " (no finite subgroup of GL_%d(Q) is larger)" % n)
                  if rational and rational < _ELEMENT_BOUND else (_ELEMENT_BOUND, ""))
    gens = []
    for m in action.matrices:
        den = math.lcm(*(x.denominator for row in m for x in row))
        gens.append((den, _RowProducts([[int(x * den) for x in row] for row in m], action.mod)))
    ident = (1, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    first = {ident if key is None else key(ident): ident}
    frontier = [ident]
    while frontier:
        new_frontier = []
        for den, rows in frontier:
            for gen_den, products in gens:
                prod = (den * gen_den, tuple(map(products.__getitem__, rows)))
                div = math.gcd(prod[0], *chain.from_iterable(prod[1]))
                if div > 1:
                    prod = (prod[0] // div, tuple(tuple(x // div for x in r) for r in prod[1]))
                cls = prod if key is None else key(prod)
                if cls not in first:
                    first[cls] = prod
                    new_frontier.append(prod)
                    if len(first) > bound:
                        raise GroupError("group closure exceeds bound %d%s" % (bound, why))
                elif again is not None:
                    again(prod, first[cls])
        frontier = new_frontier
    return first


def enumerate_group(action: GroupAction) -> List[MatrixRows]:
    """Closure of the generating matrices under multiplication, sorted.  The
    elements become Fraction rows once, in the order of their values."""
    seen = _walk(action)
    # Over their common denominator the integer rows sort as the values do.
    common_den = math.lcm(*(den for den, _ in seen))

    def value_key(element):
        return tuple(tuple(x * (common_den // element[0]) for x in r) for r in element[1])

    fraction_rows = {(den, r): tuple(Fraction(x, den) for x in r)
                     for den, r in {(den, r) for den, rows in seen for r in rows}}
    return [tuple(fraction_rows[den, r] for r in rows) for den, rows in sorted(seen, key=value_key)]


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _perm_matrix(n: int, perm: Dict[int, int]) -> List[List[int]]:
    """Matrix sending generator j to generator perm[j] (identity elsewhere)."""
    m = [[0] * n for _ in range(n)]
    for j in range(n):
        m[perm.get(j, j)][j] = 1
    return m


def _sign_matrix(n: int, idx: int) -> List[List[int]]:
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    m[idx][idx] = -1
    return m


def build_weyl_so(k: int) -> GroupAction:
    """S_k^± on Z[t_1..t_k], |t_i| = 2: permutations and sign changes."""
    if k < 1:
        raise GroupError("rank must be >= 1")
    names = tuple("t%d" % (i + 1) for i in range(k))
    mats: List[List[List[int]]] = []
    if k >= 2:
        mats.append(_perm_matrix(k, {0: 1, 1: 0}))
        if k > 2:
            cycle = {i: (i + 1) % k for i in range(k)}
            mats.append(_perm_matrix(k, cycle))
    mats.append(_sign_matrix(k, 0))
    return GroupAction("so(%d)" % (2 * k + 1), names, 2, tuple(_freeze(m) for m in mats))


def spin_base_change(k: int) -> List[List[Fraction]]:
    """Columns of (t_1, .., t_{k-1}, gamma) written in the t-basis; 2*gamma = sum t_i."""
    cols = []
    for i in range(k - 1):
        col = [Fraction(0)] * k
        col[i] = Fraction(1)
        cols.append(col)
    cols.append([Fraction(1, 2)] * k)
    return [[cols[j][i] for j in range(k)] for i in range(k)]


def build_weyl_spin(k: int) -> GroupAction:
    """S_k^± on the Spin(2k+1) weight lattice with basis (t_1..t_{k-1}, gamma).

    The matrices are the SO ones conjugated by the base change; each must be
    integral in the new basis (a non-integral entry signals a wrong lattice).
    """
    if k < 2:
        raise GroupError("rank must be >= 2 for the spin lattice")
    so = build_weyl_so(k)
    p_mat = _freeze(spin_base_change(k))
    p_inv = _invert(p_mat)
    names = tuple(["t%d" % (i + 1) for i in range(k - 1)] + ["gamma"])
    new_mats = []
    for m in so.matrices:
        conj = mat_mul(p_inv, mat_mul(m, p_mat))
        for row in conj:
            for x in row:
                if x.denominator != 1:
                    raise GroupError("non-integral matrix after base change: %s" % (conj,))
        new_mats.append(conj)
    return GroupAction("spin(%d)" % (2 * k + 1), names, 2, tuple(new_mats))


def _invert(m: MatrixRows) -> MatrixRows:
    n = len(m)
    inverse = [solve(QQ, list(zip(*m)), [int(i == j) for i in range(n)]) for j in range(n)]
    if None in inverse:
        raise GroupError("matrix not invertible")
    return tuple(tuple(Fraction(y[i], g) for g, y in inverse) for i in range(n))


def build_gl(h: int) -> GroupAction:
    """GL_h(F_2) acting on degree-1 generators x_1..x_h."""
    if h < 1 or h > 4:
        raise GroupError("h must be in 1..4: at h = 5 the invariants would walk "
                         "|GL_5(F_2)| / 5! = 83,328 cosets")
    names = tuple("x%d" % (i + 1) for i in range(h))
    if h == 1:
        return GroupAction("gl(1)", names, 1, (mat_identity(1),), mod=2)
    mats = []
    mats.append(_perm_matrix(h, {0: 1, 1: 0}))
    if h > 2:
        mats.append(_perm_matrix(h, {i: (i + 1) % h for i in range(h)}))
    # Transvection: x_1 -> x_1 + x_2 (column convention: image of gen 0).
    t = [[int(i == j) for j in range(h)] for i in range(h)]
    t[1][0] = 1
    mats.append(t)
    return GroupAction("gl(%d)" % h, names, 1, tuple(_freeze(m) for m in mats), mod=2)


# ---------------------------------------------------------------------------
# Action files
# ---------------------------------------------------------------------------


def parse_action(text: str) -> GroupAction:
    """Parse the '[action]' header plus one '[gen]' block per matrix.

    Matrix entries are integers or fractions like 1/2, one row per line.
    """
    header: Dict[str, str] = {}
    matrices: List[List[List[Fraction]]] = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise GroupError("line %d: malformed section header" % lineno)
            head = line[1:-1].strip().lower()
            if head == "action":
                section = "action"
            elif head == "gen":
                section = "gen"
                matrices.append([])
            else:
                raise GroupError("line %d: unknown section %r" % (lineno, head))
            continue
        if section == "action":
            if "=" not in line:
                raise GroupError("line %d: expected key = value" % lineno)
            key, val = [s.strip() for s in line.split("=", 1)]
            header[key] = val
        elif section == "gen":
            try:
                matrices[-1].append([Fraction(tok) for tok in line.split()])
            except ValueError:
                raise GroupError("line %d: malformed matrix row" % lineno) from None
        else:
            raise GroupError("line %d: content outside any section" % lineno)
    if "generators" not in header or "degree" not in header:
        raise GroupError("[action] section must declare generators and degree")
    names = tuple(header["generators"].split())
    mod = int(header["mod"]) if "mod" in header else None
    return GroupAction(
        header.get("name", "action"),
        names,
        int(header["degree"]),
        tuple(_freeze(m) for m in matrices),
        mod=mod,
    )


def load_action(path: str) -> GroupAction:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_action(fh.read())


def build_weyl_f4() -> GroupAction:
    """Weyl group of F_4 (order 1152) via the four simple-root reflections.

    Simple roots in the orthonormal e-basis: e2-e3, e3-e4, e4, (e1-e2-e3-e4)/2.
    The last reflection is half-integral in this basis, so the action is used
    over domains where 2 is invertible (Q, F_3, Z_(3)).
    """
    names = ("t1", "t2", "t3", "t4")
    roots = [
        [Fraction(0), Fraction(1), Fraction(-1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(-1)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
        [Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2)],
    ]
    mats = []
    for alpha in roots:
        norm2 = sum(a * a for a in alpha)
        rows = []
        for i in range(4):
            row = []
            for j in range(4):
                e_j_dot = alpha[j]  # (e_j, alpha)
                val = Fraction(int(i == j)) - 2 * e_j_dot * alpha[i] / norm2
                row.append(val)
            rows.append(row)
        mats.append(rows)
    return GroupAction("weyl(f4)", names, 2, tuple(_freeze(m) for m in mats))
