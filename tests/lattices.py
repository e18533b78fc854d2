"""Integer-lattice routines that the tests use as references.

A lattice is given by a list of spanning vectors (columns); these are slow,
plain constructions on top of weylchow.linalg's integer kernels, and
kernel_z_reference and snf_with_basis_reference, the reductions with a
tracked transform that linalg.kernel_z and linalg.snf_with_basis replaced.
solve_q_reference and local_scale_power_reference are the rational solve
and the Z_(p) rule that linalg.solve and poly.Domain.scale_power replaced.
rref_q_reference and kernel_q_reference are the rational row reduction
that the invariants over Q ran before they moved to kernel_z, and that
linalg.rank_q counted the pivots of.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import List, Optional, Sequence, Tuple

from weylchow.linalg import Vector, hnf_basis, identity, kernel_z, solve
from weylchow.poly import ZZ


def lattice_contains(cols: List[Vector], target: Vector) -> bool:
    found = solve(ZZ, cols, target)
    return found is not None and found[0] == 1


def lattice_eq(a: List[Vector], b: List[Vector]) -> bool:
    return hnf_basis([list(v) for v in a]) == hnf_basis([list(v) for v in b])


def preimage_kernel(mat_cols: List[Vector], target_lattice: List[Vector]) -> List[Vector]:
    """{c in Z^k : sum_j c_j mat_cols[j] lies in the target lattice}.

    mat_cols are the images of the k source generators; the result is a
    Hermite basis of the solution lattice in source coordinates.
    """
    k = len(mat_cols)
    if k == 0:
        return []
    n = len(mat_cols[0])
    t = len(target_lattice)
    if not any(any(c) for c in mat_cols):
        return identity(k)
    rows = []
    for i in range(n):
        rows.append([mat_cols[j][i] for j in range(k)] + [-target_lattice[j][i] for j in range(t)])
    ker = kernel_z(rows, k + t)
    return hnf_basis([v[:k] for v in ker])


def kernel_z_reference(rows: List[List[int]], ncols: int) -> List[Vector]:
    """Basis of the saturated integer kernel {x in Z^ncols : M x = 0}.

    Column reduction with a tracked unimodular transform: M U = E; kernel
    basis = columns of U below the zero columns of E.
    """
    if ncols == 0:
        return []
    work = [list(row) for row in rows]
    u = identity(ncols)  # columns of U tracked as vectors

    def addmul_col(dst, src, q):
        for i in range(len(work)):
            work[i][dst] += q * work[i][src]
        for i in range(ncols):
            u[i][dst] += q * u[i][src]

    def swap_col(a, b):
        for i in range(len(work)):
            work[i][a], work[i][b] = work[i][b], work[i][a]
        for i in range(ncols):
            u[i][a], u[i][b] = u[i][b], u[i][a]

    r = 0  # next column to place a pivot in
    for i in range(len(work)):
        # Find a nonzero entry in row i among columns >= r; reduce by gcd.
        while True:
            nz = [j for j in range(r, ncols) if work[i][j] != 0]
            if not nz:
                break
            if len(nz) == 1:
                if nz[0] != r:
                    swap_col(r, nz[0])
                break
            # Reduce all others by the column with the smallest |entry|.
            jmin = min(nz, key=lambda j: abs(work[i][j]))
            for j in nz:
                if j != jmin:
                    q = work[i][j] // work[i][jmin]
                    if q:
                        addmul_col(j, jmin, -q)
        if r < ncols and work[i][r] != 0:
            r += 1
        if r == ncols:
            break
    kernel = []
    for j in range(r, ncols):
        if all(work[i][j] == 0 for i in range(len(work))):
            kernel.append([u[i][j] for i in range(ncols)])
    return hnf_basis(kernel)


def snf_with_basis_reference(rows: List[List[int]]) -> Tuple[List[int], List[Vector]]:
    """Smith data of the column span, as linalg.snf_with_basis: divisors d_i
    and an ambient basis u_i with col(M) = span{d_1 u_1, .., d_r u_r}.

    Row operations on M are mirrored as inverse column operations on a
    tracked row-major matrix, whose columns give the u_i.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    u = identity(nrows)  # columns of R^{-1}

    def row_addmul(i, j, q):  # row_i -= q * row_j  =>  u col_j += q * col_i
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]
        for k in range(nrows):
            u[k][j] += q * u[k][i]

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        for k in range(nrows):
            u[k][i], u[k][j] = u[k][j], u[k][i]

    def row_negate(i):
        m[i] = [-x for x in m[i]]
        for k in range(nrows):
            u[k][i] = -u[k][i]

    divisors: List[int] = []
    top = 0
    while top < nrows and top < ncols:
        pivot = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                if m[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        while True:
            best = None
            for i in range(top, nrows):
                for j in range(top, ncols):
                    if m[i][j] != 0 and (
                        best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])
                    ):
                        best = (i, j)
            bi, bj = best
            if bi != top:
                row_swap(top, bi)
            if bj != top:
                for row in m:
                    row[top], row[bj] = row[bj], row[top]
            if m[top][top] < 0:
                row_negate(top)
            piv = m[top][top]
            done = True
            for i in range(top + 1, nrows):
                q = m[i][top] // piv
                if q:
                    row_addmul(i, top, q)
                if m[i][top] != 0:
                    done = False
            for j in range(top + 1, ncols):
                q = m[top][j] // piv
                if q:
                    for i in range(nrows):
                        m[i][j] -= q * m[i][top]
                if m[top][j] != 0:
                    done = False
            if done:
                break
        divisors.append(m[top][top])
        top += 1
    u_cols = [[u[i][j] for i in range(nrows)] for j in range(nrows)]
    return divisors, u_cols


def solve_q_reference(cols: List[Sequence], target: Sequence) -> Optional[List[Fraction]]:
    """Solve the rational system sum_j x_j cols[j] = target; None if none.
    The solution is zero at every column that depends on earlier ones.

    The solution is checked in integers: x scaled by the lcm of its
    denominators against every equation with its denominators cleared.
    """
    k = len(cols)
    system = [_integer_row([col[i] for col in cols] + [target[i]]) for i in range(len(target))]
    red, pivots = rref_q_reference(system)
    x = [Fraction(0)] * k
    for r, c in enumerate(pivots):
        if c == k:
            return None
        x[c] = red[r][k]
    scale = lcm(*[v.denominator for v in x])
    scaled = [v.numerator * (scale // v.denominator) for v in x]
    if any(sum(map(mul, row, scaled)) != row[k] * scale for row in system):
        return None
    return x


def rref_q_reference(rows: List[Sequence]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form over Q; returns (rref rows, pivot columns).

    Integer-preserving elimination (after Bareiss, Math. Comp. 1968): each row's
    denominators are cleared once, rows are combined as a*row_i - b*row_r and
    divided by their content, and pivots are divided out only in the returned
    rows.  The reduced row echelon form is unique, so it equals Gauss-Jordan's.
    """
    m = [_integer_row(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        row_r = m[r]
        b = row_r[c]
        for i in range(nrows):
            a = m[i][c]
            if a and i != r:
                g = gcd(a, b)
                s, t = b // g, a // g
                new = [s * x - t * y for x, y in zip(m[i], row_r)]
                g = gcd(*new)
                m[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    return out + [[Fraction(0)] * ncols for _ in range(nrows - r)], pivots


def _integer_row(row: Sequence) -> List[int]:
    """The primitive integer multiple of a row of ints/Fractions (zero stays zero)."""
    den = lcm(*[x.denominator for x in row])
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def kernel_q_reference(rows: List[Sequence], ncols: int) -> List[List[Fraction]]:
    """The rational kernel in reduced form: for each free column, 1 there,
    0 at the other free columns, read off rref_q_reference."""
    red, pivots = rref_q_reference(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fcol in free:
        v = [Fraction(0)] * ncols
        v[fcol] = Fraction(1)
        for r, pcol in enumerate(pivots):
            v[pcol] = -red[r][fcol]
        basis.append(v)
    return basis


def p_valuation_reference(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def local_scale_power_reference(values: Sequence, p: Optional[int]) -> Optional[int]:
    """The Z_(p) rule: the least k >= 0 with p^k * x in Z_(p) for every value.

    A denominator prime to p is a unit, and p^k in a denominator means
    "inside after scaling by p^k".  Over Z (p None) a denominator other
    than 1 means outside: the result is 0 or None.
    """
    k = 0
    for x in values:
        den = Fraction(x).denominator
        if den != 1:
            if p is None:
                return None
            k = max(k, p_valuation_reference(den, p))
    return k
