"""F_p routines on plain lists that the tests use as references.

They pack into weylchow.linalg.FpSubspace and unpack again, so they refuse
p >= 17 as it does.  A matrix is a list of rows, a vector a list of ints.
q0_homology is the Q_0-homology oracle for charts, read off list matrices.
"""

from typing import Dict, List, Optional, Tuple

from weylchow.linalg import FpSubspace, Vector
from weylchow.steenrod import SteenrodError


def rref_fp(rows: List[List[int]], p: int) -> Tuple[List[List[int]], List[int]]:
    """Reduced row echelon form mod p; returns (rref rows, pivot columns)."""
    ncols = len(rows[0]) if rows else 0
    sub = FpSubspace(p, [FpSubspace.pack(p, row) for row in rows])
    red = [FpSubspace.unpack(p, v, ncols) for v in sub.rows]
    return red + [[0] * ncols for _ in range(len(rows) - len(red))], sub.pivots


def rank_fp(rows: List[List[int]], p: int) -> int:
    """Rank mod p."""
    return len(rref_fp(rows, p)[1])


def kernel_fp(rows: List[List[int]], ncols: int, p: int) -> List[Vector]:
    """Basis of the right null space mod p (columns as vectors of length ncols)."""
    red, pivots = rref_fp(rows, p)
    basis = []
    for fcol in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[fcol] = 1
        for row, pcol in zip(red, pivots):
            v[pcol] = -row[fcol] % p
        basis.append(v)
    return basis


def solve_fp(cols: List[Vector], target: Vector, p: int) -> Optional[Vector]:
    """Solve sum_j x_j cols[j] = target mod p; None if inconsistent."""
    n = len(target)
    k = len(cols)
    rows = [[cols[j][i] for j in range(k)] + [target[i]] for i in range(n)]
    red, pivots = rref_fp(rows, p)
    x = [0] * k
    for r, c in enumerate(pivots):
        if c == k:
            return None
        x[c] = red[r][k]
    # Pivots give one solution since non-pivot free vars are set to 0.
    check = [sum(cols[j][i] * x[j] for j in range(k)) % p for i in range(n)]
    if check != [t % p for t in target]:
        return None
    return x


def q0_homology(
    dims_by_degree: Dict[int, int],
    q0_matrices: Dict[int, List[List[int]]],
    p: int,
) -> Dict[int, int]:
    """Rank of ker(Q_0)/im(Q_0) per degree.

    dims_by_degree gives the mod-p basis dimension in each degree;
    q0_matrices[n] is the matrix of Q_0 from degree n to degree n+1 (rows
    indexed by the target basis).  Degrees outside the dict are treated as
    zero.  Raises if Q_0 fails to square to zero where both maps are known.
    """
    out: Dict[int, int] = {}
    for n, dim in sorted(dims_by_degree.items()):
        m_out = q0_matrices.get(n)
        m_in = q0_matrices.get(n - 1) if dim and dims_by_degree.get(n - 1, 0) else None
        if m_out is not None and m_in is not None and any(
                sum(a * b for a, b in zip(row, col)) % p for row in m_out for col in zip(*m_in)):
            raise SteenrodError("Q_0 composed with Q_0 is nonzero at degree %d" % (n - 1))
        if not dims_by_degree.get(n + 1, 0):
            m_out = None
        out[n] = dim - sum(rank_fp(m, p) for m in (m_out, m_in) if m is not None)
    return out
