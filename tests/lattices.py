"""Integer-lattice routines that the tests use as references.

A lattice is given by a list of spanning vectors (columns); these are slow,
plain constructions on top of weylchow.linalg's integer kernels.
"""

from typing import List

from weylchow.linalg import Vector, hnf_basis, identity, is_zero_vec, kernel_z, solve_q


def lattice_contains(cols: List[Vector], target: Vector) -> bool:
    x = solve_q(cols, target)
    return x is not None and all(c.denominator == 1 for c in x)


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
    if all(is_zero_vec(c) for c in mat_cols):
        return identity(k)
    rows = []
    for i in range(n):
        rows.append([mat_cols[j][i] for j in range(k)] + [-target_lattice[j][i] for j in range(t)])
    ker = kernel_z(rows, k + t)
    return hnf_basis([v[:k] for v in ker])
