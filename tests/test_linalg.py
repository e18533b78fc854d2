import random

from fractions import Fraction

import pytest

from weylchow import linalg
from weylchow.linalg import (
    ExactMatrix,
    SubmoduleBasis,
    kernel,
    membership,
    rank_per_domain,
)
from weylchow.poly import F2, QQ, ZZ, z_local


def test_kernel_identity_empty():
    m = ExactMatrix(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert kernel(m).rank == 0


def test_kernel_zero_map_full():
    m = ExactMatrix(ZZ, [[0, 0, 0], [0, 0, 0]])
    assert kernel(m).rank == 3


def test_kernel_diagonal_by_hand():
    # [[2,0],[0,1]] as a map Z^2 -> Z^2: kernel empty, Smith sees index 2
    m = ExactMatrix(ZZ, [[2, 0], [0, 1]])
    assert kernel(m).rank == 0
    profile = rank_per_domain(m, 2)
    assert profile.rank_q == 2
    assert profile.rank_fp == 1
    assert sorted(profile.valuations) == [0, 1]


def test_rank_per_domain_diag_124():
    m = ExactMatrix(ZZ, [[1, 0, 0], [0, 2, 0], [0, 0, 4]])
    profile = rank_per_domain(m, 2)
    assert profile.rank_q == 3
    assert profile.rank_fp == 1
    assert sorted(profile.valuations) == [0, 1, 2]


def test_rank_per_domain_zero():
    m = ExactMatrix(ZZ, [[0, 0], [0, 0]])
    profile = rank_per_domain(m, 2)
    assert profile.rank_q == 0 and profile.rank_fp == 0


def test_membership_with_scaling():
    # span{w4^2-direction, 2 * w8-direction} over Z_(2) in coordinates
    span = SubmoduleBasis(z_local(2), ["a", "b"], [[1, 0], [0, 2]])
    inside = membership([2, 2], span)
    assert inside.inside and inside.scale_power == 0
    outside = membership([0, 1], span)
    assert not outside.inside and outside.scale_power == 1
    zero = membership([0, 0], span)
    assert zero.inside
    really_outside = membership([1, 1], SubmoduleBasis(z_local(2), ["a", "b"], [[2, 0]]))
    assert not really_outside.inside and really_outside.scale_power is None


@pytest.mark.parametrize(
    "p, generator, verdict",
    [
        (2, 3, "inside"),  # 1/3 is a unit of Z_(2)
        (2, 6, "inside-after-scaling p^1"),
        (3, 2, "inside"),
        (2, 4, "inside-after-scaling p^2"),
    ],
)
def test_membership_unit_denominators_over_z_local(p, generator, verdict):
    span = SubmoduleBasis(z_local(p), ["a"], [[generator]])
    assert membership([1], span).verdict == verdict


def test_membership_over_z_rejects_fractions():
    span = SubmoduleBasis(ZZ, ["a"], [[2]])
    res = membership([1], span)
    assert not res.inside and res.scale_power is None


def test_kernel_is_saturated_random():
    rng = random.Random(11)
    for _ in range(20):
        rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)]
        ker = linalg.kernel_z(rows, 5)
        for vec in ker:
            assert all(sum(r[j] * vec[j] for j in range(5)) == 0 for r in rows)
        # saturation: any rational kernel vector cleared to integers lies in the lattice
        qker = linalg.kernel_q([[Fraction(x) for x in r] for r in rows], 5)
        for qv in qker:
            lcm = 1
            for c in qv:
                lcm = lcm * c.denominator // __import__("math").gcd(lcm, c.denominator)
            iv = [int(c * lcm) for c in qv]
            assert linalg.lattice_contains(ker, iv)


def test_preimage_kernel():
    # images of two generators: e1+e2 and 2e1; target lattice spanned by 2e1, 2e2
    mat_cols = [[1, 1], [2, 0]]
    target = [[2, 0], [0, 2]]
    pre = linalg.preimage_kernel(mat_cols, target)
    # c1*(e1+e2) + c2*2e1 in 2Z^2 iff c1 even
    assert linalg.lattice_contains(pre, [2, 0])
    assert linalg.lattice_contains(pre, [0, 1])
    assert not linalg.lattice_contains(pre, [1, 0])


def test_hnf_basis_prunes_and_reduces():
    basis = linalg.hnf_basis([[2, 0], [4, 0], [0, 3]])
    assert basis == [[2, 0], [0, 3]]


def test_snf_with_basis_reconstructs_span():
    rng = random.Random(3)
    for _ in range(15):
        n, k = 4, rng.randint(1, 4)
        cols = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        rows = [[cols[j][i] for j in range(k)] for i in range(n)]
        divisors, u_cols = linalg.snf_with_basis(rows)
        span = [
            [d * u_cols[i][j] for j in range(n)] for i, d in enumerate(divisors)
        ]
        assert linalg.lattice_eq(
            linalg.hnf_basis([list(c) for c in cols]),
            linalg.hnf_basis(span),
        )


def test_fp_solve_and_kernel():
    # over F_3: columns (1,1), (2,1); solve for (0,2)
    sol = linalg.solve_fp([[1, 1], [2, 1]], [0, 2], 3)
    assert sol is not None
    assert [(sol[0] * 1 + sol[1] * 2) % 3, (sol[0] + sol[1]) % 3] == [0, 2]
    assert linalg.solve_fp([[1, 0]], [0, 1], 3) is None


def test_rank_fp_f2_bitset_path():
    rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert linalg.rank_fp(rows, 2) == 2
