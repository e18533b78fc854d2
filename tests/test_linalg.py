import random

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fp_reference import kernel_fp, rank_fp, rref_fp, solve_fp
from lattices import (kernel_q_reference, kernel_z_reference, lattice_contains, lattice_eq,
                      local_scale_power_reference, preimage_kernel, rref_q_reference,
                      snf_with_basis_reference, solve_q_reference)
from weylchow import linalg
from weylchow.groups import build_weyl_f4, build_weyl_so, build_weyl_spin
from weylchow.invariants import InvariantError, algebra_generators, invariant_report
from weylchow.linalg import SubmoduleBasis, membership
from weylchow.poly import F2, F3, FP_PRIMES, QQ, ZZ, PolyError, fp, z_local


def test_kernel_identity_empty():
    assert kernel_fp([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3, 2) == []


def test_kernel_zero_map_full():
    zero = [[0, 0, 0], [0, 0, 0]]
    assert len(linalg.kernel_z(zero, 3)) == 3
    assert len(kernel_fp(zero, 3, 2)) == 3


def test_kernel_diagonal_by_hand():
    # [[2,0],[0,1]] as a map Z^2 -> Z^2: kernel empty, Smith sees index 2
    rows = [[2, 0], [0, 1]]
    assert linalg.kernel_z(rows, 2) == []
    assert kernel_fp(rows, 2, 2) == [[1, 0]]
    assert linalg.snf_with_basis(rows)[0] == [1, 2]
    assert linalg.rank_q(rows) == 2 and rank_fp(rows, 2) == 1


def test_smith_divisors_diag_124():
    rows = [[1, 0, 0], [0, 2, 0], [0, 0, 4]]
    assert linalg.snf_with_basis(rows)[0] == [1, 2, 4]
    assert linalg.rank_q(rows) == 3 and rank_fp(rows, 2) == 1


def test_smith_divisors_zero():
    rows = [[0, 0], [0, 0]]
    assert linalg.snf_with_basis(rows)[0] == []
    assert linalg.rank_q(rows) == 0 and rank_fp(rows, 2) == 0


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


@pytest.mark.parametrize(
    "domain, vector, generator, inside",
    [
        (F2, [1], [2], False),  # 2 = 0 in F_2: the span is zero
        (F2, [1], [3], True),
        (F3, [1, 0], [2, 0], True),
    ],
)
def test_membership_over_fp_reduces_mod_p(domain, vector, generator, inside):
    res = membership(vector, SubmoduleBasis(domain, ["a", "b"][:len(vector)], [generator]))
    assert res.inside == inside
    assert res.verdict == ("inside" if inside else "outside")


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
        qker = kernel_q_reference([[Fraction(x) for x in r] for r in rows], 5)
        for qv in qker:
            lcm = 1
            for c in qv:
                lcm = lcm * c.denominator // __import__("math").gcd(lcm, c.denominator)
            iv = [int(c * lcm) for c in qv]
            assert lattice_contains(ker, iv)


_ENTRIES = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-2**40, 2**40))


@st.composite
def _integer_systems(draw):
    """(rows, ncols) of an integer matrix, some rows zero, entries up to 2^40."""
    n = draw(st.integers(0, 6))
    row = st.one_of(st.just([0] * n), st.lists(_ENTRIES, min_size=n, max_size=n))
    return draw(st.lists(row, max_size=8)), n


@given(_integer_systems(), st.randoms(use_true_random=False))
@example(([], 0), random.Random(0))
@example(([[], []], 0), random.Random(0))
@example(([], 3), random.Random(0))
@example(([[0, 0, 0], [0, 0, 0]], 3), random.Random(0))
@example(([[1, 2], [3, 4], [5, 6]], 2), random.Random(0))
@example(([[2**40, 3, 0], [0, 0, 0], [2**40 + 1, 2**39, -2**40]], 3), random.Random(0))
@example(([[1, 1, 1, 1], [0, 0, 2, 0], [3, 0, 0, 5], [0, 0, 0, 0]], 4), random.Random(0))
@settings(max_examples=300, deadline=None)
def test_kernel_z_matches_the_tracked_transform_reference(system, rng):
    """Also on the rows permuted: kernel_z sorts them sparsest first, and
    its answer may not depend on their order."""
    rows, n = system
    kernel = linalg.kernel_z(rows, n)
    assert kernel == kernel_z_reference(rows, n)
    assert kernel == linalg.hnf_basis(kernel)
    permuted = rng.sample(rows, len(rows))
    assert linalg.kernel_z(permuted, n) == kernel == kernel_z_reference(permuted, n)


@pytest.mark.parametrize("action, degree, p", [(build_weyl_spin(3), 36, 2), (build_weyl_f4(), 32, 3)],
                         ids=["spin3-zlocal2-36", "f4-zlocal3-32"])
def test_kernel_z_matches_the_reference_on_the_invariant_lattices(monkeypatch, action, degree, p):
    """Every kernel_z input of a Z_(p) invariant walk, captured by wrapping it."""
    calls, kernel_z = [], linalg.kernel_z

    def capturing(rows, ncols):
        calls.append(([list(row) for row in rows], ncols))
        return kernel_z(rows, ncols)

    monkeypatch.setattr(linalg, "kernel_z", capturing)
    invariant_report(action, degree, z_local(p))
    assert calls
    for rows, n in calls:
        kernel = kernel_z(rows, n)
        assert kernel == kernel_z_reference(rows, n)
        assert kernel == linalg.hnf_basis(kernel)


@given(_integer_systems())
@example(([], 0))
@example(([[], []], 0))
@example(([[0, 0, 0], [0, 0, 0]], 3))
@example(([[1, 2], [3, 4], [5, 6]], 2))
@example(([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], 3))
@example(([[2**40, 3, 0], [0, 0, 0], [2**40 + 1, 2**39, -2**40]], 3))
@settings(max_examples=300, deadline=None)
def test_snf_with_basis_matches_the_tracked_transform_reference(system):
    rows = system[0]
    copy = [list(row) for row in rows]
    assert linalg.snf_with_basis(rows) == snf_with_basis_reference(rows)
    assert rows == copy


@pytest.mark.parametrize("action, domain, degree, refusal", [
    (build_weyl_spin(3), z_local(2), 28, None), (build_weyl_spin(3), ZZ, 28, None),
    (build_weyl_so(3), ZZ, 24, None), (build_weyl_so(4), z_local(2), 24, None),
    (build_weyl_spin(4), z_local(2), 24, None), (build_weyl_so(5), z_local(3), 20, None),
    (build_weyl_f4(), z_local(3), 36, "divisor 3"),
], ids=["spin3-zlocal2-28", "spin3-z-28", "so3-z-24", "so4-zlocal2-24", "spin4-zlocal2-24",
        "so5-zlocal3-20", "f4-zlocal3-36"])
def test_snf_with_basis_matches_the_reference_on_the_generator_walks(monkeypatch, action, domain,
                                                                       degree, refusal):
    """Every snf_with_basis input of a generator extraction, captured by
    wrapping it; the walk for W(F_4) over Z_(3) is refused at a divisor 3."""
    calls, snf_with_basis = [], linalg.snf_with_basis

    def capturing(rows):
        calls.append([list(row) for row in rows])
        return snf_with_basis(rows)

    monkeypatch.setattr(linalg, "snf_with_basis", capturing)
    report = invariant_report(action, degree, domain)
    if refusal:
        with pytest.raises(InvariantError, match=refusal):
            algebra_generators(report, degree)
    else:
        algebra_generators(report, degree)
    assert calls
    for rows in calls:
        assert snf_with_basis(rows) == snf_with_basis_reference(rows)


def test_preimage_kernel():
    # images of two generators: e1+e2 and 2e1; target lattice spanned by 2e1, 2e2
    mat_cols = [[1, 1], [2, 0]]
    target = [[2, 0], [0, 2]]
    pre = preimage_kernel(mat_cols, target)
    # c1*(e1+e2) + c2*2e1 in 2Z^2 iff c1 even
    assert lattice_contains(pre, [2, 0])
    assert lattice_contains(pre, [0, 1])
    assert not lattice_contains(pre, [1, 0])


def test_hnf_basis_prunes_and_reduces():
    basis = linalg.hnf_basis([[2, 0], [4, 0], [0, 3]])
    assert basis == [[2, 0], [0, 3]]


def test_hnf_basis_is_canonical():
    """Every generating set of one lattice gives the same reduced basis: each
    entry at a later basis vector's pivot row lies in [0, that pivot)."""
    rng = random.Random(11)
    for _ in range(200):
        n, k = 5, rng.randint(1, 4)
        base = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        mixed = [list(v) for v in base]
        for _ in range(6):  # unimodular column operations and a redundant column
            i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
            c = rng.randint(-3, 3)
            if i != j:
                mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
        coeffs = [rng.randint(-2, 2) for _ in base]
        mixed.append([sum(c * v[r] for c, v in zip(coeffs, base)) for r in range(n)])
        want = linalg.hnf_basis([list(v) for v in base])
        assert linalg.hnf_basis(mixed) == want
        pivots = [next(r for r in range(n) if v[r]) for v in want]
        for a, v in enumerate(want):
            assert all(0 <= v[pivots[b]] < want[b][pivots[b]] for b in range(a + 1, len(want)))


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
        assert lattice_eq(
            linalg.hnf_basis([list(c) for c in cols]),
            linalg.hnf_basis(span),
        )


def test_fp_solve_and_kernel():
    # over F_3: columns (1,1), (2,1); solve for (0,2)
    sol = solve_fp([[1, 1], [2, 1]], [0, 2], 3)
    assert sol is not None
    assert [(sol[0] * 1 + sol[1] * 2) % 3, (sol[0] + sol[1]) % 3] == [0, 2]
    assert solve_fp([[1, 0]], [0, 1], 3) is None


def test_rank_fp_f2_bitset_path():
    rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert rank_fp(rows, 2) == 2


def _plain_rref(rows, p):
    """Gauss-Jordan mod p on lists: (nonzero rref rows, pivot columns)."""
    m = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(len(m[0])):
        r = len(pivots)
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        m[r] = [x * pow(m[r][c], p - 2, p) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [(x - m[i][c] * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


@pytest.mark.parametrize("p, n, r", [(3, 150, 100), (5, 40, 30)])
def test_fp_subspace_wide_vectors_match_plain_lists(p, n, r):
    """Vectors with more nonzero coordinates than a byte could hold unfolded
    products of (p - 1)^2 (63 at p = 3, 15 at p = 5): image, reduce, insert
    and coordinates against plain lists."""
    Sub = linalg.FpSubspace
    rnd = random.Random(p)
    top = [p - 1] * n
    # image: every coefficient and every column entry p - 1
    cols = [[p - 1] * n for _ in range(n)]
    assert Sub.unpack(p, Sub.image(p, [Sub.pack(p, c) for c in cols], Sub.pack(p, top)), n) \
        == [sum((p - 1) * col[i] for col in cols) % p for i in range(n)]
    # rows e_i + (p - 1) * (e_r + .. + e_{n-1}), inserted last pivot first: the
    # reduced echelon form as given; reducing (1, .., 1) adds (p - 1) * row r times
    rows = [[int(j == i) if j < r else p - 1 for j in range(n)] for i in range(r)]
    sub = Sub(p, [Sub.pack(p, row) for row in reversed(rows)])
    assert [Sub.unpack(p, v, n) for v in sub] == rows and sub.pivots == list(range(r))
    assert Sub.unpack(p, sub.reduce(Sub.pack(p, [1] * n)), n) \
        == [0] * r + [(1 - r * (p - 1)) % p] * (n - r)
    # insert: a dense random matrix against Gauss-Jordan on lists
    dense = [[rnd.randrange(p) for _ in range(n)] for _ in range(r)] + [top]
    sub = Sub(p, [Sub.pack(p, row) for row in dense])
    red, pivots = _plain_rref(dense, p)
    assert [Sub.unpack(p, v, n) for v in sub] == red and sub.pivots == pivots
    # coordinates in that echelon basis, and None outside its span
    coeffs = [rnd.randrange(p) for _ in red[:-1]] + [p - 1]
    target = [sum(c * row[i] for c, row in zip(coeffs, red)) % p for i in range(n)]
    tracked = Sub.tracking(p, sub.rows, n)
    assert Sub.unpack(p, tracked.coordinates(Sub.pack(p, target), n), len(red)) == coeffs
    outside = [int(j == n - 1) for j in range(n)]
    assert (tracked.coordinates(Sub.pack(p, outside), n) is None) == (len(red) < n)


@st.composite
def _fp_systems(draw):
    """Columns of a matrix over F_p, p in poly.FP_PRIMES, with no rows or no
    columns allowed and some columns that depend on earlier ones, and a
    target in their span or a random one.  Entries lie in [-p, 2p)."""
    p = draw(st.sampled_from(FP_PRIMES))
    nrows = draw(st.integers(0, 5))

    def vec():
        return draw(st.lists(st.integers(-p, 2 * p - 1), min_size=nrows, max_size=nrows))

    cols = [vec() for _ in range(draw(st.integers(0, 4)))]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(cols)))
        weights = [draw(st.integers(0, p - 1)) for _ in cols[:k]]
        cols.insert(k, [sum(w * col[i] for w, col in zip(weights, cols)) for i in range(nrows)])
    coeffs = [draw(st.integers(0, p - 1)) for _ in cols]
    target = [sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(nrows)]
    return p, nrows, cols, vec() if draw(st.booleans()) else target


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_fp_systems())
@example((2, 0, [[], []], []))  # no rows
@example((13, 3, [], [1, 0, 12]))  # no columns
def test_packed_kernel_and_solve_match_the_list_references(system):
    """FpSubspace.kernel gives kernel_fp's vectors in its order, and
    FpSubspace.solve gives solve_fp's solution, zero at every column that
    depends on earlier ones, or None with it."""
    p, nrows, cols, target = system
    Sub = linalg.FpSubspace
    packed = [Sub.pack(p, col) for col in cols]
    rows = [[col[i] for col in cols] for i in range(nrows)]
    kernel = Sub.kernel(p, packed, nrows)
    assert [Sub.unpack(p, v, len(cols)) for v in kernel] == kernel_fp(rows, len(cols), p)
    x, want = Sub.solve(p, packed, Sub.pack(p, target), nrows), solve_fp(cols, target, p)
    assert (None if x is None else Sub.unpack(p, x, len(cols))) == want
    if want is None:  # the target is outside the span: appending it raises the rank
        assert rank_fp(rows, p) < rank_fp([row + [t] for row, t in zip(rows, target)], p)


def test_fp_subspace_refuses_a_prime_whose_bytes_could_overflow():
    for p in (17, 19):  # p (p - 1) > 255
        with pytest.raises(linalg.LinalgError):
            linalg.FpSubspace(p)
    with pytest.raises(linalg.LinalgError):
        rank_fp([[1, 2], [3, 4]], 17)
    assert rank_fp([[1, 2], [3, 4]], 13) == 2


# ---------------------------------------------------------------------------
# Oracle: Fraction Gauss-Jordan against the integer-preserving rref_q_reference
# and against linalg.rank_q, which counts the pivots of the integer echelon
# ---------------------------------------------------------------------------


def _reference_rref(rows):
    """Plain Gauss-Jordan over Fractions, one Fraction operation per entry."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _reference_kernel(rows, ncols):
    red, pivots = _reference_rref(rows)
    basis = []
    for fcol in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fcol] = Fraction(1)
        for r, pcol in enumerate(pivots):
            v[pcol] = -red[r][fcol]
        basis.append(v)
    return basis


def _reference_solve(cols, target):
    k = len(cols)
    rows = [[cols[j][i] for j in range(k)] + [target[i]] for i in range(len(target))]
    red, pivots = _reference_rref(rows)
    if k in pivots:
        return None
    x = [Fraction(0)] * k
    for r, c in enumerate(pivots):
        x[c] = red[r][k]
    return x


_entries = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 6, 10])),
)


@st.composite
def _rational_systems(draw):
    """A matrix with zero rows and columns and dependent rows mixed in,
    and a target that is in its column span or (when possible) not."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = [[draw(_entries) for _ in range(ncols)] for _ in range(nrows)]
    for zero_col in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[zero_col] = 0
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, nrows)), [0] * ncols)
    if draw(st.booleans()):
        weights = [draw(st.integers(-2, 2)) for _ in rows]
        rows.append([sum(w * row[j] for w, row in zip(weights, rows)) for j in range(ncols)])
    cols = [[row[j] for row in rows] for j in range(ncols)]
    coeffs = [draw(_entries) for _ in cols]
    target = [sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(len(rows))]
    if draw(st.booleans()):
        target[draw(st.integers(0, len(rows) - 1))] += draw(st.sampled_from([1, Fraction(1, 3)]))
    return rows, cols, target


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_rational_systems())
def test_rational_elimination_matches_fraction_gauss_jordan(system):
    rows, cols, target = system
    ncols = len(rows[0])
    expected = _reference_rref(rows)
    assert rref_q_reference(rows) == expected
    assert all(type(x) is Fraction for row in rref_q_reference(rows)[0] for x in row)
    assert linalg.rank_q(rows) == len(expected[1])
    assert kernel_q_reference(rows, ncols) == _reference_kernel(rows, ncols)
    solution = solve_q_reference(cols, target)
    assert solution == _reference_solve(cols, target)
    if solution is not None:
        assert all(sum(x * col[i] for x, col in zip(solution, cols)) == target[i]
                   for i in range(len(target)))


def _prime_factors(n):
    q = 2
    while n > 1:
        if n % q == 0:
            yield q
            while n % q == 0:
                n //= q
        q += 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_rational_systems(), st.sampled_from([QQ, ZZ, z_local(2), z_local(3)]))
def test_solve_gives_the_least_multiplier(system, domain):
    rows, cols, target = system
    expected = _reference_solve(cols, target)
    found = linalg.solve(domain, cols, target)
    assert (found is None) == (expected is None)
    if found is None:
        return
    g, y = found
    assert g > 0 and all(type(c) is int for c in y)
    assert all(g * target[i] == sum(c * col[i] for c, col in zip(y, cols))
               for i in range(len(target)))
    if linalg.rank_q(rows) == len(cols):  # independent columns: x is unique
        assert g == lcm(*(x.denominator for x in expected))
        assert y == [g * x for x in expected]
        p = None if domain is ZZ else domain.p
        if domain is not QQ:
            assert domain.scale_power(g) == local_scale_power_reference(expected, p)
    # g is least: the multipliers of target into the Z-span form an ideal,
    # so it is enough that g / q misses the span for every prime q | g.
    den = lcm(*(x.denominator for x in target), *(x.denominator for row in rows for x in row))
    lattice = [[int(x * den) for x in col] for col in cols]
    for h in [g] + [g // q for q in _prime_factors(g)]:
        with_target = lattice + [[int(h * x * den) for x in target]]
        assert lattice_eq(lattice, with_target) == (h == g)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.integers(-10 ** 6, 10 ** 6).filter(bool), st.sampled_from(FP_PRIMES))
def test_scale_power_matches_the_reference_rule(g, p):
    unit = [Fraction(1, g)]
    assert z_local(p).scale_power(g) == local_scale_power_reference(unit, p)
    assert ZZ.scale_power(g) == local_scale_power_reference(unit, None)
    assert QQ.scale_power(g) == 0
    assert fp(p).scale_power(g) == (None if g % p == 0 else 0)


def test_scale_power_of_zero_is_refused():
    with pytest.raises(PolyError):
        z_local(2).scale_power(0)


# ---------------------------------------------------------------------------
# Oracle: FpSubspace against spans enumerated as sets of vectors
# ---------------------------------------------------------------------------


def _span_set(vectors, p, n):
    """Every F_p-combination of the vectors (lists of length n), as tuples."""
    out = {(0,) * n}
    for v in vectors:
        out = {tuple((x + c * y) % p for x, y in zip(u, v)) for u in out for c in range(p)}
    return out


def _as_set(sub, n):
    return _span_set([linalg.FpSubspace.unpack(sub.p, v, n) for v in sub], sub.p, n)


@st.composite
def _subspace_cases(draw):
    """Spans A, B in F_p^n, the columns of a matrix M: F_p^n -> F_p^m, a span
    C in F_p^m, a test vector and a split coordinate, for p in {2, 3, 5}.
    Entries lie in [-p, 2p), so packing must reduce them."""
    p = draw(st.sampled_from([2, 3, 5]))
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 4))

    def vec(size):
        return draw(st.lists(st.integers(-p, 2 * p - 1), min_size=size, max_size=size))

    def vectors(size, max_size):
        return [vec(size) for _ in range(draw(st.integers(0, max_size)))]

    a = vectors(n, 4)
    if a and draw(st.booleans()):  # a dependent vector
        a.append([sum(row[j] for row in a) for j in range(n)])
    return p, n, m, a, vectors(n, 3), vectors(m, 3), [vec(m) for _ in range(n)], vec(n), \
        draw(st.integers(0, n))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_subspace_cases())
def test_fp_subspace_matches_enumerated_spans(case):
    p, n, m, a, b, c, m_cols, v, start = case
    Sub = linalg.FpSubspace

    def pack(vec):
        return Sub.pack(p, vec)

    def span(vectors, size):
        return _span_set([[x % p for x in row] for row in vectors], p, size)

    sub_a, span_a = Sub(p, [pack(x) for x in a]), span(a, n)
    # The rows are the nonzero rows of rref_fp, with its pivots, and they are
    # in reduced echelon form: the unique such basis of the enumerated span.
    red, pivots = rref_fp(a, p)
    rows = [Sub.unpack(p, r, n) for r in sub_a]
    assert rows == red[: len(pivots)] and sub_a.pivots == pivots
    assert pivots == sorted(set(pivots))
    for row, col in zip(rows, pivots):
        assert not any(row[:col]) and row[col] == 1
        assert [other[col] for other in rows] == [int(other is row) for other in rows]
    assert _as_set(sub_a, n) == span_a
    # reduce: the one vector of v + A that is zero at every pivot
    vv = tuple(x % p for x in v)
    rem = tuple(Sub.unpack(p, sub_a.reduce(pack(v)), n))
    coset = {tuple((x + y) % p for x, y in zip(vv, w)) for w in span_a}
    assert [w for w in coset if not any(w[j] for j in pivots)] == [rem]
    assert sub_a.contains(pack(v)) == (vv in span_a)
    # sum
    span_b = span(b, n)
    assert _as_set(sub_a + Sub(p, [pack(x) for x in b]), n) == {
        tuple((x + y) % p for x, y in zip(u, w)) for u in span_a for w in span_b}
    # torsion intersection: the vectors of A that vanish below start
    assert _as_set(sub_a.tail(start), n) == {w for w in span_a if not any(w[:start])}
    # conditioned kernel {x in A : M x in C}
    cols = [pack(col) for col in m_cols]
    images = [Sub.image(p, cols, row) for row in sub_a]
    span_c = span(c, m)

    def apply(x):
        return tuple(sum(xj * col[i] for xj, col in zip(x, m_cols)) % p for i in range(m))

    kernel = sub_a.preimage(images, Sub(p, [pack(x) for x in c]), m)
    assert _as_set(kernel, n) == {x for x in span_a if apply(x) in span_c}
    # coordinates in the echelon basis of A
    coords = Sub.tracking(p, sub_a.rows, n).coordinates(pack(v), n)
    if vv not in span_a:
        assert coords is None
    else:
        basis = [Sub.unpack(p, r, n) for r in sub_a]
        cl = Sub.unpack(p, coords, len(basis))
        assert tuple(sum(cj * r[i] for cj, r in zip(cl, basis)) % p for i in range(n)) == vv
