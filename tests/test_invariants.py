import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import weylchow.groups as groups_mod
from fp_reference import kernel_fp
from poly_reference import substitute
from test_groups import _conjugated_so7
from weylchow import invariants as inv_mod
from weylchow import linalg
from weylchow.groups import (GroupAction, _freeze, _invert, build_gl, build_weyl_f4, build_weyl_so,
                             build_weyl_spin, mat_identity, mat_mul)
from weylchow.invariants import (
    algebra_generators,
    basis_polynomials,
    invariant_basis,
    invariant_report,
    poincare_series,
    signed_permutation,
    subring_membership,
)
from weylchow.linalg import FpSubspace, SubmoduleBasis, hnf_basis, kernel_z
from weylchow.poly import (F2, F3, QQ, ZZ, PolyError, Polynomial, compositions, degree_slice, fp,
                           power_products, signature, z_local)
from weylchow.series import expand_series


def test_s2pm_degree4_basis():
    action = build_weyl_so(2)
    basis = invariant_basis(action, 4, ZZ)
    polys = basis_polynomials(basis, action.signature(ZZ))
    assert len(polys) == 1
    assert str(polys[0]) == "t1^2 + t2^2"


def test_gl2_degree3_is_dickson_d0():
    action = build_gl(2)
    basis = invariant_basis(action, 3, F2)
    polys = basis_polynomials(basis, action.signature(F2))
    assert [str(p) for p in polys] == ["x1^2*x2 + x1*x2^2"]


def test_degree_zero_rank_one():
    assert invariant_basis(build_weyl_so(2), 0, ZZ).rank == 1


def test_trivial_action_even_ranks():
    action = GroupAction("trivial", ("t1",), 2, (mat_identity(1),))
    ranks = poincare_series(action, 8, ZZ)
    assert ranks == {0: 1, 2: 1, 4: 1, 6: 1, 8: 1}


def test_s3pm_pontryagin_series():
    want = expand_series("1/((1-t^4)(1-t^8)(1-t^12))", 24)
    got = poincare_series(build_weyl_so(3), 24, ZZ)
    assert all(got[d] == want[d] for d in range(0, 25, 2))


def test_spin3_series_matches_so3():
    want = expand_series("1/((1-t^4)(1-t^8)(1-t^12))", 20)
    got = poincare_series(build_weyl_spin(3), 20, z_local(2))
    assert all(got[d] == want[d] for d in range(0, 21, 2))


def test_gl_series_in_x_degree():
    for h in (2, 3):
        denom = "".join("(1-t^%d)" % (2**h - 2**i) for i in range(h))
        want = expand_series("1/(%s)" % denom, 14)
        got = poincare_series(build_gl(h), 14, F2)
        assert all(got[d] == want[d] for d in range(15))


def test_f4_rational_ranks_low_degrees():
    f4 = build_weyl_f4()
    got = [invariant_basis(f4, d, QQ).rank for d in (4, 8, 12)]
    want_series = expand_series("1/((1-t^4)(1-t^12)(1-t^16)(1-t^24))", 12)
    assert got == [want_series[4], want_series[8], want_series[12]] == [1, 1, 2]


def test_subring_membership_square():
    from weylchow.dickson import build_dickson

    ctx = build_dickson(2)
    inside, combo = subring_membership(ctx.d[0] * ctx.d[0], [ctx.d[0], ctx.d[1]])
    assert inside and combo == {(2, 0): 1}


def test_subring_membership_frobenius():
    from weylchow.dickson import build_dickson
    from weylchow.poly import parse

    ctx = build_dickson(2)
    f = parse("x1^4 + x1^2*x2^2 + x2^4", ctx.sig)
    inside, combo = subring_membership(f, [ctx.d[0], ctx.d[1]])
    assert inside
    assert combo == {(0, 2): 1}  # d_1^2 by the Frobenius


def test_subring_membership_outside():
    from weylchow.dickson import build_dickson
    from weylchow.poly import Polynomial

    ctx = build_dickson(2)
    x1 = Polynomial.gen(ctx.sig, "x1")
    inside, combo = subring_membership(x1, [ctx.d[0], ctx.d[1]])
    assert not inside and combo is None


def test_algebra_generators_spin3():
    report = invariant_report(build_weyl_spin(3), 16, z_local(2))
    assert [d for d, _ in algebra_generators(report, 16)] == [4, 8, 12]
    assert [d for d, _ in algebra_generators(report, 8)] == [4, 8]  # read only to max_degree


def test_algebra_generators_spin3_pinned():
    """w4, w8 and c6 of the Spin(7) audit, in the root coordinates of the
    spin rank-3 lattice, as Smith reduction picks them over Z_(2)."""
    report = invariant_report(build_weyl_spin(3), 16, z_local(2))
    gens = [(d, {m: int(c) for m, c in poly.terms.items()})
            for d, poly in algebra_generators(report, 16)]
    assert gens == [
        (4, {(0, 0, 2): 2, (0, 1, 1): -2, (0, 2, 0): 1, (1, 0, 1): -2, (1, 1, 0): 1, (2, 0, 0): 1}),
        (8, {(0, 0, 4): 1, (0, 1, 3): -2, (0, 2, 2): 1, (1, 0, 3): -2, (1, 1, 2): 3, (1, 2, 1): -1,
             (2, 0, 2): 1, (2, 1, 1): -1}),
        (12, {(2, 2, 2): 4, (2, 3, 1): -4, (2, 4, 0): 1, (3, 2, 1): -4, (3, 3, 0): 2, (4, 2, 0): 1}),
    ]


def test_algebra_generators_so2():
    gens = algebra_generators(invariant_report(build_weyl_so(2), 12, ZZ), 12)
    assert [d for d, _ in gens] == [4, 8]  # p_1 and p_2


@pytest.mark.parametrize("domain", [QQ, F2, F3])
def test_algebra_generators_refused_over_a_field(domain):
    report = invariant_report(build_weyl_so(2), 8, domain)
    message = "generator extraction works over Z and Z_(p)"
    with pytest.raises(inv_mod.InvariantError, match=re.escape(message)):
        algebra_generators(report, 8)


def test_algebra_generators_refused_past_the_report():
    report = invariant_report(build_weyl_so(2), 8, ZZ)
    with pytest.raises(inv_mod.InvariantError, match="the report stops below degree 12"):
        algebra_generators(report, 12)


@pytest.mark.parametrize("domain, divisor", [(z_local(2), 3), (z_local(3), 2), (ZZ, 1)])
def test_lattice_complement_accepts_unit_divisors(domain, divisor):
    # divisor * e_1 spans the e_1 direction over the domain: only e_2 is new
    inv = SubmoduleBasis(domain, ["a", "b"], [[1, 0], [0, 1]])
    assert inv_mod._lattice_complement(inv, [[divisor, 0]], domain) == [[0, 1]]


@pytest.mark.parametrize("domain, divisor", [(z_local(2), 2), (z_local(3), 6), (ZZ, 3)])
def test_lattice_complement_rejects_torsion_quotient(domain, divisor):
    inv = SubmoduleBasis(domain, ["a"], [[1]])
    with pytest.raises(inv_mod.InvariantError):
        inv_mod._lattice_complement(inv, [[divisor]], domain)


def test_subring_membership_unit_coefficient_over_z_local():
    sig = signature([("t", 2)], z_local(2))
    t = Polynomial.gen(sig, "t")
    assert subring_membership(t, [t.scale(3)]) == (True, {(1,): Fraction(1, 3)})
    assert subring_membership(t, [t.scale(2)]) == (False, None)


@pytest.mark.parametrize("domain, factors, inside", [
    (z_local(2), (1, 2), True),  # t is the first generator
    (ZZ, (1, 2), True),
    (QQ, (1, 2), True),
    (ZZ, (2, 3), True),  # t = 3t - 2t
    (z_local(3), (2, 6), True),  # 2 is a unit of Z_(3)
    (z_local(2), (2, 6), False),
    (ZZ, (2, 6), False),
])
def test_subring_membership_over_dependent_generators(domain, factors, inside):
    # The generator monomials t^a * (2t)^b span one line: a solution that is
    # zero at the dependent one can have a denominator that another avoids.
    t = Polynomial.gen(signature([("t", 2)], domain), "t")
    gens = [t.scale(c) for c in factors]
    found, combination = subring_membership(t, gens)
    assert found == inside
    if inside:
        total = Polynomial.zero(t.sig)
        for (a, b), c in combination.items():
            total = total + (gens[0] ** a * gens[1] ** b).scale(c)
        assert total == t
    else:
        assert combination is None


@pytest.mark.parametrize("domain", [F2, ZZ])
def test_subring_membership_refuses_a_constant_generator(domain):
    x = Polynomial.gen(signature([("x", 2)], domain), "x")
    with pytest.raises(inv_mod.InvariantError, match="positive degree"):
        subring_membership(x, [Polynomial.one(x.sig), x])


def _reference_membership(f, gens):
    """subring_membership over F_p the way it runs over Z, Q and Z_(p): every
    generator monomial of f's degree as a Polynomial (power_products), the
    columns over their support solved by linalg.solve."""
    if f.is_zero():
        return True, {}
    tuples = compositions([g.degree() for g in gens], f.degree())
    products = power_products(gens, [(Polynomial.one(f.sig), t) for t in tuples])
    support = sorted(set(f.terms).union(*(q.terms for q in products)))
    found = linalg.solve(f.sig.domain, [[q.terms.get(m, 0) for m in support] for q in products],
                         [f.terms.get(m, 0) for m in support]) if tuples else None
    if found is None:
        return False, None
    return True, {t: c for t, c in zip(tuples, found[1]) if c}


@st.composite
def _membership_cases(draw):
    """(f, generators) over F_2 or F_3 in 1 to 3 variables of weights 1 to 3
    (doubled over F_3, where odd degrees would be exterior): random
    homogeneous generators, sometimes with a dependent one (a multiple, a
    product or a sum of others), and a target: a random combination of the
    generator monomials of its degree, that plus a random polynomial of the
    degree (most often outside the span), or a nonzero constant."""
    p = draw(st.sampled_from((2, 3)))
    weights = [draw(st.integers(1, 3)) * (1 if p == 2 else 2)
               for _ in range(draw(st.integers(1, 3)))]
    sig = signature([("y%d" % i, w) for i, w in enumerate(weights)], fp(p))

    def homogeneous(deg):
        monos = degree_slice(sig, deg)
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
        return Polynomial(sig, {m: draw(st.integers(1, p - 1)) for m in chosen})

    gens = [homogeneous(sum(w * draw(st.integers(0, 2)) for w in weights) or weights[0])
            for _ in range(draw(st.integers(1, 3)))]
    extra = draw(st.sampled_from(("none", "multiple", "product", "sum")))
    if extra == "multiple":
        gens.append(gens[0].scale(p - 1))
    elif extra == "product":
        gens.append(gens[0] * gens[-1])
    elif extra == "sum" and gens[0].degree() == gens[-1].degree() and len(gens) > 1:
        gens.append(gens[0] + gens[-1])
    assume(all(not g.is_zero() for g in gens))
    kind = draw(st.sampled_from(("combination", "plus a monomial", "constant")))
    if kind == "constant":
        return Polynomial.constant(sig, draw(st.integers(1, p - 1))), gens
    t = draw(st.lists(st.integers(0, 2), min_size=len(gens), max_size=len(gens)).filter(any))
    deg = sum(e * g.degree() for e, g in zip(t, gens))
    f = Polynomial.zero(sig)
    for u in compositions([g.degree() for g in gens], deg):
        f = f + power_products(gens, [(Polynomial.one(sig), u)])[0].scale(
            draw(st.integers(1 if u == tuple(t) else 0, p - 1)))
    return (f + homogeneous(deg) if kind == "plus a monomial" else f), gens


@settings(max_examples=200, deadline=None)
@given(_membership_cases())
def test_grid_subring_solve_matches_the_reference_path(case):
    f, gens = case
    with mock.patch.object(inv_mod.linalg, "solve", side_effect=AssertionError("not the grid")):
        got = subring_membership(f, gens)
    assert got == _reference_membership(f, gens)
    if got[0]:
        total = Polynomial.zero(f.sig)
        for t, c in got[1].items():
            total = total + power_products(gens, [(Polynomial.one(f.sig), t)])[0].scale(c)
        assert total == f


def test_grid_subring_solve_on_a_constant_target_and_one_variable():
    t = Polynomial.gen(signature([("t", 2)], F3), "t")
    assert subring_membership(Polynomial.constant(t.sig, 2), [t]) == (True, {(0,): 2})
    assert subring_membership(t ** 3, [t ** 2, t]) == _reference_membership(t ** 3, [t ** 2, t])
    assert subring_membership(t ** 3, [t ** 2]) == (False, None)


def test_spin7_q_images_match_the_reference_path():
    from weylchow.builtin import _SPIN7_GENS, _spin7_q_images
    from weylchow.dickson import build_dickson
    from weylchow.steenrod import milnor_q_closed

    ctx = build_dickson(3)
    model = [ctx.d[2], ctx.d[1], ctx.d[0], ctx.e]
    images = _spin7_q_images()
    w_sig = images[0]["w_4"].sig
    assert sorted(images) == [0, 1, 2, 3]
    for i, row in images.items():
        assert list(row) == [name for name, _ in _SPIN7_GENS]
        for (name, _), poly in zip(_SPIN7_GENS, model):
            inside, combination = _reference_membership(milnor_q_closed(i, poly), model)
            assert inside and row[name] == Polynomial(w_sig, combination), (i, name)


@pytest.mark.parametrize("action, domain", [
    (build_gl(3), F2),
    (build_weyl_f4(), F3),
    (build_weyl_f4(), fp(5)),
    (build_weyl_f4(), fp(13)),  # 4 * 12^2 > 255: more than one fold per image
    (build_weyl_f4(), QQ),
    (build_weyl_f4(), z_local(3)),
    (build_weyl_spin(3), ZZ),
    (build_weyl_spin(4), F3),
])
def test_action_matrix_matches_substitution(action, domain):
    """Each generator's matrix on the slice, one unit vector's defect per
    column, against poly_reference.substitute: up past each grid's base (the
    grids start again), down inside the last base, then skipping a degree
    past it."""
    _check_defects(action, domain, (1, 2, 3, 2, 4), random.Random(5))


@pytest.mark.parametrize("domain, message", [
    (ZZ, "non-integer coefficient 1/2 over Z"),
    (F2, "denominator divisible by 2 in F_2"),
    (z_local(2), "denominator of 1/2 divisible by 2 is not 2-local"),
])
def test_half_integral_action_refused(domain, message):
    f4 = build_weyl_f4()
    with pytest.raises(PolyError, match=message):
        invariant_basis(f4, 2, domain)


def _char_coefficients(g):
    """Coefficients of det(I - t g): (-1)^i times the sum of the principal
    i-minors of g, each minor by the Leibniz formula."""
    n = len(g)
    coeffs = [Fraction(1)]
    for i in range(1, n + 1):
        total = Fraction(0)
        for rows in itertools.combinations(range(n), i):
            for perm in itertools.permutations(range(i)):
                sign = (-1) ** sum(perm[a] > perm[b] for a in range(i) for b in range(a + 1, i))
                term = Fraction(sign)
                for a in range(i):
                    term *= g[rows[a]][rows[perm[a]]]
                total += term
        coeffs.append((-1) ** i * total)
    return tuple(coeffs)


def _molien(action, order):
    """1/|G| sum_g 1/det(I - t g) up to t^order, t counting one generator."""
    total = [Fraction(0)] * (order + 1)
    for coeffs, count in Counter(map(_char_coefficients, action.elements())).items():
        inverse = [Fraction(1)]
        for m in range(1, order + 1):
            terms = range(1, min(m, len(coeffs) - 1) + 1)
            inverse.append(-sum(coeffs[i] * inverse[m - i] for i in terms))
        total = [a + count * b for a, b in zip(total, inverse)]
    return [x / action.order for x in total]


@pytest.mark.parametrize("action, other_domains", [
    (build_weyl_so(3), (ZZ, z_local(3))),
    (build_weyl_spin(3), (ZZ, z_local(3))),
    (build_weyl_f4(), (z_local(3),)),  # half-integral: not over Z
])
def test_rational_ranks_match_molien_series(action, other_domains):
    molien = _molien(action, 12)
    ranks = poincare_series(action, 24, QQ)
    assert all(x.denominator == 1 for x in molien)
    assert ranks == {2 * k: int(x) for k, x in enumerate(molien)}
    for domain in other_domains:
        assert poincare_series(action, 24, domain) == ranks, domain


def _generator_images(action, matrix, sig):
    n = len(action.gen_names)
    return {name: Polynomial(sig, {tuple(int(r == i) for r in range(n)): matrix[i][j]
                                   for i in range(n) if matrix[i][j]})
            for j, name in enumerate(action.gen_names)}


def _defect_by_monomial(sa, k, vec):
    """sa.defect(k, vec) by monomial index; over F_p the packed grid vector
    is unpacked, after a check that it is zero at every position outside
    level k."""
    defect = sa.defect(k, vec)
    if not sa.p:
        return defect
    grid = FpSubspace.unpack(sa.p, defect, sa.width(k))
    positions = sa._positions(k)
    coords = [grid[q] for q in positions]
    assert defect == FpSubspace.combine(sa.p, [(c, 1, q) for c, q in zip(coords, positions)])
    return coords


def _check_defects(action, domain, levels, rnd, top=None):
    """Defects against poly_reference.substitute, level by level and matrix by
    matrix: of one random sparse vector, then of every unit vector (each
    monomial's image); top is passed to the first slice object of each
    matrix."""
    sig = action.signature(domain)
    images = {m: _generator_images(action, m, sig) for m in action.matrices}
    moved = {}  # (matrix, monomial) -> its substitute image, times den^k
    for n, k in enumerate(levels):
        monos = degree_slice(sig, k * action.gen_degree)
        index = {w: j for j, w in enumerate(monos)}
        for m in action.matrices:
            sa = inv_mod._slice_action(action, m, domain, k, top if n == 0 else None)
            assert sa.base > k
            support = rnd.sample(range(len(monos)), min(len(monos), rnd.randint(1, 4)))
            vecs = [{j: rnd.randint(-3, 3) or 1 for j in support}]
            scale = sa.den ** k
            for vec in vecs + [{j: 1} for j in range(len(monos))]:
                want = [0] * len(monos)
                for j, c in vec.items():
                    if (m, monos[j]) not in moved:
                        image = substitute(Polynomial.from_mono(sig, monos[j]), images[m])
                        moved[m, monos[j]] = [(index[w], a * scale) for w, a in image.terms.items()]
                    want[j] -= c * scale
                    for u, a in moved[m, monos[j]]:
                        want[u] += c * a
                want = [x % domain.p if domain.kind == "fp" else int(x) for x in want]
                assert _defect_by_monomial(sa, k, vec) == want, (k, m, vec)


@pytest.mark.parametrize("action, domain, top", [
    (build_gl(3), F2, 9),
    (build_weyl_f4(), F3, 7),
    (build_weyl_f4(), fp(5), 6),
    (build_weyl_f4(), fp(13), 6),  # 4 * 12^2 > 255: more than one fold per image
    (build_weyl_f4(), QQ, 6),
    (build_weyl_f4(), z_local(3), 6),
    (build_weyl_spin(4), F3, 6),
])
def test_slice_action_matches_substitution_on_sparse_vectors(action, domain, top):
    """The on-demand images against poly_reference.substitute, on random vectors
    with random sparse supports, visiting the levels up, down and skipping;
    the first grid of each matrix is sized for level 2, so later levels
    above it start the grid again."""
    rnd = random.Random(5)
    levels = [2] + [rnd.randrange(top + 1) for _ in range(12)]
    assert any(b < a for a, b in zip(levels, levels[1:])) and max(levels) > 2
    _check_defects(action, domain, levels, rnd)


@st.composite
def _invertible_actions(draw):
    """(action, domain): one random n x n matrix, n = 2..4, with entries in
    -2..2 and invertible mod p, over F_p for p = 2, 3, 13."""
    p = draw(st.sampled_from((2, 3, 13)))
    n = draw(st.integers(2, 4))
    matrix = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    assume(kernel_fp([[x % p for x in row] for row in matrix], n, p) == [])
    names = tuple("x%d" % i for i in range(n))
    return GroupAction("random", names, 2, (tuple(map(tuple, matrix)),)), fp(p)


@settings(max_examples=150, deadline=None)
@given(_invertible_actions(), st.integers(0, 2**32 - 1))
def test_random_matrix_defects_and_matrices_match_substitution(case, seed):
    action, domain = case
    rnd = random.Random(seed)
    top = rnd.randrange(1, 4)
    levels = [rnd.randrange(5) for _ in range(4)]
    _check_defects(action, domain, levels, rnd, top)


@st.composite
def _signed_permutations(draw):
    """(perm, signs) on n <= 4 variables: x_j -> signs[j] * x_{perm[j]}."""
    n = draw(st.integers(1, 4))
    return (tuple(draw(st.permutations(range(n)))),
            tuple(draw(st.sampled_from((1, -1))) for _ in range(n)))


@settings(max_examples=100, deadline=None)
@given(_signed_permutations())
def test_signed_tables_match_the_tuple_permutation(sp):
    """Each level's (images, flips) against the exponent tuple permuted
    directly, with sign (-1)^(sum of the exponents at negated variables);
    the levels 0..10 read upward, then downward, then level 10 cold on a
    fresh action.  Only levels k - 1 and k stay kept."""
    perm, signs = sp
    n = len(perm)
    names = tuple("x%d" % i for i in range(n))
    matrix = tuple(tuple(signs[j] if perm[j] == i else 0 for j in range(n)) for i in range(n))

    def check(action, k):
        monos = degree_slice(action.signature(QQ), 2 * k)
        index = {m: j for j, m in enumerate(monos)}
        want_images, want_flips = [], []
        for mono in monos:
            img = [0] * n
            for j, e in enumerate(mono):
                img[perm[j]] = e
            want_images.append(index[tuple(img)])
            want_flips.append(sum(e for e, s in zip(mono, signs) if s < 0) % 2 == 1)
        assert inv_mod._signed_table(action, sp, k) == (want_images, want_flips), k
        assert set(action._slices[sp]) <= {k - 1, k}

    action = GroupAction("signed", names, 2, (matrix,))
    for k in [*range(11), *reversed(range(11))]:
        check(action, k)
    check(GroupAction("signed", names, 2, (matrix,)), 10)


def _reference_orbit_sums(monos, group, p):
    """The signed orbit sums of the (permutation, signs) elements of group,
    one element at a time: the image and sign of each monomial under every
    element, and a sum kept when the signs agree (mod p when p is set)."""
    index = {m: i for i, m in enumerate(monos)}
    visited, basis = [False] * len(monos), []
    for start, mono in enumerate(monos):
        if visited[start]:
            continue
        coeffs, consistent = {}, True
        for perm, signs in group:
            img, sign = [0] * len(mono), 1
            for j, e in enumerate(mono):
                img[perm[j]] = e
                if signs[j] < 0 and e % 2:
                    sign = -sign
            prev = coeffs.setdefault(index[tuple(img)], sign)
            if prev != sign and not (p and (prev - sign) % p == 0):
                consistent = False
        for key in coeffs:
            visited[key] = True
        if consistent:
            basis.append(coeffs)
    return basis


def _reference_candidates(action, monos, domain):
    """The signed orbit sums of the signed elements of the whole closure,
    each a vector over the domain."""
    group = sorted(set(map(signed_permutation, action.elements())) - {None})
    return [[domain.coerce(c.get(j, 0)) for j in range(len(monos))]
            for c in _reference_orbit_sums(monos, group, domain.characteristic)]


def _check_candidates(action, degree, domain):
    """The walk's signed orbit sums equal the closure's, in order."""
    monos = degree_slice(action.signature(domain), degree)
    cands = inv_mod._signed_orbit_sums(action, degree // action.gen_degree, domain.characteristic)
    assert [[domain.coerce(c.get(j, 0)) for j in range(len(monos))] for c in cands] == \
        _reference_candidates(action, monos, domain), degree


def _stacked_kernel_reference(action, degree, domain, plain=False):
    """The invariant basis from one stacked kernel of the (g - 1) rows over
    the candidates, each g - 1 (times den^k) from the defects of the unit
    vectors, the columns of g on the slice: the closure's signed orbit
    sums with the generators that are not signed permutations, as the module
    docstring defines it, or (plain) the unit vectors with every generator."""
    monos = degree_slice(action.signature(domain), degree)
    zero, one = domain.coerce(0), domain.coerce(1)
    if plain:
        cands = [[one if i == j else zero for i in range(len(monos))] for j in range(len(monos))]
        gens = action.matrices
    else:
        cands = _reference_candidates(action, monos, domain)
        gens = [g for g in action.matrices if signed_permutation(g) is None]
    supports = [[(t, x) for t, x in enumerate(c) if x] for c in cands]
    rows, k = [], degree // action.gen_degree
    for g in gens:
        sa = inv_mod._slice_action(action, g, domain, k)
        cols = [_defect_by_monomial(sa, k, {t: 1}) for t in range(len(monos))]
        rows += [[sum(cols[t][i] * x for t, x in sup) for sup in supports]
                 for i in range(len(monos))]
    if domain.kind == "fp":
        coeffs = kernel_fp([[int(x) % domain.p for x in row] for row in rows], len(cands), domain.p)
    else:
        coeffs = kernel_z([[int(x) for x in row] for row in rows], len(cands))
    vectors = [[domain.coerce(sum(c * cand[i] for c, cand in zip(cv, cands)))
                for i in range(len(monos))] for cv in coeffs]
    if domain.kind != "fp":  # Q, Z and Z_(p): the Hermite basis of one saturated lattice
        vectors = hnf_basis([[int(x) for x in v] for v in vectors])
    return [[domain.coerce(x) for x in v] for v in vectors]


def _conjugated_gl3(seed):
    """The GL_3(F_2) generators conjugated by a seeded random element."""
    gl = build_gl(3)
    rnd = random.Random(seed)
    g = rnd.choice(gl.elements())
    g_inv = next(h for h in gl.elements()
                 if all((x - (i == j)) % 2 == 0 for i, row in enumerate(mat_mul(g, h))
                        for j, x in enumerate(row)))
    mats = [[[int(x) % 2 for x in row] for row in mat_mul(mat_mul(g, m), g_inv)]
            for m in gl.matrices]
    return GroupAction("conj", gl.gen_names, 1, tuple(mats), mod=2)


def _gl2_f3():
    return GroupAction("gl2(f3)", ("x1", "x2"), 2, (((1, 1), (0, 1)), ((0, 1), (1, 0))), mod=3)


@pytest.mark.parametrize("action, domain", [
    (build_weyl_so(3), ZZ),  # every generator a signed permutation
    (build_weyl_f4(), F3),
    (build_weyl_f4(), QQ),
    (_conjugated_gl3(11), F2),
], ids=["so3-z", "f4-f3", "f4-q", "conj-gl3-f2"])
def test_a_vector_that_is_not_invariant_is_refused(action, domain, monkeypatch):
    """A returned basis vector corrupted before the check (its first
    coordinate, x_1^k, moved by 1) fails _verify_invariance."""
    def corrupted(domain, ambient, vectors):
        if vectors:
            vectors = [[domain.coerce(vectors[0][0] + 1), *vectors[0][1:]], *vectors[1:]]
        return SubmoduleBasis(domain, ambient, vectors)

    assert invariant_basis(action, 4, domain).rank == 1
    monkeypatch.setattr(inv_mod, "SubmoduleBasis", corrupted)
    with pytest.raises(inv_mod.InvariantError, match="not invariant in degree 4"):
        invariant_basis(action, 4, domain)


@pytest.mark.parametrize("action", [
    *(build_weyl_so(k) for k in (1, 2, 3, 4)),
    *(build_weyl_spin(k) for k in (2, 3, 4)),
    *(build_gl(h) for h in (1, 2, 3, 4)),
    build_weyl_f4(),
    _conjugated_so7(),
    _gl2_f3(),
    _conjugated_gl3(11),
], ids=lambda action: action.name)
def test_stabilizer_generates_the_signed_elements(action):
    _check_stabilizer(action)


def _check_stabilizer(action):
    """The stabilizer's generators, sorted and without the identity, close
    to exactly the signed elements of the whole closure."""
    n = len(action.gen_names)
    gens = action.stabilizer()
    assert list(gens) == sorted(set(gens)) and (tuple(range(n)), (1,) * n) not in gens
    closure, queue = {(tuple(range(n)), (1,) * n)}, [(tuple(range(n)), (1,) * n)]
    for perm, signs in queue:  # the loop reads what it appends
        for g_perm, g_signs in gens:
            # x_j -> signs[j] x_perm[j], then the generator
            prod = (tuple(g_perm[i] for i in perm),
                    tuple(s * g_signs[i] for s, i in zip(signs, perm)))
            if prod not in closure:
                closure.add(prod)
                queue.append(prod)
    assert closure == set(map(signed_permutation, action.elements())) - {None}


@st.composite
def _small_groups(draw):
    """(action, domain): a finite group on n = 2 or 3 generators of degree 2.
    Either 1 to 3 signed permutations conjugated by a random upper
    triangular integer matrix (its inverse has denominators), over Q, or 1
    or 2 random matrices invertible mod p = 2 or 3, as an action mod p."""
    n = draw(st.integers(2, 3))
    names = tuple("x%d" % i for i in range(n))
    if draw(st.booleans()):
        p = draw(st.sampled_from((2, 3)))
        mats = []
        for _ in range(draw(st.integers(1, 2))):
            m = [[draw(st.integers(0, p - 1)) for _ in range(n)] for _ in range(n)]
            assume(kernel_fp(m, n, p) == [])
            mats.append(tuple(map(tuple, m)))
        return GroupAction("random", names, 2, tuple(mats), mod=p), fp(p)
    s = _freeze([[draw(st.integers(1, 3)) if i == j else
                  draw(st.integers(-2, 2)) if i < j else 0 for j in range(n)] for i in range(n)])
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        perm = draw(st.permutations(range(n)))
        signs = [draw(st.sampled_from((1, -1))) for _ in range(n)]
        g = _freeze([[signs[j] if perm[j] == i else 0 for j in range(n)] for i in range(n)])
        mats.append(mat_mul(_invert(s), mat_mul(g, s)))
    return GroupAction("random", names, 2, tuple(mats)), QQ


@settings(max_examples=60, deadline=None)
@given(_small_groups())
def test_walk_candidates_match_the_closure_on_random_groups(case):
    action, domain = case
    _check_stabilizer(action)
    for d in range(0, 9, 2):
        _check_candidates(action, d, domain)
        assert invariant_basis(action, d, domain).vectors == \
            _stacked_kernel_reference(action, d, domain), d


@pytest.mark.parametrize("action, domain, degrees", [
    (build_gl(3), F2, range(1, 17)),
    (build_weyl_f4(), F3, range(2, 21, 2)),
    (build_weyl_f4(), fp(13), range(2, 17, 2)),
    (build_weyl_f4(), QQ, range(2, 19, 2)),
    (build_weyl_spin(3), ZZ, range(2, 25, 2)),
    (_conjugated_gl3(11), F2, range(1, 17)),
    (build_weyl_so(4), F2, range(2, 13, 2)),  # signs that differ only mod 2
    (build_weyl_spin(4), z_local(2), range(2, 17, 2)),  # two generators that are not signed
    (build_weyl_spin(3), F3, range(2, 25, 2)),
    (build_weyl_spin(4), F3, range(2, 17, 2)),
])
def test_invariant_basis_matches_stacked_kernel(action, domain, degrees):
    for d in degrees:
        _check_candidates(action, d, domain)
        got = invariant_basis(action, d, domain).vectors
        want = _stacked_kernel_reference(action, d, domain)
        assert got == want, d
        assert [list(map(type, v)) for v in got] == [list(map(type, v)) for v in want], d


def _row_space(vectors, p):
    return FpSubspace(p, [FpSubspace.pack(p, [int(x) for x in v]) for v in vectors]).rows


@pytest.mark.parametrize("action, domain, degrees", [
    (build_weyl_so(3), ZZ, range(0, 13, 2)),
    (build_weyl_so(3), QQ, range(0, 13, 2)),
    (build_weyl_spin(3), ZZ, range(0, 13, 2)),
    (build_weyl_spin(3), z_local(2), range(0, 13, 2)),
    (build_weyl_spin(3), F3, range(0, 13, 2)),
    (build_gl(3), F2, range(0, 10)),
    (build_weyl_f4(), QQ, range(0, 11, 2)),
    (build_weyl_f4(), F3, range(0, 11, 2)),
], ids=["so3-z", "so3-q", "spin3-z", "spin3-zlocal2", "spin3-f3", "gl3-f2", "f4-q", "f4-f3"])
def test_orbit_sums_give_the_unit_vector_invariants(action, domain, degrees):
    """The basis from the signed orbit sums against the plain stacked kernel
    over the unit vectors with every generator: equal over Q, Z and Z_(p),
    the same row space over F_p."""
    for d in degrees:
        got = invariant_basis(action, d, domain).vectors
        plain = _stacked_kernel_reference(action, d, domain, plain=True)
        if domain.kind == "fp":
            assert _row_space(got, domain.p) == _row_space(plain, domain.p), d
        else:
            assert got == plain, d


@pytest.mark.parametrize("action, domain, top, series", [
    (build_gl(4), F2, 12, "1/((1-t^8)(1-t^12)(1-t^14)(1-t^15))"),  # Dickson
    (build_weyl_so(8), QQ, 16, "1/((1-t^4)(1-t^8)(1-t^12)(1-t^16))"),  # 2^8 8! > _ELEMENT_BOUND
])
def test_invariant_ranks_without_the_group_closure(action, domain, top, series, monkeypatch):
    def refuse(action):
        raise AssertionError("the invariants closed the group")

    monkeypatch.setattr(groups_mod, "enumerate_group", refuse)
    want = expand_series(series, top)
    stride = 2 if action.gen_degree == 2 else 1
    assert poincare_series(action, top, domain) == {d: want[d] for d in range(0, top + 1, stride)}


@pytest.mark.parametrize("action, domain, top", [
    (build_weyl_spin(3), ZZ, 36),
    (build_weyl_f4(), z_local(3), 24),  # half-integral: not over Z
], ids=["spin3-z-36", "f4-zlocal3-24"])
def test_rational_basis_is_the_integral_hermite_basis(action, domain, top):
    """Over Q the invariants are the Hermite basis of the saturated lattice
    Z^n cap ker_Q, the vectors of the Z or Z_(p) basis, as Fractions."""
    rational = invariant_report(action, top, QQ).by_degree
    integral = invariant_report(action, top, domain).by_degree
    assert rational.keys() == integral.keys()
    for d, basis in rational.items():
        assert basis.vectors == integral[d].vectors, d
        assert all(type(x) is Fraction for v in basis.vectors for x in v), d


def test_signed_subgroup_found_once(monkeypatch):
    calls, walks = [], []

    def counting(matrix):
        calls.append(matrix)
        return signed_permutation(matrix)

    def counting_walk(action, *args):
        walks.append(action)
        return walk(action, *args)

    walk = groups_mod._walk
    monkeypatch.setattr(inv_mod, "signed_permutation", counting)
    monkeypatch.setattr(groups_mod, "_walk", counting_walk)
    report = inv_mod.invariant_report(build_weyl_f4(), 40, F3)
    assert report.ranks()[40] == 11
    assert len(walks) == 1
    # the split of each of the 4 generators, once for the whole report
    assert len(calls) == 4
