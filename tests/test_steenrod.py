import random

import pytest

from fp_reference import q0_homology
from milnor_reference import milnor_q_recursive, sq, total_sq
from weylchow.poly import F2, F3, Polynomial, degree_slice, signature
from weylchow.steenrod import SteenrodError, apply_derivation, milnor_q_closed


def f2_sig(n=3):
    return signature([("x%d" % (i + 1), 1) for i in range(n)], F2)


def test_q0_leibniz_on_product():
    sig = f2_sig(2)
    x1, x2 = Polynomial.gen(sig, "x1"), Polynomial.gen(sig, "x2")
    assert str(milnor_q_closed(0, x1 * x2)) == "x1^2*x2 + x1*x2^2"


def test_derivation_kills_squares_char2():
    sig = f2_sig(2)
    x1 = Polynomial.gen(sig, "x1")
    assert milnor_q_closed(0, x1 * x1).is_zero()
    assert milnor_q_closed(1, x1 * x1).is_zero()


def test_koszul_sign_at_p3():
    # Q(ab) = Q(a) b - a Q(b) for |a| odd
    sig = signature([("x9", 9, True), ("x25", 25, True), ("x26", 26)], F3)
    x9 = Polynomial.gen(sig, "x9")
    x25 = Polynomial.gen(sig, "x25")
    x26 = Polynomial.gen(sig, "x26")
    image = apply_derivation({"x25": x26}, x9 * x25)
    assert image == (x9 * x26).scale(-1)


def test_generator_without_image_maps_to_zero():
    sig = f2_sig(2)
    x1, x2 = Polynomial.gen(sig, "x1"), Polynomial.gen(sig, "x2")
    images = {"x1": x1 * x1}
    assert apply_derivation(images, x2).is_zero()
    assert apply_derivation(images, x2 * x2 * x2).is_zero()
    # Leibniz: D(x1 x2) = D(x1) x2 + x1 D(x2) = x1^2 x2
    assert apply_derivation(images, x1 * x2) == x1 * x1 * x2


def test_sq_basics():
    sig = f2_sig(1)
    x = Polynomial.gen(sig, "x1")
    assert sq(1, x) == x * x
    assert sq(2, x * x) == (x * x) * (x * x)
    assert sq(3, x * x).is_zero()  # instability: k > deg f
    assert sq(0, x) == x


def test_cartan_formula_random():
    rng = random.Random(5)
    sig = f2_sig(3)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[tuple(rng.randint(0, 2) for _ in range(3))] = 1
        return Polynomial(sig, terms)

    for _ in range(15):
        f, g = rand_poly(), rand_poly()
        assert total_sq(f * g) == total_sq(f) * total_sq(g)


def test_milnor_closed_equals_recursive_exhaustive():
    sig = f2_sig(3)
    for d in range(0, 9):
        for mono in degree_slice(sig, d):
            f = Polynomial.from_mono(sig, mono)
            for i in (0, 1, 2):
                assert milnor_q_closed(i, f) == milnor_q_recursive(i, f)


def test_milnor_q_squares_to_zero_random():
    rng = random.Random(23)
    sig = f2_sig(3)
    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[tuple(rng.randint(0, 3) for _ in range(3))] = 1
        f = Polynomial(sig, terms)
        for i in (0, 1, 2):
            assert milnor_q_closed(i, milnor_q_closed(i, f)).is_zero()


def test_recursion_index_guard():
    sig = f2_sig(1)
    with pytest.raises(SteenrodError):
        milnor_q_recursive(3, Polynomial.gen(sig, "x1"))


def test_q0_homology_zero_differential():
    dims = {0: 1, 4: 2, 8: 3}
    mats = {n: [[0] * dims[n] for _ in range(dims.get(n + 1, 0))] for n in dims}
    hom = q0_homology(dims, {}, 2)
    assert hom == dims


def test_q0_homology_detects_bad_square():
    dims = {0: 1, 1: 1, 2: 1}
    mats = {0: [[1]], 1: [[1]]}
    with pytest.raises(SteenrodError):
        q0_homology(dims, mats, 2)


def test_q0_homology_spin7_chart(spin7_builtin):
    from weylchow.series import expand_series

    chart = spin7_builtin.chart
    dims = {n: chart.dim(n) for n in range(22)}
    mats = {n: chart.q_matrix(0, n) for n in range(21)}
    hom = q0_homology(dims, mats, 2)
    want = expand_series("1/((1-t^4)(1-t^8)(1-t^12))", 20)
    assert all(hom.get(n, 0) == want[n] for n in range(21))
