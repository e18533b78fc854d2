from itertools import product

import pytest

from poly_reference import substitute
from weylchow.dickson import DicksonError, build_dickson, verify_all, verify_milnor_on_d_classes, verify_milnor_on_top_class
from weylchow.groups import build_gl
from weylchow.invariants import basis_polynomials, invariant_basis
from weylchow.poly import F2, Polynomial, parse, signature


def test_h1_values():
    ctx = build_dickson(1)
    assert ctx.e == parse("z^2 + x1*z", ctx.sig)
    assert str(ctx.d[0]) == "x1"


def test_h2_values():
    ctx = build_dickson(2)
    assert str(ctx.d[1]) == "x1^2 + x1*x2 + x2^2"
    assert str(ctx.d[0]) == "x1^2*x2 + x1*x2^2"


def test_h3_d0_is_product_of_linear_forms():
    ctx = build_dickson(3)
    assert ctx.d[0].degree() == 7
    prod = Polynomial.one(ctx.sig)
    xs = [Polynomial.gen(ctx.sig, "x%d" % (i + 1)) for i in range(3)]
    for coeffs in product((0, 1), repeat=3):
        if not any(coeffs):
            continue
        form = Polynomial.zero(ctx.sig)
        for c, x in zip(coeffs, xs):
            if c:
                form = form + x
        prod = prod * form
    assert ctx.d[0] == prod


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_grid_product_matches_polynomial_multiplication(h):
    """e against the 2^h linear forms multiplied with Polynomial.__mul__, and
    e = z^(2^h) + sum_i d_i z^(2^i) with no z in any d_i."""
    ctx = build_dickson(h)
    z = Polynomial.gen(ctx.sig, "z")
    xs = [Polynomial.gen(ctx.sig, "x%d" % (i + 1)) for i in range(h)]
    e = Polynomial.one(ctx.sig)
    for coeffs in product((0, 1), repeat=h):
        form = z
        for c, x in zip(coeffs, xs):
            if c:
                form = form + x
        e = e * form
    assert ctx.e == e
    total = z ** (2**h)
    for i, d in enumerate(ctx.d):
        assert all(m[0] == 0 for m in d.terms)
        total = total + d * z ** (2**i)
    assert total == e


def test_rank_guard():
    with pytest.raises(DicksonError):
        build_dickson(0)
    with pytest.raises(DicksonError):
        build_dickson(5)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_identity_reports_pass(h):
    ctx = build_dickson(h)
    rep = verify_all(ctx)
    assert rep.passed, [c.label for c in rep.checks if not c.holds]


def test_identities_h4_pass():
    rep = verify_all(build_dickson(4))
    assert rep.passed


def test_hand_expansion_q1_d0_h2():
    # Q_1(d_0) = x1^2 x2^4 + x1^4 x2^2 = d_0^2 at h = 2
    ctx = build_dickson(2)
    from weylchow.steenrod import milnor_q_closed

    lhs = milnor_q_closed(1, ctx.d[0])
    assert lhs == parse("x1^2*x2^4 + x1^4*x2^2", ctx.sig)
    assert lhs == ctx.d[0] * ctx.d[0]


def test_wider_vanishing_reading_recorded():
    rep = verify_milnor_on_d_classes(build_dickson(3))
    assert rep.notes and "i < h-1" in rep.notes[0]


def test_d_classes_are_gl_invariant():
    for h in (2, 3):
        ctx = build_dickson(h)
        gl = build_gl(h)
        # substitution on the x-variables only; z is fixed
        for mat in gl.matrices:
            images = {"z": Polynomial.gen(ctx.sig, "z")}
            for j, name in enumerate(gl.gen_names):
                img = Polynomial.zero(ctx.sig)
                for i in range(h):
                    if mat[i][j]:
                        img = img + Polynomial.gen(ctx.sig, "x%d" % (i + 1))
                images[name.replace("x", "x")] = img
            for d_i in ctx.d:
                assert substitute(d_i, images) == d_i


def test_d_classes_match_invariant_engine():
    for h in (2, 3):
        ctx = build_dickson(h)
        gl = build_gl(h)
        sig = gl.signature(F2)
        for i, d_i in enumerate(ctx.d):
            degree = 2**h - 2**i
            basis = invariant_basis(gl, degree, F2)
            polys = basis_polynomials(basis, sig)
            assert len(polys) == 1
            # move d_i into the x-only signature
            transported = Polynomial(
                sig,
                {mono[1:]: c for mono, c in d_i.terms.items()},
            )
            assert transported == polys[0]


def test_frobenius_additivity_in_z():
    # all z-exponents of e are 2-powers, so e(z + z') = e(z) + e(z') - corr;
    # verified symbolically for h <= 2 by doubling the z-variable
    for h in (1, 2):
        ctx = build_dickson(h)
        names = [("z", 1), ("zp", 1)] + [("x%d" % (i + 1), 1) for i in range(h)]
        big = signature(names, F2)
        z, zp = Polynomial.gen(big, "z"), Polynomial.gen(big, "zp")

        def transport(poly, z_image):
            images = {"z": z_image}
            for i in range(h):
                images["x%d" % (i + 1)] = Polynomial.gen(big, "x%d" % (i + 1))
            return substitute(poly, images)

        assert transport(ctx.e, z + zp) == transport(ctx.e, z) + transport(ctx.e, zp)
