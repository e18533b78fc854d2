"""Acceptance suite: one test per criterion, one printed line per criterion.

Everything is exact arithmetic, so every comparison is equality; no
tolerances appear anywhere.
"""

import pytest

from fp_reference import q0_homology
from milnor_reference import milnor_q_recursive
from poly_reference import substitute
from weylchow import linalg
from weylchow.ahss import collapse_to_chow, permanent_cycle_check
from weylchow.dickson import build_dickson, verify_all
from weylchow.groups import build_gl, build_weyl_f4, build_weyl_so, build_weyl_spin
from weylchow.invariants import (
    basis_polynomials,
    invariant_basis,
    poincare_series,
    subring_membership,
)
from weylchow.poly import F2, F3, ZZ, Polynomial, degree_slice, signature, z_local
from weylchow.restriction import (
    build_spin7_restriction,
    feshbach_nilpotence,
    res_kernel,
    rho_image_audit,
    surjectivity_criterion,
)
from weylchow.series import expand_series
from weylchow.steenrod import milnor_q_closed


def report(n, text):
    print("ACCEPTANCE %2d: PASS  %s" % (n, text))


def test_criterion_01_dickson_identities():
    for h in (1, 2, 3, 4):
        rep = verify_all(build_dickson(h))
        assert rep.passed, "h=%d failing: %s" % (
            h,
            [c.label for c in rep.checks if not c.holds],
        )
    report(1, "Dickson identities hold exactly for h = 1, 2, 3, 4")


def test_criterion_02_milnor_consistency():
    sig = signature([("x1", 1), ("x2", 1), ("x3", 1)], F2)
    mismatches = 0
    checks = 0
    for d in range(0, 9):
        for mono in degree_slice(sig, d):
            f = Polynomial.from_mono(sig, mono)
            for i in (0, 1, 2):
                checks += 1
                if milnor_q_closed(i, f) != milnor_q_recursive(i, f):
                    mismatches += 1
    assert mismatches == 0
    report(2, "closed-form Q_i = commutator recursion on %d basis cases" % checks)


def test_criterion_03_dickson_equals_invariants():
    for h in (2, 3):
        gl = build_gl(h)
        denom = "".join("(1-t^%d)" % (2**h - 2**i) for i in range(h))
        want = expand_series("1/(%s)" % denom, 14)
        ranks = poincare_series(gl, 14, F2)
        assert all(ranks[d] == want[d] for d in range(15))
        ctx = build_dickson(h)
        gl_sig = gl.signature(F2)
        dicksons = [
            Polynomial(gl_sig, {m[1:]: c for m, c in d_i.terms.items()})
            for d_i in ctx.d
        ]
        for d in range(1, 15):
            basis = invariant_basis(gl, d, F2)
            for poly in basis_polynomials(basis, gl_sig):
                inside, _ = subring_membership(poly, dicksons)
                assert inside, (h, d, str(poly))
    report(3, "GL_h(F_2) invariant ranks and Dickson subring membership, h = 2, 3")


def test_criterion_04_so_invariants():
    want = expand_series("1/((1-t^4)(1-t^8)(1-t^12))", 24)
    ranks = poincare_series(build_weyl_so(3), 24, ZZ)
    assert all(ranks[d] == want[d] for d in range(0, 25, 2))
    report(4, "S_3^(+-) invariants over Z match the Pontryagin series to degree 24")


def test_criterion_05_spin7_invariants():
    action = build_weyl_spin(3)
    want = expand_series("1/((1-t^4)(1-t^8)(1-t^12))", 28)
    ranks = poincare_series(action, 28, z_local(2))
    assert all(ranks[d] == want[d] for d in range(0, 29, 2))
    sig = action.signature(ZZ)
    n = len(action.gen_names)
    images = [{name: Polynomial(sig, {tuple(int(r == i) for r in range(n)): m[i][j]
                                      for i in range(n) if m[i][j]})
               for j, name in enumerate(action.gen_names)} for m in action.matrices]
    for d in range(2, 29, 2):
        monos = degree_slice(sig, d)
        rows = []
        for img in images:
            cols = [substitute(Polynomial.from_mono(sig, mono), img).terms for mono in monos]
            for i, w in enumerate(monos):
                row = [col.get(w, 0) for col in cols]
                row[i] -= 1
                rows.append(row)
        row_basis = linalg.hnf_basis([list(r) for r in rows])
        mat = [[row_basis[j][i] for j in range(len(row_basis))] for i in range(len(monos))]
        # any diagonal form has the 2-valuations of the Smith form
        divisors = linalg.snf_with_basis(mat)[0]
        assert all(z_local(2).scale_power(dv) <= 1 for dv in divisors), (d, divisors)
    report(5, "spin lattice invariants match the Weyl series; all 2-valuations <= 1")


def test_criterion_06_restriction_audit(spin7_model):
    audit = rho_image_audit(spin7_model, spin7_model.ch_presentation)
    by_degree = {}
    for row in audit.rows:
        by_degree.setdefault(row.degree, []).append(row)
    assert [r.verdict for r in by_degree[4]] == ["inside-after-scaling p^1"]
    assert sorted(r.verdict for r in by_degree[8]) == [
        "inside",
        "inside-after-scaling p^1",
    ]
    assert audit.max_scale_power == 1
    assert audit.image_rank_by_degree == audit.invariant_rank_by_degree
    report(6, "image audit: w_4 and w_8 need exactly one factor of 2; ranks agree")


def test_criterion_07_feshbach(spin7_model):
    rows = feshbach_nilpotence(
        spin7_model.ch_presentation, [("c_2'", spin7_model.w4.scale(2))]
    )
    assert rows[0].nilpotent and rows[0].exponent == 2
    audit = rho_image_audit(spin7_model, spin7_model.ch_presentation)
    assert any(r.verdict != "inside" for r in audit.rows)
    crit = surjectivity_criterion(spin7_model, spin7_model.ch_presentation)
    assert not crit.injective
    report(7, "c_2' is nilpotent (n = 2) and the image misses invariants")


def test_criterion_08_ahss_spin7(spin7_ahss):
    col = collapse_to_chow(spin7_ahss)
    free_want = expand_series("1/((1-t^4)(1-t^8)(1-t^12))", 28)
    tors_want = [
        a + b
        for a, b in zip(
            expand_series("t^6/((1-t^8)(1-t^12)(1-t^16))", 28),
            expand_series("t^14/((1-t^8)(1-t^12)(1-t^14)(1-t^16))", 28),
        )
    ]
    for n in range(29):
        assert col.per_degree.get(n, (0, 0)) == (free_want[n], tors_want[n]), n
    report(8, "Spin(7) collapse ranks equal the published display through degree 28")


def test_criterion_09_permanent_cycles(spin7_ahss):
    assert permanent_cycle_check(spin7_ahss, "2*e").permanent
    assert permanent_cycle_check(spin7_ahss, "v_1*e").permanent
    assert not permanent_cycle_check(spin7_ahss, "e").permanent
    report(9, "2e and v_1 e are permanent cycles; e is not")


def test_criterion_10_griffiths_detection(spin7_model, spin7_ahss):
    from weylchow.restriction import omega_detection_audit

    data = build_spin7_restriction(spin7_model)
    rows = res_kernel(data)
    want = expand_series("t^6/((1-t^8)(1-t^12)(1-t^16))", 28)
    assert next(r for r in rows if r.degree == 6).rank == 1
    assert all(r.rank == want[r.degree] for r in rows)
    det = omega_detection_audit(spin7_model, spin7_ahss)
    assert det.passed
    combined = res_kernel(data, include_omega=True)
    assert all(r.rank == 0 for r in combined)
    report(10, "Griffiths kernel pattern, v_1-detection, and combined injectivity")


def test_criterion_11_f4(f4_builtin, f4_ahss):
    chart = f4_builtin.chart
    dims = {n: chart.dim(n) for n in range(54)}
    mats = {n: chart.q_matrix(0, n) for n in range(53)}
    hom = q0_homology(dims, mats, 3)
    free_want = expand_series("1/((1-t^4)(1-t^12)(1-t^16)(1-t^24))", 52)
    assert all(hom.get(n, 0) == free_want[n] for n in range(53))

    col = collapse_to_chow(f4_ahss)
    tors_want = expand_series("t^26/((1-t^26)(1-t^36)(1-t^48))", 48)
    for n in range(49):
        assert col.per_degree.get(n, (0, 0)) == (free_want[n], tors_want[n]), n
    report(11, "F_4 at p = 3: torsion-free homology and collapse match through 48")


def test_criterion_11_optional_f4_invariants():
    f4 = build_weyl_f4()
    want = expand_series("(1+t^20+t^40)/((1-t^4)(1-t^8)(1-t^36)(1-t^48))", 40)
    ranks = poincare_series(f4, 40, F3)
    assert all(ranks[d] == want[d] for d in range(0, 41, 2))
    report(11, "(optional) F_4 Weyl invariants mod 3 match the series to degree 40")
