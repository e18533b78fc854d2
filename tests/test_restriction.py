import re

import pytest

from fp_reference import rank_fp
from typed_spin7 import RingPresentation, reference_nilpotence, typed_presentations
from weylchow import invariants as inv_mod
from weylchow import linalg
from weylchow import restriction as restriction_mod
from weylchow.linalg import SubmoduleBasis, membership
from weylchow.poly import F2, Polynomial, compositions, parse, signature
from weylchow.restriction import (
    ImageLattice,
    RestrictionError,
    build_spin7_model,
    build_spin7_restriction,
    feshbach_nilpotence,
    omega_detection_audit,
    res_kernel,
    rho_image_audit,
    surjectivity_criterion,
)
from weylchow.series import expand_series


def test_invariant_ring_generators(spin7_model):
    assert spin7_model.w4.degree() == 4
    assert spin7_model.w8.degree() == 8
    assert spin7_model.c6.degree() == 12
    want = expand_series("1/((1-t^4)(1-t^8)(1-t^12))", 28)
    ranks = spin7_model.invariants.ranks()
    assert all(ranks[d] == want[d] for d in range(0, 29, 2))


def test_image_audit_divisibility_pattern(spin7_model):
    audit = rho_image_audit(spin7_model, spin7_model.ch_presentation)
    assert audit.max_scale_power == 1
    assert audit.image_rank_by_degree == audit.invariant_rank_by_degree
    by_degree = {}
    for row in audit.rows:
        by_degree.setdefault(row.degree, []).append(row)
    # degree 4: the single invariant (w_4) needs one factor of 2
    assert [r.verdict for r in by_degree[4]] == ["inside-after-scaling p^1"]
    # degree 8: one inside (w_4^2 = c_4), one 2-divided (w_8)
    assert sorted(r.verdict for r in by_degree[8]) == [
        "inside",
        "inside-after-scaling p^1",
    ]
    assert all(r.verdict == "inside" for r in by_degree[0])


def test_doctored_presentation_flagged(spin7_model):
    # dropping the class 2 w_8 starves degree 8
    pres = spin7_model.ch_presentation
    chart = pres.chart
    w8 = chart.resolve_name("w_8")
    two_w8 = [2 * (m == w8) for m in chart.basis_at(8)]
    doctored = ImageLattice("doctored", chart, pres.identification,
                            lambda d: [v for v in pres.vectors(d) if v != two_w8])
    audit = rho_image_audit(spin7_model, doctored)
    assert audit.image_rank_by_degree[8] == 1
    assert audit.invariant_rank_by_degree[8] == 2


def test_feshbach_toy_exterior():
    sig = signature([("a", 1, True)], F2)
    a = Polynomial.gen(sig, "a")
    pres = RingPresentation("Z/2[a]/(a^2)", [], [("1", Polynomial.one(sig)), ("a", a)])
    rows = reference_nilpotence(pres, [("a", a)])
    assert rows[0].nilpotent and rows[0].exponent == 2


def test_feshbach_spin7(spin7_model):
    cands = [
        ("c_2'", spin7_model.w4.scale(2)),
        ("c_4", spin7_model.w4 * spin7_model.w4),
    ]
    rows = feshbach_nilpotence(spin7_model.ch_presentation, cands)
    assert rows[0].nilpotent and rows[0].exponent == 2
    assert not rows[1].nilpotent


def test_feshbach_consistency_property(spin7_model):
    """A nonzero nilpotent in the mod-2 presentation forces some invariant
    outside the image (the surjectivity obstruction)."""
    rows = feshbach_nilpotence(
        spin7_model.ch_presentation, [("c_2'", spin7_model.w4.scale(2))]
    )
    assert rows[0].nilpotent
    audit = rho_image_audit(spin7_model, spin7_model.ch_presentation)
    assert any(r.verdict != "inside" for r in audit.rows)


def test_surjectivity_criterion_sides(spin7_model):
    crit_h = surjectivity_criterion(spin7_model, spin7_model.h_presentation)
    assert crit_h.injective
    crit_ch = surjectivity_criterion(spin7_model, spin7_model.ch_presentation)
    assert not crit_ch.injective and crit_ch.first_failure == 4


def test_res_kernel_griffiths_pattern(spin7_model):
    data = build_spin7_restriction(spin7_model)
    rows = res_kernel(data)
    want = expand_series("t^6/((1-t^8)(1-t^12)(1-t^16))", 28)
    for row in rows:
        assert row.rank == want[row.degree], row.degree
    six = next(r for r in rows if r.degree == 6)
    assert six.labels == ["xi_3"]
    fourteen = next(r for r in rows if r.degree == 14)
    # c_7 itself restricts nontrivially; the kernel there is xi_3 * c_4
    assert fourteen.rank == 1
    assert all("c_7" not in lbl for lbl in fourteen.labels)


def test_res_kernel_rank_nullity(spin7_model):
    data = build_spin7_restriction(spin7_model)
    rows = res_kernel(data)
    for row in rows:
        entries = data.classes_by_degree.get(row.degree, [])
        tors = [c for c in entries if c.torsion]
        # mod-2 rank-nullity on the torsion side of the stacked system
        from weylchow import linalg
        from weylchow.poly import degree_slice

        a_monos = degree_slice(data.a_sig, row.degree)
        mat = [[int(c.a_image.terms.get(m, 0)) % 2 for c in tors] for m in a_monos]
        rank = rank_fp(mat, 2) if tors and a_monos else 0
        assert rank + row.rank == len(tors)


def test_combined_restriction_injective(spin7_model):
    data = build_spin7_restriction(spin7_model)
    rows = res_kernel(data, include_omega=True)
    assert all(r.rank == 0 for r in rows)


def test_combined_restriction_injective_when_the_lift_passes_the_window():
    """At window 14 the cobordism image of xi_3*c_4 has degree 16, past the
    window; it still separates xi_3*c_4 from the kernel of the mod-2 map."""
    data = build_spin7_restriction(build_spin7_model(14))
    assert next(r for r in res_kernel(data) if r.degree == 14).labels == ["c_4*xi_3"]
    assert all(r.rank == 0 for r in res_kernel(data, include_omega=True))


def test_audit_derives_each_basis_and_image_once(monkeypatch):
    """One invariant walk feeds the audits and the generator extraction, and
    each generator monomial enters the invariant ring once in all: the
    classes of both image lattices, which share one set of generators, and
    the w_8 tower w_8 * c_4^a c_6^b c_8^c, the monomials (2a, b, 2c + 1)."""
    degrees, calls = [], []
    basis, products = inv_mod.invariant_basis, restriction_mod.power_products

    def counting_basis(action, degree, *args):
        degrees.append(degree)
        return basis(action, degree, *args)

    def counting_products(gens, terms):
        terms = list(terms)
        calls.append((gens, [e for _, e in terms]))
        return products(gens, terms)

    monkeypatch.setattr(inv_mod, "invariant_basis", counting_basis)
    monkeypatch.setattr(restriction_mod, "power_products", counting_products)
    model = build_spin7_model(28)
    rho_image_audit(model, model.ch_presentation)
    for pres in (model.h_presentation, model.ch_presentation):
        surjectivity_criterion(model, pres)
    data = build_spin7_restriction(model)
    res_kernel(data)
    res_kernel(data, include_omega=True)
    omega_detection_audit(model, model.ahss)
    assert sorted(degrees) == list(range(0, 29, 2))
    lattices = (model.ch_presentation, model.h_presentation)
    gens = lattices[0].generators
    assert lattices[1].generators is gens
    assert all(called is gens for called, _ in calls)
    built = [e for _, expos in calls for e in expos]
    assert len(built) == len(set(built))
    tower = {(2 * a, b, 2 * c + 1)  # degrees 8 .. window + 2, the v_1 images of xi_3 * m
             for d in range(8, 31, 2) for a, b, c in compositions([8, 12, 16], d - 8)}
    assert set(built) == tower | {e for pres in lattices for d in range(0, 29, 2)
                                  for c in pres.classes(d) for e in c.terms}


def test_omega_detection(spin7_model, spin7_ahss):
    rep = omega_detection_audit(spin7_model, spin7_ahss)
    assert rep.permanent_2e and rep.permanent_v1e and rep.e_dies
    assert rep.towers_nonzero and rep.injective_mod_2
    assert rep.passed


def test_image_module_closed_under_subring(spin7_model):
    """Multiplying typed module generators by subring generators stays
    inside the derived image."""
    pres, _ = typed_presentations(spin7_model)
    for _, gen_m in pres.module_gens:
        for _, gen_s in pres.subring_gens:
            product = gen_m * gen_s
            degree = product.degree()
            if degree > spin7_model.window:
                continue
            span = _span(spin7_model, spin7_model.ch_presentation.columns(degree), degree)
            assert membership(_coords(product, span.ambient), span).inside


@pytest.mark.parametrize("side", [0, 1])
def test_derived_images_equal_typed_lattices(spin7_model, side):
    """The images read from the chart equal the typed presentations as
    Z_(2)-lattices, each inside the other, in every degree up to 28."""
    derived = (spin7_model.ch_presentation, spin7_model.h_presentation)[side]
    typed = typed_presentations(spin7_model)[side]
    for degree in range(29):
        got, want = derived.columns(degree), typed.polynomials(degree)
        assert len(got) == len(want), degree
        if not want:
            continue
        want = [_coords(poly, spin7_model.invariants.by_degree[degree].ambient) for poly in want]
        for a, b in ((got, want), (want, got)):
            span = _span(spin7_model, b, degree)
            assert all(membership(vec, span).inside for vec in a), degree


def test_feshbach_matches_reference(spin7_model):
    w4, w8 = spin7_model.w4, spin7_model.w8
    cands = [
        ("c_2'", w4.scale(2)),
        ("c_4'", w8.scale(2)),
        ("c_4", w4 * w4),
        ("w_8", w8),
        ("2w_4w_8", (w4 * w8).scale(2)),
        ("w_4^2 + 2w_8", w4 * w4 + w8.scale(2)),
    ]
    typed, _ = typed_presentations(spin7_model)

    def outcome(search, pres, cand):
        try:
            return search(pres, [cand])[0].exponent
        except RestrictionError as exc:  # a power outside the image
            return str(exc).split(" is not")[0]

    got = [outcome(feshbach_nilpotence, spin7_model.ch_presentation, c) for c in cands]
    want = [outcome(reference_nilpotence, typed, c) for c in cands]
    assert got == want
    # w_8 is no Chow class (only 2w_8 is), so the search refuses it at n = 1
    assert got == [2, 2, None, "w_8", 2, None]


@pytest.mark.parametrize("name", ["w_7^2", "w_4*w_7", "w_6", "w_4*w_6^3"])
def test_generator_map_refuses_classes_outside_the_subring(spin7_model, name):
    pres = spin7_model.ch_presentation
    chart = pres.chart
    (mono,) = parse(name, chart.sig).terms
    with pytest.raises(RestrictionError, match=re.escape("chart class %s is not" % name)):
        pres.exponents(mono)
    bad = ImageLattice("bad", chart, pres.identification,
                       lambda d: [[int(m == mono) for m in chart.basis_at(d)]])
    with pytest.raises(RestrictionError, match=re.escape("chart class %s is not" % name)):
        bad.classes(chart.sig.mono_degree(mono))


def _span(model, cols, degree):
    monos = model.invariants.by_degree[degree].ambient
    return SubmoduleBasis(model.sig.domain, monos, linalg.hnf_basis(cols))


def _coords(poly, monos):
    index = {m: i for i, m in enumerate(monos)}
    vec = [0] * len(monos)
    for m, c in poly.terms.items():
        vec[index[m]] = int(c)
    return vec
