import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from weylchow.ahss import collapse_to_chow, run_ahss
from weylchow.builtin import f4_chart, f4_expected_mod_p_dims, spin7_chart, toy_killing_chart
from weylchow.chart import ChartError, build_chart, parse_chart, serialize_chart
from weylchow.poly import parse


def test_spin7_q_data_matches_stated_facts(spin7_builtin):
    chart = spin7_builtin.chart
    sig = chart.sig
    assert chart.q_images[0]["w_6"] == parse("w_7", sig)
    assert chart.q_images[1]["w_4"] == parse("w_7", sig)
    assert chart.q_images[2]["w_8"] == parse("w_7*w_8", sig)
    # the composite fact: Q_3(w_7 w_8) = w_7^2 w_8^2
    from weylchow.chart import _derivation_specs
    from weylchow.poly import Polynomial
    from weylchow.steenrod import apply_derivation

    spec3 = _derivation_specs(chart)[3]
    lhs = apply_derivation(spec3, parse("w_7*w_8", sig))
    assert lhs == parse("w_7^2*w_8^2", sig)


def test_spin7_integral_slices(spin7_builtin):
    chart = spin7_builtin.chart
    sl7 = chart.integral_slice(7)
    assert len(sl7.free) == 0 and len(sl7.torsion) == 1  # w_7 is 2-torsion
    sl6 = chart.integral_slice(6)
    assert len(sl6.free) == 0 and len(sl6.torsion) == 0  # w_6 is a shadow
    sl8 = chart.integral_slice(8)
    assert len(sl8.free) == 2  # w_4^2 and w_8


def test_round_trips():
    for bc in (spin7_chart(window=20), f4_chart(window=40), toy_killing_chart()):
        text = serialize_chart(bc.chart)
        assert parse_chart(text) == bc.chart


def test_parse_rejects_malformed_section():
    with pytest.raises(ChartError):
        parse_chart("[chart\np = 2\n")


def test_parse_requires_header_fields():
    with pytest.raises(ChartError):
        parse_chart("[chart]\np = 2\n")


def test_validation_rejects_wrong_q_degree():
    # Q_0 must raise degree by exactly 1
    with pytest.raises(ChartError):
        build_chart(
            "bad", 2, 10, (("a", 2), ("b", 4)), {0: {"a": "b"}}
        )


def test_validation_rejects_nonsquarezero_q():
    with pytest.raises(ChartError):
        build_chart(
            "bad", 2, 10, (("a", 1), ("b", 2), ("c", 3)), {0: {"a": "b", "b": "c"}}
        )


def test_validation_rejects_wrong_torsion_tag():
    with pytest.raises(ChartError):
        build_chart(
            "bad", 2, 12, (("u", 8), ("b", 9)), {0: {"u": "b"}},
            torsion_tags={"u": 0, "b": 0},
        )


def test_alias_resolution(spin7_builtin):
    chart = spin7_builtin.chart
    mono = chart.resolve_name("e")
    assert chart.sig.mono_degree(mono) == 8
    with pytest.raises(ChartError):
        chart.resolve_name("nope")


def test_f4_dimensions_match_integral_bookkeeping(f4_builtin):
    chart = f4_builtin.chart
    expect = f4_expected_mod_p_dims(60)
    assert [chart.dim(n) for n in range(61)] == expect[:61]


def test_f4_product_rules_round_trip(f4_builtin):
    text = serialize_chart(f4_builtin.chart)
    assert "[products]" in text
    assert parse_chart(text) == f4_builtin.chart


def test_lazy_extension_beyond_window():
    bc = spin7_chart(window=20)
    chart = bc.chart
    # basis and matrices beyond the declared window are generated on demand
    assert chart.dim(24) > 0
    mat = chart.q_matrix(1, 22)
    assert len(mat) == chart.dim(25)
    # the declared data is untouched, so equality still holds
    assert parse_chart(serialize_chart(chart)) == chart


def test_chart_file_error_reports_line():
    bad = "[chart]\np = 2\nwindow = 8\n[classes]\nw 4\n"
    with pytest.raises(ChartError) as err:
        parse_chart(bad)
    assert "line 5" in str(err.value)


def test_parsed_f4_chart_is_the_builtin_beyond_its_window(f4_builtin, f4_ahss):
    chart = f4_builtin.chart
    parsed = parse_chart(serialize_chart(chart))
    assert [parsed.dim(n) for n in range(111)] == [chart.dim(n) for n in range(111)]
    assert (parsed.dim(70), parsed.dim(80)) == (1, 45)
    assert collapse_to_chow(run_ahss(parsed, 2, 48)).per_degree == (
        collapse_to_chow(f4_ahss).per_degree
    )


def test_basis_section_rejected_with_line():
    text = "[chart]\np = 2\nwindow = 8\n[classes]\na 4 0\n[basis]\n4: a\n"
    with pytest.raises(ChartError) as err:
        parse_chart(text)
    assert "line 6" in str(err.value) and "basis" in str(err.value)


@pytest.mark.parametrize("relation", ["2*a", "a + b", "0"])
def test_relation_must_be_plain_monomial(relation):
    with pytest.raises(ChartError):
        build_chart("bad", 3, 12, (("a", 4), ("b", 8)), {}, relations=[relation])
    text = "[chart]\np = 3\nwindow = 12\n[classes]\na 4 0\nb 8 0\n[relations]\n%s\n" % relation
    with pytest.raises(ChartError):
        parse_chart(text)


@st.composite
def _small_charts(draw):
    """Pairs (a_k, b_k) of degrees (d, d + 1) with Q_0 a_k = b_k or 0, plus
    random relation monomials."""
    p = draw(st.sampled_from([2, 3]))
    gens, images = [], {}
    for k in range(draw(st.integers(1, 2))):
        d = draw(st.integers(1, 6))
        for name, deg in (("a%d" % k, d), ("b%d" % k, d + 1)):
            exterior = deg % 2 == 1 if p == 3 else draw(st.booleans())
            gens.append((name, deg, exterior))
        if draw(st.booleans()):
            images["a%d" % k] = "b%d" % k
    relations = []
    for _ in range(draw(st.integers(0, 3))):
        exps = [draw(st.integers(0, 1 if ext else 2)) for _name, _deg, ext in gens]
        factors = ["%s^%d" % (g[0], e) for g, e in zip(gens, exps) if e]
        if factors:
            relations.append("*".join(factors))
    window = max(deg for _name, deg, _ext in gens) + draw(st.integers(1, 6))
    try:
        return build_chart("random", p, window, gens, {0: images}, relations=relations)
    except ChartError:  # Q_0 does not square to zero modulo these relations
        reject()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_small_charts())
def test_random_chart_round_trip(chart):
    parsed = parse_chart(serialize_chart(chart))
    assert parsed == chart
    for n in range(2 * chart.window + 1):
        assert parsed.dim(n) == chart.dim(n)
        assert parsed.q_matrix(0, n) == chart.q_matrix(0, n)
