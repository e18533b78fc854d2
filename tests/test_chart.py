import dataclasses
import gc
import itertools
import random
import re
import weakref

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from fp_reference import kernel_fp, rank_fp, rref_fp, solve_fp
from lattices import lattice_eq, preimage_kernel
from milnor_reference import reduce_term
from weylchow.ahss import (
    AhssResult,
    CollapseReport,
    _new_reps,
    block_structure,
    collapse_to_chow,
    einfinity_summary,
    free_classes,
    run_ahss,
    v_degree,
    v_label,
)
from weylchow.builtin import f4_chart, spin7_chart, toy_free_chart, toy_killing_chart
from weylchow.chart import (
    ChartError,
    build_chart,
    integral_q_matrix,
    parse_chart,
    q_shift,
    serialize_chart,
)
from weylchow.dickson import build_dickson
from weylchow.linalg import FpSubspace, hnf_basis, identity
from weylchow.poly import (F2, Polynomial, compositions, degree_slice, fp, parse, power_products,
                           signature)
from weylchow.series import expand_series
from weylchow.steenrod import Derivation, SteenrodError, apply_derivation


def test_spin7_q_data_matches_stated_facts(spin7_builtin):
    chart = spin7_builtin.chart
    sig = chart.sig
    assert chart.q_images[0]["w_6"] == parse("w_7", sig)
    assert chart.q_images[1]["w_4"] == parse("w_7", sig)
    assert chart.q_images[2]["w_8"] == parse("w_7*w_8", sig)
    # the composite fact: Q_3(w_7 w_8) = w_7^2 w_8^2
    lhs = apply_derivation(chart.q_images[3], parse("w_7*w_8", sig))
    assert lhs == parse("w_7^2*w_8^2", sig)


def test_spin7_class_monomials_independent_in_dickson_model():
    """The Q_i images are rewritten in w_4, w_6, w_7, w_8 uniquely: the class
    monomials expand to linearly independent polynomials in the rank-3
    Dickson model in every degree up to 23, the degree of Q_3 w_8."""
    ctx = build_dickson(3)
    classes = [ctx.d[2], ctx.d[1], ctx.d[0], ctx.e]
    for degree in range(24):
        expos = compositions([4, 6, 7, 8], degree)
        expansions = power_products(classes, [(Polynomial.one(ctx.sig), e) for e in expos])
        support = sorted(set().union(*(p.terms for p in expansions)))
        rows = [[int(p.terms.get(m, 0)) for m in support] for p in expansions]
        assert rank_fp(rows, 2) == len(expos), degree


def test_spin7_integral_slices(spin7_builtin):
    chart = spin7_builtin.chart
    sl7 = chart.integral_slice(7)
    assert len(sl7.free) == 0 and len(sl7.torsion) == 1  # w_7 is 2-torsion
    sl6 = chart.integral_slice(6)
    assert len(sl6.free) == 0 and len(sl6.torsion) == 0  # w_6 is a shadow
    sl8 = chart.integral_slice(8)
    assert len(sl8.free) == 2  # w_4^2 and w_8


def _slice_lists(chart, degree):
    """(free, torsion) of an integral slice, unpacked to lists."""
    sl, n = chart.integral_slice(degree), chart.dim(degree)
    return ([FpSubspace.unpack(chart.p, v, n) for v in sl.free],
            [FpSubspace.unpack(chart.p, v, n) for v in sl.torsion])


def _reference_slice(chart, degree):
    """(free, torsion) of an integral slice from the list references: the
    echelon basis of im Q_0, and the kernel_fp vectors of Q_0 that extend it."""
    p = chart.p
    red, pivots = rref_fp([list(col) for col in zip(*chart.q_matrix(0, degree - 1))], p)
    torsion, free = red[:len(pivots)], []
    for v in kernel_fp(chart.q_matrix(0, degree), chart.dim(degree), p):
        if rank_fp(torsion + free + [v], p) > len(torsion) + len(free):
            free.append(v)
    return free, torsion


@pytest.mark.parametrize("fixture, top", [("spin7_builtin", 44), ("f4_builtin", 66)])
def test_integral_slices_match_the_list_references(request, fixture, top):
    chart = request.getfixturevalue(fixture).chart
    for degree in range(top + 1):
        assert _slice_lists(chart, degree) == _reference_slice(chart, degree), degree


def test_integral_slices_at_p7():
    """Q_0(x^k) = k x^(k-1) y and Q_0(x^k y) = 0 (y is exterior): x^k y for
    k = 0..5 spans im Q_0, and x^7 and x^6 y are cycles outside it."""
    chart = build_chart("p7", 7, 29, [("x", 4), ("y", 5, True)], {0: {"x": "y"}})
    want = {0: ([[1]], []), 28: ([[1]], []), 29: ([[1]], [])}
    want.update({4 * k + 5: ([], [[1]]) for k in range(6)})
    for degree in range(30):
        got = _slice_lists(chart, degree)
        assert got == want.get(degree, ([], [])), degree
        assert got == _reference_slice(chart, degree), degree


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


def test_validation_rejects_image_from_another_signature():
    # the image has the right degree, but lives in a signature with an extra class
    other = signature([("u", 8), ("b", 9), ("c", 5)], F2)
    with pytest.raises(ChartError, match="another signature"):
        build_chart("bad", 2, 12, (("u", 8), ("b", 9)), {0: {"u": Polynomial.gen(other, "b")}})


_TOY_KILL_HEAD = "[chart]\np = 2\nwindow = 12\n[classes]\na 6 0\nu 8 0\nb 9 1\n[q 0]\nu -> b\n"


@pytest.mark.parametrize("section", ["a -> 0", "u -> u"])
def test_negative_milnor_index_refused(section):
    with pytest.raises(ChartError, match="Milnor index -1 is negative"):
        parse_chart(_TOY_KILL_HEAD + "[q -1]\n%s\n" % section)
    with pytest.raises(ChartError, match="Milnor index -2 is negative"):
        build_chart("bad", 2, 12, (("a", 6), ("u", 8)), {-2: {}})


@pytest.mark.parametrize("tail", ["u -> 0\n", "[q 1]\na -> b\n[q 0]\nu -> 0\n"])
def test_repeated_q_source_refused_with_line(tail):
    text = _TOY_KILL_HEAD + tail
    with pytest.raises(ChartError, match="line %d: a second Q_0 image of u" % text.count("\n")):
        parse_chart(text)
    # one source under two Milnor indices is no repetition
    assert str(parse_chart(_TOY_KILL_HEAD + "[q 1]\nu -> 0\n").q_images[0]["u"]) == "b"


@pytest.mark.parametrize("tail, message", [
    ("[q 1]\na -> b + q\n", "unknown generator 'q'"),
    ("[relations]\na^2\nb*c\n", "unknown generator 'c'"),
    ("[relations]\na^2\n[products]\na^2 -> 2*(b\n", "expected ')' at position 4"),
    ("[relations]\na + b\n", "relation 'a + b' must be a plain monomial"),
    ("[relations]\na^2\nu*b\n[products]\na^2 -> u + b\n",
     "product rule RHS 'u + b' must be a monomial or 0"),
    ("[relations]\na^2\n[products]\na^2 + u -> 0\n",
     "product rule LHS 'a^2 + u' must be a plain monomial"),
])
def test_refused_polynomial_text_is_named_by_its_line(tail, message):
    text = _TOY_KILL_HEAD + tail
    with pytest.raises(ChartError, match="^line %d: %s$" % (text.count("\n"), re.escape(message))):
        parse_chart(text)


def test_alias_resolution(spin7_builtin):
    chart = spin7_builtin.chart
    mono = chart.resolve_name("e")
    assert chart.sig.mono_degree(mono) == 8
    with pytest.raises(ChartError):
        chart.resolve_name("nope")


def _f4_mod_3_dims(order):
    """Mod-3 dimensions implied by the integral structure of H*(BF_4; Z_(3)):
    b_n + t_n + t_(n+1), with b the free ranks and t the 3-torsion ranks."""
    b = expand_series("1/((1-t^4)(1-t^12)(1-t^16)(1-t^24))", order + 1)
    t = expand_series("(t^9+t^21+t^26+t^30)/((1-t^26)(1-t^36)(1-t^48))", order + 1)
    return [b[n] + t[n] + t[n + 1] for n in range(order + 1)]


def test_f4_dimensions_match_integral_bookkeeping(f4_builtin):
    assert [f4_builtin.chart.dim(n) for n in range(111)] == _f4_mod_3_dims(110)


def _standard_by_division(chart, degree):
    """The standard monomials of a degree, in degree_slice order, found by
    testing every relation for division."""
    monos = degree_slice(chart.sig, degree) if degree >= 0 else []
    return [m for m in monos
            if not any(all(r <= e for r, e in zip(rel, m)) for rel in chart.relations)]


def _check_basis(chart, top):
    fresh = dataclasses.replace(chart)  # an empty cache, filled from the top down
    for n in range(top, -3, -1):
        assert fresh.basis_at(n) == _standard_by_division(chart, n), n


def test_mono_index_matches_division_by_relations(f4_builtin):
    _check_basis(f4_builtin.chart, 110)
    for bc in (toy_free_chart(), toy_killing_chart(), spin7_chart(window=20)):
        _check_basis(bc.chart, 40)
    # a unit relation leaves no basis at all
    unit = build_chart("unit", 2, 6, (("a", 2), ("b", 3)), {}, relations=["1"])
    assert not any(unit.dim(n) for n in range(13))
    _check_basis(unit, 12)


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
    """Pairs (a_k, b_k) of degrees (d, d + 1) with Q_0 a_k = b_k or 0, random
    relation monomials, and random Q_1 images: up to two terms of the
    right degree per generator, with random coefficients.  A second pair
    may sit |Q_1| - 1 above an earlier one, so that Q_1 a_j can be b_k."""
    p = draw(st.sampled_from([2, 3]))
    gens, images = [], {}
    for k in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 6))
        if k and draw(st.booleans()):
            d = gens[2 * draw(st.integers(0, k - 1))][1] + q_shift(p, 1) - 1
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
        plain = build_chart("random", p, window, gens, {0: images}, relations=relations)
    except ChartError:  # Q_0 does not square to zero modulo these relations
        reject()
    q1 = {}
    for name, deg, _ext in gens:
        target = deg + q_shift(p, 1)
        monos = plain.basis_at(target)
        if draw(st.booleans()):  # a combination of integral torsion classes
            try:
                torsion = _slice_lists(plain, target)[1]
            except ChartError:  # Q_0 squares to zero in the window only
                reject()
            vec = [0] * len(monos)
            for tv in torsion:
                c = draw(st.integers(0, p - 1))
                vec = [(x + c * y) % p for x, y in zip(vec, tv)]
            terms = [(m, c) for m, c in zip(monos, vec) if c]
        else:
            chosen = draw(st.lists(st.sampled_from(monos), max_size=2, unique=True)) if monos else []
            terms = [(m, draw(st.integers(1, p - 1))) for m in chosen]
        if terms:
            q1[name] = " + ".join(str(Polynomial.from_mono(plain.sig, m, c)) for m, c in terms)
    try:
        chart = build_chart("random", p, window, gens, {0: images, 1: q1}, relations=relations)
    except ChartError:  # Q_1 does not square to zero modulo these relations
        reject()
    return chart


def _mat_mul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_small_charts())
def test_random_chart_round_trip(chart):
    parsed = parse_chart(serialize_chart(chart))
    assert parsed == chart
    for n in range(2 * chart.window + 1):
        assert parsed.dim(n) == chart.dim(n)
        assert parsed.q_matrix(0, n) == chart.q_matrix(0, n)
        assert parsed.q_matrix(1, n) == chart.q_matrix(1, n)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_small_charts())
def test_mono_index_matches_division_on_random_charts(chart):
    _check_basis(chart, 2 * chart.window)


@st.composite
def _monomial_ideals(draw):
    """Charts with no Q data: one to four generators of degrees 1 to 6,
    repeats allowed, with random exterior flags (odd degrees are exterior
    at p = 3), and up to four relations among the unit, pure powers and
    other monomials."""
    p = draw(st.sampled_from([2, 3]))
    gens = []
    for k in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(1, 6))
        gens.append(("x%d" % k, degree, draw(st.booleans()) or (p == 3 and degree % 2 == 1)))
    relations = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["unit", "power", "monomial"]))
        if kind == "unit":
            relations.append("1")
        elif kind == "power":
            name, _degree, ext = draw(st.sampled_from(gens))
            relations.append("%s^%d" % (name, 1 if ext else draw(st.integers(1, 4))))
        else:
            exps = [draw(st.integers(0, 1 if ext else 3)) for _name, _degree, ext in gens]
            relations.append("*".join("%s^%d" % (g[0], e) for g, e in zip(gens, exps) if e) or "1")
    return build_chart("ideal", p, draw(st.integers(1, 10)), gens, {}, relations=relations)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_monomial_ideals())
def test_mono_index_matches_division_on_monomial_ideals(chart):
    """The basis built from the degree below, against degree_slice filtered
    by division, keys and order, in every degree up to twice the window."""
    _check_basis(chart, 2 * chart.window)


# ---------------------------------------------------------------------------
# Oracle: Q-matrices through Polynomial products
# ---------------------------------------------------------------------------


def _reference_derivation(images, f):
    """The derivation built from Polynomial products: on each monomial, the
    term hitting x_i is e (-1)^(prefix degree) left * D(x_i) * right, with
    two products doing the Koszul reordering."""
    sig = f.sig
    char2 = sig.domain.characteristic == 2
    result = Polynomial.zero(sig)
    gens = sig.generators
    n = len(gens)
    for mono, coeff in f.terms.items():
        prefix_degree = 0
        for i, e in enumerate(mono):
            if e:
                img = images.get(gens[i].name)
                if img is not None and not img.is_zero():
                    left = list(mono[: i + 1]) + [0] * (n - i - 1)
                    left[i] = e - 1
                    right = [0] * (i + 1) + list(mono[i + 1:])
                    term = Polynomial.from_mono(sig, tuple(left), coeff).scale(e)
                    if not term.is_zero():
                        if not char2 and prefix_degree % 2:
                            term = term.scale(-1)
                        piece = (term * img) * Polynomial.from_mono(sig, tuple(right))
                        result = result + piece
            prefix_degree += e * gens[i].degree
    return result


def _reference_q_matrix(chart, i, degree):
    """Q_i as rows over the target basis: each basis monomial's image as a
    Polynomial, its terms reduced into the target basis one by one."""
    images = chart.q_images.get(i)
    src = chart.basis_at(degree)
    tgt_index = {m: j for j, m in enumerate(chart.basis_at(degree + q_shift(chart.p, i)))}
    cols = []
    for mono in src:
        col = [0] * len(tgt_index)
        if images is not None:
            image = _reference_derivation(images, Polynomial.from_mono(chart.sig, mono))
            for m, c in image.terms.items():
                reduced = reduce_term(chart, tgt_index, m, int(c))
                if reduced is not None:
                    rc, rm = reduced
                    col[tgt_index[rm]] = (col[tgt_index[rm]] + rc) % chart.p
        cols.append(col)
    return [[cols[j][r] for j in range(len(src))] for r in range(len(tgt_index))]


def _check_q_matrices(chart, top):
    for i in range(4):
        for n in range(-1, top + 1):
            assert chart.q_matrix(i, n) == _reference_q_matrix(chart, i, n), (chart.name, i, n)


def test_q_matrices_match_polynomial_reference_on_builtin_charts():
    _check_q_matrices(spin7_chart(window=60).chart, 60)
    _check_q_matrices(f4_chart(window=110).chart, 110)
    for bc in (toy_free_chart(), toy_killing_chart()):
        _check_q_matrices(bc.chart, 2 * bc.chart.window)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_small_charts())
def test_q_matrices_match_polynomial_reference_on_random_charts(chart):
    _check_q_matrices(chart, 2 * chart.window)


@st.composite
def _derivations(draw):
    """Random images and a random polynomial over F_3, where the odd
    generators y, z are exterior and signs matter, or over F_2 with two
    exterior generators."""
    p = draw(st.sampled_from([2, 3]))
    gens = ([("x", 2), ("y", 3, True), ("w", 4), ("z", 5, True)] if p == 3
            else [("x", 1), ("y", 3, True), ("w", 2), ("z", 5, True)])
    sig = signature(gens, fp(p))
    monos = st.tuples(*(st.integers(0, 1 if len(g) == 3 else 3) for g in gens))

    def poly(max_terms):
        return Polynomial(sig, {m: draw(st.integers(1, p - 1))
                                for m in draw(st.lists(monos, max_size=max_terms))})

    images = {g[0]: poly(3) for g in gens if draw(st.booleans())}
    return images, poly(6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_derivations())
def test_apply_derivation_matches_polynomial_reference(case):
    images, f = case
    assert apply_derivation(images, f) == _reference_derivation(images, f)


def test_cancelling_leibniz_terms_give_no_term():
    # Q_1 a = a*c and Q_1 b = b*c, so Q_1(a*b) = 2*a*b*c = 0 at p = 2
    chart = build_chart("cancel", 2, 6, (("a", 2), ("b", 2), ("c", 3)),
                        {1: {"a": "a*c", "b": "b*c"}}, relations=["a*b*c", "c^2"],
                        products=[("c^2", "0")])
    mono = chart.resolve_name("a*b")
    kernel = Derivation(chart.sig, chart.q_images[1])
    assert kernel.terms(kernel.encode(mono)) == {kernel.encode(mono[:2] + (1,)): 2}
    # a*b*c is no basis class and no product rule reduces it, so reducing
    # either Leibniz term on its own would raise
    with pytest.raises(ChartError, match="neither in the basis nor reducible"):
        reduce_term(chart, {m: j for j, m in enumerate(chart.basis_at(7))}, mono[:2] + (1,), 1)
    assert chart.q_columns(1, 4) == [0, 0, 0]
    assert _reference_q_matrix(chart, 1, 4) == chart.q_matrix(1, 4)


@st.composite
def _charts_with_products(draw):
    """Charts whose Leibniz terms leave the basis and are rewritten: two to
    four generators of degrees 1 to 4 (odd ones exterior at p = 3), up to
    three relation monomials, most of them the lhs of a product rule
    'lhs -> 0' or 'lhs -> c*m' with m a basis monomial of its degree, and
    Q_0, Q_1 images of up to two random monomials of the right degree.
    The charts are not validated: Q_i need not square to zero, and a term
    that no rule reduces, or whose rewriting does not stop, must raise in
    the packed kernel exactly when it raises in the reference."""
    p = draw(st.sampled_from([2, 3]))
    gens = []
    for k in range(draw(st.integers(2, 4))):
        degree = draw(st.integers(1, 4))
        gens.append(("x%d" % k, degree, (p == 3 and degree % 2 == 1) or draw(st.booleans())))
    sig = signature(gens, fp(p))
    relations = set()
    for _ in range(draw(st.integers(1, 3))):
        exps = tuple(draw(st.integers(0, 1 if ext else 2)) for _n, _d, ext in gens)
        if sum(exps) >= 2:
            relations.add(exps)
    texts = [str(Polynomial.from_mono(sig, m)) for m in sorted(relations)]
    plain = build_chart("rules", p, 8, gens, {}, relations=texts)
    products = []
    for lhs, text in zip(sorted(relations), texts):
        if not draw(st.integers(0, 3)):
            continue  # a relation without a rule
        monos = plain.basis_at(sig.mono_degree(lhs))
        rhs = "0"
        if monos and draw(st.booleans()):
            rhs = str(Polynomial.from_mono(sig, draw(st.sampled_from(monos)),
                                           draw(st.integers(1, p - 1))))
        products.append((text, rhs))
    q_images = {}
    for i in (0, 1):
        images = {}
        for name, degree, _ext in gens:
            monos = degree_slice(sig, degree + q_shift(p, i))
            chosen = draw(st.lists(st.sampled_from(monos), max_size=2, unique=True)
                          if monos else st.just([]))
            image = Polynomial(sig, {m: draw(st.integers(1, p - 1)) for m in chosen})
            if not image.is_zero():
                images[name] = image
        q_images[i] = images
    with_rules = build_chart("rules", p, 8, gens, {}, relations=texts, products=products)
    return dataclasses.replace(with_rules, q_images=q_images)


def _outcome(matrix, *args):
    try:
        return matrix(*args)
    except ChartError:
        return ChartError


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_charts_with_products())
def test_q_columns_match_polynomial_reference_with_product_rules(chart):
    for i in (0, 1):
        for n in range(13):
            assert (_outcome(chart.q_matrix, i, n)
                    == _outcome(_reference_q_matrix, chart, i, n)), (i, n, chart.products)


def test_exponent_past_the_field_width_is_refused():
    sig = signature([("x", 2), ("y", 3)], F2)
    wide = Polynomial.from_mono(sig, (1 << 15, 0))
    with pytest.raises(SteenrodError, match="too wide"):
        apply_derivation({"x": Polynomial.gen(sig, "y")}, wide)
    # each factor fits, the Leibniz term x^32767 * x does not
    top = Polynomial.from_mono(sig, ((1 << 15) - 1, 0))
    with pytest.raises(SteenrodError, match="too wide"):
        apply_derivation({"y": top}, Polynomial.from_mono(sig, (1, 1)))
    assert apply_derivation({"y": top}, Polynomial.gen(sig, "y")) == top
    # Q_0 b = a^32768 in a chart: refused while validating Q_0^2 = 0
    with pytest.raises(ChartError, match="too wide"):
        build_chart("wide", 2, 4, (("a", 2), ("b", 65535)), {0: {"b": "a^32768"}})
    # Q_1 a = a^4 sends the basis class a^32765 to 32765 * a^32768
    chart = build_chart("wide", 2, 4, (("a", 1),), {1: {"a": "a^4"}})
    with pytest.raises(ChartError, match="too wide"):
        chart.q_columns(1, (1 << 15) - 3)


def test_basis_past_the_field_width_is_refused():
    chart = build_chart("wide", 2, 4, (("a", 1),), {})
    assert chart.basis_at((1 << 15) - 1) == [((1 << 15) - 1,)]
    with pytest.raises(ChartError, match="exponent 32768 is too wide"):
        chart.dim(1 << 15)


@pytest.mark.parametrize("extra,message", [
    # toy-kill with a rule whose lhs is a basis class, which no term would meet
    ("[products]\na^2 -> 0\n", "chart toy-kill: product rule a^2 -> 0: its lhs is no "
     "multiple of a relation"),
    # a divisor of a relation is no multiple of one
    ("[relations]\na^2*u\n[products]\na^2*u -> 0\na*u -> 0\n",
     "chart toy-kill: product rule a*u -> 0: its lhs is no multiple of a relation"),
])
def test_product_rule_outside_the_relation_ideal_is_refused(extra, message):
    with pytest.raises(ChartError, match="^%s$" % re.escape(message)):
        parse_chart(serialize_chart(toy_killing_chart().chart) + extra)


def test_product_rule_changing_the_degree_is_refused():
    gens = (("x", 2), ("y", 3, True), ("z", 5, True))
    with pytest.raises(ChartError, match="^chart odd: product rule x\\*z -> x\\*y: its rhs "
                                         "has degree 5, its lhs 7$"):
        build_chart("odd", 3, 12, gens, {}, relations=["x*z"], products=[("x*z", "y*x")])
    # the same rule with an rhs of degree 7 is accepted
    build_chart("odd", 3, 12, gens, {}, relations=["x*z"], products=[("x*z", "x*z")])


def test_chart_is_freed_without_a_collection():
    enabled = gc.isenabled()
    gc.disable()
    try:
        chart = f4_chart(window=40).chart
        for i in range(3):
            for n in range(40):
                chart.q_columns(i, n)
        chart.integral_slice(30)
        ref = weakref.ref(chart)
        del chart
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Oracle: the page recursion of the ahss module docstring, on sets
# ---------------------------------------------------------------------------


def _v_mult(mu, i):
    return tuple(e + (idx == i - 1) for idx, e in enumerate(mu))


def _v_div(mu, i):
    return tuple(e - (idx == i - 1) for idx, e in enumerate(mu))


def _support(mu):
    return tuple(e > 0 for e in mu)


class _TooLarge(Exception):
    pass


class _EnumeratedPages:
    """K_i(s, mu) and W_i(t, nu) as sets of coordinate tuples, following

        K_i = {x in K_{i-1}(s, mu) : M_i x in W_{i-1}(s + |d_i|, v_i mu)}
        W_i = W_{i-1}(t, nu) + M_i K_{i-1}(t - |d_i|, nu / v_i)

    from K_0 = F_p^g and W_0 = 0.  M_i x is Q_i (chart.q_matrix) of the lift
    sum_j x_j basis_j, written in the target's integral coordinates by
    looking it up among all combinations of the target's torsion basis.
    Any set larger than p^limit raises _TooLarge.
    """

    def __init__(self, chart, limit=6):
        self.chart, self.p, self.limit = chart, chart.p, limit
        self.memo = {}

    def rank(self, s):
        return self.chart.integral_slice(s).rank if s >= 0 else 0

    def _guard(self, size):
        if size > self.p ** self.limit:
            raise _TooLarge()

    def _cached(self, key, compute):
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def lookup(self, t):
        """Chart vector -> integral coordinates, over the torsion span at t."""
        def compute():
            free, torsion = _slice_lists(self.chart, t)
            self._guard(self.p ** len(torsion))
            table = {}
            for y in itertools.product(range(self.p), repeat=len(torsion)):
                vec = [0] * self.chart.dim(t)
                for c, tv in zip(y, torsion):
                    vec = [(a + c * b) % self.p for a, b in zip(vec, tv)]
                table[tuple(vec)] = (0,) * len(free) + y
            return table
        return self._cached(("lookup", t), compute)

    def apply(self, i, s, x):
        """M_i x, or None when Q_i of the lift is no integral torsion class."""
        def compute():
            free, torsion = _slice_lists(self.chart, s)
            lift = [sum(c * v[k] for c, v in zip(x, free + torsion)) % self.p
                    for k in range(self.chart.dim(s))]
            image = tuple(sum(a * b for a, b in zip(row, lift)) % self.p
                          for row in self.chart.q_matrix(i, s))
            return self.lookup(s + q_shift(self.p, i)).get(image)
        return self._cached(("apply", i, s, x), compute)

    def k(self, i, s, mu):
        def compute():
            if i == 0:
                self._guard(self.p ** self.rank(s))
                return set(itertools.product(range(self.p), repeat=self.rank(s)))
            allowed = self.w(i - 1, s + q_shift(self.p, i), _v_mult(mu, i))
            return {x for x in self.k(i - 1, s, mu) if self.apply(i, s, x) in allowed}
        return self._cached(("k", i, s, mu), compute)

    def w(self, i, t, nu):
        def compute():
            if i == 0:
                return {(0,) * self.rank(t)}
            prev = self.w(i - 1, t, nu)
            if nu[i - 1] == 0:
                return prev
            src = t - q_shift(self.p, i)
            images = {self.apply(i, src, x) for x in self.k(i - 1, src, _v_div(nu, i))}
            self._guard(len(prev) * len(images))
            return {tuple((a + b) % self.p for a, b in zip(u, v)) for u in prev for v in images}
        return self._cached(("w", i, t, nu), compute)


def _span_of(sub, n):
    p, out = sub.p, {(0,) * n}
    for row in sub:
        v = FpSubspace.unpack(p, row, n)
        out = {tuple((x + c * y) % p for x, y in zip(u, v)) for u in out for c in range(p)}
    return out


def _reporting_total(chart, v_max):
    """The default max_total, or 0 where the window is too small for the
    pages up to v_max (AhssResult refuses the default there).  The blocks
    with s in the window, which the page checks compare, do not depend on it."""
    return max(0, chart.window - q_shift(chart.p, v_max))


def _check_against_enumeration(chart, v_max, max_total=None):
    """Compare integral_q_matrix and the page states of every block of rank
    <= 6 with _EnumeratedPages; returns the number of blocks compared."""
    if max_total is None:
        max_total = _reporting_total(chart, v_max)
    pages = _EnumeratedPages(chart)
    for s in range(chart.window + 1):
        rank = pages.rank(s)
        if not 0 < rank <= pages.limit:
            continue
        units = [tuple(int(j == k) for k in range(rank)) for j in range(rank)]
        for i in range(1, v_max + 1):
            try:
                expected = [pages.apply(i, s, e) for e in units]
            except _TooLarge:
                continue
            if None in expected:  # an image outside the torsion span is refused
                with pytest.raises(ChartError):
                    integral_q_matrix(chart, i, s)
                continue
            width = pages.rank(s + q_shift(chart.p, i))
            cols = integral_q_matrix(chart, i, s)
            assert [tuple(FpSubspace.unpack(chart.p, c, width)) for c in cols] == expected
    result = run_ahss(chart, v_max, max_total)
    compared = 0
    for s, mu in sorted(result.blocks):
        if pages.rank(s) > pages.limit:
            continue
        try:
            states = [(pages.k(i, s, mu), pages.w(i, s, mu)) for i in range(v_max + 1)]
        except _TooLarge:
            continue
        for i, (k_set, w_set) in enumerate(states):
            sigma = _support(mu)
            assert _span_of(result.k(i, s, sigma), pages.rank(s)) == k_set, (i, s, mu)
            assert _span_of(result.w(i, s, sigma), pages.rank(s)) == w_set, (i, s, mu)
        # The free classes, written over the free lifts, span mod p the
        # projection of the final cycles to the free coordinates.
        free, p = _slice_lists(chart, s)[0], chart.p
        nfree = len(free)
        classes = free_classes(result, s, mu)
        coords = [solve_fp(free, [x % p for x in vec], p) for vec in classes]
        assert len(classes) == nfree and None not in coords, (s, mu)
        assert (_span_of(FpSubspace(p, [FpSubspace.pack(p, a) for a in coords]), nfree)
                == {v[:nfree] for v in states[-1][0]}), (s, mu)
        compared += 1
    return compared


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_small_charts())
def test_page_engine_matches_enumerated_recursion(chart):
    # build_chart checks Q_1^2 = 0 only where source and target lie in the
    # window, but the blocks up to the window need it from every degree d
    # with d + |Q_1| in the window.
    shift = q_shift(chart.p, 1)
    for d in range(chart.window + 1):
        if any(map(any, _mat_mul(chart.q_matrix(1, d + shift), chart.q_matrix(1, d), chart.p))):
            reject()
    try:
        compared = _check_against_enumeration(chart, 1)
    except ChartError:  # some Q_1 image of an integral class is not torsion
        reject()
    assert compared > 0


def test_page_engine_matches_enumeration_on_builtin_charts(spin7_builtin, f4_builtin):
    assert _check_against_enumeration(toy_killing_chart(window=12).chart, 1) > 0
    assert _check_against_enumeration(spin7_builtin.chart, 3, max_total=28) > 100
    assert _check_against_enumeration(f4_builtin.chart, 2, max_total=48) > 100


# ---------------------------------------------------------------------------
# Oracle: the spectral sequence over Z, as lattices
# ---------------------------------------------------------------------------


class _LatticePages:
    """K_i(s, mu) inside Z^g and B_i(t, nu) inside the torsion coordinates
    Z^T of Z^g, computed over Z with no reduction mod p:

        K_0 = Z^g,  B_0 = p Z^T,
        K_i = {x in K_{i-1}(s, mu) : M_i x in B_{i-1}(s + |d_i|, v_i mu)},
        B_i = B_{i-1}(t, nu) + M_i K_{i-1}(t - |d_i|, nu / v_i),

    with M_i the integral_q_matrix columns read as integer vectors with
    entries in [0, p).  Each lattice is a Hermite basis.
    """

    def __init__(self, chart):
        self.chart, self.p = chart, chart.p
        self.memo = {}

    def rank(self, s):
        return self.chart.integral_slice(s).rank if s >= 0 else 0

    def apply(self, i, s, x):
        width = self.rank(s + q_shift(self.p, i))
        cols = [FpSubspace.unpack(self.p, c, width) for c in integral_q_matrix(self.chart, i, s)]
        return [sum(c * col[r] for c, col in zip(x, cols)) for r in range(width)]

    def k(self, i, s, mu):
        key = ("k", i, s, mu)
        if key not in self.memo:
            rank = self.rank(s)
            if i == 0:
                self.memo[key] = identity(rank)
            else:
                prev = self.k(i - 1, s, mu)
                allowed = self.w(i - 1, s + q_shift(self.p, i), _v_mult(mu, i))
                coeffs = preimage_kernel([self.apply(i, s, x) for x in prev], allowed)
                self.memo[key] = hnf_basis(
                    [[sum(c * x[r] for c, x in zip(cv, prev)) for r in range(rank)]
                     for cv in coeffs])
        return self.memo[key]

    def w(self, i, t, nu):
        key = ("w", i, t, nu)
        if key not in self.memo:
            if i == 0:
                self.memo[key] = _scaled_units(self.p, self.rank(t), self.nfree(t))
            elif nu[i - 1] == 0:
                self.memo[key] = self.w(i - 1, t, nu)
            else:
                src = t - q_shift(self.p, i)
                images = [self.apply(i, src, x) for x in self.k(i - 1, src, _v_div(nu, i))]
                self.memo[key] = hnf_basis(self.w(i - 1, t, nu) + images)
        return self.memo[key]

    def nfree(self, s):
        return len(self.chart.integral_slice(s).free) if s >= 0 else 0


def _scaled_units(p, g, start):
    """p e_j for the coordinates j >= start of Z^g."""
    return [[p * (r == j) for r in range(g)] for j in range(start, g)]


def _preimage_lattice(sub, g, start):
    """The preimage in Z^g of a subspace of F_p^g whose vectors vanish below
    start: the lifts of its rows and p e_j for j >= start."""
    lifts = [FpSubspace.unpack(sub.p, row, g) for row in sub]
    return lifts + _scaled_units(sub.p, g, start)


def _check_against_lattices(chart, v_max, rnd):
    """Compare k and w of a fresh AhssResult, read in random order, with
    _LatticePages at every key and stage; then compare the collapse and the
    E_infinity summary of unswept objects with those of run_ahss."""
    max_total = _reporting_total(chart, v_max)
    fresh = AhssResult(chart, v_max, max_total)
    lattices = _LatticePages(chart)
    reads = [(i, s, mu) for s, mu in fresh.keys() for i in range(v_max + 1)]
    rnd.shuffle(reads)
    for i, s, mu in reads:
        g, nfree = lattices.rank(s), lattices.nfree(s)
        sigma = _support(mu)
        assert lattice_eq(_preimage_lattice(fresh.k(i, s, sigma), g, 0), lattices.k(i, s, mu))
        assert lattice_eq(_preimage_lattice(fresh.w(i, s, sigma), g, nfree),
                          lattices.w(i, s, mu))
    swept = run_ahss(chart, v_max, max_total)
    assert collapse_to_chow(fresh) == collapse_to_chow(swept)
    assert einfinity_summary(AhssResult(chart, v_max, max_total)) == einfinity_summary(swept)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_small_charts(), st.integers(1, 2), st.randoms(use_true_random=False))
def test_page_engine_matches_z_lattice_recursion(chart, v_max, rnd):
    """Every page of the engine is the preimage lattice of its mod-p state
    (the module docstring of weylchow.ahss), also when it is read out of
    order from an object that was never swept."""
    try:
        _check_against_lattices(chart, v_max, rnd)
    except ChartError:  # a slice or a Q_1 image is refused, or Q_1^2 != 0 past the window
        reject()


def test_page_engine_matches_z_lattice_recursion_on_builtin_charts():
    rnd = random.Random(7)
    _check_against_lattices(toy_killing_chart(window=12).chart, 1, rnd)
    _check_against_lattices(spin7_chart(window=20).chart, 3, rnd)
    _check_against_lattices(f4_chart(window=40).chart, 2, rnd)


def test_page_engine_matches_z_lattice_recursion_at_p7():
    # Q_0 u = b, and Q_1 a = u b, which is Q_0(u^2) / 2, so integral torsion
    chart = build_chart("toy-p7", 7, 40, (("a", 4), ("u", 8), ("b", 9, True)),
                        {0: {"u": "b"}, 1: {"a": "u*b"}}, torsion_tags={"a": 0, "u": 0, "b": 1})
    _check_against_lattices(chart, 1, random.Random(7))
    # d(a) = v_1 u b, so only 7a survives to the Chow ring
    assert collapse_to_chow(run_ahss(chart, 1)).details[4] == ["free: 7*a"]


# ---------------------------------------------------------------------------
# Oracle: the page recursion memoized on the full v-monomial
# ---------------------------------------------------------------------------


class _FullMuPages(AhssResult):
    """AhssResult with the page recursion indexed and memoized on the full
    v-monomial, as the module docstring of weylchow.ahss states it before
    the support lemma: Kbar_i reads Wbar_{i-1}(s + |d_i|, v_i mu), Wbar_i
    reads Kbar_{j-1}(t - |d_j|, nu / v_j)."""

    def block(self, s, mu):
        if (s, mu) not in self.blocks:
            self.blocks[s, mu] = (self.k(self.v_max, s, mu), self.w(self.v_max, s, mu))
        return self.blocks[s, mu]

    def k(self, stage, s, mu):
        p = self.p
        rank = self.rank(s)
        if rank == 0 or stage == 0:
            return FpSubspace.full(p, rank)
        key = (stage, s, mu)
        if key not in self._k:
            prev = self.k(stage - 1, s, mu)
            t = s + q_shift(p, stage)
            cols = integral_q_matrix(self.chart, stage, s)
            images = [FpSubspace.image(p, cols, v) for v in prev]
            if not any(images):
                self._k[key] = prev
            else:
                allowed = self.w(stage - 1, t, _v_mult(mu, stage))
                self._k[key] = prev.preimage(images, allowed, self.rank(t))
        return self._k[key]

    def w(self, stage, t, nu):
        p = self.p
        if self.rank(t) == 0 or stage == 0:
            return FpSubspace(p)
        key = (stage, t, nu)
        if key not in self._w:
            result = FpSubspace(p)
            for j in itertools.compress(range(1, stage + 1), nu):
                src_s = t - q_shift(p, j)
                src_k = self.k(j - 1, src_s, _v_div(nu, j))
                if src_k:
                    cols = integral_q_matrix(self.chart, j, src_s)
                    for v in src_k:
                        result.insert(FpSubspace.image(p, cols, v))
            self._w[key] = result
        return self._w[key]


def _every_column_collapse(result):
    """collapse_to_chow summing the denominator Wbar(mu) + sum_j Kbar(mu / v_j)
    in every column mu != 1, also where the support lemma makes it Kbar(mu)."""
    chart = result.chart
    p = chart.p
    per_degree, details = {}, {}

    def add(total, free, tors):
        f0, t0 = per_degree.get(total, (0, 0))
        per_degree[total] = (f0 + free, t0 + tors)

    for s, mu in result.keys():
        total = s + v_degree(p, mu)
        if total < 0 or total > result.max_total:
            continue
        if mu == (0,) * result.v_max:
            st = block_structure(result, s, mu)
            if st.free_rank or st.torsion_rank:
                add(total, st.free_rank, st.torsion_rank)
                labels = details.setdefault(total, [])
                labels.extend("free: %s" % rep for rep in st.free_reps)
                labels.extend("Z/%d: %s" % (p, rep) for rep in st.torsion_reps)
            continue
        k_bar, denom = result.block(s, mu)
        for idx in range(result.v_max):
            if mu[idx] > 0:
                denom = denom + result.block(s, _v_div(mu, idx + 1))[0]
        t = len(k_bar) - len(denom)
        if t:
            add(total, 0, t)
            labels = details.setdefault(total, [])
            for rep in _new_reps(chart, chart.integral_slice(s), k_bar, denom):
                labels.append("Z/%d: %s (v-part %s)" % (p, rep, v_label(mu)))
    return CollapseReport(per_degree, details)


def _check_support_keying(chart, v_max, max_total=None):
    """Compare k and w of AhssResult, read on the support, with _FullMuPages
    at every stage of every block of keys(), and collapse_to_chow with
    _every_column_collapse on the full-mu pages; returns the number of
    blocks compared."""
    if max_total is None:
        max_total = _reporting_total(chart, v_max)
    support, full = AhssResult(chart, v_max, max_total), _FullMuPages(chart, v_max, max_total)
    for s, mu in support.keys():
        sigma = _support(mu)
        for stage in range(v_max + 1):
            for got, want in ((support.k(stage, s, sigma), full.k(stage, s, mu)),
                              (support.w(stage, s, sigma), full.w(stage, s, mu))):
                assert (got.rows, got.pivots) == (want.rows, want.pivots), (stage, s, mu)
    _check_collapse(support, full)
    return len(support.keys())


def _check_collapse(result, full):
    got, want = collapse_to_chow(result), _every_column_collapse(full)
    assert got.per_degree == want.per_degree
    assert got.details == want.details


def test_support_keying_matches_full_mu_on_builtin_charts():
    assert _check_support_keying(toy_killing_chart(window=12).chart, 1) > 0
    assert _check_support_keying(spin7_chart(window=32).chart, 3) > 1000
    assert _check_support_keying(f4_chart(window=56).chart, 2) > 300


def test_collapse_matches_every_column_collapse_on_f4():
    chart = f4_chart(window=90).chart
    _check_collapse(AhssResult(chart, 2, 72), _FullMuPages(chart, 2, 72))


def test_collapse_matches_every_column_collapse_where_column_v1_adds_torsion():
    """Q_2 x = Q_1 y = z = Q_0 u: d_2 x = v_2 z survives d_1, while
    d_2(v_1 x) = v_1 v_2 z = d_1(v_2 y), so v_1 x is a permanent cycle and x
    is not, and column v_1 adds Z/2 in total degree 8 - 2 = 6."""
    chart = build_chart("v1-torsion", 2, 24, (("x", 8), ("y", 12), ("u", 14, True),
                                              ("z", 15, True)),
                        {0: {"u": "z"}, 1: {"y": "z"}, 2: {"x": "z"}},
                        torsion_tags={"x": 0, "y": 0, "u": 0, "z": 1})
    assert _check_support_keying(chart, 2) > 0
    assert collapse_to_chow(run_ahss(chart, 2)).details[6] == ["Z/2: x (v-part v_1)"]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_small_charts(), st.integers(1, 2))
def test_support_keying_matches_full_mu_on_random_charts(chart, v_max):
    try:
        assert _check_support_keying(chart, v_max) > 0
    except ChartError:  # a slice or a Q_1 image is refused, or Q_1^2 != 0 past the window
        reject()
