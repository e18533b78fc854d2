import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poly_reference import parse_reference, substitute
from weylchow import chart as chart_mod
from weylchow import series as series_mod
from weylchow.builtin import builtin_names, f4_chart, get_builtin
from weylchow.chart import parse_chart, serialize_chart
from weylchow.cli import main
from weylchow.poly import (
    F2,
    F3,
    QQ,
    ZZ,
    Domain,
    Polynomial,
    PolyError,
    compositions,
    degree_slice,
    parse,
    signature,
    z_local,
)


def geners(sig, *names):
    return [Polynomial.gen(sig, n) for n in names]


def test_char2_addition_cancels():
    sig = signature([("x1", 1), ("x2", 1)], F2)
    x1, x2 = geners(sig, "x1", "x2")
    assert ((x1 + x2) + (x1 + x2)).is_zero()


def test_add_identity_and_disjoint_supports():
    sig = signature([("t1", 2), ("t2", 2)], ZZ)
    t1, t2 = geners(sig, "t1", "t2")
    p1 = t1 * t1
    assert p1 + Polynomial.zero(sig) == p1
    assert str(t1 * t1 + t2 * t2) == "t1^2 + t2^2"


def test_binomial_over_z():
    sig = signature([("t1", 2), ("t2", 2)], ZZ)
    t1, t2 = geners(sig, "t1", "t2")
    assert str((t1 + t2) * (t1 + t2)) == "t1^2 + 2*t1*t2 + t2^2"


def test_exterior_square_vanishes():
    sig = signature([("x9", 9, True), ("x26", 26)], F3)
    x9 = Polynomial.gen(sig, "x9")
    assert (x9 * x9).is_zero()


def test_koszul_sign_odd_generators():
    sig = signature([("a", 9, True), ("b", 21, True)], F3)
    a, b = geners(sig, "a", "b")
    assert a * b == (b * a).scale(-1)


def test_distribution_char2():
    sig = signature([("z", 1), ("x1", 1)], F2)
    z, x1 = geners(sig, "z", "x1")
    assert (z + x1) * z == z * z + x1 * z


def test_ring_axioms_random():
    rng = random.Random(7)
    sig = signature([("a", 2), ("b", 2), ("c", 4)], ZZ)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1))
            terms[mono] = rng.randint(-3, 3)
        return Polynomial(sig, terms)

    for _ in range(25):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h


def test_substitute_symmetry():
    sig = signature([("t1", 2), ("t2", 2)], ZZ)
    t1, t2 = geners(sig, "t1", "t2")
    f = t1 * t1 + t2 * t2
    assert substitute(f, {"t1": t2, "t2": t1}) == f


def test_substitute_sign_action():
    sig = signature([("t1", 2)], ZZ)
    t1 = Polynomial.gen(sig, "t1")
    assert substitute(t1, {"t1": t1.scale(-1)}) == t1.scale(-1)


def test_substitute_swap_fixes_dickson_d0():
    sig = signature([("x1", 1), ("x2", 1)], F2)
    x1, x2 = geners(sig, "x1", "x2")
    d0 = x1 * x1 * x2 + x1 * x2 * x2
    assert substitute(d0, {"x1": x2, "x2": x1}) == d0


def test_substitute_is_ring_homomorphism_random():
    rng = random.Random(13)
    sig = signature([("x1", 1), ("x2", 1), ("x3", 1)], F2)
    xs = geners(sig, "x1", "x2", "x3")
    images = {"x1": xs[1] + xs[2], "x2": xs[0], "x3": xs[0] + xs[1]}

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            mono = tuple(rng.randint(0, 2) for _ in range(3))
            terms[mono] = 1
        return Polynomial(sig, terms)

    for _ in range(20):
        f, g = rand_poly(), rand_poly()
        lhs = substitute(f * g, images)
        rhs = substitute(f, images) * substitute(g, images)
        assert lhs == rhs


def test_substitute_degree_mismatch_rejected():
    sig = signature([("t1", 2), ("t2", 2)], ZZ)
    t1, t2 = geners(sig, "t1", "t2")
    with pytest.raises(PolyError):
        substitute(t1, {"t1": t2 * t2})


def test_substitute_missing_image_rejected():
    sig = signature([("t1", 2), ("t2", 2)], ZZ)
    t1, t2 = geners(sig, "t1", "t2")
    with pytest.raises(PolyError):
        substitute(t1 * t2, {"t1": t1})


def test_degree_slice_counts():
    sig = signature([("t1", 2), ("t2", 2)], ZZ)
    assert len(degree_slice(sig, 4)) == 3
    sig1 = signature([("x1", 1)], F2)
    assert degree_slice(sig1, 3) == [(3,)]


def test_compositions_match_brute_force():
    rng = random.Random(5)
    for _ in range(300):
        weights = [rng.randint(1, 5) for _ in range(rng.randint(0, 4))]
        caps = rng.choice([None, [rng.choice([None, 0, 1, 2]) for _ in weights]])
        total = rng.randint(-1, 16)
        brute = [
            e for e in itertools.product(*[range(max(total, 0) // w + 1) for w in weights])
            if sum(x * w for x, w in zip(e, weights)) == total
            and (caps is None or all(c is None or x <= c for x, c in zip(e, caps)))
        ]
        assert compositions(weights, total, caps) == brute


def test_degree_slice_exterior_bound():
    sig = signature([("x9", 9, True), ("x26", 26)], F3)
    assert degree_slice(sig, 35) == [(1, 1)]
    assert degree_slice(sig, 18) == []  # x9^2 is forbidden


def test_parse_two_terms():
    sig = signature([("w4", 4), ("c6", 12), ("w8", 8)], z_local(2))
    p = parse("w4^2*c6 + 2*w8", sig)
    assert len(p.terms) == 2
    assert p.coefficient((2, 1, 0)) == 1
    assert p.coefficient((0, 0, 1)) == 2


def test_parse_parenthesized_expansion():
    sig = signature([("z", 1), ("x1", 1), ("x2", 1)], F2)
    p = parse("z^4 + (x1^2+x1*x2+x2^2)*z^2", sig)
    z, x1, x2 = geners(sig, "z", "x1", "x2")
    expected = z**4 + (x1 * x1 + x1 * x2 + x2 * x2) * z * z
    assert p == expected


@pytest.mark.parametrize("top", [0, 3, 4, 7, 12, 40])
def test_parse_to_a_degree_is_the_exact_parse_truncated(top):
    sig = signature([("x", 2), ("y", 4)], ZZ)
    for text in ("(1+x)^7*(x-y)^3 - 2*y^2*(1+x*y)^2", "((1+x+y)^3*(1-x))^2", "x^9 + 1"):
        exact = parse(text, sig)
        assert parse(text, sig, top) == exact.truncate(top)
        assert pow(exact, 3, top) == (exact**3).truncate(top)
    assert parse("1+x", sig, None) == parse("1+x", sig)


def test_parse_p_local_coefficient():
    # denominator must be coprime to p: 3/2 is 3-local but not 2-local
    sig3 = signature([("t1", 2)], z_local(3))
    p = parse("3/2*t1", sig3)
    assert str(p) == "3/2*t1"
    with pytest.raises(PolyError):
        parse("3/2*t1", signature([("t1", 2)], z_local(2)))


def test_p_local_denominator_rejected():
    from fractions import Fraction

    sig = signature([("t1", 2)], z_local(2))
    with pytest.raises(PolyError):
        Polynomial(sig, {(1,): Fraction(1, 2)})
    with pytest.raises(PolyError):
        parse("1/2*t1", sig)


def test_parse_round_trip():
    sig = signature([("w_4", 4), ("w_6", 6), ("w_7", 7), ("w_8", 8)], F2)
    texts = ["w_4^2*w_6 + w_7*w_8", "w_4 + w_6 + w_7^3", "1"]
    for text in texts:
        p = parse(text, sig)
        assert parse(str(p), sig) == p


def test_parse_errors_have_positions():
    sig = signature([("x1", 1)], F2)
    with pytest.raises(PolyError):
        parse("x1 + ", sig)
    with pytest.raises(PolyError):
        parse("y1", sig)


def _outcome(read, *args):
    """What a parser gives: its Polynomial, or the type and text of its error."""
    try:
        return read(*args)
    except Exception as exc:  # the reference may fail with any exception
        return type(exc), str(exc)


_PARSE_SIGNATURES = [
    ([("x", 1), ("x1", 2), ("w_4", 4)], F2),
    ([("a", 2), ("b", 4), ("e", 3, True)], F3),
    ([("u", 2), ("v", 4)], ZZ),
    ([("u", 2), ("v", 4)], QQ),
    ([("w4", 4), ("c6", 6)], z_local(2)),
]


@st.composite
def _parse_inputs(draw):
    gens, dom = draw(st.sampled_from(_PARSE_SIGNATURES))
    sig = signature(gens, dom)
    pieces = list("0123456789+-*/^() ") + list(sig.names) + ["q"]
    text = "".join(draw(st.lists(st.sampled_from(pieces), max_size=12)))
    # A three-digit exponent makes the expansion, not the reading, the cost.
    assume(not re.search(r"\^\s*\d{3}", text))
    return text, sig, draw(st.none() | st.integers(0, 12))


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(_parse_inputs())
def test_parse_matches_the_character_scanner(case):
    assert _outcome(parse, *case) == _outcome(parse_reference, *case)


@pytest.mark.parametrize("text, message", [
    ("\u00bd", "unexpected character '\u00bd' at position 0"),
    ("x +\t\u00b2", "unexpected character '\u00b2' at position 4"),
    ("x^\u00b2", "expected integer at position 2"),
    ("(x \u00bd", "expected ')' at position 4"),
    ("x\u00bd", "unknown generator 'x\u00bd'"),
])
def test_parse_refuses_numerals_that_are_not_decimal_digits(text, message):
    """A name starts with a letter or '_', and an integer is decimal digits, so a
    numeral such as '\u00bd' or '\u00b2' starts neither."""
    with pytest.raises(PolyError) as err:
        parse(text, signature([("x", 2)], QQ))
    assert str(err.value) == message


def test_parse_reads_every_decimal_digit():
    sig = signature([("x", 2)], QQ)
    assert parse("\u0663*x", sig) == parse("3*x", sig)  # ARABIC-INDIC DIGIT THREE


def test_parse_matches_the_character_scanner_on_every_expression_read(monkeypatch, capsys):
    """Every expression of the built-in charts, of the serialized F_4 chart, of
    the series in the README and the CI workflow, and of the class names the
    audit and the bench's spectral sequences read, as poly.parse is called."""
    calls = []

    def recording(*args):
        calls.append(args)
        return parse(*args)

    monkeypatch.setattr(chart_mod, "parse_poly", recording)
    monkeypatch.setattr(series_mod, "parse", recording)
    for name in builtin_names():
        get_builtin(name)
    parse_chart(serialize_chart(f4_chart(window=60).chart))
    root = Path(__file__).resolve().parents[1]
    docs = (root / "README.md").read_text() + (root / ".github/workflows/tests.yml").read_text()
    series = re.findall(r'--(?:series|expr) "([^"$]*)"', docs)
    assert len(series) >= 10
    for text in series:
        try:
            series_mod.parse_series(text).expand(28)
        except series_mod.SeriesError:
            pass
    for argv in (["audit", "--chart", "spin7", "--max-degree", "12"],
                 ["ahss", "--chart", "spin7", "--window", "32", "--vmax", "3", "--collapse"],
                 ["ahss", "--chart", "f4", "--window", "90", "--vmax", "2", "--max-total", "72",
                  "--collapse"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) > 100
    for args in calls:
        assert _outcome(parse, *args) == _outcome(parse_reference, *args), args


def test_exterior_requires_fp():
    with pytest.raises(PolyError):
        signature([("a", 3, True)], ZZ)


def test_odd_degree_needs_exterior_at_odd_p():
    with pytest.raises(PolyError):
        signature([("a", 9)], F3)
    # fine over F_2
    signature([("a", 9)], F2)


# ---------------------------------------------------------------------------
# Oracle: term-by-term product against the one-pass Polynomial.__mul__
# ---------------------------------------------------------------------------


def _reference_mul(p, q):
    """One Koszul sign, exterior test and domain operation per term pair."""
    sig = p.sig
    dom = sig.domain
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            if any(g.exterior and e1 + e2 > 1 for e1, e2, g in zip(m1, m2, sig.generators)):
                continue
            swaps = 0
            if dom.characteristic != 2:
                for j, g in enumerate(sig.generators):
                    if g.degree % 2:
                        later = sum(e for e, h in zip(m1[j + 1:], sig.generators[j + 1:])
                                    if h.degree % 2)
                        swaps += m2[j] * later
            c = dom.coerce(-c1 * c2 if swaps % 2 else c1 * c2)
            mono = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            s = dom.coerce(out.get(mono, 0) + c)
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
    return out


_MUL_SIGNATURES = [
    ([("a", 1), ("b", 1, True), ("c", 2), ("d", 3), ("e", 5, True)], F2),
    ([("a", 3, True), ("b", 5, True), ("c", 2), ("d", 7, True)], F3),
    ([("a", 2), ("b", 4), ("c", 6)], ZZ),
    ([("a", 2), ("b", 4)], QQ),
    ([("a", 2), ("b", 4), ("c", 8)], z_local(2)),
]


@st.composite
def _polynomial_pairs(draw):
    gens, dom = draw(st.sampled_from(_MUL_SIGNATURES))
    sig = signature(gens, dom)
    if dom in (QQ, z_local(2)):
        dens = [1, 3, 5] + ([2] if dom == QQ else [])
        coeffs = st.builds(Fraction, st.integers(-4, 4), st.sampled_from(dens))
    else:
        coeffs = st.integers(-4, 4)
    monos = st.tuples(*[st.integers(0, 1) if g.exterior else st.integers(0, 3)
                        for g in sig.generators])
    polys = st.dictionaries(monos, coeffs, max_size=6).map(lambda t: Polynomial(sig, t))
    return draw(polys), draw(polys)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_polynomial_pairs())
def test_mul_matches_term_by_term_reference(pair):
    p, q = pair
    product = p * q
    assert product.terms == _reference_mul(p, q)
    kind = p.sig.domain.kind
    expected_type = Fraction if kind in ("rat", "plocal") else int
    assert all(type(c) is expected_type for c in product.terms.values())


@pytest.mark.parametrize("p", [None, 0, 1, 4, 9, 15, 49, 221])
def test_z_local_refuses_a_non_prime(p):
    with pytest.raises(PolyError, match=r"Z_\(p\) needs a prime p"):
        z_local(p)


def test_z_local_accepts_primes():
    assert [z_local(p).p for p in (2, 3, 5, 7, 13, 97)] == [2, 3, 5, 7, 13, 97]


def test_fp_domains_follow_the_one_prime_list():
    assert [Domain("fp", p).p for p in (2, 3, 5, 7, 11, 13)] == [2, 3, 5, 7, 11, 13]
    for p in (4, 17):
        with pytest.raises(PolyError, match="F_p supported only"):
            Domain("fp", p)
