import pytest

from weylchow.series import SeriesError, expand_series, parse_series


def test_geometric():
    assert expand_series("1/((1-t^4))", 12) == [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_pontryagin_series():
    coeffs = expand_series("1/((1-t^4)(1-t^8)(1-t^12))", 16)
    assert [coeffs[i] for i in (0, 4, 8, 12, 16)] == [1, 1, 2, 3, 4]
    assert all(coeffs[i] == 0 for i in range(17) if i % 4)


def test_two_sided_identity():
    a = expand_series("(1+t^4)(1+t^8)/((1-t^8)(1-t^12)(1-t^16))", 40)
    b = expand_series("1/((1-t^4)(1-t^8)(1-t^12))", 40)
    assert a == b


def test_numerator_polynomial():
    coeffs = expand_series("(1+t^20+t^40)/((1-t^4))", 40)
    assert coeffs[20] == 2 and coeffs[40] == 3


def test_plain_polynomial():
    assert expand_series("1 + 2*t^3 - t^5", 6) == [1, 0, 0, 2, 0, -1, 0]


def test_coefficient_accessor():
    assert parse_series("t^6/((1-t^8))").coefficient(14) == 1


def test_bad_denominator_rejected():
    with pytest.raises(SeriesError):
        parse_series("1/((2-t^4))")
    with pytest.raises(SeriesError):
        parse_series("1/((1-2*t^4))")


@pytest.mark.parametrize("text", [
    "x^2",  # unknown variable
    "1/((1-s^4))",
    "1/((1-t^4)(1-t^8)",  # unbalanced parentheses
    "1/((1-t^4)",
    "/((1-t^4))",  # empty numerator
    "1/",  # empty denominator
    "2t^3",  # a coefficient needs '*'
])
def test_malformed_series_rejected(text):
    with pytest.raises(SeriesError):
        parse_series(text)


def test_leading_minus():
    assert expand_series("-t^3/((1-t^4))", 11) == [0, 0, 0, -1, 0, 0, 0, -1, 0, 0, 0, -1]


def test_round_trip_str():
    for text in ("(1+t^4)/((1-t^8)(1-t^12))", "(1-2*t^4)/((1-t^8))", "-t^3"):
        s = parse_series(text)
        assert parse_series(str(s)).expand(24) == s.expand(24)
