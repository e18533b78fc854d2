import signal
from contextlib import contextmanager
from math import comb

import pytest

from weylchow.cli import main
from weylchow.series import SeriesError, expand_series, parse_series


@contextmanager
def _deadline(seconds):
    """Fail with TimeoutError when the block runs longer than seconds."""
    def expire(*_):
        raise TimeoutError("took more than %s s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
    assert parse_series("t^6/((1-t^8))").expand(14)[14] == 1


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


def test_products_and_powers_are_cut_at_the_order():
    with _deadline(2):
        coeffs = expand_series("(1+t)^8000", 4)
    assert coeffs == [1, 8000, 31996000, 85301336000, 170538695998000]
    assert coeffs == [comb(8000, n) for n in range(5)]
    # (1+t^2)^5000 (1-t)^4999
    with _deadline(2):
        coeffs = expand_series("((1+t^2)(1-t))^5000/((1-t))", 3)
    assert coeffs == [1, -4999, comb(4999, 2) + 5000, -comb(4999, 3) - 5000 * 4999]


def test_power_of_a_denominator_factor_refused_quickly(capsys):
    with _deadline(2):
        with pytest.raises(SeriesError, match="not a product of factors"):
            parse_series("1/((1-t^4)^8000)")
        assert main(["series", "--expr", "1/((1-t^4)^8000)", "--order", "4"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("order", [0, 4, 50, 99, 100, 101, 140])
def test_denominator_that_is_no_product_refused_at_every_order(order):
    with _deadline(2), pytest.raises(SeriesError, match="not a product of factors"):
        expand_series("1/((1-t^4)(1-t^8)+t^100)", order)
