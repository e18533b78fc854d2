"""References on exponent tuples that the tests hold the packed kernels to.

Steenrod squares through the total square, the commutator recursion for the
Milnor primitives (the cross-check of steenrod.milnor_q_closed), and
reduce_term, the tuple rewriting of one Leibniz term into a chart basis by
the chart's product rules (the reducer of the Q_i matrix oracle in
test_chart.py; Chart.q_columns does the same on packed codes).
"""

from operator import le
from typing import Dict

from weylchow.chart import ChartError
from weylchow.poly import Monomial, Polynomial, power_products
from weylchow.steenrod import SteenrodError


def _require_f2_degree_one(sig):
    if sig.domain.characteristic != 2 or any(g.degree != 1 for g in sig.generators):
        raise SteenrodError("operation requires an F_2 signature on degree-1 generators")


def homogeneous_part(f: Polynomial, n: int) -> Polynomial:
    return Polynomial(f.sig, {m: c for m, c in f.terms.items() if f.sig.mono_degree(m) == n},
                      _clean=True)


def total_sq(f: Polynomial) -> Polynomial:
    """Total square: multiplicative extension of Sq(x) = x + x^2."""
    _require_f2_degree_one(f.sig)
    sig = f.sig
    gens = [x + x * x for x in (Polynomial.gen(sig, g.name) for g in sig.generators)]
    result = Polynomial.zero(sig)
    for term in power_products(gens, [(Polynomial.constant(sig, c), mono)
                                      for mono, c in f.terms.items()]):
        result = result + term
    return result


def sq(k: int, f: Polynomial) -> Polynomial:
    """Sq^k: the degree-(+k) component of the total square.

    Sq^k f = 0 for k > deg f (instability) and Sq^0 = identity.
    """
    if k < 0:
        raise SteenrodError("negative square index")
    if f.is_zero():
        return f
    if not f.is_homogeneous():
        parts = [sq(k, homogeneous_part(f, n)) for n in f.homogeneous_degrees()]
        out = Polynomial.zero(f.sig)
        for p in parts:
            out = out + p
        return out
    return homogeneous_part(total_sq(f), f.degree() + k)


_RECURSION_LIMIT = 2


def milnor_q_recursive(i: int, f: Polynomial) -> Polynomial:
    """Q_i via the commutator recursion Q_i = Sq^(2^i) Q_{i-1} + Q_{i-1} Sq^(2^i).

    Kept as a cross-check for the closed form; exponential in i, so i <= 2.
    """
    if i > _RECURSION_LIMIT:
        raise SteenrodError("recursive Milnor operation limited to i <= %d" % _RECURSION_LIMIT)
    _require_f2_degree_one(f.sig)
    if i == 0:
        return sq(1, f)
    s = 2**i
    prev_of_f = milnor_q_recursive(i - 1, f)
    return sq(s, prev_of_f) + milnor_q_recursive(i - 1, sq(s, f))


def reduce_term(chart, index: Dict[Monomial, int], mono: Monomial, coeff: int):
    """Rewrite a monomial into the basis (the keys of index).

    Returns (coefficient, basis monomial) or None when the term vanishes; a
    term outside the basis vanishes when the chart has no product rules,
    and raises when no rule reduces it.
    """
    for _step in range(101):
        if mono in index:
            return coeff % chart.p, mono
        if not chart.products:
            return None
        rule = next((r for r in chart.products if all(map(le, r[0], mono))), None)
        if rule is None:
            raise ChartError(
                "image monomial %s is neither in the basis nor reducible"
                % chart.mono_label(mono)
            )
        lhs, rcoeff, rhs = rule
        if rhs is None:
            return None
        mono = tuple(m - l + r for m, l, r in zip(mono, lhs, rhs))
        if any(g.exterior and e > 1 for g, e in zip(chart.sig.generators, mono)):
            return None
        coeff = (coeff * rcoeff) % chart.p
    raise ChartError("product rewriting did not terminate")
