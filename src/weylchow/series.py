"""Rational generating functions in one variable t, expanded exactly.

Grammar: EXPR := NUM ['/' DEN].  NUM is a polynomial in t with integer
coefficients in the grammar of `poly.parse`, where adjacent parenthesized
factors multiply: "1 + 2*t^3 - t^5", "-t^3", "(1+t^4)(1+t^8)".  DEN is a
product of parenthesized factors (1 - t^a), a >= 1, in that grammar, as in
"((1-t^8)(1-t^12))" or "(1-t^8)*(1-t^12)".  Coefficients come out as exact
integers to any requested order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple

from .poly import ZZ, PolyError, Polynomial, parse, signature

_SIG = signature([("t", 2)], ZZ)
_INNER_GROUP = re.compile(r"\(([^()]*)\)")


class SeriesError(Exception):
    pass


@dataclass(frozen=True)
class SeriesExpr:
    numerator: Tuple[Tuple[int, int], ...]  # (exponent, coefficient), sorted
    denominator: Tuple[int, ...]  # exponents a in the (1 - t^a) factors

    def expand(self, order: int) -> List[int]:
        """Coefficients of t^0 .. t^order."""
        if order < 0:
            raise SeriesError("order must be >= 0")
        coeffs = [0] * (order + 1)
        for e, c in self.numerator:
            if 0 <= e <= order:
                coeffs[e] += c
        for a in self.denominator:
            # multiply by 1/(1 - t^a): prefix-sum with stride a
            for n in range(a, order + 1):
                coeffs[n] += coeffs[n - a]
        return coeffs

    def coefficient(self, n: int) -> int:
        return self.expand(n)[n]

    def __str__(self):
        num = str(Polynomial(_SIG, {(e,): c for e, c in self.numerator}))
        den = "".join("(1-t^%d)" % a for a in self.denominator)
        return "(%s)/(%s)" % (num, den) if den else num


def _parse(text: str) -> Polynomial:
    try:
        return parse(re.sub(r"\)\s*\(", ")*(", text), _SIG)
    except PolyError as exc:
        raise SeriesError("cannot read %r: %s" % (text.strip(), exc)) from None


def parse_series(text: str) -> SeriesExpr:
    """Parse 'numerator' or 'numerator/denominator' (grammar above)."""
    parts = text.rsplit("/", 1)
    num = _parse(parts[0])
    dens: List[int] = []
    if len(parts) == 2:
        # The factors are the innermost groups; the whole denominator must
        # equal their product, which also rejects unbalanced parentheses.
        product = Polynomial.one(_SIG)
        for factor in _INNER_GROUP.findall(parts[1]):
            poly = _parse(factor)
            terms = sorted(poly.terms.items())
            if len(terms) != 2 or terms[0] != ((0,), 1) or terms[1][1] != -1:
                raise SeriesError("denominator factor %r is not of the form 1-t^a" % factor)
            dens.append(terms[1][0][0])
            product = product * poly
        if not dens or _parse(parts[1]) != product:
            raise SeriesError("denominator %r is not a product of factors (1-t^a)"
                              % parts[1].strip())
    return SeriesExpr(tuple(sorted((m[0], c) for m, c in num.terms.items())), tuple(sorted(dens)))


def expand_series(text: str, order: int) -> List[int]:
    return parse_series(text).expand(order)
