"""Rational generating functions in one variable t, expanded exactly.

Grammar: EXPR := NUM ['/' DEN].  NUM is a polynomial in t with integer
coefficients in the grammar of `poly.parse`, where adjacent parenthesized
factors multiply: "1 + 2*t^3 - t^5", "-t^3", "(1+t^4)(1+t^8)".  DEN is a
product of parenthesized factors (1 - t^a), a >= 1, in that grammar, as in
"((1-t^8)(1-t^12))" or "(1-t^8)*(1-t^12)".  Coefficients come out as exact
integers to any requested order; NUM is read only up to it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .poly import ZZ, PolyError, Polynomial, parse, signature

_SIG = signature([("t", 2)], ZZ)
_INNER_GROUP = re.compile(r"\(([^()]*)\)")


class SeriesError(Exception):
    pass


@dataclass(frozen=True)
class SeriesExpr:
    numerator: str  # in the grammar of poly.parse, read anew to each order
    denominator: Tuple[int, ...]  # exponents a in the (1 - t^a) factors

    def expand(self, order: int) -> List[int]:
        """Coefficients of t^0 .. t^order."""
        if order < 0:
            raise SeriesError("order must be >= 0")
        coeffs = [0] * (order + 1)
        for (e,), c in _parse(self.numerator, order).terms.items():
            coeffs[e] += c
        for a in self.denominator:
            # multiply by 1/(1 - t^a): prefix-sum with stride a
            for n in range(a, order + 1):
                coeffs[n] += coeffs[n - a]
        return coeffs


def _parse(text: str, order: Optional[int]) -> Polynomial:
    """text read by poly.parse; with an order, its terms up to t^order, with
    every product and power cut there as it is read."""
    top = None if order is None else 2 * order  # t has degree 2 in _SIG
    try:
        return parse(re.sub(r"\)\s*\(", ")*(", text), _SIG, top)
    except PolyError as exc:
        raise SeriesError("cannot read %r: %s" % (text.strip(), exc)) from None


def parse_series(text: str) -> SeriesExpr:
    """Parse 'numerator' or 'numerator/denominator' (grammar above).  The
    numerator is checked here and expanded only to the order asked for."""
    parts = text.rsplit("/", 1)
    _parse(parts[0], 0)
    dens: List[int] = []
    if len(parts) == 2:
        # The factors are the innermost groups.  Read with every factor as t,
        # the denominator must be t^(number of factors): it holds only '*'
        # and well-formed parentheses around them.
        for factor in _INNER_GROUP.findall(parts[1]):
            terms = sorted(_parse(factor, None).terms.items())
            if len(terms) != 2 or terms[0] != ((0,), 1) or terms[1][1] != -1:
                raise SeriesError("denominator factor %r is not of the form 1-t^a" % factor)
            dens.append(terms[1][0][0])
        skeleton = _INNER_GROUP.sub("(t)", parts[1])
        try:
            product = re.fullmatch(r"[()*t\s]*", skeleton) and _parse(skeleton, None).terms
        except SeriesError:
            product = None
        if not dens or product != {(len(dens),): 1}:
            raise SeriesError("denominator %r is not a product of factors (1-t^a)"
                              % parts[1].strip())
    return SeriesExpr(parts[0].strip(), tuple(sorted(dens)))


def expand_series(text: str, order: int) -> List[int]:
    return parse_series(text).expand(order)
