"""Dickson classes from the product of linear forms, and identity checks.

Over F_2[z, x_1..x_h] the product of the 2^h linear forms z + x, x ranging
over the span of the x_i, expands to

    e = z^(2^h) + d_{h-1} z^(2^(h-1)) + ... + d_0 z

with the Dickson classes d_i appearing as the coefficients.  The checks
confirm, exactly and clause by clause, how the closed-form Milnor
primitives act on the d_i and on e.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import compress, product
from typing import Dict, List, Tuple

from .invariants import grid_monomials, grid_positions
from .linalg import FpSubspace
from .poly import F2, AlgebraSignature, Generator, Polynomial
from .steenrod import milnor_q_closed


class DicksonError(Exception):
    pass


MAX_RANK = 4  # product of 16 linear forms in 5 variables is the largest case


@dataclass
class DicksonContext:
    h: int
    sig: AlgebraSignature
    e: Polynomial
    d: List[Polynomial]  # d[0] .. d[h-1]


def build_dickson(h: int) -> DicksonContext:
    """Expand the product of linear forms and extract the Dickson classes.

    The product runs on the exponent grid of base 2^h + 1
    (invariants.grid_positions): each linear form is one FpSubspace.combine
    of shifted copies, and the expansion is decoded into monomials once.  A
    z-power outside {2^i}, or one missing, would falsify the classical
    identity and is treated as an internal error.
    """
    if not 1 <= h <= MAX_RANK:
        raise DicksonError("h must be between 1 and %d" % MAX_RANK)
    n, top = h + 1, 2**h
    sig = AlgebraSignature([Generator("z", 1)] + [Generator("x%d" % i, 1) for i in range(1, n)], F2)
    shifts = grid_positions([(0,) * r + (1,) + (0,) * (h - r) for r in range(n)], top + 1)
    e = 1
    for coeffs in product((0, 1), repeat=h):
        e = FpSubspace.combine(2, [(1, e, s) for s in compress(shifts, (1,) + coeffs)])
    bits = format(e, "b")[::-1]
    monos = grid_monomials((m.start() for m in re.finditer("1", bits)), top + 1, n, top)
    # Slice by z-exponent.
    slices: Dict[int, Dict[Tuple[int, ...], int]] = {}
    for mono in monos:
        slices.setdefault(mono[0], {})[(0,) + mono[1:]] = 1
    if sorted(slices) != [2**i for i in range(h + 1)]:
        raise DicksonError("unexpected z-exponents %s in the expansion" % sorted(slices))
    return DicksonContext(h, sig, Polynomial(sig, dict.fromkeys(monos, 1)),
                          [Polynomial(sig, slices[2**i]) for i in range(h)])


# ---------------------------------------------------------------------------
# Identity reports
# ---------------------------------------------------------------------------


@dataclass
class IdentityCheck:
    label: str
    holds: bool


@dataclass
class DicksonReport:
    h: int
    checks: List[IdentityCheck] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.holds for c in self.checks)

    def add(self, label: str, holds: bool):
        self.checks.append(IdentityCheck(label, holds))


def verify_milnor_on_d_classes(ctx: DicksonContext) -> DicksonReport:
    """Check the Milnor action on the Dickson classes.

    Clauses: Q_{h-1} d_i = d_0 d_i for all i; Q_{j-1} d_j = d_0 for j >= 1;
    and Q_i d_j = 0 in the remaining range.  The vanishing clause is checked
    under the reading i < h-1 (with i != j-1); the report also records that
    extending the range to all i < 2h (spin-rank reading) fails at i = h-1,
    where the first clause takes over.
    """
    report = DicksonReport(ctx.h)
    h = ctx.h
    d = ctx.d
    q_top = [milnor_q_closed(h - 1, d_i) for d_i in d]
    for i, lhs in enumerate(q_top):
        report.add("Q_%d(d_%d) == d_0*d_%d" % (h - 1, i, i), lhs == d[0] * d[i])
    for j in range(1, h):
        lhs = milnor_q_closed(j - 1, d[j])
        report.add("Q_%d(d_%d) == d_0" % (j - 1, j), lhs == d[0])
    for i in range(h - 1):
        for j in range(h):
            if i == j - 1:
                continue
            lhs = milnor_q_closed(i, d[j])
            report.add("Q_%d(d_%d) == 0" % (i, j), lhs.is_zero())
    # Probe the wider reading of the vanishing range (i up to the spin rank).
    wide_fail = next((j for j, lhs in enumerate(q_top) if not lhs.is_zero()), None)
    if wide_fail is not None:
        report.notes.append(
            "vanishing clause holds for i < h-1; extending the range past h-1 fails first "
            "at Q_%d(d_%d), where the clause Q_%d(d_i) = d_0*d_i takes over"
            % (h - 1, wide_fail, h - 1)
        )
    return report


def verify_milnor_on_top_class(ctx: DicksonContext) -> DicksonReport:
    """Check Q_{h-1} e = d_0 e and Q_k e = 0 for 0 <= k <= h-2."""
    report = DicksonReport(ctx.h)
    h = ctx.h
    lhs = milnor_q_closed(h - 1, ctx.e)
    report.add("Q_%d(e) == d_0*e" % (h - 1), lhs == ctx.d[0] * ctx.e)
    for k in range(h - 1):
        report.add("Q_%d(e) == 0" % k, milnor_q_closed(k, ctx.e).is_zero())
    return report


def verify_all(ctx: DicksonContext) -> DicksonReport:
    qd = verify_milnor_on_d_classes(ctx)
    qe = verify_milnor_on_top_class(ctx)
    merged = DicksonReport(ctx.h, qd.checks + qe.checks, qd.notes + qe.notes)
    return merged
