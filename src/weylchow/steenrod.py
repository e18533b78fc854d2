"""Milnor primitives as graded derivations on packed monomials.

The primitives Q_i are odd-degree derivations: Q(ab) = Q(a)b + (-1)^|a| a Q(b).
One kernel, Derivation.terms, applies such a derivation to a packed
monomial; apply_derivation runs it over a Polynomial's terms, Chart.q_columns
over each basis monomial, and milnor_q_closed, the primary definition, with
Q_i(x) = x^(2^(i+1)) on degree-1 generators over F_2 (Q_0 x = x^2 is the
Bockstein).

This module alone knows the packed layout (Packing), which the derivations
and the charts' bases share: (e_0, ..., e_{n-1}) is sum e_k << 16(n-1-k),
field 0 highest, so integer order is lex order of the exponent tuples.  A
field holds e_k in its low 15 bits; its top bit is a guard that a valid code
keeps clear.  A sum of two codes then carries into no other field, so m * x_j
is code + unit[j], m / x_k times an image term is code - unit[k] + image
code, and lhs divides m when subtracting it borrows from no field.  An
exponent of 2^15 or more is refused, never wrapped.  An exterior field holds
0 or 1; a term whose exterior field reaches 2 vanishes.  Outside
characteristic 2 the odd exterior generators carry the Koszul sign, the
parity of the signed fields of m / x_k in one mask per image term, fixed
when the images are packed.  Coefficients are plain ints (Fractions over Q
and Z_(p)), summed per code and reduced by the caller.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Collection, Dict, Optional, Sequence, Set, Tuple, Type

from .poly import AlgebraSignature, Monomial, Polynomial


class SteenrodError(Exception):
    pass


_WIDTH = 16
_LIMIT = 1 << (_WIDTH - 1)  # the guard bit of a field; exponents stay below it
_FIELD = (1 << _WIDTH) - 1


class Packing:
    """The packed monomials of a signature.  A code that does not fit
    raises error (SteenrodError, or ChartError for a chart)."""

    __slots__ = ("shifts", "units", "guard", "ext_high", "error")

    def __init__(self, sig: AlgebraSignature, error: Type[Exception] = SteenrodError):
        self.shifts = tuple(range(_WIDTH * (len(sig) - 1), -1, -_WIDTH))
        self.units = tuple(1 << s for s in self.shifts)
        self.guard = sum(_LIMIT << s for s in self.shifts)
        self.ext_high = sum(2 << s for s, g in zip(self.shifts, sig.generators) if g.exterior)
        self.error = error

    def encode(self, mono: Monomial) -> int:
        if max(mono, default=0) >= _LIMIT:
            raise self.error("exponent %d is too wide for a packed field (at most %d)"
                             % (max(mono), _LIMIT - 1))
        return sum(e << s for e, s in zip(mono, self.shifts))

    def decode(self, code: int) -> Monomial:
        mono = tuple(code >> s & _FIELD for s in self.shifts)
        if code & self.guard:
            self.encode(mono)  # refuses it
        return mono

    def checked(self, code: int) -> int:
        if code & self.guard:
            self.decode(code)
        return code

    def first_divisor(self, rules: Sequence[Tuple], code: int) -> Optional[Tuple]:
        """The first rule (a tuple led by a packed lhs) whose lhs divides code, or None."""
        top, guard = code | self.guard, self.guard
        return next((r for r in rules if (top - r[0]) & guard == guard), None)

    def vanishes(self, code: int) -> bool:
        return bool(code & self.ext_high)

    def multiples(self, codes: Sequence[Collection[int]]) -> Set[int]:
        """The products m = c * x_j, c in codes[j], that do not vanish and whose
        every quotient m / x_k lies in codes[k]; one that does not fit is refused."""
        out = {code + unit for unit, group in zip(self.units, codes) for code in group}
        if reduce(or_, out, 0) & self.guard:
            self.decode(next(code for code in out if code & self.guard))  # refuses it
        fields = tuple(zip(self.shifts, self.units, codes))
        return {m for m in out if not m & self.ext_high and all(
            m - unit in group for s, unit, group in fields if m >> s & _FIELD)}


class Derivation(Packing):
    """The odd-degree derivation extending generator images (a generator
    with no image maps to zero), on the packed monomials of a signature."""

    __slots__ = ("char", "gens")

    def __init__(self, sig: AlgebraSignature, images: Dict[str, Polynomial],
                 error: Type[Exception] = SteenrodError):
        super().__init__(sig, error)
        self.char, units = sig.domain.characteristic, self.units
        signed = [i for i, _, sign in sig._exterior if sign]
        after = [sum(units[i] for i in signed if i > k) for k in range(len(sig))]

        def koszul(code: int, k: int) -> int:
            # before x_k, and after i and after x_k per signed field i of the term
            mask = sum(units[i] for i in signed if i < k)
            for i in signed:
                mask ^= after[i] ^ after[k] if code & units[i] else 0
            return mask

        # per generator with an image: (shift, unit, ((code, coefficient, Koszul mask), ...))
        self.gens = tuple(
            (self.shifts[k], units[k], tuple((code, c, koszul(code, k)) for code, c in (
                (self.encode(m), c) for m, c in img.terms.items())))
            for k, g in enumerate(sig.generators)
            if (img := images.get(g.name)) is not None and img.terms)

    def terms(self, code: int) -> Dict[int, object]:
        """The derivation on one packed monomial, as {code: coefficient},
        summed per code and not reduced: the sum of e (-1)^(prefix degree)
        m / x_k * D(x_k) over the x_k^e in m with an image, with the Koszul
        sign of moving D(x_k) into place.  For b = m / x_k and I the signed
        fields of an image term, the sign counts the signed fields of b
        before k, |I| times those after k, and for each i in I those after
        i: the parity of b & the term's Koszul mask.  A term with an
        exterior field at 2 vanishes; a term past a field's width keeps its
        guard bit for the caller to refuse."""
        out: Dict[int, object] = {}
        get, char, high = out.get, self.char, self.ext_high
        for s, unit, terms in self.gens:
            e = code >> s & _FIELD
            if not e or not (lead := e % char if char else e):
                continue
            base = code - unit
            for img, c, sign in terms:
                m = base + img
                if not m & high:
                    if sign and (base & sign).bit_count() & 1:
                        out[m] = get(m, 0) - lead * c
                    else:
                        out[m] = get(m, 0) + lead * c
        return out


def apply_derivation(images: Dict[str, Polynomial], f: Polynomial) -> Polynomial:
    """The odd-degree derivation extending the generator images (a generator
    with no image maps to zero), applied to f one monomial at a time."""
    sig, out = f.sig, {}
    kernel, coerce = Derivation(sig, images), sig.domain.coerce
    for mono, coeff in f.terms.items():
        for m, c in kernel.terms(kernel.encode(mono)).items():
            out[m] = out.get(m, 0) + coeff * c
    return Polynomial(sig, {kernel.decode(m): r for m, c in out.items() if (r := coerce(c))},
                      _clean=True)


# ---------------------------------------------------------------------------
# Closed-form Milnor primitives on degree-1 F_2 generators
# ---------------------------------------------------------------------------


def milnor_q_closed(i: int, f: Polynomial) -> Polynomial:
    """Q_i f, the derivation with Q_i(x) = x^(2^(i+1)) on each degree-1 generator."""
    sig = f.sig
    if sig.domain.characteristic != 2:
        raise SteenrodError("operation requires an F_2 signature")
    if any(g.degree != 1 for g in sig.generators):
        raise SteenrodError("operation requires degree-1 generators")
    if i < 0:
        raise SteenrodError("negative Milnor index")
    return apply_derivation({g.name: Polynomial.from_mono(sig, tuple(
        (2 << i) * (j == k) for j in range(len(sig)))) for k, g in enumerate(sig.generators)}, f)
