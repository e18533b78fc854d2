"""Milnor primitives as graded derivations, and Steenrod squares.

The primitives Q_i are odd-degree derivations: Q(ab) = Q(a)b + (-1)^|a| a Q(b).
One kernel, _derivation_terms, applies such a derivation to an exponent
tuple; apply_derivation runs it over a Polynomial's terms, Chart.q_columns
over each basis monomial, and milnor_q_closed, the primary definition, with
Q_i(x) = x^(2^(i+1)) on degree-1 generators over F_2 (Q_0 x = x^2 is the
Bockstein).  The commutator recursion through Steenrod squares is kept as a
cross-check oracle for small i.
"""

from __future__ import annotations

from operator import add
from typing import Dict

from .poly import AlgebraSignature, Monomial, Polynomial, power_products


class SteenrodError(Exception):
    pass


def _image_terms(sig: AlgebraSignature, images: Dict[str, Polynomial]) -> tuple:
    """Per generator position, None (no image: zero) or the terms of its
    image as (monomial, coefficient, *AlgebraSignature._term_masks)."""
    return tuple(tuple((m, c, *sig._term_masks(m)) for m, c in img.terms.items())
                 if (img := images.get(g.name)) is not None and not img.is_zero() else None
                 for g in sig.generators)


def _derivation_terms(sig: AlgebraSignature, image_terms: tuple, mono: Monomial) -> dict:
    """The derivation with these _image_terms on one monomial, as {monomial:
    nonzero coefficient}: the sum of e (-1)^(prefix degree) left * D(x_k) *
    right over the x_k^e with an image, left the prefix times x_k^(e-1) and
    the sign only outside characteristic 2.  The masks give the Koszul sign
    and the vanishing of both products as in Polynomial.__mul__."""
    dom, ext, n = sig.domain, sig._exterior, len(mono)
    out, prefix = {}, 0
    for k, e in enumerate(mono):
        if e and (terms := image_terms[k]) is not None and (lead := dom.coerce(e)):
            lead = -lead if prefix & 1 and dom.characteristic != 2 else lead
            base = mono[:k] + (e - 1,) + mono[k + 1:]
            if ext:
                left = base[:k + 1] + (0,) * (n - k - 1)
                held_l, left_l, _ = sig._term_masks(left)
                held_r, _, right_r = sig._term_masks((0,) * (k + 1) + mono[k + 1:])
            for img, c, held, _, right_img in terms:
                if ext:
                    held_lm, left_lm, _ = sig._term_masks(tuple(map(add, left, img)))
                    if held & held_l or held_lm & held_r:
                        continue
                    if ((left_l & right_img).bit_count() + (left_lm & right_r).bit_count()) & 1:
                        c = -c
                m = tuple(map(add, base, img))
                out[m] = out.get(m, 0) + lead * c
        prefix += e * sig._degrees[k]
    return {m: c for m, c in ((m, dom.coerce(c)) for m, c in out.items()) if c}


def apply_derivation(images: Dict[str, Polynomial], f: Polynomial) -> Polynomial:
    """The odd-degree derivation extending the generator images (a generator
    with no image maps to zero), applied to f one monomial at a time."""
    sig, out = f.sig, {}
    terms = _image_terms(sig, images)
    for mono, coeff in f.terms.items():
        for m, c in _derivation_terms(sig, terms, mono).items():
            out[m] = out.get(m, 0) + coeff * c
    return Polynomial(sig, out)


# ---------------------------------------------------------------------------
# Closed-form Milnor primitives on degree-1 F_2 generators
# ---------------------------------------------------------------------------


def _require_f2_degree_one(sig: AlgebraSignature):
    if sig.domain.characteristic != 2:
        raise SteenrodError("operation requires an F_2 signature")
    for g in sig.generators:
        if g.degree != 1:
            raise SteenrodError("operation requires degree-1 generators")


def milnor_q_closed(i: int, f: Polynomial) -> Polynomial:
    """Q_i f, the derivation with Q_i(x) = x^(2^(i+1)) on each degree-1 generator."""
    sig = f.sig
    _require_f2_degree_one(sig)
    if i < 0:
        raise SteenrodError("negative Milnor index")
    images = {}
    for k, g in enumerate(sig.generators):
        mono = [0] * len(sig)
        mono[k] = 2 ** (i + 1)
        images[g.name] = Polynomial.from_mono(sig, tuple(mono))
    return apply_derivation(images, f)


# ---------------------------------------------------------------------------
# Steenrod squares
# ---------------------------------------------------------------------------


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
        parts = [sq(k, f.homogeneous_part(n)) for n in f.homogeneous_degrees()]
        out = Polynomial.zero(f.sig)
        for p in parts:
            out = out + p
        return out
    return total_sq(f).homogeneous_part(f.degree() + k)


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
