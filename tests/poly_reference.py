"""References for weylchow.poly.

substitute: substitution of generator images into a Polynomial, the ring
homomorphism the tests hold the invariants' slice action and the Spin(7)
image columns to (weylchow itself builds those through poly.power_products).

parse_reference: the polynomial grammar read by a character scanner, one
character at a time, that poly.parse's tokens are compared with.
"""

from fractions import Fraction
from typing import Dict, Optional

from weylchow.poly import AlgebraSignature, PolyError, Polynomial, power_products


def substitute(f: Polynomial, images: Dict[str, Polynomial]) -> Polynomial:
    """Evaluate the ring homomorphism sending each generator to its image.

    Every generator appearing in f must have an image, and each image must
    be homogeneous of the generator's degree (in the image's own signature).
    """
    sig = f.sig
    used = [i for i in range(len(sig)) if any(m[i] for m in f.terms)]
    target_sig = None
    for i in used:
        name = sig.generators[i].name
        if name not in images:
            raise PolyError("no image for generator %r" % name)
        img = images[name]
        if target_sig is None:
            target_sig = img.sig
        elif img.sig != target_sig:
            raise PolyError("images live in different signatures")
        if not img.is_homogeneous():
            raise PolyError("image of %s is not homogeneous" % name)
        if not img.is_zero() and img.degree() != sig.generators[i].degree:
            raise PolyError(
                "image of %s has degree %d, expected %d"
                % (name, img.degree(), sig.generators[i].degree)
            )
    if target_sig is None:  # a constant lands in the images' signature, if any
        target_sig = next((img.sig for img in images.values()), sig)
    gens = [images.get(g.name) for g in sig.generators]
    result = Polynomial.zero(target_sig)
    for term in power_products(gens, [(Polynomial.constant(target_sig, c), mono)
                                      for mono, c in f.terms.items()]):
        result = result + term
    return result


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        self.skip_ws()
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def expect(self, ch: str):
        got = self.take() if self.peek() else ""
        if got != ch:
            raise PolyError("expected %r at position %d" % (ch, self.pos))

    def read_uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise PolyError("expected integer at position %d" % start)
        return int(self.text[start : self.pos])

    def read_name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            raise PolyError("expected name at position %d" % start)
        return self.text[start : self.pos]


def parse_reference(text: str, sig: AlgebraSignature,
                    max_degree: Optional[int] = None) -> Polynomial:
    """Parse the grammar: expr := ['-'] term (('+'|'-') term)*;
    term := coeff ('*' factor)* | factor ('*' factor)*;
    factor := name ('^' uint)? | '(' expr ')'; coeff := int ('/' uint)?.

    With max_degree, the terms of degree <= max_degree, exactly: every
    product and power drops the terms above it as it is read.
    """
    toks = _Tokens(text)
    poly = _parse_expr(toks, sig, max_degree)
    toks.skip_ws()
    if toks.pos != len(text):
        raise PolyError("trailing input at position %d" % toks.pos)
    return poly.truncate(max_degree)


def _parse_expr(toks: _Tokens, sig: AlgebraSignature, top: Optional[int]) -> Polynomial:
    if toks.peek() == "-":
        toks.take()
        result = -_parse_term(toks, sig, top)
    else:
        result = _parse_term(toks, sig, top)
    while True:
        ch = toks.peek()
        if ch == "+":
            toks.take()
            result = result + _parse_term(toks, sig, top)
        elif ch == "-":
            toks.take()
            result = result - _parse_term(toks, sig, top)
        else:
            return result


def _parse_term(toks: _Tokens, sig: AlgebraSignature, top: Optional[int]) -> Polynomial:
    ch = toks.peek()
    if ch.isdigit():
        num = toks.read_uint()
        if toks.peek() == "/":
            toks.take()
            den = toks.read_uint()
            coeff = Fraction(num, den)
        else:
            coeff = Fraction(num)
        result = Polynomial.constant(sig, coeff)
    else:
        result = _parse_factor(toks, sig, top)
    while toks.peek() == "*":
        toks.take()
        result = (result * _parse_factor(toks, sig, top)).truncate(top)
    return result


def _parse_factor(toks: _Tokens, sig: AlgebraSignature, top: Optional[int]) -> Polynomial:
    ch = toks.peek()
    if ch == "(":
        toks.take()
        inner = _parse_expr(toks, sig, top)
        toks.expect(")")
        base = inner
    elif ch.isalpha() or ch == "_":
        name = toks.read_name()
        base = Polynomial.gen(sig, name)
    else:
        raise PolyError("unexpected character %r at position %d" % (ch, toks.pos))
    if toks.peek() == "^":
        toks.take()
        e = toks.read_uint()
        return pow(base, e, top)
    return base
