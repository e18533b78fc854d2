"""Exact sparse multivariate polynomials over small coefficient domains.

A polynomial lives in a graded-commutative algebra described by an
AlgebraSignature: an ordered list of named generators, each with a
topological degree and a polynomial/exterior parity flag, plus a
coefficient domain.  Supported domains are F_p (p in FP_PRIMES: 2, 3, 5,
7, 11, 13), the integers, the rationals, and the p-local rationals Z_(p)
(fractions whose denominator is coprime to p).

Representation: a monomial is a tuple of non-negative exponents, one per
generator; a polynomial is a dict mapping monomials to nonzero
coefficients.  All arithmetic is exact; zero coefficients are never
stored, so equality is structural.

Multiplication carries the Koszul sign: generators of odd topological
degree anticommute.  Exterior generators square to zero.  The product loop
runs these two checks only for signatures with exterior generators (outside
characteristic 2 every odd-degree generator is one).  Coefficients add up
raw, an integral Fraction as its numerator, and are normalized once per
monomial.

Text is read by parse: one regular expression splits it into tokens (an
unsigned integer, a name, or any other single character, each with its
position), and a recursive-descent grammar reads the token list.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Monomial = Tuple[int, ...]


class PolyError(Exception):
    """Malformed signature, domain violation, or parse failure."""


# ---------------------------------------------------------------------------
# Coefficient domains
# ---------------------------------------------------------------------------

# The F_p primes of every layer; linalg packs a coordinate in one bit at
# p = 2 and in one byte at odd p, which needs p (p - 1) <= 255.
FP_PRIMES = (2, 3, 5, 7, 11, 13)


@dataclass(frozen=True)
class Domain:
    """Tag for one of the four exact coefficient domains.

    kind is one of "fp", "int", "rat", "plocal"; p is the prime for
    "fp"/"plocal" and None otherwise.
    """

    kind: str
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind == "fp":
            if self.p not in FP_PRIMES:
                raise PolyError("F_p supported only for p in %s" % (FP_PRIMES,))
        elif self.kind == "plocal":
            p = self.p
            if p is None or p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
                raise PolyError("Z_(p) needs a prime p")
        elif self.kind in ("int", "rat"):
            if self.p is not None:
                raise PolyError("domain %r takes no prime" % self.kind)
        else:
            raise PolyError("unknown domain kind %r" % self.kind)

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == "fp" else 0

    def coerce(self, value):
        """Normalize a raw int/Fraction into this domain; check p-locality."""
        kind = self.kind
        if kind == "fp":
            if type(value) is int:
                return value % self.p
            if isinstance(value, Fraction):
                if value.denominator % self.p == 0:
                    raise PolyError("denominator divisible by %d in F_%d" % (self.p, self.p))
                inv = pow(value.denominator % self.p, self.p - 2, self.p)
                return (value.numerator * inv) % self.p
            return int(value) % self.p
        if kind == "int":
            if type(value) is int:
                return value
            if isinstance(value, Fraction) and value.denominator != 1:
                raise PolyError("non-integer coefficient %s over Z" % value)
            return int(value)
        frac = Fraction(value)
        if kind == "plocal" and frac.denominator % self.p == 0:
            raise PolyError(
                "denominator of %s divisible by %d is not %d-local" % (frac, self.p, self.p)
            )
        return frac

    def scale_power(self, g: int) -> Optional[int]:
        """The Z_(p) rule, for an integer g != 0: the least k >= 0 with p^k / g
        in this domain, None when no k works.  Over Z_(p) that is v_p(g): a
        factor prime to p is a unit.  Over Q it is 0; over Z and F_p it is 0
        when g is a unit there (1 or -1; prime to p) and None otherwise."""
        if not g:
            raise PolyError("zero is not a unit multiple of a p-power")
        if self.kind != "plocal":
            unit = self.kind == "rat" or g in (1, -1) or self.kind == "fp" and g % self.p
            return 0 if unit else None
        k = 0
        while g % self.p == 0:
            g, k = g // self.p, k + 1
        return k

    def __str__(self):
        if self.kind == "fp":
            return "F_%d" % self.p
        if self.kind == "plocal":
            return "Z_(%d)" % self.p
        return {"int": "Z", "rat": "Q"}[self.kind]


F2 = Domain("fp", 2)
F3 = Domain("fp", 3)
ZZ = Domain("int")
QQ = Domain("rat")


def z_local(p: int) -> Domain:
    return Domain("plocal", p)


def fp(p: int) -> Domain:
    return Domain("fp", p)


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    exterior: bool = False


class AlgebraSignature:
    """Ordered generator list plus coefficient domain.

    Generator names must be unique, degrees >= 1.  Exterior generators are
    allowed only over F_p; over domains of characteristic != 2, odd-degree
    generators must be exterior (graded commutativity forces their squares
    to vanish).
    """

    __slots__ = ("generators", "domain", "_index", "_degrees", "_exterior")

    def __init__(self, generators: Iterable[Generator], domain: Domain):
        gens = tuple(generators)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise PolyError("duplicate generator names")
        for g in gens:
            if g.degree < 1:
                raise PolyError("generator %s has degree %d < 1" % (g.name, g.degree))
            if g.exterior and domain.kind != "fp":
                raise PolyError("exterior generator %s requires an F_p domain" % g.name)
            if g.degree % 2 == 1 and not g.exterior and domain.characteristic != 2:
                raise PolyError(
                    "odd-degree generator %s must be exterior over %s" % (g.name, domain)
                )
        self.generators = gens
        self.domain = domain
        self._index = {g.name: i for i, g in enumerate(gens)}
        self._degrees = tuple(g.degree for g in gens)
        # (index, bit, signed) of the exterior generators, last index first;
        # signed: odd degree outside characteristic 2, where signs matter.
        self._exterior = tuple((i, 1 << i, g.degree % 2 == 1 and domain.characteristic != 2)
                               for i, g in reversed(tuple(enumerate(gens))) if g.exterior)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise PolyError("unknown generator %r" % name) from None

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    def mono_degree(self, mono: Monomial) -> int:
        return sum(e * d for e, d in zip(mono, self._degrees))

    def _term_masks(self, mono: Monomial) -> Tuple[int, int, int]:
        """Masks for the product loop: the exterior generators mono holds; as
        left factor, the signed generators j with an odd number of signed
        factors after j; as right factor, the signed generators it holds."""
        held = left = right = parity = 0
        for i, bit, signed in self._exterior:
            if signed and parity:
                left |= bit
            if mono[i]:
                held |= bit
                if signed:
                    right |= bit
                    parity ^= 1
        return held, left, right

    def __len__(self):
        return len(self.generators)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraSignature)
            and self.generators == other.generators
            and self.domain == other.domain
        )

    def __hash__(self):
        return hash((self.generators, self.domain))

    def __repr__(self):
        gens = ", ".join(
            "%s:%d%s" % (g.name, g.degree, "^" if g.exterior else "") for g in self.generators
        )
        return "AlgebraSignature([%s], %s)" % (gens, self.domain)


def signature(gens: Iterable[Tuple], domain: Domain) -> AlgebraSignature:
    """Build a signature from (name, degree) or (name, degree, exterior) tuples."""
    return AlgebraSignature([Generator(*spec) for spec in gens], domain)


# ---------------------------------------------------------------------------
# Monomial helpers
# ---------------------------------------------------------------------------


def mono_str(names: Sequence[str], mono: Sequence[int]) -> str:
    """'x^2*y' for the exponents mono on the names; '' for the unit."""
    return "*".join(n if e == 1 else "%s^%d" % (n, e) for n, e in zip(names, mono) if e)


def compositions(
    weights: Sequence[int], total: int, caps: Optional[Sequence[Optional[int]]] = None
) -> List[Tuple[int, ...]]:
    """Exponent tuples e with sum(e_i * weights[i]) == total, in lex order.

    Weights are positive; caps[i], when given and not None, bounds e_i.
    """
    bounds = [total // w if caps is None or caps[i] is None else min(total // w, caps[i])
              for i, w in enumerate(weights)]
    # Bit t of reach[i] is set when the weights from index i on can sum to
    # exactly t; it prunes every prefix that cannot be completed.
    reach = [1]
    for w, bound in zip(reversed(weights), reversed(bounds)):
        bits = 0
        for e in range(bound + 1):
            bits |= reach[-1] << (e * w)
        reach.append(bits)
    reach.reverse()
    prefixes: List[Tuple[Tuple[int, ...], int]] = [((), total)]
    for i, w in enumerate(weights):
        nxt = reach[i + 1]
        prefixes = [
            (prefix + (e,), rest - e * w)
            for prefix, rest in prefixes
            for e in range(min(rest // w, bounds[i]) + 1)
            if nxt >> (rest - e * w) & 1
        ]
    return [prefix for prefix, rest in prefixes if rest == 0]


def degree_slice(sig: AlgebraSignature, n: int) -> List[Monomial]:
    """All monomials of total degree exactly n, in graded-lex order."""
    if n < 0:
        raise PolyError("degree must be non-negative")
    return compositions(sig._degrees, n, [1 if g.exterior else None for g in sig.generators])


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Immutable sparse polynomial in a fixed signature."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig: AlgebraSignature, terms: Dict[Monomial, object], _clean=False):
        self.sig = sig
        if _clean:
            self.terms = terms
        else:
            dom = sig.domain
            clean: Dict[Monomial, object] = {}
            for mono, coeff in terms.items():
                if len(mono) != len(sig):
                    raise PolyError("monomial arity mismatch")
                for e, g in zip(mono, sig.generators):
                    if e < 0:
                        raise PolyError("negative exponent")
                    if g.exterior and e > 1:
                        raise PolyError("exterior generator %s squared" % g.name)
                c = dom.coerce(coeff)
                if c != 0:
                    clean[mono] = c
            self.terms = clean

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(sig: AlgebraSignature) -> "Polynomial":
        return Polynomial(sig, {}, _clean=True)

    @staticmethod
    def one(sig: AlgebraSignature) -> "Polynomial":
        return Polynomial(sig, {(0,) * len(sig): sig.domain.coerce(1)})

    @staticmethod
    def constant(sig: AlgebraSignature, c) -> "Polynomial":
        return Polynomial(sig, {(0,) * len(sig): c})

    @staticmethod
    def gen(sig: AlgebraSignature, name: str) -> "Polynomial":
        mono = [0] * len(sig)
        mono[sig.index(name)] = 1
        return Polynomial(sig, {tuple(mono): 1})

    @staticmethod
    def from_mono(sig: AlgebraSignature, mono: Monomial, c=1) -> "Polynomial":
        return Polynomial(sig, {tuple(mono): c})

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: Monomial):
        return self.terms.get(tuple(mono), self.sig.domain.coerce(0))

    def degree(self) -> int:
        """Top total degree; zero polynomial has degree 0 by convention."""
        if not self.terms:
            return 0
        return max(self.sig.mono_degree(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {self.sig.mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_degrees(self) -> List[int]:
        return sorted({self.sig.mono_degree(m) for m in self.terms})

    # -- arithmetic -------------------------------------------------------

    def _check_sig(self, other: "Polynomial"):
        if self.sig != other.sig:
            raise PolyError("signature mismatch")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_sig(other)
        dom = self.sig.domain
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = dom.coerce(out.get(mono, 0) + c)
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        return Polynomial(self.sig, out, _clean=True)

    def __neg__(self) -> "Polynomial":
        dom = self.sig.domain
        return Polynomial(self.sig, {m: dom.coerce(-c) for m, c in self.terms.items()}, _clean=True)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c) -> "Polynomial":
        dom = self.sig.domain
        c = dom.coerce(c)
        out = {}
        for mono, a in self.terms.items():
            v = dom.coerce(a * c)
            if v != 0:
                out[mono] = v
        return Polynomial(self.sig, out, _clean=True)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_sig(other)
        sig = self.sig
        a, b = self.terms.items(), other.terms.items()
        if sig.domain.kind in ("rat", "plocal"):  # integral Fractions enter as ints
            a = [(m, c.numerator if c.denominator == 1 else c) for m, c in a]
            b = [(m, c.numerator if c.denominator == 1 else c) for m, c in b]
        out: Dict[Monomial, object] = {}
        get = out.get
        if sig._exterior:
            # A pair vanishes when both hold an exterior generator; its sign is the
            # parity of odd factors of m2 moving left past later odd factors of m1.
            a = [(m, c, *sig._term_masks(m)) for m, c in a]
            b = [(m, c, *sig._term_masks(m)) for m, c in b]
            for m1, c1, ext1, left1, _ in a:
                for m2, c2, ext2, _, right2 in b:
                    if not ext1 & ext2:
                        mono = tuple(map(add, m1, m2))
                        c = -c1 * c2 if (left1 & right2).bit_count() & 1 else c1 * c2
                        out[mono] = get(mono, 0) + c
        else:
            for m1, c1 in a:
                for m2, c2 in b:
                    mono = tuple(map(add, m1, m2))
                    out[mono] = get(mono, 0) + c1 * c2
        coerce = sig.domain.coerce
        terms = {}
        for mono, c in out.items():
            c = coerce(c)
            if c != 0:
                terms[mono] = c
        return Polynomial(sig, terms, _clean=True)

    def __pow__(self, n: int, max_degree: Optional[int] = None) -> "Polynomial":
        """self^n; pow(self, n, max_degree) drops the terms above max_degree after each product."""
        if n < 0:
            raise PolyError("negative power")
        result = Polynomial.one(self.sig)
        base = self
        while n:
            if n & 1:
                result = (result * base).truncate(max_degree)
            base = (base * base).truncate(max_degree) if n > 1 else base
            n >>= 1
        return result

    def truncate(self, max_degree: Optional[int]) -> "Polynomial":
        """The terms of degree <= max_degree; all of them when it is None."""
        deg = self.sig.mono_degree
        return self if max_degree is None else Polynomial(
            self.sig, {m: c for m, c in self.terms.items() if deg(m) <= max_degree}, _clean=True)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.sig == other.sig
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.sig, tuple(sorted(self.terms.items()))))

    # -- printing ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        sig, names = self.sig, self.sig.names
        monos = sorted(self.terms, key=lambda m: (sig.mono_degree(m), m), reverse=True)
        parts: List[str] = []
        for mono in monos:
            c = self.terms[mono]
            body = mono_str(names, mono)
            neg = c < 0 if not isinstance(c, bool) else False
            mag = -c if neg else c
            if body and mag == 1:
                text = body
            elif body:
                text = "%s*%s" % (mag, body)
            else:
                text = str(mag)
            if not parts:
                parts.append("-" + text if neg else text)
            else:
                parts.append(("- " if neg else "+ ") + text)
        return " ".join(parts)

    def __repr__(self):
        return "Polynomial(%s)" % self


def power_products(
    gens: Sequence[Optional[Polynomial]], terms: Iterable[Tuple[Polynomial, Sequence[int]]]
) -> List[Polynomial]:
    """base * gens[0]**e[0] * gens[1]**e[1] * ... for each (base, e) in terms,
    building each power once per call (gens[i] may be None if every e[i] is 0)."""
    powers: Dict[Tuple[int, int], Polynomial] = {}
    out = []
    for poly, expo in terms:
        for i, e in enumerate(expo):
            if e:
                if (i, e) not in powers:
                    powers[i, e] = gens[i] ** e
                poly = poly * powers[i, e]
        out.append(poly)
    return out


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


# One token per match, after any whitespace: an unsigned integer, a name (a
# letter or '_', then word characters), or any other single character.
_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[^\W\d]\w*)|(?P<char>\S))")
_Token = Tuple[str, str, int]  # kind, text, position


def parse(text: str, sig: AlgebraSignature, max_degree: Optional[int] = None) -> Polynomial:
    """Parse the grammar: expr := ['-'] term (('+'|'-') term)*;
    term := coeff ('*' factor)* | factor ('*' factor)*;
    factor := name ('^' uint)? | '(' expr ')'; coeff := int ('/' uint)?.

    With max_degree, the terms of degree <= max_degree, exactly: every
    product and power drops the terms above it as it is read.  Nesting
    deeper than the interpreter's recursion limit is refused.
    """
    # The tokens in reverse, so that toks[-1] is the next one; the "end" token
    # under them stands at the end of the text.
    toks: List[_Token] = [("end", "", len(text))]
    toks += reversed([(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
                      for m in _TOKEN.finditer(text)])
    try:
        poly = _parse_expr(toks, sig, max_degree)
    except RecursionError:
        raise PolyError("expression nested too deeply") from None
    if len(toks) > 1:
        raise PolyError("trailing input at position %d" % toks[-1][2])
    return poly.truncate(max_degree)


def _parse_expr(toks: List[_Token], sig: AlgebraSignature, top: Optional[int]) -> Polynomial:
    if toks[-1][1] == "-":
        toks.pop()
        result = -_parse_term(toks, sig, top)
    else:
        result = _parse_term(toks, sig, top)
    while True:
        ch = toks[-1][1]
        if ch == "+":
            toks.pop()
            result = result + _parse_term(toks, sig, top)
        elif ch == "-":
            toks.pop()
            result = result - _parse_term(toks, sig, top)
        else:
            return result


def _parse_term(toks: List[_Token], sig: AlgebraSignature, top: Optional[int]) -> Polynomial:
    if toks[-1][0] == "int":
        num, den = int(toks.pop()[1]), 1
        if toks[-1][1] == "/":
            toks.pop()
            den = _read_uint(toks)
        result = Polynomial.constant(sig, Fraction(num, den))
    else:
        result = _parse_factor(toks, sig, top)
    while toks[-1][1] == "*":
        toks.pop()
        result = (result * _parse_factor(toks, sig, top)).truncate(top)
    return result


def _parse_factor(toks: List[_Token], sig: AlgebraSignature, top: Optional[int]) -> Polynomial:
    kind, tok, pos = toks.pop()
    if tok == "(":
        base = _parse_expr(toks, sig, top)
        kind, tok, pos = toks.pop()
        if tok != ")":  # the position just past the first character found
            raise PolyError("expected ')' at position %d" % (pos + len(tok[:1])))
    elif kind == "name" and not tok[0].isnumeric():  # \w also admits numerals like '½'
        base = Polynomial.gen(sig, tok)
    else:
        raise PolyError("unexpected character %r at position %d" % (tok[:1], pos))
    if toks[-1][1] == "^":
        toks.pop()
        return pow(base, _read_uint(toks), top)
    return base


def _read_uint(toks: List[_Token]) -> int:
    if toks[-1][0] != "int":
        raise PolyError("expected integer at position %d" % toks[-1][2])
    return int(toks.pop()[1])
