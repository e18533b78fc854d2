"""Charts: descriptions of H*(BX; Z_(p)) with Milnor actions.

A chart presents the mod-p cohomology as the graded-commutative algebra on
named classes modulo a monomial ideal.  Its additive basis in every degree
is the set of standard monomials: those that no relation monomial divides,
kept as one index per degree, {packed code: position} (steenrod.Packing,
which alone knows the layout: field 0 highest, so code order is lex order),
built from the indexes below (Chart._basis); basis_at decodes it.  The Q_i
actions for i = 0..m are given by generator images; Q_i on a basis monomial
follows by the graded Leibniz rule on codes (steenrod.Derivation), its
terms summed per monomial.  A nonzero sum outside the basis is rewritten by
the first product rule whose lhs divides it, and each rewrite is kept; it
is zero when the chart has no product rules.  The window scopes validation
and the spectral-sequence enumeration; bases, Q_i matrices and integral
slices are defined in every degree and are derived on first use.  The
integral structure is derived from Q_0: since the torsion has exponent
exactly p, the free part in each degree is a lift of ker(Q_0)/im(Q_0) and
the p-torsion part bijects with im(Q_0).  Q_i columns and the integral
bases are packed FpSubspace vectors throughout.

Chart files are section-based text ("#" comments):

    [chart]            name/p/window key = value lines
    [classes]          'name degree torsion_exponent [exterior]' per
                       generator; the exponent is 1 when the generator
                       reduces an integral p-torsion class (it lies in
                       im Q_0), else 0
    [relations]        optional; one monomial per line, generating the ideal
                       of monomials that are not basis classes (in every
                       degree, inside the window and beyond it)
    [products]         optional; 'monomial -> c*monomial' or 'monomial -> 0'
                       rewrite rules for Leibniz terms outside the basis;
                       lhs in the relation ideal, rhs 0 or of its degree
    [q I]              'source -> polynomial' images of Q_I, I >= 0, one per source
    [aliases]          'short = monomial' naming shortcuts
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import compress
from operator import le
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .linalg import FpSubspace
from .poly import (
    AlgebraSignature,
    Monomial,
    PolyError,
    Polynomial,
    fp,
    mono_str,
    parse as parse_poly,
    signature,
)
from .steenrod import Derivation, Packing


class ChartError(Exception):
    pass


def q_shift(p: int, i: int) -> int:
    return 2 * p**i - 1


# (lhs, coefficient, rhs): lhs * m rewrites to coefficient * rhs * m; rhs is
# None when the product vanishes.
ProductRule = Tuple[Monomial, int, Optional[Monomial]]


@dataclass
class _ChartCache:
    """Derived from a chart's description, none of it referring to the chart: its
    packing, packed relations and product rules, and on first use each degree's basis
    index, each Milnor index's Derivation, each term's reduction, Q_i columns and slices."""

    packing: Packing
    relations: FrozenSet[int]
    rules: Tuple[Tuple[int, int, Optional[int]], ...]
    # degrees 0, 1, ... (filled upwards): basis code -> position, in increasing code order
    basis: Dict[int, Dict[int, int]] = field(default_factory=dict)
    q_kernels: Dict[int, Derivation] = field(default_factory=dict)
    # packed term -> (unit coefficient, position in its degree's basis), or None: it vanishes
    reduced: Dict[int, Optional[Tuple[int, int]]] = field(default_factory=dict)
    q_mats: Dict[Tuple[int, int], List[int]] = field(default_factory=dict)
    integral: Dict[int, "IntegralSlice"] = field(default_factory=dict)


@dataclass(frozen=True)
class Chart:
    """A chart description; everything else is derived from it into cache."""

    name: str
    p: int
    window: int
    sig: AlgebraSignature
    q_images: Dict[int, Dict[str, Polynomial]]
    relations: Tuple[Monomial, ...] = ()
    products: Tuple[ProductRule, ...] = ()
    aliases: Dict[str, str] = field(default_factory=dict)
    label: str = field(default="", compare=False)  # the chart in error messages
    cache: _ChartCache = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pack = Packing(self.sig, ChartError)
        rules = tuple((pack.encode(lhs), c, None if rhs is None else pack.encode(rhs))
                      for lhs, c, rhs in self.products)
        object.__setattr__(self, "cache", _ChartCache(
            pack, frozenset(map(pack.encode, self.relations)), rules))

    def _basis(self, degree: int) -> Dict[int, int]:
        """The basis codes of a degree (any degree) mapped to their positions,
        in code order (degree_slice order).  Built from the degrees below: the
        m * x_j (m standard, x_j not exterior in m) that are no relation and
        whose quotients are all standard.  This is exact for a monomial ideal:
        a divisor of a standard monomial is standard, and a relation dividing
        a candidate is the candidate or divides one of its quotients."""
        basis = self.cache.basis
        if degree >= len(basis):
            pack, gens, relations = self.cache.packing, self.sig.generators, self.cache.relations
            for d in range(len(basis), degree + 1):
                below = [basis[d - g.degree] if g.degree <= d else {} for g in gens]
                candidates = pack.multiples(below) if d else {0}
                basis[d] = {m: i for i, m in enumerate(sorted(candidates - relations))}
        return basis.get(degree, {})

    def basis_at(self, degree: int) -> List[Monomial]:
        return list(map(self.cache.packing.decode, self._basis(degree)))

    def position(self, mono: Monomial) -> Optional[int]:
        """The position of a monomial in its degree's basis, None outside it."""
        return self._basis(self.sig.mono_degree(mono)).get(self.cache.packing.encode(mono))

    def dim(self, degree: int) -> int:
        return len(self._basis(degree))

    def q_columns(self, i: int, degree: int) -> List[int]:
        """Q_i from degree to degree + 2p^i - 1 (any degree): column j is the
        packed FpSubspace vector of the image of basis monomial j.  Its
        Leibniz terms (steenrod.Derivation on packed codes) are summed per
        code first, and only the nonzero sums are reduced into the target
        basis (_reduce), where FpSubspace.combine adds them up (product
        rules may send several terms to one target)."""
        cache = self.cache
        cols = cache.q_mats.get((i, degree))
        if cols is None:
            kernel = cache.q_kernels.get(i) or cache.q_kernels.setdefault(
                i, Derivation(self.sig, self.q_images.get(i, {}), ChartError))
            p, reduced, target = self.p, cache.reduced, degree + q_shift(self.p, i)
            cols = []
            for code in self._basis(degree):
                hits = ((c, reduced[m] if m in reduced else self._reduce(m, target))
                        for m, c in kernel.terms(code).items() if c % p)
                cols.append(FpSubspace.combine(p, ((c * h[0] % p, 1, h[1]) for c, h in hits if h)))
            cache.q_mats[i, degree] = cols
        return cols

    def _reduce(self, code: int, degree: int) -> Optional[Tuple[int, int]]:
        """A packed term of the degree in its basis, memoized in cache.reduced:
        (unit coefficient, position), or None when it vanishes.  Outside the
        basis the first product rule whose lhs divides the term rewrites it
        to term - lhs + rhs, which vanishes when rhs is 0 or an exterior
        field reaches 2; with no rules the term vanishes.  A term that no
        rule reduces, or that leaves its fields, raises."""
        cache, p, pack = self.cache, self.p, self.cache.packing
        index = self._basis(degree)
        m, coeff = code, 1
        for _step in range(101):
            if pack.checked(m) in index:
                return cache.reduced.setdefault(code, (coeff % p, index[m]))
            rule = pack.first_divisor(cache.rules, m)
            if rule is None and cache.rules:
                raise ChartError("image monomial %s is neither in the basis nor reducible"
                                 % self.mono_label(pack.decode(m)))
            if rule is None or rule[2] is None or pack.vanishes(m - rule[0] + rule[2]):
                return cache.reduced.setdefault(code, None)
            m, coeff = m - rule[0] + rule[2], coeff * rule[1] % p
        raise ChartError("product rewriting did not terminate")

    def q_matrix(self, i: int, degree: int) -> List[List[int]]:
        """q_columns as rows over the target basis, for the tests' list references
        and the bench tracer (bench/spans.py); weylchow itself reads q_columns."""
        n = self.dim(degree + q_shift(self.p, i))
        cols = [FpSubspace.unpack(self.p, c, n) for c in self.q_columns(i, degree)]
        return [[col[r] for col in cols] for r in range(n)]

    def resolve_name(self, text: str) -> Monomial:
        """A class name, alias, or monomial expression -> basis monomial."""
        name = self.aliases.get(text, text)
        try:
            poly = parse_poly(name, self.sig)
        except Exception as exc:
            raise ChartError("cannot resolve class name %r: %s" % (text, exc)) from exc
        if len(poly.terms) != 1:
            raise ChartError("%r does not name a single basis class" % text)
        ((mono, coeff),) = tuple(poly.terms.items())
        if coeff != 1:
            raise ChartError("%r carries a coefficient" % text)
        if self.position(mono) is None:
            raise ChartError("%r is not a basis class of the chart" % text)
        return mono

    def mono_label(self, mono: Monomial) -> str:
        return mono_str(self.sig.names, mono) or "1"

    def class_label(self, degree: int, vec: List[int]) -> str:
        """'c*m + ...' for the integer vector vec over the basis of a degree."""
        monos = map(self.cache.packing.decode, compress(self._basis(degree), vec))
        parts = [self.mono_label(m) if c == 1 else "%d*%s" % (c, self.mono_label(m))
                 for m, c in zip(monos, filter(None, vec))]
        return " + ".join(parts) if parts else "0"

    def integral_slice(self, degree: int) -> "IntegralSlice":
        if degree not in self.cache.integral:
            self.cache.integral[degree] = _build_integral_slice(self, degree)
        return self.cache.integral[degree]


@dataclass
class IntegralSlice:
    """Integral basis of H^n(X; Z_(p)) in chart coordinates.

    free and torsion hold packed FpSubspace vectors over the chart basis of
    the degree (bit j at p = 2, byte j at odd p); their coordinates, in
    [0, p), are read as integers to lift them.  free spans a complement of
    im(Q_0) in ker(Q_0): the vectors of FpSubspace.kernel's basis of
    ker(Q_0), read off the packed Q_0 columns (Chart.q_columns), that
    extend the image basis, in that basis's order.  torsion is the reduced
    echelon basis of im(Q_0).  The ambient lattice of the spectral-sequence
    blocks is Z^(len(free) + len(torsion)), with torsion coordinates
    carrying the relation p * t = 0.  torsion_span is the tracking()
    echelon of the torsion basis, which solves for torsion coordinates.
    q_to_torsion[i] is Q_i from this integral basis to the target slice's
    integral coordinates, built by integral_q_matrix from the chart's
    packed Q_i columns (Chart.q_columns): column j is the packed image of
    basis vector j, zero outside the torsion coordinates, so Q_i x is the
    sum of the columns at the nonzero coordinates of x (an XOR at p = 2).
    """

    degree: int
    free: List[int]
    torsion: List[int]
    torsion_span: FpSubspace
    q_to_torsion: Dict[int, list] = field(default_factory=dict)

    @property
    def rank(self) -> int:
        return len(self.free) + len(self.torsion)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def build_chart(
    name: str,
    p: int,
    window: int,
    gens: Sequence[Tuple],
    q_images: Dict[int, Dict[str, object]],
    relations: Sequence[str] = (),
    torsion_tags: Optional[Dict[str, int]] = None,
    aliases: Optional[Dict[str, str]] = None,
    products: Sequence[Tuple[str, str]] = (),
    label: Optional[str] = None,
) -> Chart:
    """Assemble and validate a chart.

    gens are (name, degree) or (name, degree, exterior); q_images maps each
    Milnor index to generator-image expressions (strings, or Polynomials
    in the chart's signature), of which the zero ones are dropped;
    relations lists the monomials that generate the ideal of non-basis
    monomials; torsion_tags are checked against the Q_0 structure; products
    lists monomial rewrite rules ('x*y' -> 'c*z*w' or '0') used to push
    Leibniz terms back into the basis when the relations are not merely
    monomial vanishing.  Errors name the chart by label, which defaults to
    the name.
    """
    label = label or name
    sig = signature(gens, fp(p))
    parsed: Dict[int, Dict[str, Polynomial]] = {}
    for i, images in sorted(q_images.items()):
        if i < 0:
            raise ChartError("chart %s: Milnor index %d is negative" % (label, i))
        polys = {g: e if isinstance(e, Polynomial) else parse_poly(str(e), sig)
                 for g, e in images.items()}
        for g, poly in polys.items():
            if poly.sig != sig:
                raise ChartError("chart %s: Q_%d(%s) lives in another signature" % (label, i, g))
        parsed[i] = {g: poly for g, poly in polys.items() if not poly.is_zero()}
    chart = Chart(
        name=name,
        p=p,
        window=window,
        sig=sig,
        q_images=parsed,
        relations=tuple(sorted({_plain_monomial(sig, text, "relation") for text in relations},
                               reverse=True)),
        products=tuple(_parse_product_rule(sig, lhs, rhs) for lhs, rhs in products),
        aliases=dict(aliases or {}),
        label=label,
    )
    validate_chart(chart, torsion_tags or {})
    return chart


def _plain_monomial(sig: AlgebraSignature, text: str, what: str) -> Monomial:
    poly = parse_poly(text, sig)
    if len(poly.terms) != 1 or set(poly.terms.values()) != {1}:
        raise ChartError("%s %r must be a plain monomial" % (what, text))
    (mono,) = poly.terms
    return mono


def _parse_product_rule(sig: AlgebraSignature, lhs_text: str, rhs_text: str) -> ProductRule:
    lhs = _plain_monomial(sig, lhs_text, "product rule LHS")
    rhs_poly = parse_poly(rhs_text, sig)
    if rhs_poly.is_zero():
        return lhs, 0, None
    if len(rhs_poly.terms) != 1:
        raise ChartError("product rule RHS %r must be a monomial or 0" % rhs_text)
    ((rhs, coeff),) = tuple(rhs_poly.terms.items())
    return lhs, int(coeff), rhs


def _rule_text(chart: Chart, rule: ProductRule) -> str:
    lhs, coeff, rhs = rule
    return "%s -> %s" % (chart.mono_label(lhs),
                         "0" if rhs is None else Polynomial.from_mono(chart.sig, rhs, coeff))


def validate_chart(chart: Chart, torsion_tags: Dict[str, int]):
    """Product rules, degree shifts, Q_i^2 = 0 in the window, declared torsion tags."""
    p, degree = chart.p, chart.sig.mono_degree
    for rule in chart.products:
        lhs, _coeff, rhs = rule
        if not any(all(map(le, rel, lhs)) for rel in chart.relations):
            raise ChartError("chart %s: product rule %s: its lhs is no multiple of a relation"
                             % (chart.label, _rule_text(chart, rule)))
        if rhs is not None and degree(rhs) != degree(lhs):
            raise ChartError("chart %s: product rule %s: its rhs has degree %d, its lhs %d"
                             % (chart.label, _rule_text(chart, rule), degree(rhs), degree(lhs)))
    for i, images in chart.q_images.items():
        shift = q_shift(p, i)
        for gname, img in images.items():
            gdeg = chart.sig.generators[chart.sig.index(gname)].degree
            if not img.is_homogeneous() or img.degree() != gdeg + shift:
                raise ChartError(
                    "chart %s: Q_%d(%s) has degree %s, expected %d"
                    % (chart.label, i, gname, img.homogeneous_degrees(), gdeg + shift)
                )
    check_q_squares(chart, chart.window)
    for gname, tag in torsion_tags.items():
        expected = _torsion_tag(chart, gname)
        if tag != expected:
            raise ChartError(
                "generator %s tagged torsion_exponent %d but Q_0 structure says %d"
                % (gname, tag, expected)
            )


def check_q_squares(chart: Chart, top: int):
    """Raise ChartError at the lowest degree d with Q_i Q_i != 0 on degree d,
    for each Q_i of the chart, among the d with d + 2|Q_i| <= top."""
    p = chart.p
    for i in chart.q_images:
        shift = q_shift(p, i)
        for d in range(top - 2 * shift + 1):
            second = chart.q_columns(i, d + shift)
            if any(FpSubspace.image(p, second, c) for c in chart.q_columns(i, d)):
                raise ChartError(
                    "chart %s: Q_%d does not square to zero at degree %d" % (chart.label, i, d)
                )


def _torsion_tag(chart: Chart, gname: str) -> int:
    """1 when the generator is a basis class inside im Q_0, else 0."""
    j = chart.sig.index(gname)
    degree = chart.sig.generators[j].degree
    position = chart.position(tuple(int(k == j) for k in range(len(chart.sig))))
    return int(position is not None and chart.integral_slice(degree).torsion_span.coordinates(
        FpSubspace.unit(chart.p, position), chart.dim(degree)) is not None)


# ---------------------------------------------------------------------------
# Integral slices
# ---------------------------------------------------------------------------


def _build_integral_slice(chart: Chart, degree: int) -> IntegralSlice:
    p = chart.p
    dim = chart.dim(degree)
    if dim == 0:
        return IntegralSlice(degree, [], [], FpSubspace(p))
    image = FpSubspace(p, chart.q_columns(0, degree - 1))
    # Extend the image basis to a basis of the kernel; the added vectors
    # lift the free classes.  The image lies in the kernel exactly when the
    # extended span is no larger than the kernel.
    kernel = FpSubspace.kernel(p, chart.q_columns(0, degree), chart.dim(degree + 1))
    span = image.copy()
    free = [v for v in kernel if span.insert(v)]
    if len(span) != len(kernel):
        raise ChartError("Q_0 image is not contained in ker Q_0 at degree %d" % degree)
    return IntegralSlice(degree, free, image.rows, FpSubspace.tracking(p, image.rows, dim))


def integral_q_matrix(chart: Chart, i: int, degree: int) -> list:
    """Q_i on the integral basis, as IntegralSlice.q_to_torsion stores it:
    column j holds the target integral coordinates of the image of basis
    vector j (zero at the free coordinates: Milnor images of integral
    classes are p-torsion).

    Each image is Q_i's packed columns applied to the basis vector, reduced
    against the target's torsion echelon, which is built once per slice.
    """
    sl = chart.integral_slice(degree)
    if i in sl.q_to_torsion:
        return sl.q_to_torsion[i]
    p = chart.p
    tgt_degree = degree + q_shift(p, i)
    tgt = chart.integral_slice(tgt_degree)
    width = chart.dim(tgt_degree)
    q_cols = chart.q_columns(i, degree)
    nfree = len(tgt.free)
    cols = []
    for vec in sl.free + sl.torsion:
        coords = tgt.torsion_span.coordinates(FpSubspace.image(p, q_cols, vec), width)
        if coords is None:
            raise ChartError("Q_%d image at degree %d is not an integral p-torsion class"
                             % (i, degree))
        cols.append(FpSubspace.join(p, 0, coords, nfree))
    sl.q_to_torsion[i] = cols
    return cols


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def serialize_chart(chart: Chart) -> str:
    lines = ["[chart]", "name = %s" % chart.name, "p = %d" % chart.p,
             "window = %d" % chart.window, "", "[classes]"]
    for g in chart.sig.generators:
        ext = " exterior" if g.exterior else ""
        lines.append("%s %d %d%s" % (g.name, g.degree, _torsion_tag(chart, g.name), ext))

    def section(head: str, body: List[str]):
        lines.extend(["", "[%s]" % head] + body)

    if chart.relations:
        section("relations", [chart.mono_label(m) for m in chart.relations])
    if chart.products:
        section("products", [_rule_text(chart, rule) for rule in chart.products])
    for i in sorted(chart.q_images):
        section("q %d" % i, ["%s -> %s" % entry for entry in sorted(chart.q_images[i].items())])
    if chart.aliases:
        section("aliases", ["%s = %s" % entry for entry in sorted(chart.aliases.items())])
    return "\n".join(lines) + "\n"


def parse_chart(text: str, source: Optional[str] = None) -> Chart:
    """A chart from its file text.  Without a name line the chart is named
    "chart", and its errors name the source (the file path) when given."""
    section = None
    q_index: Optional[int] = None
    header: Dict[str, str] = {}
    classes: List[Tuple[str, int, int, bool]] = []
    relations: List[str] = []
    q_raw: Dict[int, Dict[str, str]] = {}
    aliases: Dict[str, str] = {}
    products: List[Tuple[str, str]] = []
    checks: List[Tuple[int, Callable]] = []  # each polynomial text's reading, with its line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ChartError("line %d: malformed section header" % lineno)
            head = line[1:-1].strip().lower()
            if head in ("chart", "classes", "relations", "products", "aliases"):
                section = head
            elif head.startswith("q"):
                section = "q"
                try:
                    q_index = int(head[1:].strip())
                except ValueError:
                    raise ChartError("line %d: malformed [q i] header" % lineno) from None
                q_raw.setdefault(q_index, {})
            else:
                raise ChartError("line %d: unknown section %r" % (lineno, head))
            continue
        if section == "chart":
            if "=" not in line:
                raise ChartError("line %d: expected key = value" % lineno)
            key, val = [s.strip() for s in line.split("=", 1)]
            header[key] = val
        elif section == "classes":
            parts = line.split()
            if len(parts) not in (3, 4):
                raise ChartError("line %d: expected 'name degree torsion_exponent'" % lineno)
            ext = len(parts) == 4 and parts[3] == "exterior"
            try:
                classes.append((parts[0], int(parts[1]), int(parts[2]), ext))
            except ValueError:
                raise ChartError("line %d: malformed class line" % lineno) from None
        elif section == "relations":
            relations.append(line)
            checks.append((lineno, partial(_plain_monomial, text=line, what="relation")))
        elif section == "q":
            if "->" not in line:
                raise ChartError("line %d: expected 'source -> polynomial'" % lineno)
            src, img = [s.strip() for s in line.split("->", 1)]
            if src in q_raw[q_index]:
                raise ChartError("line %d: a second Q_%d image of %s" % (lineno, q_index, src))
            q_raw[q_index][src] = img
            checks.append((lineno, partial(parse_poly, img)))
        elif section == "products":
            if "->" not in line:
                raise ChartError("line %d: expected 'monomial -> term'" % lineno)
            lhs, rhs = [s.strip() for s in line.split("->", 1)]
            products.append((lhs, rhs))
            checks.append((lineno, partial(_parse_product_rule, lhs_text=lhs, rhs_text=rhs)))
        elif section == "aliases":
            if "=" not in line:
                raise ChartError("line %d: expected 'short = monomial'" % lineno)
            short, full = [s.strip() for s in line.split("=", 1)]
            aliases[short] = full
        else:
            raise ChartError("line %d: content outside any section" % lineno)
    for key in ("p", "window"):
        if key not in header:
            raise ChartError("[chart] section missing %r" % key)
    gens = [(nm, deg, ext) for nm, deg, _tag, ext in classes]
    try:
        return build_chart(
            header.get("name", "chart"), int(header["p"]), int(header["window"]), gens, q_raw,
            relations=relations, torsion_tags={nm: tag for nm, _deg, tag, _ext in classes},
            aliases=aliases, products=products, label=header.get("name", source),
        )
    except (ChartError, PolyError):  # find the text refused, if a text was, to name its line
        sig = signature(gens, fp(int(header["p"])))
        for lineno, read in checks:
            try:
                read(sig)
            except (ChartError, PolyError) as exc:
                raise ChartError("line %d: %s" % (lineno, exc)) from None
        raise


def load_chart(path: str) -> Chart:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_chart(fh.read(), path)
