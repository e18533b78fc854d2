"""Audits of the restriction maps out of CH*(BG) for Spin(7) at p = 2.

The ambient objects are computed, never assumed: the Weyl-invariant ring of
the spin weight lattice is produced degree by degree by the invariants
engine in one walk, to the audit window or to degree 16 if that is higher,
and its ring generators (degrees 4, 8, 12) are extracted mechanically from
the same bases.  The source side is read from the Spin(7) chart's spectral
sequence: in degree d the image of CH*(BSpin(7))/Tor is spanned by the
final-page free classes of block (d, 1), the free part of the collapse to
Z_(2) (Totaro's factorization CH*(BG) -> MU*(BG) (x)_MU* Z -> H*(BG)), and
the image of H*(BSpin(7))/Tor by the Q_0-homology classes of the integral
slice.  Each class enters the invariant ring once, as an integer column over
the invariant slice (ImageLattice.columns); those are the coordinates of
every audit but the nilpotence search, which works in generator coordinates.
The trusted inputs are the identification of chart classes with invariant
generators (w_4 -> w4, w_6^2 -> c6, w_8 -> w8), the torsion source classes
with their elementary-abelian images, and the cobordism lift of the degree-6
torsion class.  The audits verify that this data is mutually consistent:
image membership with minimal 2-powers, Feshbach nilpotence, injectivity
criteria, restriction kernels, and the v_1-detection of the Griffiths ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import linalg
from .ahss import AhssResult, free_classes, permanent_cycle_check
from .builtin import spin7_chart
from .chart import Chart
from .groups import build_weyl_spin
from .invariants import (
    algebra_generators,
    basis_polynomials,
    invariant_report,
    InvariantReport,
    subring_membership,
)
from .linalg import FpSubspace, SubmoduleBasis, membership
from .poly import (
    AlgebraSignature,
    F2,
    Monomial,
    Polynomial,
    compositions,
    degree_slice,
    mono_str,
    power_products,
    signature,
    z_local,
)


class RestrictionError(Exception):
    pass


# ---------------------------------------------------------------------------
# Images read from a chart
# ---------------------------------------------------------------------------


class ImageLattice:
    """A graded lattice of the invariant ring, spanned by classes of a chart.

    vectors(d) lists the classes of degree d as integer vectors over
    chart.basis_at(d).  identification pairs invariant generators with chart
    monomials, each a power of one chart generator, by chart name (as
    "c_6" -> w_6^2); a class maps through it first to generator coordinates
    (a polynomial over gsig, one variable per invariant generator), then
    into the invariant ring by substitution, once: columns(d) keeps the
    images as integer columns over the invariant slice.  A sibling (another
    lattice of the same chart and identification) shares the columns of
    the generator monomials, so each is built once for both.
    """

    def __init__(self, name: str, chart: Chart,
                 identification: Sequence[Tuple[str, Polynomial]],
                 vectors: Callable[[int], List[List[int]]]):
        self.name, self.chart, self.vectors = name, chart, vectors
        self.identification = list(identification)
        self.generators = [g for _, g in self.identification]
        self.gsig = signature([(text, g.degree()) for text, g in self.identification],
                              self.generators[0].sig.domain)
        # (chart generator, power) of each invariant generator
        self._places = [next((j, e) for j, e in enumerate(chart.resolve_name(text)) if e)
                        for text, _ in self.identification]
        self._classes: Dict[int, List[Polynomial]] = {}
        self._columns: Dict[int, List[List[int]]] = {}
        # degree -> (its slice, {generator exponents: column}), shared with the siblings
        self._monomials: Dict[int, Tuple[List[Monomial], Dict[Tuple[int, ...], List[int]]]] = {}

    def sibling(self, name: str, vectors: Callable[[int], List[List[int]]]) -> "ImageLattice":
        """A lattice of other classes of the same chart and identification,
        sharing this one's generator monomial columns."""
        other = ImageLattice(name, self.chart, self.identification, vectors)
        other.generators, other._monomials = self.generators, self._monomials
        return other

    def exponents(self, mono: Monomial) -> Tuple[int, ...]:
        """The generator exponents of a chart monomial; a monomial outside
        the identified subring raises."""
        rest = list(mono)
        out = []
        for j, power in self._places:
            out.append(rest[j] // power)
            rest[j] %= power
        if any(rest):
            raise RestrictionError("chart class %s is not a monomial in %s"
                                   % (self.chart.mono_label(mono), ", ".join(self.gsig.names)))
        return tuple(out)

    def classes(self, degree: int) -> List[Polynomial]:
        """The classes of a degree in generator coordinates."""
        if degree not in self._classes:
            monos = self.chart.basis_at(degree)
            self._classes[degree] = [
                Polynomial(self.gsig, {self.exponents(m): c for m, c in zip(monos, vec) if c})
                for vec in self.vectors(degree)
            ]
        return self._classes[degree]

    def monomial_columns(self, degree: int, expos: Iterable[Tuple[int, ...]]
                         ) -> Tuple[List[Monomial], Dict[Tuple[int, ...], List[int]]]:
        """The invariant slice of a degree and its generator monomial columns (_column)
        by exponents, expos among them, each built once for this lattice and its siblings."""
        sig = self.generators[0].sig
        if degree not in self._monomials:
            self._monomials[degree] = degree_slice(sig, degree), {}
        ambient, monos = self._monomials[degree]
        new = sorted(set(expos) - monos.keys())
        if new:
            monos.update(zip(new, (_column(q, ambient) for q in power_products(
                self.generators, [(Polynomial.one(sig), e) for e in new]))))
        return ambient, monos

    def columns(self, degree: int) -> List[List[int]]:
        """The classes of a degree as invariant columns (monomial_columns)."""
        if degree not in self._columns:
            classes = self.classes(degree)
            ambient, monos = self.monomial_columns(degree, (e for c in classes for e in c.terms))
            zero = [0] * len(ambient)
            self._columns[degree] = [[sum(row) for row in zip(zero, *(
                [int(c) * x for x in monos[e]] for e, c in cls.terms.items()))] for cls in classes]
        return self._columns[degree]


def _product_label(names: Sequence[str], expo: Sequence[int], last: str) -> str:
    """'c_4^2*c_6*<last>' for the subring monomial with exponents expo."""
    return "*".join(filter(None, (mono_str(names, expo), last)))


def _column(poly: Polynomial, ambient: Sequence[Monomial]) -> List[int]:
    """An integral invariant as its integer column over ambient, its degree
    slice (`degree_slice`, the ambient of the invariant basis)."""
    return [int(poly.terms.get(m, 0)) for m in ambient]


# ---------------------------------------------------------------------------
# The Spin(7) model
# ---------------------------------------------------------------------------


@dataclass
class Spin7Model:
    """Computed invariants (to degree max(window, 16), where the generators
    are read), the chart's spectral sequence (ahss, whose chart has
    window + 16), and the Chow-side and H/Tor images read from it."""

    window: int
    invariants: InvariantReport
    w4: Polynomial
    w8: Polynomial
    c6: Polynomial
    ahss: AhssResult
    ch_presentation: ImageLattice
    h_presentation: ImageLattice

    @property
    def sig(self) -> AlgebraSignature:
        return self.invariants.sig


def build_spin7_model(window: int = 28) -> Spin7Model:
    """Compute the invariant ring of the spin rank-3 lattice in one walk and
    read the image lattices from the Spin(7) chart through the generators
    extracted from it."""
    inv = invariant_report(build_weyl_spin(3), max(window, 16), z_local(2))
    gens = algebra_generators(inv, 16)
    if [d for d, _ in gens] != [4, 8, 12]:
        raise RestrictionError(
            "unexpected invariant-ring generators in degrees %s" % sorted({d for d, _ in gens})
        )
    (_, w4), (_, w8), (_, c6) = gens
    chart = spin7_chart(window + 16).chart
    result = AhssResult(chart, 3, window)
    identification = [("w_4", w4), ("c_6", c6), ("w_8", w8)]
    ch = ImageLattice("CH(BSpin7)/Tor", chart, identification,
                      lambda d: free_classes(result, d, (0, 0, 0)))
    h = ch.sibling("H(BSpin7)/Tor", lambda d: [FpSubspace.unpack(chart.p, v, chart.dim(d))
                                               for v in chart.integral_slice(d).free])
    return Spin7Model(window, inv, w4, w8, c6, result, ch, h)


# ---------------------------------------------------------------------------
# Image audit
# ---------------------------------------------------------------------------


@dataclass
class ImageAuditRow:
    degree: int
    label: str
    verdict: str
    scale_power: Optional[int]


@dataclass
class ImageAuditReport:
    rows: List[ImageAuditRow]
    image_rank_by_degree: Dict[int, int]
    invariant_rank_by_degree: Dict[int, int]

    @property
    def max_scale_power(self) -> int:
        return max((r.scale_power or 0) for r in self.rows) if self.rows else 0


def rho_image_audit(model: Spin7Model, pres: ImageLattice) -> ImageAuditReport:
    """Membership of every invariant basis vector in the image lattice.

    For each degree up to the model's window: the image's span is
    intersected with the invariant lattice coordinatewise; each invariant
    basis vector gets inside / outside / inside-after-scaling-2^k with the
    minimal k.
    """
    rows: List[ImageAuditRow] = []
    image_ranks: Dict[int, int] = {}
    inv_ranks: Dict[int, int] = {}
    for degree in range(0, model.window + 1, 2):
        inv = model.invariants.by_degree.get(degree)
        if inv is None or inv.rank == 0:
            continue
        span = SubmoduleBasis(model.sig.domain, inv.ambient, linalg.hnf_basis(pres.columns(degree)))
        image_ranks[degree] = span.rank
        inv_ranks[degree] = inv.rank
        for idx, (vec, poly) in enumerate(zip(inv.vectors, basis_polynomials(inv, model.sig))):
            verdict = membership([int(x) for x in vec], span)
            label = str(poly)
            rows.append(
                ImageAuditRow(
                    degree,
                    label if len(label) <= 40 else "basis[%d]" % idx,
                    verdict.verdict,
                    None if verdict.inside else verdict.scale_power,
                )
            )
    return ImageAuditReport(rows, image_ranks, inv_ranks)


# ---------------------------------------------------------------------------
# Feshbach nilpotence
# ---------------------------------------------------------------------------


@dataclass
class NilpotenceRow:
    label: str
    exponent: Optional[int]  # smallest n with y^n = 0 mod p in the presentation

    @property
    def nilpotent(self) -> bool:
        return self.exponent is not None


_NILPOTENCE_EXPONENT_BOUND = 8
_NILPOTENCE_DEGREE_BOUND = 64


def feshbach_nilpotence(
    pres: ImageLattice, candidates: Sequence[Tuple[str, Polynomial]]
) -> List[NilpotenceRow]:
    """Bounded nilpotence search in (image) (x) Z/p, p the chart's prime, in
    generator coordinates.

    Each candidate is written once as a polynomial in the image's
    generators (subring_membership); its powers are taken there and solved
    over the classes of their degree, the candidate itself (n = 1) first.
    A power is zero mod p exactly when all its coordinates are divisible by
    p.  No exponent is found past y^_NILPOTENCE_EXPONENT_BOUND (y^8) or
    past degree _NILPOTENCE_DEGREE_BOUND (64).  A candidate or a power
    outside the image raises.
    """
    local = z_local(pres.chart.p)
    rows = []
    for label, y in candidates:
        if not y.is_homogeneous() or y.is_zero():
            raise RestrictionError("candidate %s must be homogeneous nonzero" % label)
        inside, combination = subring_membership(y, pres.generators)
        if not inside:
            raise RestrictionError("%s is not a polynomial in the generators of %s"
                                   % (label, pres.name))
        y = Polynomial(pres.gsig, combination)
        exponent = None
        power = Polynomial.one(pres.gsig)
        for n in range(1, _NILPOTENCE_EXPONENT_BOUND + 1):
            power = power * y
            if power.degree() > _NILPOTENCE_DEGREE_BOUND:
                break
            classes = pres.classes(power.degree())
            support = sorted(set(power.terms).union(*(c.terms for c in classes)))
            found = linalg.solve(local, [[c.coefficient(m) for m in support] for c in classes],
                                 [power.coefficient(m) for m in support])
            if found is None or local.scale_power(found[0]) != 0:
                raise RestrictionError("%s is not expressible in %s"
                                       % (label if n == 1 else "%s^%d" % (label, n), pres.name))
            if all(c % local.p == 0 for c in found[1]):  # g is prime to p
                exponent = n
                break
        rows.append(NilpotenceRow(label, exponent))
    return rows


# ---------------------------------------------------------------------------
# Injectivity criterion
# ---------------------------------------------------------------------------


@dataclass
class CriterionReport:
    injective: bool
    first_failure: Optional[int]


def surjectivity_criterion(model: Spin7Model, pres: ImageLattice) -> CriterionReport:
    """Per-degree injectivity of (image) (x) Z/p -> invariants mod p, up to
    the model's window, p the chart's prime.

    An injective composite certifies surjectivity of the corresponding
    restriction map; the first failing degree witnesses the obstruction.
    """
    p = pres.chart.p
    for degree in range(0, model.window + 1, 2):
        cols = [FpSubspace.pack(p, col) for col in pres.columns(degree)]
        if len(FpSubspace(p, cols)) != len(cols):
            return CriterionReport(False, degree)
    return CriterionReport(True, None)


# ---------------------------------------------------------------------------
# Restriction kernels (Griffiths detection)
# ---------------------------------------------------------------------------


def _w8_tower(model: Spin7Model, degree: int) -> List[Tuple[Tuple[int, ...], List[int]]]:
    """The invariants w_8 * c_4^a c_6^b c_8^c of a degree (c_4 = w_4^2,
    c_8 = w_8^2) as columns, with their exponents (a, b, c): the generator
    monomials (2a, b, 2c + 1) in (w_4, c_6, w_8), read from the monomial
    columns that the model's image lattices share."""
    expos = compositions([8, 12, 16], degree - 8)
    _, monos = model.ch_presentation.monomial_columns(
        degree, [(2 * a, b, 2 * c + 1) for a, b, c in expos])
    return [(e, monos[2 * e[0], e[1], 2 * e[2] + 1]) for e in expos]


@dataclass
class SourceClass:
    label: str
    degree: int
    torsion: bool
    # image in the invariant ring, a column (ImageLattice.columns); None
    # for torsion, whose image is 0
    t_image: Optional[List[int]]
    # image in the mod-2 elementary-abelian target; None for the free
    # classes, which the torus target separates (res_kernel checks it)
    a_image: Optional[Polynomial]
    # the v_1 image, a column of the invariant ring in degree + 2 (_w8_tower)
    omega_image: Optional[List[int]] = None


@dataclass
class RestrictionData:
    """Chow source classes of BSpin(7) with their restriction images."""

    model: Spin7Model
    a_sig: AlgebraSignature  # Z/2[c_4, c_6, c_7, c_8]
    classes_by_degree: Dict[int, List[SourceClass]]


def build_spin7_restriction(model: Spin7Model) -> RestrictionData:
    """Assemble the CH*(BSpin(7)) classes and their images.

    The free classes are the model's Chow-side image, with their torus
    images.  The 2-torsion is typed: Z/2[c_4,c_6,c_8]{xi_3} and the ideal
    Z/2[c_4,c_6,c_7,c_8]{c_7}, with torus image 0; the elementary-abelian
    restriction mod 2 keeps the c_i (including c_7) and kills xi_3; the
    cobordism lift sends xi_3 to v_1 * w_8.
    """
    a_sig = signature(
        [("c_4", 8), ("c_6", 12), ("c_7", 14), ("c_8", 16)], F2
    )
    a_zero = Polynomial.zero(a_sig)
    pres = model.ch_presentation
    classes: Dict[int, List[SourceClass]] = {}
    max_degree = model.window
    for total in range(0, max_degree + 1, 2):
        for cls, col in zip(pres.classes(total), pres.columns(total)):
            classes.setdefault(total, []).append(SourceClass(str(cls), total, False, col, None))
    # the tower xi_3 * c_4^a c_6^b c_8^c, lifted to v_1 * w_8 * c_4^a c_6^b c_8^c
    for total in range(6, max_degree + 1, 2):
        for expo, omega in _w8_tower(model, total + 2):
            classes.setdefault(total, []).append(SourceClass(
                _product_label(("c_4", "c_6", "c_8"), expo, "xi_3"), total, True, None, a_zero,
                omega))
    # torsion ideal Z/2[c_4,c_6,c_7,c_8]{c_7}: classes c_7^j * monomials
    for total in range(14, max_degree + 1, 2):
        for mono in degree_slice(a_sig, total):
            if mono[a_sig.index("c_7")] >= 1:
                a_poly = Polynomial.from_mono(a_sig, mono)
                label = "tor[%s]" % a_poly
                classes.setdefault(total, []).append(
                    SourceClass(label, total, True, None, a_poly, None)
                )
    for bucket in classes.values():
        bucket.sort(key=lambda c: c.label)
    return RestrictionData(model, a_sig, classes)


@dataclass
class KernelRow:
    degree: int
    rank: int
    labels: List[str]


def res_kernel(data: RestrictionData, include_omega: bool = False) -> List[KernelRow]:
    """Kernel of the combined restriction per degree, up to the model's window.

    The torus target separates the free classes (verified: the integral
    matrix has full column rank on them), so the kernel lives in the
    torsion part and is computed mod 2 against the elementary-abelian
    target, optionally extended by the cobordism columns.
    """
    model = data.model
    out = []
    for degree in range(0, model.window + 1, 2):
        entries = data.classes_by_degree.get(degree, [])
        if not entries:
            continue
        free_entries = [c for c in entries if not c.torsion]
        tors_entries = [c for c in entries if c.torsion]
        if free_entries:
            if linalg.rank_q([c.t_image for c in free_entries]) != len(free_entries):
                raise RestrictionError(
                    "torus restriction fails to separate free classes in degree %d"
                    % degree
                )
        if not tors_entries:
            out.append(KernelRow(degree, 0, []))
            continue
        a_monos = degree_slice(data.a_sig, degree)
        cols = [[int(c.a_image.terms.get(m, 0)) for m in a_monos] for c in tors_entries]
        if include_omega:
            # the v_1 images, columns of invariant degree d + 2 (None: zero)
            zero = [0] * len(degree_slice(model.sig, degree + 2))
            cols = [col + (c.omega_image or zero) for col, c in zip(cols, tors_entries)]
        kernel = FpSubspace.kernel(2, [FpSubspace.pack(2, col) for col in cols], len(cols[0]))
        labels = []
        for vec in kernel:
            names = [c.label for c, x in zip(tors_entries, FpSubspace.unpack(2, vec, len(cols)))
                     if x]
            labels.append(" + ".join(names))
        out.append(KernelRow(degree, len(kernel), labels))
    return out


@dataclass
class DetectionReport:
    permanent_2e: bool
    permanent_v1e: bool
    e_dies: bool
    towers_nonzero: bool
    injective_mod_2: bool

    @property
    def passed(self) -> bool:
        return (
            self.permanent_2e
            and self.permanent_v1e
            and self.e_dies
            and self.towers_nonzero
            and self.injective_mod_2
        )


def omega_detection_audit(model: Spin7Model, ahss_result) -> DetectionReport:
    """Griffiths detection through the cobordism restriction.

    (a) 2e and v_1 e are permanent cycles while e is not; (b) w_8 times
    every subring monomial is a nonzero invariant, so the v_1-towers are
    free; (c) the assignment xi_3 * m -> v_1 w_8 * m is injective mod 2.
    """
    p2e = permanent_cycle_check(ahss_result, "2*e").permanent
    pv1e = permanent_cycle_check(ahss_result, "v_1*e").permanent
    edies = not permanent_cycle_check(ahss_result, "e").permanent
    towers = True
    injective = True
    for degree in range(8, model.window + 1, 2):
        vectors = [col for _, col in _w8_tower(model, degree)]
        towers = towers and all(any(vec) for vec in vectors)
        if len(FpSubspace(2, [FpSubspace.pack(2, vec) for vec in vectors])) != len(vectors):
            injective = False
    return DetectionReport(p2e, pv1e, edies, towers, injective)
