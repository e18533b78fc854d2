"""Audits of the restriction maps out of CH*(BG) for Spin(7) at p = 2.

The ambient objects are computed, never assumed: the Weyl-invariant ring of
the spin weight lattice is produced degree by degree by the invariants
engine, and its ring generators (degrees 4, 8, 12) are extracted
mechanically.  The trusted inputs are the published presentation of
CH*(BSpin(7)) and the restriction formulas of its generators (images of
the Chern classes, the 2-divided classes, the torsion ideal, and the
cobordism lift of the degree-6 torsion class); the audits verify that this
data is mutually consistent: image membership with minimal 2-powers,
Feshbach nilpotence, injectivity criteria, restriction kernels, and the
v_1-detection of the Griffiths ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .groups import GroupAction, build_weyl_spin
from .invariants import (
    algebra_generators,
    invariant_basis,
    invariant_report,
    InvariantReport,
)
from .linalg import Membership, SubmoduleBasis, membership
from .poly import (
    AlgebraSignature,
    Domain,
    F2,
    Polynomial,
    compositions,
    degree_slice,
    power_products,
    signature,
    z_local,
)


class RestrictionError(Exception):
    pass


# ---------------------------------------------------------------------------
# Presentations
# ---------------------------------------------------------------------------


@dataclass
class RingPresentation:
    """A module over a polynomial subring, embedded in an ambient algebra.

    subring_gens and module_gens carry (label, embedding polynomial); the
    presentation's additive basis in degree d is the set of products
    (subring monomial) * (module generator) of that degree.
    """

    name: str
    subring_gens: List[Tuple[str, Polynomial]]
    module_gens: List[Tuple[str, Polynomial]]

    def basis_in_degree(self, degree: int) -> List[Tuple[str, Polynomial]]:
        names = [lbl for lbl, _ in self.subring_gens]
        gens = [g for _, g in self.subring_gens]
        labels, terms = [], []
        for label_m, gen_m in self.module_gens:
            if gen_m.is_zero():
                continue
            for expo in compositions([g.degree() for g in gens], degree - gen_m.degree()):
                labels.append(_product_label(names, expo, label_m))
                terms.append((gen_m, expo))
        return list(zip(labels, power_products(gens, terms)))


def _product_label(names: Sequence[str], expo: Sequence[int], last: str) -> str:
    """'c_4^2*c_6*<last>' for the subring monomial with exponents expo."""
    return "*".join([n if e == 1 else "%s^%d" % (n, e) for n, e in zip(names, expo) if e] + [last])


def _coords(poly: Polynomial, monos, domain: Domain) -> List:
    vec = [domain.coerce(0)] * len(monos)
    index = {m: i for i, m in enumerate(monos)}
    for m, c in poly.terms.items():
        vec[index[m]] = c
    return vec


# ---------------------------------------------------------------------------
# The Spin(7) model
# ---------------------------------------------------------------------------


@dataclass
class Spin7Model:
    """Computed invariants plus the trusted Chow-side presentations."""

    window: int
    action: GroupAction
    domain: Domain
    invariants: InvariantReport
    w4: Polynomial
    w8: Polynomial
    c6: Polynomial
    ch_presentation: RingPresentation
    h_presentation: RingPresentation

    @property
    def sig(self) -> AlgebraSignature:
        return self.action.signature(self.domain)

    def subring_gens(self):
        return self.ch_presentation.subring_gens


def build_spin7_model(window: int = 28) -> Spin7Model:
    """Compute the invariant ring of the spin rank-3 lattice and set up the
    image-module presentations on top of its extracted generators."""
    action = build_weyl_spin(3)
    domain = z_local(2)
    inv = invariant_report(action, window, domain)
    gens = algebra_generators(action, 16, domain)
    by_degree = {}
    for d, poly in gens:
        by_degree.setdefault(d, []).append(poly)
    if sorted(by_degree) != [4, 8, 12] or any(len(v) != 1 for v in by_degree.values()):
        raise RestrictionError(
            "unexpected invariant-ring generators in degrees %s" % sorted(by_degree)
        )
    w4 = by_degree[4][0]
    w8 = by_degree[8][0]
    c6 = by_degree[12][0]
    one = Polynomial.one(action.signature(domain))
    subring = [("c_4", w4 * w4), ("c_6", c6), ("c_8", w8 * w8)]
    ch = RingPresentation(
        "CH(BSpin7)/Tor",
        subring,
        [
            ("1", one),
            ("2w_4", w4.scale(2)),
            ("2w_8", w8.scale(2)),
            ("2w_4w_8", (w4 * w8).scale(2)),
        ],
    )
    h = RingPresentation(
        "H(BSpin7)/Tor",
        subring,
        [("1", one), ("w_4", w4), ("w_8", w8), ("w_4w_8", w4 * w8)],
    )
    return Spin7Model(window, action, domain, inv, w4, w8, c6, ch, h)


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

    def outside_count(self, degree: Optional[int] = None) -> int:
        return sum(
            1
            for r in self.rows
            if r.verdict != "inside" and (degree is None or r.degree == degree)
        )


def rho_image_audit(
    model: Spin7Model, pres: RingPresentation, max_degree: Optional[int] = None
) -> ImageAuditReport:
    """Membership of every invariant basis vector in the presentation span.

    For each degree: the presentation's span is intersected with the
    invariant lattice coordinatewise; each invariant basis vector gets
    inside / outside / inside-after-scaling-2^k with the minimal k.
    """
    max_degree = max_degree if max_degree is not None else model.window
    rows: List[ImageAuditRow] = []
    image_ranks: Dict[int, int] = {}
    inv_ranks: Dict[int, int] = {}
    for degree in range(0, max_degree + 1, 2):
        inv = model.invariants.by_degree.get(degree)
        if inv is None or inv.rank == 0:
            continue
        basis_elements = pres.basis_in_degree(degree)
        span_cols = [
            [int(x) for x in _coords(poly, inv.ambient, model.domain)]
            for _, poly in basis_elements
        ]
        span = SubmoduleBasis(model.domain, inv.ambient, linalg.hnf_basis(span_cols))
        image_ranks[degree] = span.rank
        inv_ranks[degree] = inv.rank
        for idx, vec in enumerate(inv.vectors):
            verdict = membership([int(x) for x in vec], span)
            rows.append(
                ImageAuditRow(
                    degree,
                    _label_vector(inv, idx, model.sig),
                    verdict.verdict,
                    None if verdict.inside else verdict.scale_power,
                )
            )
    return ImageAuditReport(rows, image_ranks, inv_ranks)


def _label_vector(basis: SubmoduleBasis, idx: int, sig: AlgebraSignature) -> str:
    poly = Polynomial(
        sig, {m: c for m, c in zip(basis.ambient, basis.vectors[idx]) if c != 0}
    )
    text = str(poly)
    return text if len(text) <= 40 else "basis[%d]" % idx


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


def feshbach_nilpotence(
    pres: RingPresentation,
    candidates: Sequence[Tuple[str, Polynomial]],
    p: int = 2,
    exponent_bound: int = 8,
    degree_bound: int = 64,
) -> List[NilpotenceRow]:
    """Bounded nilpotence search in (presentation) (x) Z/p.

    Powers are computed in the ambient ring and re-expressed in the
    presentation basis; a power is zero mod p exactly when all its
    coordinates are divisible by p.  Candidates outside the presentation
    span raise.
    """
    rows = []
    for label, y in candidates:
        if not y.is_homogeneous() or y.is_zero():
            raise RestrictionError("candidate %s must be homogeneous nonzero" % label)
        exponent = None
        power = y
        for n in range(2, exponent_bound + 1):
            power = power * y
            if power.degree() > degree_bound:
                break
            coords = _present_coords(pres, power)
            if coords is None:
                raise RestrictionError(
                    "%s^%d is not expressible in presentation %s" % (label, n, pres.name)
                )
            if all(int(c) % p == 0 for c in coords.values()):
                exponent = n
                break
        rows.append(NilpotenceRow(label, exponent))
    return rows


def _present_coords(pres: RingPresentation, poly: Polynomial):
    """Coordinates of an ambient polynomial over the presentation basis."""
    if poly.is_zero():
        return {}
    degree = poly.degree()
    basis_elements = pres.basis_in_degree(degree)
    if not basis_elements:
        return None
    support = sorted(
        set().union(*[set(p2.terms) for _, p2 in basis_elements], set(poly.terms))
    )
    cols = [[p2.terms.get(m, 0) for m in support] for _, p2 in basis_elements]
    target = [poly.terms.get(m, 0) for m in support]
    sol = linalg.solve_q(cols, target)
    if sol is None:
        return None
    out = {}
    for (label, _), c in zip(basis_elements, sol):
        if c != 0:
            if c.denominator != 1:
                return None
            out[label] = int(c)
    return out


# ---------------------------------------------------------------------------
# Injectivity criterion
# ---------------------------------------------------------------------------


@dataclass
class CriterionReport:
    injective: bool
    first_failure: Optional[int]
    checked_degrees: List[int]


def surjectivity_criterion(
    model: Spin7Model, pres: RingPresentation, max_degree: Optional[int] = None
) -> CriterionReport:
    """Per-degree injectivity of (presentation) (x) Z/p -> invariants mod p.

    An injective composite certifies surjectivity of the corresponding
    restriction map; the first failing degree witnesses the obstruction.
    """
    max_degree = max_degree if max_degree is not None else model.window
    p = 2
    checked = []
    for degree in range(0, max_degree + 1, 2):
        basis_elements = pres.basis_in_degree(degree)
        if not basis_elements:
            continue
        checked.append(degree)
        monos = None
        cols = []
        for _, poly in basis_elements:
            if monos is None:
                monos = degree_slice(model.sig, degree)
            cols.append([int(x) % p for x in _coords(poly, monos, model.domain)])
        rank = linalg.rank_fp(
            [[cols[j][i] for j in range(len(cols))] for i in range(len(monos))], p
        )
        if rank != len(basis_elements):
            return CriterionReport(False, degree, checked)
    return CriterionReport(True, None, checked)


# ---------------------------------------------------------------------------
# Restriction kernels (Griffiths detection)
# ---------------------------------------------------------------------------


@dataclass
class SourceClass:
    label: str
    degree: int
    torsion: bool
    t_image: Polynomial  # image in the invariant ring (integral; 0 for torsion)
    a_image: Polynomial  # image in the mod-2 elementary-abelian target
    omega_image: Optional[Tuple[int, Polynomial]] = None  # (v-index, invariant poly)


@dataclass
class RestrictionData:
    """Chow source classes of BSpin(7) with their restriction images."""

    model: Spin7Model
    a_sig: AlgebraSignature  # Z/2[c_4, c_6, c_7, c_8]
    classes_by_degree: Dict[int, List[SourceClass]]


def build_spin7_restriction(model: Spin7Model) -> RestrictionData:
    """Assemble the published CH*(BSpin(7)) classes and their images.

    Source additive basis: Z_(2)[c_4,c_6,c_8]{1, c_2', c_4', c_6'} plus the
    2-torsion Z/2{xi_3} and Z/2[c_7]{c_7}, all multiplied by the polynomial
    subring; images: the torus restriction sends c_i to the invariant
    squares, the primed classes to the 2-divided invariants, torsion to 0;
    the elementary-abelian restriction mod 2 keeps the c_i (including c_7)
    and kills the primed classes and xi_3; the cobordism lift sends xi_3 to
    v_1 * w_8.
    """
    sig = model.sig
    a_sig = signature(
        [("c_4", 8), ("c_6", 12), ("c_7", 14), ("c_8", 16)], F2
    )
    one = Polynomial.one(sig)
    zero = Polynomial.zero(sig)
    a_one = Polynomial.one(a_sig)
    a_zero = Polynomial.zero(a_sig)
    w4, w8, c6 = model.w4, model.w8, model.c6

    def a_gen(name):
        return Polynomial.gen(a_sig, name)

    # generating classes: label, degree, torsion, T-image, A-image, omega
    base_classes = [
        ("1", 0, False, one, a_one, None),
        ("c_2'", 4, False, w4.scale(2), a_zero, None),
        ("c_4'", 8, False, w8.scale(2), a_zero, None),
        ("c_6'", 12, False, (w4 * w8).scale(2), a_zero, None),
        ("xi_3", 6, True, zero, a_zero, (1, w8)),
    ]
    subring = [("c_4", w4 * w4, a_gen("c_4")), ("c_6", c6, a_gen("c_6")),
               ("c_8", w8 * w8, a_gen("c_8"))]
    classes: Dict[int, List[SourceClass]] = {}
    max_degree = model.window

    sub_degrees = [8, 12, 16]
    names, t_gens, a_gens = zip(*subring)
    for label_g, deg_g, torsion, t_img, a_img, omega in base_classes:
        for total in range(deg_g, max_degree + 1, 2):
            expos = compositions(sub_degrees, total - deg_g)
            t_polys = power_products(t_gens, [(t_img, e) for e in expos])
            a_polys = power_products(a_gens, [(a_img, e) for e in expos])
            omegas = (power_products(t_gens, [(omega[1], e) for e in expos]) if omega
                      else [None] * len(expos))
            for expo, t_poly, a_poly, omega_poly in zip(expos, t_polys, a_polys, omegas):
                entry = SourceClass(
                    _product_label(names, expo, label_g),
                    total,
                    torsion,
                    t_poly if not torsion else zero,
                    a_poly,
                    (omega[0], omega_poly) if omega else None,
                )
                classes.setdefault(total, []).append(entry)
    # torsion ideal Z/2[c_4,c_6,c_7,c_8]{c_7}: classes c_7^j * monomials
    c7 = a_gen("c_7")
    for total in range(14, max_degree + 1, 2):
        for mono in degree_slice(a_sig, total):
            if mono[a_sig.index("c_7")] >= 1:
                a_poly = Polynomial.from_mono(a_sig, mono)
                label = "tor[%s]" % a_poly
                classes.setdefault(total, []).append(
                    SourceClass(label, total, True, zero, a_poly, None)
                )
    for bucket in classes.values():
        bucket.sort(key=lambda c: c.label)
    return RestrictionData(model, a_sig, classes)


@dataclass
class KernelRow:
    degree: int
    rank: int
    labels: List[str]


def res_kernel(
    data: RestrictionData, max_degree: Optional[int] = None, include_omega: bool = False
) -> List[KernelRow]:
    """Kernel of the combined restriction per degree.

    The torus target separates the free classes (verified: the integral
    matrix has full column rank on them), so the kernel lives in the
    torsion part and is computed mod 2 against the elementary-abelian
    target, optionally extended by the cobordism columns.
    """
    model = data.model
    max_degree = max_degree if max_degree is not None else model.window
    out = []
    for degree in range(0, max_degree + 1, 2):
        entries = data.classes_by_degree.get(degree, [])
        if not entries:
            continue
        free_entries = [c for c in entries if not c.torsion]
        tors_entries = [c for c in entries if c.torsion]
        inv = model.invariants.by_degree.get(degree)
        if free_entries:
            cols = [
                [int(x) for x in _coords(c.t_image, inv.ambient, model.domain)]
                for c in free_entries
            ]
            rank = linalg.rank_q([[cols[j][i] for j in range(len(cols))]
                                  for i in range(len(cols[0]))]) if cols else 0
            if rank != len(free_entries):
                raise RestrictionError(
                    "torus restriction fails to separate free classes in degree %d"
                    % degree
                )
        if not tors_entries:
            out.append(KernelRow(degree, 0, []))
            continue
        a_monos = degree_slice(data.a_sig, degree)
        rows = []
        for m in a_monos:
            rows.append([int(c.a_image.terms.get(m, 0)) % 2 for c in tors_entries])
        if include_omega:
            # v_i-weighted images live in invariant degree d + 2(2^i - 1)
            v_indices = sorted(
                {c.omega_image[0] for c in tors_entries if c.omega_image is not None}
            )
            for v_idx in v_indices:
                img_degree = degree + 2 * (2**v_idx - 1)
                inv_v = model.invariants.by_degree.get(img_degree)
                if inv_v is None:
                    continue
                for m in inv_v.ambient:
                    rows.append(
                        [
                            int(c.omega_image[1].terms.get(m, 0)) % 2
                            if c.omega_image is not None and c.omega_image[0] == v_idx
                            else 0
                            for c in tors_entries
                        ]
                    )
        kernel = linalg.kernel_fp(rows, len(tors_entries), 2)
        labels = []
        for vec in kernel:
            names = [c.label for c, x in zip(tors_entries, vec) if x]
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
    checked_degrees: List[int]

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
    from .ahss import permanent_cycle_check

    p2e = permanent_cycle_check(ahss_result, "2*e").permanent
    pv1e = permanent_cycle_check(ahss_result, "v_1*e").permanent
    edies = not permanent_cycle_check(ahss_result, "e").permanent
    towers = True
    injective = True
    checked = []
    sub_degrees = [8, 12, 16]
    gens = {8: model.w4 * model.w4, 12: model.c6, 16: model.w8 * model.w8}
    for degree in range(8, model.window + 1, 2):
        target = degree - 8  # |w_8| = 8
        if target < 0:
            continue
        expos = compositions(sub_degrees, target)
        if not expos:
            continue
        checked.append(degree)
        vectors = []
        inv = model.invariants.by_degree.get(degree)
        for poly in power_products([gens[d] for d in sub_degrees], [(model.w8, e) for e in expos]):
            vec = [int(x) for x in _coords(poly, inv.ambient, model.domain)]
            if not any(vec):
                towers = False
            vectors.append(vec)
        rank2 = linalg.rank_fp(
            [[vectors[j][i] % 2 for j in range(len(vectors))] for i in range(len(inv.ambient))],
            2,
        )
        if rank2 != len(vectors):
            injective = False
    return DetectionReport(p2e, pv1e, edies, towers, injective, checked)
