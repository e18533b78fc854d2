"""The typed Spin(7) presentations, kept as references for the derived images.

CH*(BSpin(7))/Tor is typed as the module Z_(2)[c_4, c_6, c_8]{1, 2w_4, 2w_8,
2w_4w_8} and H*(BSpin(7))/Tor as Z_(2)[c_4, c_6, c_8]{1, w_4, w_8, w_4w_8},
both embedded in the invariant ring through the extracted generators.
`reference_nilpotence` is the Feshbach search in torus coordinates: it
expands every power and every presentation product there and solves over Q.
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from weylchow import linalg
from weylchow.poly import ZZ, Polynomial, compositions, power_products
from weylchow.restriction import NilpotenceRow, RestrictionError


@dataclass
class RingPresentation:
    """A module over a polynomial subring, embedded in an ambient algebra.

    subring_gens and module_gens carry (label, embedding polynomial); the
    additive basis in degree d is the set of products (subring monomial) *
    (module generator) of that degree.
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
                parts = [n if e == 1 else "%s^%d" % (n, e) for n, e in zip(names, expo) if e]
                labels.append("*".join(parts + [label_m]))
                terms.append((gen_m, expo))
        return list(zip(labels, power_products(gens, terms)))

    def polynomials(self, degree: int) -> List[Polynomial]:
        return [poly for _, poly in self.basis_in_degree(degree)]


def typed_presentations(model) -> Tuple[RingPresentation, RingPresentation]:
    """(CH/Tor, H/Tor) of Spin(7) as typed modules over Z_(2)[c_4, c_6, c_8]."""
    w4, w8, c6 = model.w4, model.w8, model.c6
    one = Polynomial.one(model.sig)
    subring = [("c_4", w4 * w4), ("c_6", c6), ("c_8", w8 * w8)]
    ch = RingPresentation("CH(BSpin7)/Tor", subring, [
        ("1", one), ("2w_4", w4.scale(2)), ("2w_8", w8.scale(2)), ("2w_4w_8", (w4 * w8).scale(2)),
    ])
    h = RingPresentation("H(BSpin7)/Tor", subring, [
        ("1", one), ("w_4", w4), ("w_8", w8), ("w_4w_8", w4 * w8),
    ])
    return ch, h


def reference_nilpotence(
    pres: RingPresentation,
    candidates: Sequence[Tuple[str, Polynomial]],
    p: int = 2,
    exponent_bound: int = 8,
    degree_bound: int = 64,
) -> List[NilpotenceRow]:
    """Bounded nilpotence search in (presentation) (x) Z/p, in torus coordinates.

    Powers, the candidate itself (n = 1) first, are computed in the ambient
    ring and re-expressed in the presentation basis; a power is zero mod p exactly when all its
    coordinates are divisible by p.  Candidates outside the span raise.
    """
    rows = []
    for label, y in candidates:
        exponent = None
        power = Polynomial.one(y.sig)
        for n in range(1, exponent_bound + 1):
            power = power * y
            if power.degree() > degree_bound:
                break
            coords = _present_coords(pres, power)
            if coords is None:
                raise RestrictionError("%s is not expressible in presentation %s"
                                       % (label if n == 1 else "%s^%d" % (label, n), pres.name))
            if all(int(c) % p == 0 for c in coords.values()):
                exponent = n
                break
        rows.append(NilpotenceRow(label, exponent))
    return rows


def _present_coords(pres: RingPresentation, poly: Polynomial):
    """Coordinates of an ambient polynomial over the presentation basis."""
    if poly.is_zero():
        return {}
    basis_elements = pres.basis_in_degree(poly.degree())
    if not basis_elements:
        return None
    support = sorted(
        set().union(*[set(p2.terms) for _, p2 in basis_elements], set(poly.terms))
    )
    cols = [[p2.terms.get(m, 0) for m in support] for _, p2 in basis_elements]
    target = [poly.terms.get(m, 0) for m in support]
    found = linalg.solve(ZZ, cols, target)
    if found is None or found[0] != 1:
        return None
    return {label: c for (label, _), c in zip(basis_elements, found[1]) if c}
