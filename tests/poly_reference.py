"""Substitution of generator images into a Polynomial, the ring homomorphism
the tests hold the invariants' slice action and the Spin(7) image columns
to (weylchow itself builds those through poly.power_products)."""

from typing import Dict

from weylchow.poly import PolyError, Polynomial, power_products


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
