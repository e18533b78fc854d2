"""Milnor primitives as graded derivations, Steenrod squares, Q_0-homology.

The primitives Q_i are odd-degree derivations: on a product they satisfy
Q(ab) = Q(a)b + (-1)^|a| a Q(b).  One derivation, apply_derivation, is
given by its generator images; charts pass it their Q_i images, and the
closed-form primitives on a polynomial algebra over F_2 with degree-1
generators pass it Q_i(x) = x^(2^(i+1)) (milnor_q_closed, the primary
definition; Q_0 x = x^2 is the Bockstein on a one-dimensional class).  The
commutator recursion through Steenrod squares is kept as a cross-check
oracle for small i.  q0_homology reads ker(Q_0)/im(Q_0) off chart-style
matrices.
"""

from __future__ import annotations

from typing import Dict, List

from . import linalg
from .poly import AlgebraSignature, Polynomial, power_products


class SteenrodError(Exception):
    pass


def apply_derivation(images: Dict[str, Polynomial], f: Polynomial) -> Polynomial:
    """The odd-degree derivation extending the generator images, applied to f.

    images maps generator names to their images; a generator with no image
    maps to zero.  On a sorted monomial x_{i1}..x_{ik} the term hitting the
    j-th factor is (-1)^(degree of the prefix) * prefix * D(x_{ij}) * suffix;
    the image is multiplied in place so the Koszul reordering is handled by
    mul.
    """
    sig = f.sig
    char2 = sig.domain.characteristic == 2
    result = Polynomial.zero(sig)
    gens = sig.generators
    n = len(gens)
    for mono, coeff in f.terms.items():
        prefix_degree = 0
        for i, e in enumerate(mono):
            if e:
                img = images.get(gens[i].name)
                if img is not None and not img.is_zero():
                    left = list(mono[: i + 1]) + [0] * (n - i - 1)
                    left[i] = e - 1
                    right = [0] * (i + 1) + list(mono[i + 1 :])
                    term = Polynomial.from_mono(sig, tuple(left), coeff).scale(e)
                    if not term.is_zero():
                        if not char2 and prefix_degree % 2:
                            term = term.scale(-1)
                        piece = (term * img) * Polynomial.from_mono(sig, tuple(right))
                        result = result + piece
            prefix_degree += e * gens[i].degree
    return result


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


# ---------------------------------------------------------------------------
# Q_0 homology on chart-style data
# ---------------------------------------------------------------------------


def q0_homology(
    dims_by_degree: Dict[int, int],
    q0_matrices: Dict[int, List[List[int]]],
    p: int,
) -> Dict[int, int]:
    """Rank of ker(Q_0)/im(Q_0) per degree.

    dims_by_degree gives the mod-p basis dimension in each degree;
    q0_matrices[n] is the matrix of Q_0 from degree n to degree n+1 (rows
    indexed by the target basis).  Degrees outside the dict are treated as
    zero.  Raises if Q_0 fails to square to zero where both maps are known.
    """
    degrees = sorted(dims_by_degree)
    out: Dict[int, int] = {}
    for n in degrees:
        dim = dims_by_degree[n]
        if dim == 0:
            out[n] = 0
            continue
        m_out = q0_matrices.get(n)
        m_in = q0_matrices.get(n - 1)
        if m_out is not None and m_in is not None and dims_by_degree.get(n - 1, 0) > 0:
            comp = [
                [
                    sum(m_out[i][k] * m_in[k][j] for k in range(dim)) % p
                    for j in range(dims_by_degree[n - 1])
                ]
                for i in range(len(m_out))
            ]
            if any(any(x for x in row) for row in comp):
                raise SteenrodError("Q_0 composed with Q_0 is nonzero at degree %d" % (n - 1))
        if m_out is None or dims_by_degree.get(n + 1, 0) == 0:
            ker = dim
        else:
            ker = dim - linalg.rank_fp(m_out, p)
        if m_in is None or dims_by_degree.get(n - 1, 0) == 0:
            im = 0
        else:
            im = linalg.rank_fp(m_in, p)
        out[n] = ker - im
    return out
