"""Built-in charts and their expected-answer payloads.

The Spin(7) chart's Milnor data is not typed in by hand: the four classes
restrict isomorphically to the rank-3 Dickson model (w_4, w_6, w_7 to the
Dickson classes d_2, d_1, d_0 of F_2[x_1..x_3], and w_8 to the product of
the sixteen linear forms in F_2[z, x_1..x_3]), so every Q_i image is
computed there with the closed-form primitives and re-expressed in the
w-classes.  The F_4 chart at p = 3 is additive input data: the known
presentation of H*(BF_4; Z/3) with its Bockstein and Q_1, Q_2 actions,
with signs completed so that the operations anticommute.

Expected-answer payloads are series expressions; callers always recompute
and compare, never trust.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from . import linalg
from .chart import Chart, ChartError, build_chart
from .dickson import build_dickson
from .poly import F2, AlgebraSignature, Generator, Polynomial, degree_slice, power_products
from .steenrod import milnor_q_closed


@dataclass
class BuiltinChart:
    """A chart plus recomputable expectations (series in t, by check id)."""

    chart: Chart
    expected_series: Dict[str, str] = field(default_factory=dict)
    notes: Dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Spin(7), p = 2
# ---------------------------------------------------------------------------

_SPIN7_GENS = (("w_4", 4), ("w_6", 6), ("w_7", 7), ("w_8", 8))


def _spin7_q_images() -> Dict[int, Dict[str, Polynomial]]:
    """Q_i on w_4, w_6, w_7, w_8 computed in the Dickson model."""
    ctx = build_dickson(3)
    model = {"w_4": ctx.d[2], "w_6": ctx.d[1], "w_7": ctx.d[0], "w_8": ctx.e}
    w_sig = AlgebraSignature([Generator(n, d) for n, d in _SPIN7_GENS], F2)
    images: Dict[int, Dict[str, Polynomial]] = {}
    for i in range(4):
        per_gen: Dict[str, Polynomial] = {}
        for name, poly in model.items():
            q_img = milnor_q_closed(i, poly)
            per_gen[name] = _express_in_classes(q_img, model, w_sig)
        images[i] = per_gen
    return images


def _express_in_classes(
    target: Polynomial, model: Dict[str, Polynomial], out_sig: AlgebraSignature
) -> Polynomial:
    """Rewrite an F_2 polynomial as a polynomial in the model classes.

    Solves a linear system over all class monomials of matching degree;
    raises when the expansion matrix is not injective (the rewriting would
    be ambiguous) or the target is not in the subring.
    """
    if target.is_zero():
        return Polynomial.zero(out_sig)
    if not target.is_homogeneous():
        raise ChartError("inhomogeneous image cannot be rewritten")
    deg = target.degree()
    candidates = degree_slice(out_sig, deg)
    if not candidates:
        raise ChartError("no class monomials in degree %d" % deg)
    inner_sig = next(iter(model.values())).sig
    expansions = power_products([model[g.name] for g in out_sig.generators],
                                [(Polynomial.one(inner_sig), mono) for mono in candidates])
    support = sorted(set().union(*[set(p.terms) for p in expansions], set(target.terms)))
    cols = [[int(p.terms.get(m, 0)) for m in support] for p in expansions]
    rank = linalg.rank_fp([[cols[j][i] for j in range(len(cols))] for i in range(len(support))], 2)
    if rank != len(candidates):
        raise ChartError("class monomials of degree %d are linearly dependent" % deg)
    sol = linalg.solve_fp(cols, [int(target.terms.get(m, 0)) for m in support], 2)
    if sol is None:
        raise ChartError("image of degree %d is not in the class subring" % deg)
    return Polynomial(out_sig, {m: c for m, c in zip(candidates, sol) if c})


def spin7_chart(window: int = 32) -> BuiltinChart:
    q_images = _spin7_q_images()
    chart = build_chart(
        "spin7",
        p=2,
        window=window,
        gens=_SPIN7_GENS,
        q_images=q_images,
        torsion_tags={"w_4": 0, "w_6": 0, "w_7": 1, "w_8": 0},
        aliases={
            "e": "w_8",
            "c_4": "w_4^2",
            "c_6": "w_6^2",
            "c_7": "w_7^2",
            "c_8": "w_8^2",
        },
    )
    return BuiltinChart(
        chart,
        expected_series={
            "q0_homology": "1/((1-t^4)(1-t^8)(1-t^12))",
            "collapse_free": "1/((1-t^4)(1-t^8)(1-t^12))",
            "collapse_torsion": (
                "t^6/((1-t^8)(1-t^12)(1-t^16))"
                " ; t^14/((1-t^8)(1-t^12)(1-t^14)(1-t^16))"
            ),
            "weyl_invariants": "1/((1-t^4)(1-t^8)(1-t^12))",
        },
        notes={
            "q0_homology": "free part Z_(2)[w_4, c_6, w_8] of the integral cohomology",
            "collapse_free": "Z_(2)[c_4,c_6,c_8]{1, 2w_4, 2w_8, 2w_4w_8}",
            "collapse_torsion": "Z/2 parts: v_1 w_8 tower and the c_7 ideal",
            "weyl_invariants": "CH*(BT)^W = Z_(2)[w_4, w_8, c_6]",
        },
    )


# ---------------------------------------------------------------------------
# F_4, p = 3
# ---------------------------------------------------------------------------

_F4_GENS = (
    ("x_4", 4),
    ("x_8", 8),
    ("x_9", 9, True),
    ("x_20", 20),
    ("x_21", 21, True),
    ("x_25", 25, True),
    ("x_26", 26),
    ("x_36", 36),
    ("x_48", 48),
)

# The additive basis of H*(BF_4; Z/3): the ring splits as a polynomial part
# on x_4, x_8 with x_20-height 2, plus a module over Z/3[x_26] (x) Lambda(x_9)
# on {1, x_20, x_21, x_25} annihilated by x_4 and x_8.  The monomials that
# violate these shapes form the ideal generated by:
_F4_RELATIONS = (
    "x_4*x_9", "x_4*x_21", "x_4*x_25", "x_4*x_26",
    "x_8*x_9", "x_8*x_21", "x_8*x_25", "x_8*x_26",
    "x_20*x_21", "x_20*x_25", "x_21*x_25",
    "x_9*x_20^2", "x_26*x_20^2", "x_20^3",
)


# Products of the polynomial-part generators with the module-part classes.
# The additive basis pins each product's degree slot to one basis class (or
# to zero); the coefficients are forced by Q_i Q_i = 0, the anticommutation
# of the Milnor operations, and the Leibniz rule.
_F4_PRODUCTS = (
    ("x_4*x_9", "0"),
    ("x_8*x_9", "0"),
    ("x_4*x_21", "0"),
    ("x_8*x_21", "2*x_9*x_20"),
    ("x_20*x_21", "0"),
    ("x_4*x_25", "2*x_9*x_20"),
    ("x_8*x_25", "0"),
    ("x_20*x_25", "0"),
    ("x_21*x_25", "x_20*x_26"),
    ("x_4*x_26", "x_9*x_21"),
    ("x_8*x_26", "2*x_9*x_25"),
    ("x_9*x_20^2", "0"),
)


def f4_chart(window: int = 56) -> BuiltinChart:
    q_images = {
        0: {"x_8": "x_9", "x_20": "x_21", "x_25": "x_26"},
        1: {"x_4": "x_9", "x_20": "x_25", "x_21": "2*x_26"},
        2: {"x_4": "x_21", "x_8": "2*x_25", "x_9": "x_26"},
    }
    chart = build_chart(
        "f4",
        p=3,
        window=window,
        gens=_F4_GENS,
        q_images=q_images,
        relations=_F4_RELATIONS,
        torsion_tags={
            "x_4": 0,
            "x_8": 0,
            "x_9": 1,
            "x_20": 0,
            "x_21": 1,
            "x_25": 0,
            "x_26": 1,
            "x_36": 0,
            "x_48": 0,
        },
        products=_F4_PRODUCTS,
    )
    return BuiltinChart(
        chart,
        expected_series={
            "q0_homology": "1/((1-t^4)(1-t^12)(1-t^16)(1-t^24))",
            "collapse_free": "1/((1-t^4)(1-t^12)(1-t^16)(1-t^24))",
            "collapse_torsion": "t^26/((1-t^26)(1-t^36)(1-t^48))",
            "weyl_invariants_mod_p": "(1+t^20+t^40)/((1-t^4)(1-t^8)(1-t^36)(1-t^48))",
            "mod_p_dims": "see f4_expected_mod_p_dims",
        },
        notes={
            "q0_homology": "free part of the integral cohomology of BF_4 at p=3",
            "collapse_free": "D (x) (Z_(3){1, 3x_4} + products part)",
            "collapse_torsion": "D (x) Z/3[x_26]{x_26}",
            "weyl_invariants_mod_p": "H*(BT; Z/3)^W, Weyl group of F_4",
        },
    )


def f4_expected_mod_p_dims(order: int) -> List[int]:
    """Mod-3 dimensions implied by the integral structure (b_n + t_n + t_{n+1})."""
    from .series import expand_series

    b = expand_series("1/((1-t^4)(1-t^12)(1-t^16)(1-t^24))", order + 1)
    t = expand_series("(t^9+t^21+t^26+t^30)/((1-t^26)(1-t^36)(1-t^48))", order + 1)
    return [b[n] + t[n] + t[n + 1] for n in range(order + 1)]


# ---------------------------------------------------------------------------
# Toy charts
# ---------------------------------------------------------------------------


def toy_free_chart(window: int = 12) -> BuiltinChart:
    """All Milnor actions zero: the sequence collapses at E_2."""
    chart = build_chart(
        "toy-free",
        p=2,
        window=window,
        gens=(("a", 6),),
        q_images={},
        torsion_tags={"a": 0},
    )
    return BuiltinChart(chart, expected_series={"collapse_free": "1/((1-t^6))"})


def toy_killing_chart(window: int = 12) -> BuiltinChart:
    """One free class a (deg 6), one shadow u (deg 8), torsion b = Q_0 u (deg 9),
    and d(a) = v_1 b: the free tower survives as 2a, the torsion class only
    survives away from v_1-multiples."""
    chart = build_chart(
        "toy-kill",
        p=2,
        window=window,
        gens=(("a", 6), ("u", 8), ("b", 9)),
        q_images={0: {"u": "b"}, 1: {"a": "b"}},
        torsion_tags={"a": 0, "u": 0, "b": 1},
    )
    return BuiltinChart(chart, expected_series={})


_BUILTINS: Dict[str, Callable[..., BuiltinChart]] = {
    "spin7": spin7_chart,
    "f4": f4_chart,
    "toy-free": toy_free_chart,
    "toy-kill": toy_killing_chart,
}


def builtin_names() -> List[str]:
    return sorted(_BUILTINS)


def get_builtin(name: str, window: Optional[int] = None) -> BuiltinChart:
    try:
        builder = _BUILTINS[name]
    except KeyError:
        raise ChartError(
            "unknown builtin chart %r (known: %s)" % (name, ", ".join(builtin_names()))
        ) from None
    return builder(window) if window is not None else builder()
