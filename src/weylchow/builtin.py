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

from .chart import Chart, ChartError, build_chart
from .dickson import build_dickson
from .invariants import subring_membership
from .poly import F2, AlgebraSignature, Generator, Polynomial
from .steenrod import milnor_q_closed


@dataclass
class BuiltinChart:
    """A chart plus recomputable expectations (series in t, by check id)."""

    chart: Chart
    expected_series: Dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Spin(7), p = 2
# ---------------------------------------------------------------------------

_SPIN7_GENS = (("w_4", 4), ("w_6", 6), ("w_7", 7), ("w_8", 8))


def _spin7_q_images() -> Dict[int, Dict[str, Polynomial]]:
    """Q_i on w_4, w_6, w_7, w_8 computed in the Dickson model and rewritten
    as polynomials in the model classes."""
    ctx = build_dickson(3)
    model = [ctx.d[2], ctx.d[1], ctx.d[0], ctx.e]
    w_sig = AlgebraSignature([Generator(n, d) for n, d in _SPIN7_GENS], F2)
    images: Dict[int, Dict[str, Polynomial]] = {}
    for i in range(4):
        images[i] = {}
        for (name, _), poly in zip(_SPIN7_GENS, model):
            inside, combination = subring_membership(milnor_q_closed(i, poly), model)
            if not inside:
                raise ChartError("Q_%d %s is not in the class subring" % (i, name))
            images[i][name] = Polynomial(w_sig, combination)
    return images


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
            "collapse_free": "1/((1-t^4)(1-t^8)(1-t^12))",
            "collapse_torsion": "(t^6+t^14-t^20)/((1-t^8)(1-t^12)(1-t^14)(1-t^16))",
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
            "collapse_free": "1/((1-t^4)(1-t^12)(1-t^16)(1-t^24))",
            "collapse_torsion": "t^26/((1-t^26)(1-t^36)(1-t^48))",
        },
    )


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
