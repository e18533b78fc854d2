"""Span tracing of weylchow from outside the package.

`Tracer.install()` replaces every public function of every weylchow module
with a wrapper that records a span: (name, start, end, parent span,
operation id).  The wrapper is also rebound wherever another module bound
the function with `from ... import`, so `ahss.integral_q_matrix`,
`restriction.membership` and `groups.rank_q` are traced where they are
called.  A few methods named in `METHODS` are wrapped on their class.
`uninstall()` puts the originals back.

`layer_metrics()` turns the spans of one operation set into the per-layer
metrics of BENCHMARK.json.  A span's self time is its duration minus the
durations of its direct child spans, so the self times of all spans add up
to the time spent inside the outermost traced calls.
"""

from __future__ import annotations

import importlib
import time
from types import FunctionType
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LAYERS = ("poly", "linalg", "groups", "invariants", "steenrod", "dickson", "chart",
          "ahss", "restriction", "builtin", "series", "cli")

METHODS = (("poly", "Polynomial", "__mul__"), ("poly", "Polynomial", "__pow__"),
           ("chart", "Chart", "integral_slice"), ("chart", "Chart", "q_matrix"))

# Leaf helpers called once per term or per vector entry.  A span each would
# cost more than their work; their time stays in the calling span.
UNTRACED = frozenset(("poly.mono_mul", "poly.grlex_key", "linalg.zeros",
                      "linalg.is_zero_vec", "chart.q_shift", "ahss.v_degree"))


LINALG_FP = ("linalg.rref_fp", "linalg.rank_fp", "linalg.kernel_fp", "linalg.solve_fp")
LINALG_Q = ("linalg.rref_q", "linalg.rank_q", "linalg.kernel_q", "linalg.solve_q")


def _fp_prime(args, kwargs, result) -> int:
    return kwargs["p"] if "p" in kwargs else args[-1]


# Per-function notes kept with the span: name -> f(args, kwargs, result).
NOTES: Dict[str, Callable] = {
    **{name: _fp_prime for name in LINALG_FP},
    "groups.enumerate_group": lambda a, k, r: len(r),
    "invariants.invariant_basis": lambda a, k, r: len(r.ambient),
    "ahss.run_ahss": lambda a, k, r: len(r.blocks),
    "chart.Chart.integral_slice": lambda a, k, r: (id(a[0]), a[1]),
    "chart.integral_q_matrix": lambda a, k, r: (id(a[0]), a[1], a[2]),
}

Span = Tuple[int, float, float, int, int]  # name index, start, end, parent, op


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.spans: List[Optional[Span]] = []
        self.notes: Dict[int, object] = {}
        self.op = 0
        self._stack = [-1]
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        name_idx = len(self.names)
        self.names.append(name)
        spans, stack, notes, clock = self.spans, self._stack, self.notes, time.perf_counter
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_idx, start, end, parent, self.op)
            if note is not None:
                notes[idx] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        modules = {layer: importlib.import_module("weylchow." + layer) for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = "%s.%s" % (layer, attr)
                if (isinstance(obj, FunctionType) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrappers[obj] = self._wrap(obj, name)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and obj in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[meth]
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, "%s.%s.%s" % (layer, cls_name, meth)))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: str):
        """Write every span as a tab-separated line: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name_idx, start, end, parent, op in self.spans:
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\n"
                         % (self.names[name_idx], start, end, parent, op))


# --- Derived metrics ------------------------------------------------------

# metric -> the traced functions whose self time it sums, together with the
# self time of the same-layer public functions they call (so that
# groups.closure_s includes groups.mat_mul under groups.enumerate_group).
SELF_TIMES = {
    "groups.closure_s": ("groups.enumerate_group",),
    "poly.mul_s": ("poly.Polynomial.__mul__", "poly.Polynomial.__pow__"),
    "poly.slice_s": ("poly.degree_slice",),
    "steenrod.derivation_s": ("steenrod.apply_derivation",),
    "chart.build_s": ("chart.build_chart",),
    "chart.integral_slice_s": ("chart.Chart.integral_slice",),
    "chart.q_matrix_s": ("chart.integral_q_matrix", "chart.Chart.q_matrix"),
    "ahss.engine_s": ("ahss.run_ahss",),
    "ahss.collapse_s": ("ahss.collapse_to_chow",),
    "ahss.summary_s": ("ahss.einfinity_summary", "ahss.block_structure"),
    "ahss.cycle_check_s": ("ahss.permanent_cycle_check",),
    "restriction.model_s": ("restriction.build_spin7_model",),
    "restriction.image_s": ("restriction.rho_image_audit",),
    "restriction.feshbach_s": ("restriction.feshbach_nilpotence",),
    "restriction.criterion_s": ("restriction.surjectivity_criterion",),
    "restriction.kernel_s": ("restriction.build_spin7_restriction", "restriction.res_kernel"),
    "restriction.detection_s": ("restriction.omega_detection_audit",),
    "series.expand_s": ("series.expand_series", "series.parse_series"),
}

METRIC_OF = {name: metric for metric, names in SELF_TIMES.items() for name in names}

# metric -> the traced function names whose calls it counts.
CALL_COUNTS = {
    "poly.mul_calls": ("poly.Polynomial.__mul__",),
    "steenrod.derivation_calls": ("steenrod.apply_derivation",),
    "invariants.degrees": ("invariants.invariant_basis",),
}

# Every per-layer metric, in the order BENCHMARK.json lists them, with its unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    [("%s.self_s" % layer, "s") for layer in LAYERS]
    + [(m, "s") for m in SELF_TIMES]
    + [(m, "count") for m in CALL_COUNTS]
    + [("groups.elements", "count"), ("invariants.slice_max", "count"),
       ("linalg.f2_s", "s"), ("linalg.f2_calls", "count"),
       ("linalg.fp_odd_s", "s"), ("linalg.fp_odd_calls", "count"),
       ("linalg.q_s", "s"), ("linalg.q_calls", "count"),
       ("linalg.z_s", "s"), ("linalg.z_calls", "count"),
       ("chart.slices_built", "count"), ("chart.q_matrices_built", "count"),
       ("ahss.blocks", "count"),
       ("trace.spans", "count"), ("trace.wall_s", "s"), ("trace.unaccounted_s", "s"),
       ("trace.overhead_s", "s")]
)


def layer_metrics(tracer: Tracer, ops: Sequence[int], wall: float) -> Dict[str, float]:
    """Per-layer metrics of the spans whose operation id is in ops.

    wall is the traced wall time of those operations as the benchmark
    measured it; trace.unaccounted_s is the part no span covers.
    trace.overhead_s is filled in by the caller.
    """
    ops = set(ops)
    spans = tracer.spans
    child = {}
    mine = []
    for idx, span in enumerate(spans):
        if span[4] in ops:
            mine.append(idx)
            if span[3] >= 0:
                child[span[3]] = child.get(span[3], 0.0) + span[2] - span[1]
    metrics = {name: 0 for name, _ in PER_LAYER}
    by_name: Dict[str, List[int]] = {}
    own: Dict[int, float] = {}
    layer_of: Dict[int, str] = {}
    owner: Dict[int, Optional[str]] = {}
    covered = 0.0
    for idx in mine:  # parents come before their children
        name_idx, start, end, parent, _ = spans[idx]
        name = tracer.names[name_idx]
        layer = layer_of[idx] = name.split(".", 1)[0]
        own[idx] = end - start - child.get(idx, 0.0)
        by_name.setdefault(name, []).append(idx)
        metrics[layer + ".self_s"] += own[idx]
        metric = METRIC_OF.get(name)
        if metric is None and parent >= 0 and layer_of[parent] == layer:
            metric = owner[parent]
        owner[idx] = metric
        if metric is not None:
            metrics[metric] += own[idx]
        if parent < 0:
            covered += end - start
    notes = tracer.notes

    for metric, names in CALL_COUNTS.items():
        metrics[metric] = sum(len(by_name.get(n, ())) for n in names)
    metrics["groups.elements"] = sum(notes.get(i, 0)
                                     for i in by_name.get("groups.enumerate_group", ()))
    metrics["invariants.slice_max"] = max(
        [notes.get(i, 0) for i in by_name.get("invariants.invariant_basis", ())], default=0)
    linalg = [i for n, idxs in by_name.items() if n.startswith("linalg.") for i in idxs]
    fp = [i for n in LINALG_FP for i in by_name.get(n, ())]
    f2 = [i for i in fp if notes.get(i) == 2]
    odd = [i for i in fp if notes.get(i) != 2]
    q = [i for n in LINALG_Q for i in by_name.get(n, ())]
    z = sorted(set(linalg) - set(fp) - set(q))
    for kind, idxs in (("f2", f2), ("fp_odd", odd), ("q", q), ("z", z)):
        metrics["linalg.%s_s" % kind] = sum(own[i] for i in idxs)
        metrics["linalg.%s_calls" % kind] = len(idxs)
    metrics["chart.slices_built"] = len({(spans[i][4], notes.get(i))
                                         for i in by_name.get("chart.Chart.integral_slice", ())})
    metrics["chart.q_matrices_built"] = len({(spans[i][4], notes.get(i))
                                             for i in by_name.get("chart.integral_q_matrix", ())})
    metrics["ahss.blocks"] = sum(notes.get(i, 0) for i in by_name.get("ahss.run_ahss", ()))
    metrics["trace.spans"] = len(mine)
    metrics["trace.wall_s"] = wall
    metrics["trace.unaccounted_s"] = wall - covered
    return metrics
