"""Run one benchmark workload in this interpreter.

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1

A round is a fixed list of operations; an operation is one call of
`weylchow.cli.main` with `--format records`, whose records are parsed and
checked against the references in `checks.py`.  Whole rounds run as long as
the next one is expected to end within S seconds, and at least one runs.
While a round runs, `calib.Sampler` interrupts it every 0.1 s for a burst of
calibration units; a round's wall and CPU time exclude the bursts and are
rescaled to the reference host speed by their mean time per unit.
The last line of stdout is a JSON object with the operations attempted and
failed and the metrics: the medians over rounds of the rescaled wall and CPU
time and the peak resident memory, or with --trace 1 the per-layer metrics
of `spans.py` (traced rounds run without the sampler and alternate with
untraced ones; the difference of their median wall times, in host seconds,
is trace.overhead_s).  bench/run.py starts this script in a fresh
interpreter for each workload.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "weylchow")
sys.path.insert(0, os.path.join(ROOT, "src"))

import calib  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import weylchow.cli  # noqa: E402
import weylchow.groups  # noqa: E402


class Op(NamedTuple):
    name: str
    argv: List[str]
    # (records of this call, records of the earlier calls of the round) -> problems
    check: Callable[[List[checks.Record], Dict[str, List[checks.Record]]], List[str]]


# --- Seeded group actions -------------------------------------------------


def _mat_mul(a, b, mod=None):
    n = len(a)
    out = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[x % mod for x in row] for row in out] if mod else out


def _inverse_mod(m, p):
    """Inverse of m over F_p, or None if m is singular mod p."""
    n = len(m)
    aug = [[x % p for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [x * inv % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def gl3_generators():
    """A swap, a 3-cycle and a transvection, which generate GL_3(F_2)."""
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    cycle = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    transvection = [[1, 0, 0], [1, 1, 0], [0, 0, 1]]
    return [swap, cycle, transvection]


def f4_generators():
    """Reflections in the simple roots e2-e3, e3-e4, e4, (e1-e2-e3-e4)/2."""
    half = Fraction(1, 2)
    roots = [[0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 1], [half, -half, -half, -half]]
    mats = []
    for a in roots:
        norm2 = sum(x * x for x in a)
        mats.append([[Fraction(int(i == j)) - 2 * Fraction(a[i] * a[j]) / norm2
                      for j in range(4)] for i in range(4)])
    return mats


def seeded_gl3(rng: random.Random):
    """The GL_3(F_2) generators conjugated by a random element of GL_3(F_2)."""
    g_inv = None
    while g_inv is None:
        g = [[rng.randrange(2) for _ in range(3)] for _ in range(3)]
        g_inv = _inverse_mod(g, 2)
    return [_mat_mul(_mat_mul(g, m, 2), g_inv, 2) for m in gl3_generators()]


def seeded_f4(rng: random.Random):
    """The W(F_4) generators conjugated by a random signed permutation, which
    lies in W(F_4) and keeps every generator's shape."""
    perm = list(range(4))
    rng.shuffle(perm)
    s = [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(4)] for i in range(4)]
    s_inv = [list(col) for col in zip(*s)]
    return [_mat_mul(_mat_mul(s, m), s_inv) for m in f4_generators()]


def write_action(path: str, name: str, gens: Sequence[str], degree: int, mats, mod=None) -> str:
    lines = ["[action]", "name = %s" % name, "degree = %d" % degree,
             "generators = %s" % " ".join(gens)]
    if mod is not None:
        lines.append("mod = %d" % mod)
    for m in mats:
        lines += ["", "[gen]"] + [" ".join(str(x) for x in row) for row in m]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


# --- Workloads ------------------------------------------------------------

GL3_DEGREE = 21
F4_F3_DEGREE = 24
F4_Q_DEGREE = 12
SPIN7_WINDOW, SPIN7_VMAX = 32, 3
DICKSON_H = 4
AUDIT_DEGREE = 12
F4_WINDOW, F4_TOTAL = 90, 72


def _records(*argv: str) -> List[str]:
    return ["--format", "records"] + list(argv)


def weyl_invariants(seed: int) -> List[Op]:
    rng = random.Random(seed)
    gl = write_action(os.path.join(WORK, "gl3-seed%d.action" % seed), "gl3", ("x1", "x2", "x3"),
                      1, seeded_gl3(rng), mod=2)
    f4 = write_action(os.path.join(WORK, "f4-seed%d.action" % seed), "weyl_f4",
                      ("t1", "t2", "t3", "t4"), 2, seeded_f4(rng))
    gl_id, f3_id, q_id = ("invariants.file:%s.f2" % gl, "invariants.file:%s.f3" % f4,
                          "invariants.file:%s.q" % f4)

    def check_gl(records, seen):
        problems = checks.check_ranks(records, gl_id, checks.gl3_f2(GL3_DEGREE))
        order = weylchow.groups.load_action(gl).order
        if order != checks.GL3_ORDER:
            problems.append("GL_3(F_2) order %d, want %d" % (order, checks.GL3_ORDER))
        return problems

    def check_q(records, seen):
        return checks.check_ranks(records, q_id, checks.f4_q(F4_Q_DEGREE), 2) + \
            checks.check_rank_dominance(checks.ranks_of(records, q_id),
                                        checks.ranks_of(seen.get("f4-f3", []), f3_id), "W(F_4)")

    return [
        Op("gl3-f2", _records("invariants", "--group", "file:" + gl, "--domain", "f2",
                              "--max-degree", str(GL3_DEGREE)), check_gl),
        Op("f4-f3", _records("invariants", "--group", "file:" + f4, "--domain", "f3",
                             "--max-degree", str(F4_F3_DEGREE)),
           lambda records, seen: checks.check_ranks(records, f3_id, checks.f4_f3(F4_F3_DEGREE), 2)),
        Op("f4-q", _records("invariants", "--group", "file:" + f4, "--domain", "q",
                            "--max-degree", str(F4_Q_DEGREE)), check_q),
    ]


def _expected_match(records) -> List[str]:
    rows = checks.by_check(records).get("ahss.collapse.expected", [])
    if [r.verdict for r in rows] != ["match"]:
        return ["ahss.collapse.expected: %s" % [r.verdict for r in rows]]
    return []


def spin7_ahss(seed: int) -> List[Op]:
    total = SPIN7_WINDOW - (2 * 2 ** SPIN7_VMAX - 1)  # the engine's reliable range
    return [
        Op("ahss-spin7", _records("ahss", "--chart", "spin7", "--window", str(SPIN7_WINDOW),
                                  "--vmax", str(SPIN7_VMAX), "--collapse"),
           lambda records, seen: checks.check_collapse(
               records, "spin7", checks.spin7_free(total), checks.spin7_torsion(total))
           + _expected_match(records)),
        Op("dickson", _records("dickson", "--h", str(DICKSON_H)),
           lambda records, seen: checks.check_dickson(records, DICKSON_H)),
    ]


def spin7_audit(seed: int) -> List[Op]:
    return [Op("audit-spin7", _records("audit", "--chart", "spin7",
                                       "--max-degree", str(AUDIT_DEGREE)),
               lambda records, seen: checks.check_audit(records, AUDIT_DEGREE))]


def f4_p3(seed: int) -> List[Op]:
    return [Op("ahss-f4", _records("ahss", "--chart", "f4", "--window", str(F4_WINDOW),
                                   "--vmax", "2", "--max-total", str(F4_TOTAL), "--collapse"),
               lambda records, seen: checks.check_collapse(
                   records, "f4", checks.f4_free(F4_TOTAL), checks.f4_torsion(F4_TOTAL))
               + _expected_match(records))]


WORKLOADS = {
    "weyl-invariants": weyl_invariants,
    "spin7-ahss": spin7_ahss,
    "spin7-audit": spin7_audit,
    "f4-p3": f4_p3,
}


# --- Rounds ---------------------------------------------------------------


def run_op(op: Op, seen: Dict[str, List[checks.Record]]) -> List[str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = weylchow.cli.main(op.argv)
    except (Exception, SystemExit) as exc:
        return ["%s raised %r" % (op.name, exc)]
    problems = []
    if status != 0:
        problems.append("%s exited %r: %s" % (op.name, status, err.getvalue().strip()[:300]))
    try:
        records = checks.parse_records(out.getvalue())
        seen[op.name] = records
        problems += op.check(records, seen)
    except (ValueError, KeyError, IndexError) as exc:
        problems.append("%s: malformed records: %r" % (op.name, exc))
    return ["%s: %s" % (op.name, p) for p in problems]


class Round(NamedTuple):
    wall: float
    cpu: float
    wall_ref: float  # wall and cpu at the reference host speed (calib.py)
    cpu_ref: float
    op_ids: List[int]
    failed: int
    problems: List[str]


def run_round(ops: Sequence[Op], tracer: spans.Tracer, first_op: int, calibrate: bool) -> Round:
    """Run the operations once.  With calibrate, a calib.Sampler runs its
    bursts inside them, and wall and cpu are the time without the bursts."""
    seen: Dict[str, List[checks.Record]] = {}
    failed, problems, op_ids = 0, [], []
    sampler = calib.Sampler()
    with sampler if calibrate else contextlib.nullcontext():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for k, op in enumerate(ops):
            tracer.op = first_op + k
            op_ids.append(tracer.op)
            op_problems = run_op(op, seen)
            failed += bool(op_problems)
            problems += op_problems
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if calibrate:
        wall, cpu = sampler.elapsed
        wall_ref, cpu_ref = sampler.rescaled()
    else:
        wall_ref, cpu_ref = float("nan"), float("nan")
    return Round(wall, cpu, wall_ref, cpu_ref, op_ids, failed, problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(WORK, exist_ok=True)
    ops = WORKLOADS[args.workload](args.seed)
    tracer = spans.Tracer()
    rounds: List[Round] = []
    traced: List[bool] = []
    start = time.perf_counter()
    while True:
        use_trace = bool(args.trace) and len(rounds) % 2 == 1
        if use_trace:
            tracer.install()
        try:
            rounds.append(run_round(ops, tracer, len(rounds) * len(ops), not use_trace))
        finally:
            tracer.uninstall()
        traced.append(use_trace)
        elapsed = time.perf_counter() - start
        # Stop before a round that would not fit in the run, judged by the
        # mean round so far; a traced run needs one round of each kind.
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds and \
                (not args.trace or len(rounds) >= 2):
            break

    attempted = len(rounds) * len(ops)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    for p in problems[:20]:
        print("check failed: %s" % p, file=sys.stderr)
    print("round wall s (at reference speed): %s" % " ".join(
        "%.3f (%.3f)%s" % (r.wall, r.wall_ref, "t" if t else "")
        for r, t in zip(rounds, traced)), file=sys.stderr)
    plain = [r for r, t in zip(rounds, traced) if not t]
    if args.trace:
        with_trace = [r for r, t in zip(rounds, traced) if t]
        per_round = [spans.layer_metrics(tracer, r.op_ids, r.wall) for r in with_trace]
        values = {name: statistics.median(m[name] for m in per_round)
                  for name, _ in spans.PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(r.wall for r in with_trace)
                                      - statistics.median(r.wall for r in plain))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.PER_LAYER}
        tracer.write(os.path.join(WORK, "spans-%s-seed%d.tsv" % (args.workload, args.seed)))
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r.wall_ref for r in plain), "unit": "s"},
            "cpu_s": {"value": statistics.median(r.cpu_ref for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "rounds": len(rounds), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
