"""Tests of the benchmark's references, checks, record parser and tracer.

    python3 -m pytest bench/tests
"""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import calib  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402
import weylchow.ahss  # noqa: E402
import weylchow.cli  # noqa: E402
import weylchow.groups  # noqa: E402
import weylchow.restriction  # noqa: E402

R = checks.Record


def cli_records(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        weylchow.cli.main(["--format", "records"] + list(argv))
    return checks.parse_records(out.getvalue())


# --- References -----------------------------------------------------------


def test_expand_small_cases():
    assert checks.expand(8, (2,)) == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    assert checks.expand(7, (4, 6, 7)) == [1, 0, 0, 0, 1, 0, 1, 1]
    assert checks.expand(5, (), {0: 1, 3: 2}) == [1, 0, 0, 2, 0, 0]


def test_reference_orders_and_exotic_class():
    assert checks.GL3_ORDER == 168
    # Degree 20: W(F_4) has 3 rational invariants, and mod 3 one more (Toda's x_20).
    assert checks.f4_q(20)[20] == 3 and checks.f4_f3(20)[20] == 4
    assert checks.spin7_torsion(14)[6] == 1 and checks.spin7_torsion(14)[14] == 2
    assert checks.f4_torsion(52)[26] == 1 and checks.f4_torsion(52)[52] == 1


def test_dickson_identities_match_program_at_h2():
    assert checks.check_dickson(cli_records("dickson", "--h", "2"), 2) == []


# --- Record parser --------------------------------------------------------


AUDIT_TEXT = """\
audit.image\t0\tinside\t1
audit.image\t4\tinside-after-scaling p^1\tbasis[0]
audit.image\t8\tinside-after-scaling p^1\tbasis[0]
audit.image\t8\tinside\tbasis[1]
audit.image.rank\tall\tfull\t
audit.feshbach\tc_2'\t2\t
audit.feshbach\tc_4'\t2\t
audit.feshbach\tc_4\tNone\t
audit.criterion.h\tall\tinjective\t
audit.criterion.ch\t4\tfirst failure\t
audit.kernel\t0\t0\t
audit.kernel\t4\t0\t
audit.kernel\t6\t1\txi_3
audit.kernel\t8\t0\t
audit.kernel.combined\tall\tzero\t
audit.detection\tall\tpass\t
"""


def test_parser_covers_every_command():
    kinds = set()
    for argv in (("dickson", "--h", "2"),
                 ("invariants", "--group", "gl:2", "--domain", "f2", "--max-degree", "4",
                  "--series", "1/((1-t^2)(1-t^4))"),
                 ("ahss", "--chart", "toy-free", "--vmax", "1", "--collapse"),
                 ("series", "--expr", "1/(1-t^4)", "--order", "4")):
        kinds |= {r.check for r in cli_records(*argv)}
    kinds |= {r.check for r in checks.parse_records(AUDIT_TEXT)}
    assert kinds == {
        "dickson.h2", "invariants.gl:2.f2", "invariants.series", "ahss.collapse.toy-free",
        "ahss.collapse.expected", "series", "audit.image", "audit.image.rank",
        "audit.feshbach", "audit.criterion.h", "audit.criterion.ch", "audit.kernel",
        "audit.kernel.combined", "audit.detection"}


def test_parser_keeps_empty_witness_and_rejects_short_lines():
    assert checks.parse_records("a\t1\tok\t\n") == [R("a", "1", "ok", "")]
    with pytest.raises(ValueError):
        checks.parse_records("a\t1\tok\n")


# --- Checks reject corrupted records --------------------------------------


def rank_records(check_id, want, step=1):
    return [R(check_id, str(d), str(want[d]), "") for d in range(0, len(want), step)]


def test_rank_check_rejects_off_by_one_and_gaps():
    want = checks.f4_f3(24)
    good = rank_records("x", want, 2)
    assert checks.check_ranks(good, "x", want, 2) == []
    bad = list(good)
    bad[10] = bad[10]._replace(verdict=str(int(bad[10].verdict) + 1))
    assert checks.check_ranks(bad, "x", want, 2)
    assert checks.check_ranks(good[:-1], "x", want, 2)
    assert checks.check_ranks(good + [good[3]], "x", want, 2)


def test_rank_dominance():
    assert checks.check_rank_dominance({20: 3}, {20: 4}, "W") == []
    assert checks.check_rank_dominance({20: 3}, {20: 2}, "W")
    assert checks.check_rank_dominance({20: 3}, {}, "W")


def collapse_records(chart, free, tors):
    return [R("ahss.collapse.%s" % chart, str(n), "%d,%d" % (f, t), "")
            for n, (f, t) in enumerate(zip(free, tors))]


def test_collapse_check_rejects_swapped_ranks():
    free, tors = checks.spin7_free(17), checks.spin7_torsion(17)
    good = collapse_records("spin7", free, tors)
    assert checks.check_collapse(good, "spin7", free, tors) == []
    swapped = collapse_records("spin7", tors, free)
    assert checks.check_collapse(swapped, "spin7", free, tors)
    assert checks.check_collapse(good[:-1], "spin7", free, tors)
    assert checks.check_collapse(good, "f4", free, tors)


def test_dickson_check_rejects_failed_or_missing_identity():
    good = [R("dickson.h3", "0", "pass", "%s == %s" % kv)
            for kv in checks.dickson_identities(3).items()]
    assert checks.check_dickson(good, 3) == []
    assert checks.check_dickson(good[1:], 3)
    assert checks.check_dickson([good[0]._replace(verdict="FAIL")] + good[1:], 3)
    assert checks.check_dickson([good[0]._replace(witness="Q_2(d_0) == 0")] + good[1:], 3)


def audit_records(max_degree):
    out = [R("audit.image", "0", "inside", "1")]
    image = checks.spin7_image(max_degree)
    for d in range(1, max_degree + 1):
        out += [R("audit.image", str(d), "inside-after-scaling p^1", "b")] * image[d]
    kernel = checks.spin7_kernel(max_degree)
    out += [R("audit.image.rank", "all", "full", "")]
    out += [R("audit.feshbach", k, v, "") for k, v in checks.SPIN7_FESHBACH.items()]
    out += [R("audit.criterion.h", "all", "injective", ""),
            R("audit.criterion.ch", "4", "first failure", "")]
    out += [R("audit.kernel", str(d), str(kernel[d]), "") for d in (0, 4, 6, 8, 12)]
    out += [R("audit.kernel.combined", "all", "zero", ""), R("audit.detection", "all", "pass", "")]
    return out


@pytest.mark.parametrize("corrupt", [
    lambda rs: [r._replace(verdict="3") if r.degree == "c_2'" else r for r in rs],
    lambda rs: [r._replace(verdict="inside") if r.degree == "4" and r.check == "audit.image"
                else r for r in rs],
    lambda rs: [r._replace(verdict="outside") if r.degree == "8" and r.check == "audit.image"
                else r for r in rs],
    lambda rs: [r for r in rs if not (r.check == "audit.image" and r.degree == "12")],
    lambda rs: [r._replace(degree="8") if r.check == "audit.criterion.ch" else r for r in rs],
    lambda rs: [r._replace(verdict="2") if r.check == "audit.kernel" and r.degree == "6"
                else r for r in rs],
    lambda rs: [r for r in rs if not (r.check == "audit.kernel" and r.degree == "6")],
    lambda rs: [r._replace(verdict="nonzero") if r.check == "audit.kernel.combined" else r
                for r in rs],
    lambda rs: [r._replace(verdict="FAIL") if r.check == "audit.detection" else r for r in rs],
    lambda rs: [r for r in rs if r.check != "audit.image.rank"],
])
def test_audit_check_rejects_corruption(corrupt):
    good = audit_records(12)
    assert checks.check_audit(good, 12) == []
    assert checks.check_audit(corrupt(good), 12)


def test_audit_sample_passes_at_degree_8():
    assert checks.check_audit(checks.parse_records(AUDIT_TEXT), 8) == []


# --- Seeded inputs --------------------------------------------------------


def closure(gens, mod=None):
    ident = tuple(tuple(Fraction(int(i == j)) for j in range(len(gens[0])))
                  for i in range(len(gens[0])))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = tuple(map(tuple, workload._mat_mul(m, g, mod)))
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_seeded_gl3_generates_the_same_group(seed):
    rng = workload.random.Random(seed)
    assert closure(workload.seeded_gl3(rng), 2) == closure(workload.gl3_generators(), 2)


def test_seeded_f4_generates_the_same_group():
    rng = workload.random.Random(3)
    conj = closure(workload.seeded_f4(rng))
    assert len(conj) == 1152 and conj == closure(workload.f4_generators())


def test_same_seed_same_inputs(tmp_path, monkeypatch):
    monkeypatch.setattr(workload, "WORK", str(tmp_path))
    texts = []
    for _ in range(2):
        ops = workload.weyl_invariants(5)
        texts.append([open(op.argv[4][len("file:"):]).read() for op in ops])
    assert texts[0] == texts[1]
    assert weylchow.groups.load_action(ops[0].argv[4][len("file:"):]).order == 168


# --- Host-speed calibration -----------------------------------------------


def test_sampler_removes_its_bursts_and_rescales():
    with calib.Sampler(period=0.01, burst=1) as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        raw = time.perf_counter() - start
    wall, cpu = sampler.elapsed
    assert sampler.units >= 5 and 0 < sampler.wall < raw
    assert wall == pytest.approx(raw - sampler.wall, abs=2e-3)
    wall_ref, cpu_ref = sampler.rescaled()
    assert wall_ref == pytest.approx(wall * calib.REF_UNIT_S * sampler.units / sampler.wall)
    assert cpu_ref == pytest.approx(cpu * calib.REF_UNIT_S * sampler.units / sampler.cpu)
    # No signal reaches the stopped sampler.
    units = sampler.units
    time.sleep(0.03)
    assert sampler.units == units


def test_sampler_runs_one_burst_when_shorter_than_its_period():
    with calib.Sampler(period=10.0, burst=1) as sampler:
        pass
    assert sampler.units == 1 and sampler.wall > 0 and sampler.rescaled()[0] >= 0


# --- Tracer ---------------------------------------------------------------


def test_tracer_wraps_from_imports_and_restores():
    originals = (weylchow.ahss.integral_q_matrix, weylchow.restriction.membership,
                 weylchow.groups.rank_q, weylchow.cli.expand_series)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(f, "__wrapped__", None) is o for f, o in zip(
            (weylchow.ahss.integral_q_matrix, weylchow.restriction.membership,
             weylchow.groups.rank_q, weylchow.cli.expand_series), originals))
        tracer.op = 7
        cli_records("invariants", "--group", "gl:2", "--domain", "f2", "--max-degree", "6")
        tracer.op = 8
        assert weylchow.groups.build_gl(2).order == 6
    finally:
        tracer.uninstall()
    assert (weylchow.ahss.integral_q_matrix, weylchow.restriction.membership,
            weylchow.groups.rank_q, weylchow.cli.expand_series) == originals
    roots = [s for s in tracer.spans if s[3] < 0 and s[4] == 7]
    assert [tracer.names[s[0]] for s in roots] == ["cli.main"]
    wall = roots[0][2] - roots[0][1]
    m = spans.layer_metrics(tracer, [7], wall)
    layer_total = sum(m["%s.self_s" % layer] for layer in spans.LAYERS)
    assert layer_total == pytest.approx(wall, rel=1e-9)
    assert m["invariants.degrees"] == 7
    assert m["trace.unaccounted_s"] == pytest.approx(0, abs=1e-12)
    assert spans.layer_metrics(tracer, [8], 0.0)["groups.elements"] == 6
    assert spans.layer_metrics(tracer, [9], 0.0)["trace.spans"] == 0


# --- The command and BENCHMARK.json ---------------------------------------


def run_bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py")] + list(args),
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in spans.PER_LAYER]
    status, result = run_bench("--workload", "f4-p3", "--seed", "3", "--seconds", "1")
    assert status == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}
    status, result = run_bench("--workload", "f4-p3", "--seed", "3", "--seconds", "1",
                               "--trace", "1")
    assert status == 0 and result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}
