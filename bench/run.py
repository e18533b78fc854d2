"""Benchmark of weylchow: time to a verified answer, end to end and by layer.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds `src/weylchow`.  Each workload
runs in a fresh interpreter (bench/workload.py), one after another.  With
--trace 0 the end-to-end metrics are printed: wall_s, cpu_s, peak_rss_mb from
the workload process and setup_s, the median time to import weylchow.cli in
fresh interpreters.  The times are rescaled to the reference host speed by
calibration units measured beside them (calib.py).  With --trace 1 the
per-layer metrics are printed.  The last line of stdout is one JSON object
per workload run: correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("weyl-invariants", "spin7-ahss", "spin7-audit", "f4-p3")
SETUP_SAMPLES = 9
SETUP_CALIB_UNITS = 20
RUN_TIMEOUT_S = 170

# Time the import of weylchow.cli in a fresh interpreter, between two timed
# runs of calibration units (after one untimed unit), and print the import
# time rescaled to the reference host speed.
IMPORT_TIMER = """\
import sys, time
sys.path[:0] = [%r, %r]
import calib
calib.unit()
before = calib.measure(%d)
start = time.perf_counter()
import weylchow.cli
seconds = time.perf_counter() - start
after = calib.measure(%d)
print(seconds, seconds * calib.REF_UNIT_S * %d / (before + after))
""" % (SRC, HERE, SETUP_CALIB_UNITS, SETUP_CALIB_UNITS, 2 * SETUP_CALIB_UNITS)


def setup_seconds() -> float:
    """Median import time of weylchow.cli over fresh interpreters at the
    reference host speed, after one import that is discarded (it may compile
    the bytecode cache)."""
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        if k:
            samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workload.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError("workload %s exited with status %d" % (name, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print("%s: %d rounds, %d operations, %d failed" % (
        name, result.pop("rounds"), result["attempted"], result["failed"]), file=sys.stderr)
    if not trace:
        result["metrics"]["setup_s"] = {"value": setup_seconds(), "unit": "s"}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "weylchow", "cli.py")):
        print("error: no weylchow sources at %s" % SRC, file=sys.stderr)
        return 2

    correct = True
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(name, args.seed, args.seconds, args.trace)
        correct = correct and result["correct"]
        if args.workload == "all":
            for metric, m in result["metrics"].items():
                print("%-16s %-28s %14.6f %s" % (name, metric, m["value"], m["unit"]))
        print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
