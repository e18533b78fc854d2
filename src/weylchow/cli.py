"""Command-line surface: mechanical verification runs with readable reports.

Commands:

    dickson     --h H
    invariants  --group so:K|spin:K|gl:H|f4|file:PATH
                --domain fP|q|z|zlocal:P --max-degree N [--series EXPR]
                (P in poly.FP_PRIMES for fP; N >= 0)
    ahss        --chart spin7|f4|toy-*|PATH [--window W, builtins only] --vmax M
                [--max-total N] [--collapse]
    audit       --chart spin7 [--max-degree N, N >= 4]
    series      --expr EXPR --order N

Global flags: --out PATH (default stdout), --format table|records.  The
records format is one tab-separated line per fact: check-id, degree,
verdict, witness.  Exit status is 0 exactly when every requested
verification passes; outputs are deterministic.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

from . import ahss as ahss_mod
from . import builtin as builtin_mod
from . import dickson as dickson_mod
from . import restriction as restriction_mod
from .chart import ChartError, load_chart
from .groups import GroupError, build_gl, build_weyl_f4, build_weyl_so, build_weyl_spin, load_action
from .invariants import InvariantError, poincare_series
from .linalg import LinalgError
from .poly import FP_PRIMES, QQ, ZZ, Domain, PolyError, fp, z_local
from .series import SeriesError, expand_series
from .steenrod import SteenrodError

# Refusals of an input: a one-line message and exit status 2.  Any other
# exception is a defect and propagates with its traceback.
INPUT_ERRORS = (
    ahss_mod.AhssError, ChartError, dickson_mod.DicksonError, GroupError, InvariantError,
    LinalgError, PolyError, restriction_mod.RestrictionError, SeriesError, SteenrodError,
    ValueError, OSError,
)
_CHOW_FIRST_FAILURE = 4  # the degree where Spin(7)'s Chow-side criterion first fails


class Report:
    """Accumulates table lines and record tuples plus a pass/fail flag."""

    def __init__(self):
        self.table: List[str] = []
        self.records: List[Tuple[str, str, str, str]] = []
        self.failures: List[str] = []

    def line(self, text: str = ""):
        self.table.append(text)

    def fact(self, check: str, degree, verdict: str, witness: str = "", ok: bool = True):
        self.records.append((check, str(degree), verdict, witness))
        if not ok:
            self.failures.append("%s @ %s: %s" % (check, degree, verdict))

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self, fmt: str) -> str:
        if fmt == "records":
            return "\n".join("\t".join(r) for r in self.records) + "\n"
        return "\n".join(self.table) + "\n"


def _suffix_int(text: str, prefix: str) -> Optional[int]:
    """The integer after prefix in text, or None (another prefix, or no integer)."""
    try:
        return int(text[len(prefix):]) if text.startswith(prefix) else None
    except ValueError:
        return None


def _parse_domain(text: str) -> Domain:
    text = text.lower()
    if text == "q":
        return QQ
    if text == "z":
        return ZZ
    if (p := _suffix_int(text, "zlocal:")) is not None:
        return z_local(p)
    if text[:1] == "f" and text[1:].isdigit():
        return fp(int(text[1:]))  # refuses a p outside FP_PRIMES
    raise ValueError("unknown domain %r" % text)


def _parse_group(text: str):
    if text == "f4":
        return build_weyl_f4()
    for prefix, build in (("so:", build_weyl_so), ("spin:", build_weyl_spin), ("gl:", build_gl)):
        if (k := _suffix_int(text, prefix)) is not None:
            return build(k)
    if text.startswith("file:"):
        return load_action(text.split(":", 1)[1])
    raise GroupError("unknown group %r" % text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_dickson(args) -> Report:
    rep = Report()
    result = dickson_mod.verify_all(dickson_mod.build_dickson(args.h))
    rep.line("Dickson identities at h = %d" % args.h)
    for check in result.checks:
        verdict = "pass" if check.holds else "FAIL"
        rep.line("  %-28s %s" % (check.label, verdict))
        rep.fact("dickson.h%d" % args.h, 0, verdict, check.label, ok=check.holds)
    for note in result.notes:
        rep.line("  note: %s" % note)
    rep.line("result: %s" % ("pass" if result.passed else "FAIL"))
    return rep


def cmd_invariants(args) -> Report:
    rep = Report()
    if args.max_degree < 0:
        raise InvariantError("--max-degree %d is negative" % args.max_degree)
    action = _parse_group(args.group)
    domain = _parse_domain(args.domain)
    want = expand_series(args.series, args.max_degree) if args.series else None
    ranks = poincare_series(action, args.max_degree, domain)
    rep.line("Invariant ranks for %s over %s up to degree %d" % (action.name, domain, args.max_degree))
    rep.line("  degree  rank")
    for d, r in sorted(ranks.items()):
        rep.line("  %6d  %4d" % (d, r))
        rep.fact("invariants.%s.%s" % (args.group, args.domain), d, str(r))
    if args.series:
        # A degree the report skips (odd, with even generators) has rank 0.
        bad = [d for d, w in enumerate(want) if ranks.get(d, 0) != w]
        for d in bad:
            rep.fact(
                "invariants.series", d,
                "mismatch: got %d want %d" % (ranks.get(d, 0), want[d]), args.series, ok=False,
            )
        verdict = "match" if not bad else "MISMATCH at %s" % bad
        rep.line("series %s: %s" % (args.series, verdict))
        rep.fact("invariants.series", "all", "match" if not bad else "mismatch",
                 args.series, ok=not bad)
    return rep


def _load_chart_arg(name: str, window: Optional[int]):
    """A builtin name always means the builtin; any other name is a chart
    file when it exists (./NAME reads a file named like a builtin)."""
    if name in builtin_mod.builtin_names() or not os.path.exists(name):
        bc = builtin_mod.get_builtin(name, window)
        return bc.chart, bc
    if window is not None:
        raise ChartError("--window is for builtin charts; %s sets its own window" % name)
    return load_chart(name), None


def cmd_ahss(args) -> Report:
    rep = Report()
    chart, bc = _load_chart_arg(args.chart, args.window)
    result = ahss_mod.run_ahss(chart, args.vmax, args.max_total)
    rep.line(
        "AHss for chart %s (p=%d, window=%d, v_max=%d), totals <= %d"
        % (chart.name, chart.p, chart.window, args.vmax, result.max_total)
    )
    summary = ahss_mod.einfinity_summary(result)
    for total in sorted(summary):
        parts = []
        for vlbl, st in summary[total]:
            bits = []
            if st.free_rank:
                bits.append("free^%d" % st.free_rank)
            if st.torsion_rank:
                bits.append("(Z/%d)^%d" % (chart.p, st.torsion_rank))
            parts.append("%s: %s" % (vlbl, "+".join(bits)))
        rep.line("  E_inf total %2d: %s" % (total, "; ".join(parts)))
    if args.collapse:
        col = ahss_mod.collapse_to_chow(result)
        rep.line("collapse (free rank, %d-torsion rank) by total degree:" % chart.p)
        for n in range(0, result.max_total + 1):
            free, tors = col.per_degree.get(n, (0, 0))
            if free or tors:
                rep.line("  total %2d: free %d, torsion %d   [%s]" % (
                    n, free, tors, "; ".join(col.details.get(n, []))))
            rep.fact("ahss.collapse.%s" % chart.name, n, "%d,%d" % (free, tors))
        if bc is not None and "collapse_free" in bc.expected_series:
            series = bc.expected_series
            free_want = expand_series(series["collapse_free"], result.max_total)
            tors_want = expand_series(series.get("collapse_torsion", "0"), result.max_total)
            bad = [
                n
                for n in range(result.max_total + 1)
                if col.per_degree.get(n, (0, 0)) != (free_want[n], tors_want[n])
            ]
            verdict = "match" if not bad else "MISMATCH at %s" % bad
            rep.line("expected collapse series: %s" % verdict)
            rep.fact("ahss.collapse.expected", "all", verdict, ok=not bad)
    return rep


def cmd_audit(args) -> Report:
    rep = Report()
    if args.chart != "spin7":
        raise ValueError("audit currently covers the spin7 chart")
    max_degree = args.max_degree
    if max_degree < _CHOW_FIRST_FAILURE:
        raise restriction_mod.RestrictionError(
            "--max-degree %d is below %d, the degree where the Chow-side injectivity "
            "criterion first fails" % (max_degree, _CHOW_FIRST_FAILURE))
    model = restriction_mod.build_spin7_model(window=max_degree)

    rep.line("Restriction audit for Spin(7), p = 2, degrees <= %d" % max_degree)

    audit = restriction_mod.rho_image_audit(model, model.ch_presentation)
    ok_scale = audit.max_scale_power <= 1
    ok_rank = audit.image_rank_by_degree == audit.invariant_rank_by_degree
    rep.line("image membership: every invariant is inside after scaling by at most 2^1: %s"
             % ("pass" if ok_scale else "FAIL"))
    rep.line("image spans have full rational rank in every degree: %s"
             % ("pass" if ok_rank else "FAIL"))
    for row in audit.rows:
        rep.fact("audit.image", row.degree, row.verdict, row.label,
                 ok=(row.verdict == "inside" or row.scale_power == 1))
    rep.fact("audit.image.rank", "all", "full" if ok_rank else "deficient", ok=ok_rank)

    cands = [
        ("c_2'", model.w4.scale(2)),
        ("c_4'", model.w8.scale(2)),
        ("c_4", model.w4 * model.w4),
    ]
    nil = restriction_mod.feshbach_nilpotence(model.ch_presentation, cands)
    for row in nil:
        expect_nil = row.label.endswith("'")
        ok = row.nilpotent == expect_nil and (row.exponent in (None, 2))
        rep.line("nilpotence of %-5s: %s  (%s)" % (
            row.label,
            "n = %d" % row.exponent if row.nilpotent else "none found",
            "pass" if ok else "FAIL"))
        rep.fact("audit.feshbach", row.label, str(row.exponent), ok=ok)

    crit_h = restriction_mod.surjectivity_criterion(model, model.h_presentation)
    crit_ch = restriction_mod.surjectivity_criterion(model, model.ch_presentation)
    ok_h = crit_h.injective
    ok_ch = (not crit_ch.injective) and crit_ch.first_failure == _CHOW_FIRST_FAILURE
    rep.line("injectivity criterion, cohomology side: %s" % ("pass" if ok_h else "FAIL"))
    rep.line("injectivity criterion, Chow side fails first at degree %s: %s"
             % (crit_ch.first_failure, "pass" if ok_ch else "FAIL"))
    rep.fact("audit.criterion.h", "all", "injective" if ok_h else "fails", ok=ok_h)
    rep.fact("audit.criterion.ch", crit_ch.first_failure or -1, "first failure", ok=ok_ch)

    data = restriction_mod.build_spin7_restriction(model)
    kernel_rows = restriction_mod.res_kernel(data)
    want = expand_series("t^6/((1-t^8)(1-t^12)(1-t^16))", max_degree)
    ok_kernel = all(r.rank == want[r.degree] for r in kernel_rows)
    rep.line("restriction kernel matches the degree-6 torsion tower: %s"
             % ("pass" if ok_kernel else "FAIL"))
    for r in kernel_rows:
        rep.fact("audit.kernel", r.degree, str(r.rank), "; ".join(r.labels),
                 ok=(r.rank == want[r.degree]))
    combined = restriction_mod.res_kernel(data, include_omega=True)
    ok_combined = all(r.rank == 0 for r in combined)
    rep.line("combined restriction (with the cobordism lift) is injective: %s"
             % ("pass" if ok_combined else "FAIL"))
    rep.fact("audit.kernel.combined", "all", "zero" if ok_combined else "nonzero",
             ok=ok_combined)

    det = restriction_mod.omega_detection_audit(model, model.ahss)
    rep.line("detection: 2e permanent %s, v_1 e permanent %s, e dies %s" % (
        det.permanent_2e, det.permanent_v1e, det.e_dies))
    rep.line("detection towers nonzero and injective mod 2: %s"
             % ("pass" if det.towers_nonzero and det.injective_mod_2 else "FAIL"))
    rep.fact("audit.detection", "all", "pass" if det.passed else "FAIL", ok=det.passed)

    rep.line("overall: %s" % ("pass" if rep.passed else "FAIL"))
    return rep


def cmd_series(args) -> Report:
    rep = Report()
    coeffs = expand_series(args.expr, args.order)
    rep.line("%s to order %d:" % (args.expr, args.order))
    rep.line("  " + " ".join(str(c) for c in coeffs))
    for n, c in enumerate(coeffs):
        rep.fact("series", n, str(c), args.expr)
    return rep


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylchow",
        description="exact verification of Weyl-invariant, Dickson, and BP-chart computations",
    )
    parser.add_argument("--out", help="write the report to this path")
    parser.add_argument("--format", choices=("table", "records"), default="table")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dickson", help="verify the Milnor identities on Dickson classes")
    p.add_argument("--h", type=int, required=True)
    p.set_defaults(func=cmd_dickson)

    p = sub.add_parser("invariants", help="per-degree invariant ranks of a Weyl-type action")
    p.add_argument("--group", required=True, help="so:K | spin:K | gl:H | f4 | file:PATH")
    p.add_argument("--domain", required=True,
                   help="fP for P in %s | q | z | zlocal:P" % "/".join(map(str, FP_PRIMES)))
    p.add_argument("--max-degree", type=int, required=True, help="N >= 0")
    p.add_argument("--series", help="compare against this generating function")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("ahss", help="run the spectral sequence for a chart")
    p.add_argument("--chart", required=True, help="builtin name or file path")
    p.add_argument("--window", type=int, help="override a builtin chart's window")
    p.add_argument("--vmax", type=int, required=True)
    p.add_argument("--max-total", type=int, help="report totals up to this degree")
    p.add_argument("--collapse", action="store_true", help="also collapse to Z_(p)")
    p.set_defaults(func=cmd_ahss)

    p = sub.add_parser("audit", help="restriction-map audits for a builtin chart")
    p.add_argument("--chart", default="spin7")
    p.add_argument("--max-degree", type=int, default=28)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("series", help="expand a rational generating function")
    p.add_argument("--expr", required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=cmd_series)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report: Report = args.func(args)
    except INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    text = report.render(args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if not report.passed:
        for failure in report.failures:
            print("failed: %s" % failure, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
