import re
import time

import pytest

from weylchow import cli
from weylchow.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dickson_command(capsys):
    code, out, _ = run_cli(capsys, "dickson", "--h", "2")
    assert code == 0
    assert "result: pass" in out


def test_dickson_records_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "records", "dickson", "--h", "1")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert all(len(ln.split("\t")) == 4 for ln in lines)


def test_series_command(capsys):
    code, out, _ = run_cli(capsys, "series", "--expr", "1/((1-t^4))", "--order", "8")
    assert code == 0
    assert "1 0 0 0 1 0 0 0 1" in out


@pytest.mark.parametrize("argv", [
    ("series", "--expr", "x^2", "--order", "4"),
    ("invariants", "--group", "so:3", "--domain", "z", "--max-degree", "8",
     "--series", "1/((1-s^4))"),
])
def test_malformed_series_is_an_input_error(capsys, monkeypatch, argv):
    def walk(*args):
        raise AssertionError("the invariant walk ran before the series was read")

    monkeypatch.setattr(cli, "poincare_series", walk)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: cannot read")


def test_series_mismatch_in_degrees_the_report_skips(capsys):
    """so:3 has generators of degree 2 only, so the walk skips odd degrees;
    the series' odd-degree terms still count, against rank 0."""
    code, out, _ = run_cli(capsys, "--format", "records", "invariants", "--group", "so:3",
                           "--domain", "q", "--max-degree", "12",
                           "--series", "(1+t^3)/((1-t^4)(1-t^8)(1-t^12))")
    assert code == 1
    facts = [ln.split("\t")[1:3] for ln in out.splitlines() if ln.startswith("invariants.series\t")]
    assert facts == [["3", "mismatch: got 0 want 1"], ["7", "mismatch: got 0 want 1"],
                     ["11", "mismatch: got 0 want 2"], ["all", "mismatch"]]


@pytest.mark.parametrize("degree", ["0", "2", "3"])
def test_audit_refuses_a_window_below_the_chow_failure(capsys, degree):
    code, out, err = run_cli(capsys, "audit", "--chart", "spin7", "--max-degree", degree)
    assert code == 2 and out == ""
    assert err == "error: --max-degree %s is below 4, the degree where the Chow-side " \
        "injectivity criterion first fails\n" % degree


def test_audit_below_the_generator_degrees(capsys):
    """At --max-degree 4 the one invariant walk runs past the window, to the
    generators' degree 16; the audit still reads only degrees 0..4."""
    code, out, _ = run_cli(capsys, "--format", "records", "audit", "--chart", "spin7",
                           "--max-degree", "4")
    lines = out.splitlines()
    assert code == 0
    assert "audit.criterion.ch\t4\tfirst failure\t" in lines
    assert [ln.split("\t")[1] for ln in lines if ln.startswith("audit.kernel\t")] == ["0", "4"]


def test_invariants_match(capsys):
    code, out, _ = run_cli(
        capsys,
        "invariants", "--group", "so:2", "--domain", "z", "--max-degree", "12",
        "--series", "1/((1-t^4)(1-t^8))",
    )
    assert code == 0
    assert "match" in out


def test_invariants_mismatch_fails(capsys):
    code, out, err = run_cli(
        capsys,
        "invariants", "--group", "so:2", "--domain", "z", "--max-degree", "12",
        "--series", "1/((1-t^4))",
    )
    assert code == 1
    assert "failed" in err


def test_infinite_group_refused_at_the_bound(capsys, tmp_path):
    """A shear, and two involutions whose product is that shear: each is
    refused once the walk passes 12, the largest finite subgroup order of
    GL_2(Q)."""
    import weylchow.groups as groups_mod
    from weylchow.invariants import invariant_basis
    from weylchow.poly import QQ

    message = "exceeds bound 12 (no finite subgroup of GL_2(Q) is larger)"
    for name, gens in (("shear", "[gen]\n1 1\n0 1\n"),
                       ("involutions", "[gen]\n-1 0\n0 1\n[gen]\n-1 1\n0 1\n")):
        path = tmp_path / ("%s.action" % name)
        path.write_text("[action]\ngenerators = a b\ndegree = 2\n" + gens)
        with pytest.raises(groups_mod.GroupError, match=re.escape(message)):
            invariant_basis(groups_mod.load_action(str(path)), 4, QQ)
        code, out, err = run_cli(capsys, "invariants", "--group", "file:%s" % path,
                                 "--domain", "q", "--max-degree", "4")
        assert code == 2 and out == "" and message in err, name


def test_gl5_refused_naming_the_coset_walk(capsys):
    code, out, err = run_cli(capsys, "invariants", "--group", "gl:5", "--domain", "f2",
                             "--max-degree", "4")
    assert code == 2 and out == ""
    assert "|GL_5(F_2)| / 5! = 83,328 cosets" in err


def test_unknown_group_errors(capsys):
    code, _, err = run_cli(
        capsys, "invariants", "--group", "nope", "--domain", "z", "--max-degree", "4"
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("group, domain, message", [
    ("so:x", "z", "unknown group 'so:x'"),
    ("spin:x", "z", "unknown group 'spin:x'"),
    ("gl:x", "f2", "unknown group 'gl:x'"),
    ("so:3", "zlocal:x", "unknown domain 'zlocal:x'"),
])
def test_malformed_group_and_domain_specs_are_named(capsys, group, domain, message):
    code, out, err = run_cli(capsys, "invariants", "--group", group, "--domain", domain,
                             "--max-degree", "4")
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_ahss_toy_collapse(capsys):
    code, out, _ = run_cli(
        capsys, "ahss", "--chart", "toy-kill", "--vmax", "1", "--collapse"
    )
    assert code == 0
    assert "free: 2*a" in out


def test_ahss_chart_file(tmp_path, capsys):
    from weylchow.builtin import toy_killing_chart
    from weylchow.chart import serialize_chart

    path = tmp_path / "toy.chart"
    path.write_text(serialize_chart(toy_killing_chart().chart))
    code, out, _ = run_cli(capsys, "ahss", "--chart", str(path), "--vmax", "1")
    assert code == 0
    assert "E_inf" in out


@pytest.mark.parametrize("section,message", [
    ("[q -1]\na -> 0\n", "error: chart toy-kill: Milnor index -1 is negative"),
    ("[q 0]\nu -> 0\n", "error: line 17: a second Q_0 image of u"),
    ("[q 3]\na -> b + q\n", "error: line 17: unknown generator 'q'"),
])
def test_ahss_chart_file_refusals(tmp_path, capsys, section, message):
    from weylchow.builtin import toy_killing_chart
    from weylchow.chart import serialize_chart

    path = tmp_path / "bad.chart"
    path.write_text(serialize_chart(toy_killing_chart().chart) + section)
    code, out, err = run_cli(capsys, "ahss", "--chart", str(path), "--vmax", "1")
    assert code == 2
    assert out == ""
    assert err.startswith(message)


DEEP = "(" * 1000 + "%s" + ")" * 1000


@pytest.mark.parametrize("argv, message", [
    (("series", "--expr", DEEP % "1-t", "--order", "3"), "expression nested too deeply"),
    (("ahss", "--chart", "{chart}", "--vmax", "1"), "error: line 9: expression nested too deeply"),
])
def test_deep_nesting_is_refused_quickly(tmp_path, capsys, argv, message):
    """1,000 nested parentheses, past the recursion limit, are an input error."""
    path = tmp_path / "deep.chart"
    path.write_text("[chart]\np = 2\nwindow = 12\n[classes]\na 6 0\nu 8 0\nb 9 1\n"
                    "[q 0]\nu -> %s\n" % (DEEP % "b"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *[a.format(chart=path) for a in argv])
    assert time.perf_counter() - start < 2
    assert code == 2
    assert out == ""
    assert message in err and err.count("\n") == 1


def test_window_is_refused_for_a_chart_file(tmp_path, capsys):
    """A chart file sets its own window; --window overrides a builtin's only."""
    from weylchow.builtin import toy_killing_chart
    from weylchow.chart import serialize_chart

    path = tmp_path / "toy.chart"
    path.write_text(serialize_chart(toy_killing_chart().chart))
    code, out, err = run_cli(capsys, "ahss", "--chart", str(path), "--window", "40", "--vmax", "1")
    assert (code, out) == (2, "")
    assert err == "error: --window is for builtin charts; %s sets its own window\n" % path


def test_unnamed_chart_file_is_named_by_its_path_in_errors_only(tmp_path, capsys):
    from weylchow.builtin import toy_killing_chart
    from weylchow.chart import serialize_chart

    text = serialize_chart(toy_killing_chart().chart).replace("name = toy-kill\n", "")
    good, bad = tmp_path / "good.chart", tmp_path / "bad.chart"
    good.write_text(text)
    bad.write_text(text + "[q -1]\na -> 0\n")
    code, out, err = run_cli(capsys, "ahss", "--chart", str(bad), "--vmax", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: chart %s: Milnor index -1 is negative" % bad)
    argv = ("--format", "records", "ahss", "--chart", str(good), "--vmax", "1", "--collapse")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith("ahss.collapse.chart\t0\t1,0\t")


def test_ahss_collapse_of_a_p7_chart_file(tmp_path, capsys):
    """By hand, from Q_0(x^k) = k x^(k-1) y: Z/7 on x^k y for k = 0..5, and
    free 1, x^7 (Q_0 x^7 = 7 x^6 y = 0) and x^6 y (y is exterior)."""
    path = tmp_path / "p7.chart"
    path.write_text("[chart]\nname = p7\np = 7\nwindow = 29\n\n"
                    "[classes]\nx 4 0\ny 5 1 exterior\n\n[q 0]\nx -> y\n")
    argv = ("ahss", "--chart", str(path), "--vmax", "1", "--max-total", "29", "--collapse")
    want = {0: (1, 0, "free: 1"), 28: (1, 0, "free: x^7"), 29: (1, 0, "free: x^6*y")}
    want.update({4 * k + 5: (0, 1, "Z/7: %sy" % ("", "x*", "x^2*", "x^3*", "x^4*", "x^5*")[k])
                 for k in range(6)})
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("  total")] == [
        "  total %2d: free %d, torsion %d   [%s]" % (n, *want[n]) for n in sorted(want)]
    code, out, _ = run_cli(capsys, "--format", "records", *argv)
    assert code == 0
    assert out.splitlines() == ["ahss.collapse.p7\t%d\t%d,%d\t" % (n, *want.get(n, (0, 0))[:2])
                                for n in range(30)]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(
        capsys, "--out", str(target), "series", "--expr", "1/((1-t^2))", "--order", "4"
    )
    assert code == 0
    assert out == ""
    assert "1 0 1 0 1" in target.read_text()


def test_invariants_action_file(tmp_path, capsys):
    path = tmp_path / "so2.action"
    path.write_text("[action]\nname = so(5)\ndegree = 2\ngenerators = t1 t2\n\n"
                    "[gen]\n0 1\n1 0\n\n[gen]\n-1 0\n0 1\n")
    code, out, _ = run_cli(
        capsys,
        "invariants", "--group", "file:%s" % path, "--domain", "z", "--max-degree", "8",
    )
    assert code == 0
    assert "rank" in out


def test_unknown_builtin_chart_errors(capsys):
    code, _, err = run_cli(capsys, "ahss", "--chart", "nope", "--vmax", "1")
    assert code == 2
    assert err.startswith("error: unknown builtin chart 'nope'")


def test_builtin_chart_names_are_not_shadowed_by_files(tmp_path, monkeypatch, capsys):
    from weylchow.builtin import toy_killing_chart
    from weylchow.chart import serialize_chart

    (tmp_path / "spin7").write_text(serialize_chart(toy_killing_chart().chart))
    (tmp_path / "f4").mkdir()
    monkeypatch.chdir(tmp_path)
    want = run_cli(capsys, "ahss", "--chart", "toy-kill", "--vmax", "1")
    assert run_cli(capsys, "ahss", "--chart", "./spin7", "--vmax", "1") == want
    code, out, _ = run_cli(capsys, "ahss", "--chart", "spin7", "--vmax", "1")
    assert code == 0 and out.startswith("AHss for chart spin7 (p=2")
    code, out, _ = run_cli(capsys, "ahss", "--chart", "f4", "--vmax", "1", "--max-total", "8")
    assert code == 0 and out.startswith("AHss for chart f4 (p=3")


def test_internal_error_propagates(monkeypatch):
    import weylchow.cli as cli

    def broken(args):
        raise RuntimeError("a defect, not a refused input")

    monkeypatch.setattr(cli, "cmd_series", broken)
    with pytest.raises(RuntimeError, match="a defect"):
        main(["series", "--expr", "1/(1-t)", "--order", "2"])


@pytest.mark.parametrize("domain, code", [
    ("zlocal:4", 2), ("zlocal:9", 2), ("zlocal:2", 0), ("zlocal:3", 0), ("zlocal:5", 0),
])
def test_zlocal_needs_a_prime(capsys, domain, code):
    got, out, err = run_cli(
        capsys,
        "invariants", "--group", "so:3", "--domain", domain, "--max-degree", "12",
        "--series", "1/((1-t^4)(1-t^8)(1-t^12))",
    )
    assert got == code
    if code:
        assert err.startswith("error: Z_(p) needs a prime p") and not out
    else:
        assert "match" in out


def test_ahss_window_too_small_for_the_pages(capsys):
    code, out, err = run_cli(capsys, "ahss", "--chart", "spin7", "--window", "8", "--vmax", "5")
    assert code == 2
    assert "totals <=" not in out
    assert err.startswith("error: window 8 cannot hold the pages up to v_max = 5; "
                          "the smallest that can is 63")


def test_ahss_negative_max_total_refused(capsys):
    code, out, err = run_cli(capsys, "ahss", "--chart", "spin7", "--window", "20", "--vmax", "1",
                             "--max-total", "-3")
    assert code == 2
    assert "totals <=" not in out
    assert err.startswith("error: requested total degree -3 is negative")


def test_every_admitted_prime_is_a_domain(capsys):
    """7 does not divide |W(F_4)| = 1152, so the F_7 ranks are the rational ones."""
    ranks = {}
    for domain in ("q", "f7"):
        code, out, _ = run_cli(capsys, "--format", "records", "invariants", "--group", "f4",
                               "--domain", domain, "--max-degree", "12")
        assert code == 0
        ranks[domain] = [line.split("\t")[1:3] for line in out.splitlines()]
    assert ranks["f7"] == ranks["q"] and len(ranks["q"]) == 7
    for domain in ("f11", "f13"):
        assert run_cli(capsys, "invariants", "--group", "so:2", "--domain", domain,
                       "--max-degree", "8", "--series", "1/((1-t^4)(1-t^8))")[0] == 0


@pytest.mark.parametrize("domain", ["f17", "f4", "F1"])
def test_unadmitted_prime_refused(capsys, domain):
    code, out, err = run_cli(capsys, "invariants", "--group", "so:2", "--domain", domain,
                             "--max-degree", "4")
    assert code == 2 and out == ""
    assert err == "error: F_p supported only for p in (2, 3, 5, 7, 11, 13)\n"


def test_negative_max_degree_refused(capsys):
    code, out, err = run_cli(capsys, "invariants", "--group", "so:2", "--domain", "q",
                             "--max-degree", "-1")
    assert code == 2 and out == ""
    assert err == "error: --max-degree -1 is negative\n"


def test_dickson_verify_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dickson", "--h", "2", "--verify", "all"])
    assert exc.value.code == 2
