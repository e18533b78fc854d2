import random
import re

import pytest

from fp_reference import rank_fp
from weylchow.ahss import (
    AhssError,
    AhssResult,
    block_structure,
    collapse_to_chow,
    einfinity_summary,
    free_classes,
    permanent_cycle_check,
    run_ahss,
    v_degree,
    v_label,
)
from weylchow.builtin import spin7_chart, toy_free_chart, toy_killing_chart
from weylchow.chart import ChartError, build_chart, q_shift
from weylchow.linalg import FpSubspace
from weylchow.series import expand_series


def test_toy_free_collapses_at_e2():
    bc = toy_free_chart(window=12)
    res = run_ahss(bc.chart, v_max=1)
    col = collapse_to_chow(res)
    assert col.per_degree == {0: (1, 0), 6: (1, 0)}


def test_toy_killing_frozen_values():
    bc = toy_killing_chart(window=12)
    res = run_ahss(bc.chart, v_max=1)
    col = collapse_to_chow(res)
    # free tower survives as 2a; the torsion class b survives only at v-part 1,
    # at the odd total degree 9 (outside the Chow table)
    assert col.per_degree == {0: (1, 0), 6: (1, 0), 9: (0, 1)}
    assert col.details[6] == ["free: 2*a"]
    assert {n: v for n, v in col.per_degree.items() if n % 2} == {9: (0, 1)}


def test_toy_killing_einfinity_towers():
    bc = toy_killing_chart(window=12)
    res = run_ahss(bc.chart, v_max=1)
    summary = einfinity_summary(res)
    # b survives only in the v-part-1 column: the BP*/(p, v_1) pattern
    nine = summary[9]
    assert len(nine) == 1 and nine[0][0] == "1"
    # the free class persists in every v-column of total degree <= 6
    assert {lbl for lbl, _ in summary[6]} >= {"1"}


@pytest.mark.parametrize("fixture", ["spin7_ahss", "f4_ahss"])
def test_einfinity_summary_counts_the_block_structure_ranks(request, fixture):
    """The summary counts ranks without labelling; they are the ranks that
    block_structure finds, block by block."""
    res = request.getfixturevalue(fixture)
    want = {}
    for s, mu in res.keys():
        total = s + v_degree(res.chart.p, mu)
        st = block_structure(res, s, mu)
        if 0 <= total <= res.max_total and (st.free_rank or st.torsion_rank):
            want.setdefault(total, []).append((v_label(mu), st.free_rank, st.torsion_rank))
    summary = einfinity_summary(res)
    assert {total: [(lbl, st.free_rank, st.torsion_rank) for lbl, st in entries]
            for total, entries in summary.items()} == want
    assert not any(st.free_reps or st.torsion_reps for entries in summary.values()
                   for _, st in entries)


def test_toy_permanent_cycles():
    bc = toy_killing_chart(window=12)
    res = run_ahss(bc.chart, v_max=1)
    assert permanent_cycle_check(res, "2*a").permanent
    assert not permanent_cycle_check(res, "a").permanent
    assert not permanent_cycle_check(res, "v_1*a").permanent
    # the witness names the failing page and the block (s, mu) of the class
    a, v1a = permanent_cycle_check(res, "a"), permanent_cycle_check(res, "v_1*a")
    assert (a.stage, a.s, a.mu) == (1, 6, (0,))
    assert (v1a.stage, v1a.s, v1a.mu) == (1, 6, (1,))
    assert a.reason == v1a.reason == "fails to be a cycle under d = v_1 Q_1"
    assert permanent_cycle_check(res, "2*a").stage is None
    assert permanent_cycle_check(res, "b").permanent
    with pytest.raises(AhssError):
        permanent_cycle_check(res, "u")  # shadow class, not integral
    with pytest.raises(AhssError):
        permanent_cycle_check(res, "v_5*a")


def test_max_total_guard():
    bc = toy_killing_chart(window=12)
    with pytest.raises(AhssError):
        run_ahss(bc.chart, v_max=1, max_total=13)  # beyond the declared window
    # totals up to the window itself are exactly computable
    res = run_ahss(bc.chart, v_max=1, max_total=12)
    assert collapse_to_chow(res).per_degree[12] == (1, 0)  # a^2
    with pytest.raises(AhssError, match="requested total degree -1 is negative"):
        AhssResult(bc.chart, 1, -1)


def test_single_differential_oracle_random():
    """Charts with one nonzero Q_1: engine vs direct two-column homology.

    Free classes f_i (degree 6), shadow/torsion pairs (u_j, b_j = Q_0 u_j)
    with |b_j| = 9, and a random matrix C: Q_1(f_i) = sum_j C_ji b_j.  The
    collapse must show: free rank per degree from the f_i; all torsion of
    the b_j at v-part 1; and at (6 + 3, v_1) nothing new, since the new
    cycles dim-count dim ker + boundary bookkeeping cancels, which the
    direct computation below reproduces from C alone.
    """
    rng = random.Random(41)
    for trial in range(6):
        nf = rng.randint(1, 3)
        nt = rng.randint(1, 3)
        gens = []
        q0 = {}
        q1 = {}
        for i in range(nf):
            gens.append(("f%d" % i, 6))
        for j in range(nt):
            gens.append(("u%d" % j, 8))
            gens.append(("b%d" % j, 9))
            q0["u%d" % j] = "b%d" % j
        c_mat = [[rng.randint(0, 1) for _ in range(nf)] for _ in range(nt)]
        for i in range(nf):
            image_terms = [
                "b%d" % j for j in range(nt) if c_mat[j][i]
            ]
            if image_terms:
                q1["f%d" % i] = " + ".join(image_terms)
        chart = build_chart(
            "rand%d" % trial, 2, 13, tuple(gens), {0: q0, 1: q1}
        )
        res = run_ahss(chart, v_max=1, max_total=10)
        col = collapse_to_chow(res)
        rank_c = rank_fp(c_mat, 2)
        # degree 6: all free classes survive (as 2x when hit by the matrix)
        assert col.per_degree.get(6, (0, 0)) == (nf, 0)
        # degree 9 at v-part 1: every torsion class survives; none are hit yet
        assert col.per_degree.get(9, (0, 0)) == (0, nt)
        # new generators at (6, v_1): ker C gained against the v-predecessor:
        # dim K(v_1) - dim(W(v_1) + K(1)) = nf - (rank C + (nf - rank C)) = 0
        assert col.per_degree.get(7, (0, 0)) == (0, 0)
        # E_infinity at total 7 = (9, v_1): torsion killed by the image of C
        summary = einfinity_summary(res)
        seven = summary.get(7, [])
        got_tors = sum(st.torsion_rank for _, st in seven)
        assert got_tors == nt - rank_c


def test_spin7_window_guard(spin7_builtin):
    with pytest.raises(AhssError):
        run_ahss(spin7_builtin.chart, v_max=3, max_total=45)


def test_spin7_permanent_cycles(spin7_ahss):
    assert permanent_cycle_check(spin7_ahss, "2*e").permanent
    assert permanent_cycle_check(spin7_ahss, "v_1*e").permanent
    verdict = permanent_cycle_check(spin7_ahss, "e")
    assert not verdict.permanent and "v_2 Q_2" in verdict.reason


def test_spin7_collapse_matches_display(spin7_ahss):
    col = collapse_to_chow(spin7_ahss)
    free_want = expand_series("1/((1-t^4)(1-t^8)(1-t^12))", 28)
    tors_want = [
        a + b
        for a, b in zip(
            expand_series("t^6/((1-t^8)(1-t^12)(1-t^16))", 28),
            expand_series("t^14/((1-t^8)(1-t^12)(1-t^14)(1-t^16))", 28),
        )
    ]
    for n in range(29):
        assert col.per_degree.get(n, (0, 0)) == (free_want[n], tors_want[n]), n
    assert not any(n % 2 for n in col.per_degree)
    assert col.details[4] == ["free: 2*w_4"]
    assert col.details[6] == ["Z/2: w_8 (v-part v_1)"]


def test_free_classes_carry_their_coefficients():
    # Q_1 x = Q_1 y = w, a torsion class at p = 3: only y - x = y + 2x and
    # 3x stay free cycles.
    chart = build_chart("two-free", 3, 14, [("x", 4), ("y", 4), ("u", 8), ("w", 9, True)],
                        {0: {"u": "w"}, 1: {"x": "w", "y": "w"}})
    res = AhssResult(chart, 1)
    x, y = chart.resolve_name("x"), chart.resolve_name("y")
    coeffs = [{x: 2, y: 1}, {x: 3}]
    assert free_classes(res, 4, (0,)) == [[c.get(m, 0) for m in chart.basis_at(4)] for c in coeffs]
    assert block_structure(res, 4, (0,)).free_reps == ["y + 2*x", "3*x"]


def test_free_classes_are_vectors_under_the_labels(spin7_ahss):
    chart = spin7_ahss.chart
    monos = chart.basis_at(8)
    w4sq, w8 = chart.resolve_name("w_4^2"), chart.resolve_name("w_8")
    assert free_classes(spin7_ahss, 8, (0, 0, 0)) == [[int(m == w4sq) for m in monos],
                                                     [2 * (m == w8) for m in monos]]
    assert block_structure(spin7_ahss, 8, (0, 0, 0)).free_reps == ["w_4^2", "2*w_8"]


def test_boundaries_inside_cycles(spin7_ahss):
    # spot-check the page invariant B <= K on nonempty blocks
    count = 0
    for k_bar, w_bar in spin7_ahss.blocks.values():
        for w in w_bar:
            assert k_bar.contains(w)
            count += 1
        if count > 500:
            break


def test_each_page_state_is_checked_once(spin7_ahss):
    """The blocks of one (s, v-support) share one checked state, so the
    1,258 keys of window 32 need 245 checks; keys() at max_total 28 has
    more keys than states too."""
    keys = spin7_ahss.keys()
    states = {(s, tuple(map(bool, mu))) for s, mu in keys}
    assert set(spin7_ahss._pages) == states and len(states) < len(keys)
    for s, mu in keys:
        assert spin7_ahss.blocks[s, mu] is spin7_ahss._pages[s, tuple(map(bool, mu))]
    result = AhssResult(spin7_chart(window=32).chart, v_max=3)
    assert (len(result.keys()), len({(s, tuple(map(bool, mu))) for s, mu in result.keys()})
            ) == (1258, 245)


def test_inconsistent_page_fails_at_each_key_read(monkeypatch):
    """A boundary outside the cycles raises at the key read, after the
    Q_i^2 diagnosis, and again at the next key of the same state: a failed
    state is not kept."""
    import weylchow.ahss as ahss_mod

    result = AhssResult(spin7_chart(window=32).chart, v_max=3)
    sigma = (True, False, False)
    result._k[3, 4, sigma[:2]] = FpSubspace(2)
    result._w[3, 4, sigma] = FpSubspace(2, [1])
    diagnosed = []
    monkeypatch.setattr(ahss_mod, "check_q_squares", lambda chart, top: diagnosed.append(top))
    for mu in [(1, 0, 0), (2, 0, 0)]:
        with pytest.raises(AhssError, match=re.escape("(s=4, %s): boundary outside" % v_label(mu))):
            result.block(4, mu)
    assert diagnosed == [4 + 2 * q_shift(2, 3)] * 2 and not result.blocks and not result._pages


def test_page_monotonicity(spin7_ahss):
    """Cycles shrink and boundaries grow along the stages, per block."""
    for (s, mu) in spin7_ahss.keys()[:80]:
        sigma = tuple(e > 0 for e in mu)
        dims_k = [len(spin7_ahss.k(stage, s, sigma)) for stage in range(4)]
        assert dims_k == sorted(dims_k, reverse=True)
        dims_w = [len(spin7_ahss.w(stage, s, sigma)) for stage in range(4)]
        assert dims_w == sorted(dims_w)


def test_v_multiplication_monotone(spin7_ahss):
    """K grows along multiplication by v_i (cycles stay cycles)."""
    checked = 0
    for (s, mu), (k_bar, _w_bar) in sorted(spin7_ahss.blocks.items()):
        for i in range(3):
            deeper = spin7_ahss.blocks.get((s, mu[:i] + (mu[i] + 1,) + mu[i + 1:]))
            if deeper is None:
                continue
            for vec in k_bar:
                assert deeper[0].contains(vec)
            checked += 1
        if checked > 150:
            break
    assert checked > 0


def test_q_square_below_window_named():
    # build_chart checks Q_1^2 = 0 where source and target lie in the window;
    # Q_1^2 a0 = a1*b0 + a0*b1 lies in degree 8, just above it
    chart = build_chart(
        "q1-square", 2, 7, (("a0", 2), ("b0", 3, True), ("a1", 5), ("b1", 6)),
        {0: {"a0": "b0", "a1": "b1"}, 1: {"a0": "a0*b0 + a1", "b0": "b1"}},
    )
    with pytest.raises(ChartError, match="Q_1 does not square to zero at degree 2"):
        run_ahss(chart, 1)
