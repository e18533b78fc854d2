from fractions import Fraction

import pytest

import weylchow.groups as groups_mod
from weylchow.groups import (
    GroupAction,
    GroupError,
    build_gl,
    build_weyl_f4,
    build_weyl_so,
    build_weyl_spin,
    enumerate_group,
    mat_identity,
    parse_action,
    spin_base_change,
)


def test_s1pm_order_two():
    assert build_weyl_so(1).order == 2


def test_s2pm_order_eight():
    assert len(enumerate_group(build_weyl_so(2))) == 8


def test_s3pm_order():
    assert build_weyl_so(3).order == 48


def test_orders_at_the_rational_bounds():
    # as large as a finite subgroup of GL_5(Q) and GL_4(Q) can be: the walk stops past them
    assert build_weyl_so(5).order == groups_mod._RATIONAL_BOUND[5] == 3840
    assert build_weyl_f4().order == groups_mod._RATIONAL_BOUND[4] == 1152


def test_identity_only_action():
    action = GroupAction("trivial", ("t1",), 2, (mat_identity(1),))
    assert action.order == 1


def test_gl_orders():
    assert build_gl(1).order == 1
    assert build_gl(2).order == 6
    assert build_gl(3).order == 168
    assert build_gl(4).order == 20160


def test_closure_bound_enforced(monkeypatch):
    monkeypatch.setattr(groups_mod, "_ELEMENT_BOUND", 10)
    with pytest.raises(GroupError):
        enumerate_group(build_weyl_so(3))


def test_spin_base_change_hand_computed():
    # sign change on t_3 in the basis (t1, t2, gamma): gamma -> t1 + t2 - gamma
    from weylchow.groups import _freeze, _invert, mat_mul

    p_mat = _freeze(spin_base_change(3))
    p_inv = _invert(p_mat)
    sign_t3 = _freeze([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    conj = mat_mul(p_inv, mat_mul(sign_t3, p_mat))
    assert all(x.denominator == 1 for row in conj for x in row)
    gamma_image = [conj[i][2] for i in range(3)]
    assert gamma_image == [Fraction(1), Fraction(1), Fraction(-1)]
    # and the sign change lands in the generated group
    spin = build_weyl_spin(3)
    assert conj in spin.elements()


def test_spin_order_matches_so():
    assert build_weyl_spin(3).order == 48


def test_spin_rank_guard():
    with pytest.raises(GroupError):
        build_weyl_spin(1)


def test_f4_order_and_involutions():
    f4 = build_weyl_f4()
    assert f4.order == 1152
    from weylchow.groups import mat_mul

    for m in f4.matrices:
        assert mat_mul(m, m) == mat_identity(4)


SO2_ACTION = """[action]
name = so(5)
degree = 2
generators = t1 t2

[gen]
0 1
1 0

[gen]
-1 0
0 1
"""

GL2_ACTION = """[action]
name = gl(2)
degree = 1
generators = x1 x2
mod = 2

[gen]
0 1
1 0

[gen]
1 0
1 1
"""

F4_ACTION = """[action]
name = weyl(f4)
degree = 2
generators = t1 t2 t3 t4

[gen]
1 0 0 0
0 0 1 0
0 1 0 0
0 0 0 1

[gen]
1 0 0 0
0 1 0 0
0 0 0 1
0 0 1 0

[gen]
1 0 0 0
0 1 0 0
0 0 1 0
0 0 0 -1

[gen]
1/2 1/2 1/2 1/2
1/2 1/2 -1/2 -1/2
1/2 -1/2 1/2 -1/2
1/2 -1/2 -1/2 1/2
"""


def test_action_file_gives_the_builders_action():
    for action, text in ((build_weyl_so(2), SO2_ACTION), (build_gl(2), GL2_ACTION),
                         (build_weyl_f4(), F4_ACTION)):
        back = parse_action(text)
        assert back.gen_names == action.gen_names
        assert back.gen_degree == action.gen_degree
        assert back.matrices == action.matrices
        assert back.mod == action.mod


def test_singular_matrix_rejected():
    with pytest.raises(GroupError):
        GroupAction("bad", ("a", "b"), 2, (((1, 1), (1, 1)),))


def _reference_closure(action, bound):
    """Closure over Fraction matrices, reduced mod action.mod when it is set."""

    def reduce(m):
        if action.mod is None:
            return m
        return tuple(tuple(Fraction(int(x) % action.mod) for x in row) for row in m)

    from weylchow.groups import mat_mul

    ident = mat_identity(len(action.gen_names))
    seen, frontier = {ident}, [ident]
    while frontier:
        new_frontier = []
        for m in frontier:
            for g in action.matrices:
                prod = reduce(mat_mul(m, g))
                if prod not in seen:
                    seen.add(prod)
                    new_frontier.append(prod)
                    if len(seen) > bound:
                        raise GroupError("group closure exceeds bound %d" % bound)
        frontier = new_frontier
    return sorted(seen)


def _conjugated_so7():
    # S^-1 g S for the signed permutations g of so(7): denominators 2, 3, 6
    from weylchow.groups import _freeze, _invert, mat_mul

    s = _freeze([[1, 1, 0], [0, 2, 1], [0, 0, 3]])
    s_inv = _invert(s)
    mats = tuple(mat_mul(s_inv, mat_mul(m, s)) for m in build_weyl_so(3).matrices)
    return GroupAction("so(7)^S", ("t1", "t2", "t3"), 2, mats)


@pytest.mark.parametrize("build, order", [
    (lambda: build_weyl_so(2), 8),
    (lambda: build_weyl_spin(3), 48),
    (lambda: build_gl(3), 168),
    (build_weyl_f4, 1152),
    (_conjugated_so7, 48),
    (lambda: GroupAction("gl2(f3)", ("x1", "x2"), 2, (((1, 1), (0, 1)), ((0, 1), (1, 0))), mod=3),
     48),
])
def test_integer_closure_matches_fraction_closure(build, order, monkeypatch):
    action = build()
    monkeypatch.setattr(groups_mod, "_ELEMENT_BOUND", order)
    got = enumerate_group(action)
    assert got == _reference_closure(action, order)
    assert len(got) == order
    assert all(type(x) is Fraction for m in got for row in m for x in row)
    monkeypatch.setattr(groups_mod, "_ELEMENT_BOUND", order - 1)
    with pytest.raises(GroupError, match="exceeds bound %d" % (order - 1)):
        enumerate_group(action)


def test_coset_walk_bound_enforced(monkeypatch):
    # W(F_4) has 3 cosets of its 384 signed permutations
    monkeypatch.setattr(groups_mod, "_ELEMENT_BOUND", 2)
    with pytest.raises(GroupError, match="exceeds bound 2"):
        build_weyl_f4().stabilizer()
    monkeypatch.setattr(groups_mod, "_ELEMENT_BOUND", 3)
    assert len(build_weyl_f4().stabilizer()) == 4


@pytest.mark.parametrize("header", ["[gen", "[action"])
def test_unclosed_section_header_refused(header):
    text = "[action]\ngenerators = a\ndegree = 2\n\n\n%s\n1\n" % header
    with pytest.raises(GroupError, match="^line 6: malformed section header$"):
        parse_action(text)
