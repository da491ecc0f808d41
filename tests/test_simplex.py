from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from kcut.simplex import LpUnbounded, Tableau, solve_lp

F = Fraction


def test_basic_max():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6
    res = solve_lp([1, 1], [[1, 2], [3, 1]], [4, 6])
    assert res.value == F(14, 5)
    assert res.x == [F(8, 5), F(6, 5)]


def test_duals_certify_optimum():
    c = [F(3), F(5)]
    rows = [[1, 0], [0, 2], [3, 2]]
    rhs = [F(4), F(12), F(18)]
    res = solve_lp(c, rows, rhs)
    assert res.value == F(36)
    # weak duality holds with equality at the optimum
    assert sum(d * b for d, b in zip(res.duals, rhs)) == res.value
    assert all(d >= 0 for d in res.duals)
    for j in range(2):
        assert sum(res.duals[i] * rows[i][j] for i in range(3)) >= c[j]


def test_unbounded():
    with pytest.raises(LpUnbounded):
        solve_lp([1], [[-1]], [1])


def test_negative_rhs_rejected():
    # x >= 1 written as -x <= -1: the slack basis is infeasible
    with pytest.raises(ValueError, match="negative"):
        solve_lp([-1], [[-1]], [-1])


def test_degenerate_cycling_guard():
    # classic Beale-style degeneracy; Bland's rule must terminate
    c = [F(3, 4), -150, F(1, 50), -6]
    rows = [
        [F(1, 4), -60, F(-1, 25), 9],
        [F(1, 2), -90, F(-1, 50), 3],
        [0, 0, 1, 0],
    ]
    res = solve_lp(c, rows, [0, 0, 1])
    assert res.value == F(1, 20)


# -- exact optimality certificates on random small LPs ----------------------

_coef = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _lps(draw):
    nvar = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    c = draw(st.lists(_coef, min_size=nvar, max_size=nvar))
    rows = draw(st.lists(st.lists(_coef, min_size=nvar, max_size=nvar), min_size=m, max_size=m))
    # b = 0 rows make the start degenerate; negative coefficients leave
    # some of these LPs unbounded
    rhs = draw(
        st.lists(st.fractions(min_value=0, max_value=4, max_denominator=3), min_size=m, max_size=m)
    )
    return c, rows, rhs


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_lps())
def test_solved_lps_carry_exact_certificates(lp):
    """Primal and dual feasibility, dual signs, strong duality and
    complementary slackness, all checked in exact arithmetic."""
    c, rows, rhs = lp
    try:
        res = solve_lp(c, rows, rhs)
    except LpUnbounded:
        return
    x, y = res.x, res.duals
    nvar, m = len(c), len(rows)
    assert all(isinstance(v, Fraction) for v in x + y + [res.value])
    # primal feasibility
    assert all(v >= 0 for v in x)
    act = [sum((a * v for a, v in zip(row, x)), F(0)) for row in rows]
    assert all(a <= b for a, b in zip(act, rhs))
    # dual feasibility: y >= 0 and y.A >= c, since x >= 0
    assert all(yi >= 0 for yi in y)
    red = [sum((y[i] * rows[i][j] for i in range(m)), F(0)) - c[j] for j in range(nvar)]
    assert all(r >= 0 for r in red)
    # strong duality
    assert res.value == sum((cj * v for cj, v in zip(c, x)), F(0))
    assert res.value == sum((yi * b for yi, b in zip(y, rhs)), F(0))
    # complementary slackness
    assert all(yi * (a - b) == 0 for yi, a, b in zip(y, act, rhs))
    assert all(v * r == 0 for v, r in zip(x, red))


# -- the warm tableau against cold solves ------------------------------------

_mixed = st.one_of(st.integers(-3, 3), _coef)


@st.composite
def _tableau_runs(draw):
    """A small LP with b >= 0 and int and Fraction coefficients, then a
    sequence of steps: ("add", column, cost) or ("objective", c)."""
    nvar = draw(st.integers(0, 3))
    m = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_mixed, min_size=nvar, max_size=nvar), min_size=m, max_size=m))
    rhs = draw(st.lists(st.one_of(st.integers(0, 4), st.fractions(0, 4, max_denominator=3)), min_size=m, max_size=m))
    steps, width = [], nvar
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            steps.append(("add", draw(st.lists(_mixed, min_size=m, max_size=m)), draw(_mixed)))
            width += 1
        else:
            steps.append(("objective", draw(st.lists(_mixed, min_size=width, max_size=width))))
    return rows, rhs, steps


def _assert_certificate(res, c, rows, rhs):
    """x and the duals prove each other optimal: Ax <= b, x >= 0, y >= 0,
    c - yA <= 0 and c.x = y.b, in exact arithmetic."""
    x, y = res.x, res.duals
    assert all(isinstance(v, Fraction) for v in x + y + [res.value])
    assert all(v >= 0 for v in x) and all(v >= 0 for v in y)
    for row, b in zip(rows, rhs):
        assert sum((a * v for a, v in zip(row, x)), F(0)) <= b
    for j, cj in enumerate(c):
        assert cj - sum((yi * row[j] for yi, row in zip(y, rows)), F(0)) <= 0
    assert res.value == sum((cj * v for cj, v in zip(c, x)), F(0))
    assert res.value == sum((yi * b for yi, b in zip(y, rhs)), F(0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_tableau_runs())
def test_warm_tableau_matches_cold_solves(run):
    """After every add_column or set_objective, a solve from the current
    basis reaches the value of a cold solve_lp of the same LP, with an
    exact certificate, or both report the LP unbounded."""
    rows, rhs, steps = run
    rows = [list(r) for r in rows]
    t = Tableau(rows, rhs)
    c = [F(0)] * len(rows[0])
    for step in steps:
        if step[0] == "add":
            _, column, cost = step
            t.add_column(column, cost)
            for row, a in zip(rows, column):
                row.append(a)
            c.append(cost)
        else:
            c = step[1]
            t.set_objective(c)
        try:
            cold = solve_lp(c, rows, rhs)
        except LpUnbounded:
            with pytest.raises(LpUnbounded):
                t.solve()
            continue
        warm = t.solve()
        assert warm.value == cold.value
        _assert_certificate(warm, c, rows, rhs)


def test_tableau_counts_pivots_and_checks_the_objective():
    t = Tableau([[1, 2], [3, 1]], [4, 6])
    t.set_objective([1, 1])
    assert t.solve().value == F(14, 5) and t.pivots == 2
    assert t.solve().value == F(14, 5) and t.pivots == 2  # already optimal
    t.add_column([1, 1], 2)  # a third variable, before the slacks
    assert t.solve().x == [0, 0, F(4)]
    with pytest.raises(ValueError, match="objective has 2 entries for 3 variables"):
        t.set_objective([1, 1])


# -- column generation on one tableau against cold solves --------------------

_entry = st.one_of(st.sampled_from([0, 1]), st.integers(-3, 3), _coef)


@st.composite
def _column_runs(draw):
    """A small LP with b >= 0 and 0/1, int and Fraction coefficients, its
    objective, then the columns to add one at a time, each with its cost."""
    nvar = draw(st.integers(0, 3))
    m = draw(st.integers(2, 5))
    rows = draw(st.lists(st.lists(_entry, min_size=nvar, max_size=nvar), min_size=m, max_size=m))
    rhs = draw(
        st.lists(st.one_of(st.integers(0, 3), st.fractions(0, 3, max_denominator=3)), min_size=m, max_size=m)
    )
    c = draw(st.lists(_entry, min_size=nvar, max_size=nvar))
    column = st.tuples(st.lists(_entry, min_size=m, max_size=m), _entry)
    columns = draw(st.lists(column, min_size=1, max_size=8))
    return rows, rhs, c, columns


def _cold(c, rows, rhs):
    """A tableau solved from the slack basis, as ``solve_lp`` solves it, with
    its result, or None when the LP is unbounded."""
    t = Tableau(rows, rhs)
    t.set_objective(c)
    try:
        return t, t.solve()
    except LpUnbounded:
        return t, None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_column_runs())
def test_grown_tableau_ends_where_a_cold_solve_ends(run):
    """Column by column, the grown tableau takes the pivot path of a cold
    solve over all of its columns: after each solve the basis, x and the
    duals are the cold ones (or both are unbounded), in no more pivots than
    the cold solves summed."""
    rows, rhs, c, columns = run
    rows, c = [list(r) for r in rows], list(c)
    t = Tableau(rows, rhs)
    t.set_objective(c)
    cold_pivots = 0
    for step in range(len(columns) + 1):
        if step:
            column, cost = columns[step - 1]
            rewinds = t.rewinds
            t.add_column(column, cost)
            event("rewind" if t.rewinds > rewinds else "append")
            for row, a in zip(rows, column):
                row.append(a)
            c.append(cost)
        cold_t, cold = _cold(c, rows, rhs)
        cold_pivots += cold_t.pivots
        if cold is None:
            with pytest.raises(LpUnbounded):
                t.solve()
        else:
            assert t.solve() == cold
            assert cold == solve_lp(c, rows, rhs)
        assert t.basis == cold_t.basis
        assert t.pivots <= cold_pivots


def test_add_column_rewinds_to_the_slack_step_it_changes():
    """max 2x1 + 3x2 s.t. x1 <= 1, x1 + x2 <= 1.  Bland's rule enters x1,
    then x2 (a degenerate pivot), then slack 0 under the duals (-1, 3), and
    stops at x = (0, 1) with duals (0, 3).  The column (1, 1) of cost 3
    prices 0 there but 1 under (-1, 3), so a cold solve of the three-column
    LP enters it instead of slack 0 and stops at x = (0, 0, 1)."""
    rows, rhs = [[1, 0], [1, 1]], [1, 1]
    t = Tableau(rows, rhs)
    t.set_objective([2, 3])
    assert t.solve().x == [0, 1] and t.pivots == 3
    t.add_column([1, 1], 3)
    assert t.rewinds == 1
    grown = t.solve()
    cold_t, cold = _cold([2, 3, 3], [[1, 0, 1], [1, 1, 1]], rhs)
    assert grown == cold == solve_lp([2, 3, 3], [[1, 0, 1], [1, 1, 1]], rhs)
    assert grown.x == [0, 0, 1] and t.basis == cold_t.basis
    assert t.pivots == 3 + 1 and cold_t.pivots == 3


def test_add_column_after_set_objective_never_rewinds():
    """``set_objective`` drops the checkpoints and starts a new path at the
    current basis, as in the forest-LP oracle's re-optimisation per k, so
    the column of the test above joins the optimum, where it prices 0, and
    the vertex stays."""
    t = Tableau([[1, 0], [1, 1]], [1, 1])
    t.set_objective([2, 3])
    t.solve()
    t.set_objective([2, 3])
    t.add_column([1, 1], 3)
    assert t.rewinds == 0
    res = t.solve()
    assert res.x == [0, 1, 0] and res.value == 3 and t.pivots == 3
