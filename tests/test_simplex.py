from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcut.simplex import LpUnbounded, solve_lp

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
