"""Minimum k-cut values above the partition oracle's reach, against an
independent exact reference: a 0/1 program solved by HiGHS through
``scipy.optimize.milp``.  x[v, p] puts vertex v in part p, every part is
nonempty and vertex v sits in a part p <= v (the parts ordered by their
least vertices), and y_e >= |x_up - x_vp| for every part p marks a cut
edge.  The objective is c.y over ``scaled_capacities``, so its optimum is
an int, compared exactly with kcut's value.

A reported minimizer whose parts are connected is the partition into the
components of g less its cut edges, so a no-good on y excludes exactly it.
With one per reported minimizer, a strictly larger next optimum shows that
kcut reported every minimizer."""

import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from kcut.cuts import min_kcut
from kcut.graph import Graph, component_blocks, crossing_edges, scaled_capacities
from kcut.oracle import oracle_min_kcut
from kcut.strength import principal_sequence

from conftest import _random_connected


def milp_min_kcut(g: Graph, k: int, exclude=()) -> Fraction:
    """The minimum k-cut value of g, solved to optimality as a 0/1 program;
    each edge set of ``exclude`` gets a no-good: some y_e differs from its
    indicator."""
    n, m = g.n, g.m
    caps, scale = scaled_capacities(g)
    y0 = n * k  # x[v, p] at column v * k + p, then y_e at column y0 + e

    def x(v, p):
        return v * k + p

    rows, lb, ub = [], [], []

    def constrain(coefs, low, high):
        row = np.zeros(y0 + m)
        for col, coef in coefs:
            row[col] += coef
        rows.append(row)
        lb.append(low)
        ub.append(high)

    for v in range(n):
        constrain([(x(v, p), 1) for p in range(k)], 1, 1)
    for p in range(k):
        constrain([(x(v, p), 1) for v in range(n)], 1, np.inf)
    for eid, e in enumerate(g.edges):
        for p in range(k):
            for a, b in ((e.u, e.v), (e.v, e.u)):
                constrain([(y0 + eid, 1), (x(a, p), -1), (x(b, p), 1)], 0, np.inf)
    for cut in exclude:
        constrain([(y0 + eid, -1 if eid in cut else 1) for eid in range(m)], 1 - len(cut), np.inf)
    upper = np.ones(y0 + m)
    for v in range(n):
        for p in range(v + 1, k):
            upper[x(v, p)] = 0
    res = milp(
        c=np.concatenate([np.zeros(y0), np.array(caps, dtype=float)]),
        constraints=LinearConstraint(np.array(rows), lb, ub),
        integrality=np.concatenate([np.ones(y0), np.zeros(m)]),
        bounds=Bounds(np.zeros(y0 + m), upper),
        options={"mip_rel_gap": 0},
    )
    assert res.success, res.message
    value = round(res.fun)
    assert abs(res.fun - value) < 1e-6
    return Fraction(value, scale)


VALUES = {(12, 4): 39, (14, 3): 16, (14, 8): 116, (16, 3): 20, (20, 3): 19, (20, 4): 31, (30, 3): 23}


@pytest.mark.parametrize(
    "n,k,eps",
    [(12, 4, None), (14, 3, None), (16, 3, None), (20, 3, Fraction(1, 6)), (30, 3, Fraction(1, 6))]
    + [(20, 3, None), (20, 4, None), (30, 3, None), (14, 8, None)],
)
def test_min_kcut_matches_the_milp_reference(n, k, eps):
    g = _random_connected(random.Random(n), n, 2 * n)
    best, _ = min_kcut(principal_sequence(g), k, eps=eps)
    assert best.part_count >= k
    assert best.crossing_value == milp_min_kcut(g, k) == VALUES[n, k]


@pytest.mark.parametrize("n,k", [(12, 4), (20, 3)])
def test_exact_minimizers_match_the_milp_reference(n, k):
    g = _random_connected(random.Random(n), n, 2 * n)
    _, report = min_kcut(principal_sequence(g), k)
    cuts = []
    for cut in report.cuts:
        crossing = crossing_edges(g, cut.block_of(n))
        assert len(component_blocks(g, exclude_edges=crossing)) == cut.part_count  # connected parts
        cuts.append(set(crossing))
    assert milp_min_kcut(g, k, exclude=cuts) > report.min_value
    assert milp_min_kcut(g, k, exclude=cuts[1:]) == report.min_value  # the first minimizer is still there


@pytest.mark.parametrize("seed", range(3))
def test_the_milp_reference_matches_the_partition_oracle(seed):
    """The reference itself, on graphs the oracle reaches, with rational
    capacities so that the scaling is read."""
    g = _random_connected(random.Random(100 + seed), 7, 6)
    g = Graph(g.n, tuple(e._replace(cap=e.cap / (1 + i % 3)) for i, e in enumerate(g.edges)))
    for k in range(2, g.n):
        best, _ = oracle_min_kcut(g, k)
        assert milp_min_kcut(g, k) == best.crossing_value
