"""Pinned outputs of the exact simplex on degenerate LPs.

The restricted masters of ``exact_pack`` and the oracle LPs are degenerate:
many optimal vertices exist, and which one ``solve_lp`` returns depends on
the whole pivot sequence (Bland's rule, ties broken on the smallest basis
index).  The pins are the vertices the textbook rational tableau reaches
under those rules from the slack basis.  Any change to the starting basis,
the pivot rule or the ratio test shows up here as a different tree set,
weight vector or dual vector, even when the optimum value is unchanged.
The pivot and rewind counts of the column generations and of the oracle's
forest LP are pinned as well, so a change that moves Bland's path fails
even where no vertex moves.
"""

import random
from fractions import Fraction

import pytest

import kcut.packing as packing_mod
import kcut.simplex as simplex_mod
from kcut import Edge, Graph, parse_graph
from kcut.lp import dual_packing, lp_dual
from kcut.oracle import ForestLP, spanning_forests
from kcut.packing import exact_pack
from kcut.strength import principal_sequence
from kcut.simplex import solve_lp

from conftest import C5_TEXT, K4_TEXT, TT_TEXT, _planted, _random_connected

F = Fraction


def _complete(n):
    return Graph(n, tuple(Edge(u, v, F(1)) for u in range(n) for v in range(u + 1, n)))


def _cycle(n):
    return Graph(n, tuple(Edge(i, (i + 1) % n, F(1)) for i in range(n)))


EXACT_PACK_PINS = {
    "K5": (
        _complete(5),
        [
            ((0, 1, 2, 6), "1/8"),
            ((0, 4, 5, 6), "1/4"),
            ((0, 4, 8, 9), "5/8"),
            ((1, 2, 3, 4), "1/8"),
            ((1, 2, 5, 9), "1/8"),
            ((1, 3, 6, 9), "1/4"),
            ((1, 6, 7, 8), "3/8"),
            ((2, 3, 5, 7), "5/8"),
        ],
    ),
    "K6": (
        _complete(6),
        [
            ((0, 1, 2, 3, 8), "1/54"),
            ((0, 1, 2, 3, 11), "1/18"),
            ((0, 1, 2, 4, 7), "1/27"),
            ((0, 1, 3, 4, 6), "11/54"),
            ((0, 2, 3, 4, 5), "1/27"),
            ((0, 2, 7, 9, 11), "8/27"),
            ((0, 5, 8, 10, 12), "19/54"),
            ((1, 2, 6, 12, 14), "2/9"),
            ((1, 5, 6, 7, 11), "13/54"),
            ((1, 7, 8, 9, 10), "2/9"),
            ((2, 3, 4, 6, 9), "1/9"),
            ((2, 6, 10, 12, 13), "2/9"),
            ((3, 4, 7, 10, 12), "11/54"),
            ((3, 5, 9, 13, 14), "10/27"),
            ((4, 8, 11, 13, 14), "11/27"),
        ],
    ),
    # every 11-edge path of the 12-cycle, each at weight 1/11
    "C12": (
        _cycle(12),
        [(tuple(e for e in range(12) if e != skip), "1/11") for skip in range(11, -1, -1)],
    ),
}


@pytest.mark.parametrize("name", sorted(EXACT_PACK_PINS))
def test_exact_pack_pinned(name):
    g, expected = EXACT_PACK_PINS[name]
    packing = exact_pack(principal_sequence(g))
    got = [(t, str(w)) for t, w in zip(packing.trees, packing.weights)]
    assert got == expected


def _oracle_lp(g, k):
    """The LP ``oracle_lp_value`` solves on a connected graph (right-hand
    side k - 1): y per forest, then z per edge."""
    forests = spanning_forests(g)
    obj = [k - 1] * len(forests) + [-1] * g.m
    rows = [
        [1 if eid in f else 0 for f in forests] + [-1 if e == eid else 0 for e in range(g.m)]
        for eid in range(g.m)
    ]
    return obj, rows, [e.cap for e in g.edges]


@pytest.mark.parametrize(
    "text, x, duals",
    [
        (
            TT_TEXT,
            ["0", "0", "1/2", "0", "1/2", "0", "1/2", "0", "0"] + ["0"] * 6 + ["1/2"],
            ["1/2", "1/2", "1/2", "0", "0", "0", "1"],
        ),
        (C5_TEXT, ["1/4"] * 5 + ["0"] * 5, ["1/2"] * 5),
    ],
    ids=["TT", "C5"],
)
def test_oracle_lp_vertex_pinned(text, x, duals):
    """The full primal and dual vertex of the k=3 oracle LP, not just its value."""
    res = solve_lp(*_oracle_lp(parse_graph(text), 3))
    assert res.value == F(5, 2)
    assert [str(v) for v in res.x] == x
    assert [str(v) for v in res.duals] == duals


def _recorded_tableaus(monkeypatch):
    """Every tableau the column generation builds, from now on."""
    built = []

    class Recording(simplex_mod.Tableau):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(packing_mod, "Tableau", Recording)
    return built


# (pivots, rewinds) of exact_pack's one tableau
EXACT_PACK_PATHS = {
    "K5": (_complete(5), 26, 3),
    "K6": (_complete(6), 62, 7),
    "C12": (_cycle(12), 12, 0),
    "rand-n16-x16": (_random_connected(random.Random(16), 16, 16), 37, 9),
}


@pytest.mark.parametrize("name", sorted(EXACT_PACK_PATHS))
def test_exact_pack_pivot_path_pinned(name, monkeypatch):
    g, pivots, rewinds = EXACT_PACK_PATHS[name]
    built = _recorded_tableaus(monkeypatch)
    exact_pack(principal_sequence(g))
    assert [(t.pivots, t.rewinds) for t in built] == [(pivots, rewinds)]


def test_dual_packing_pivot_path_pinned(monkeypatch):
    """The c+z column generation of planted-k4-s4 at k = 4."""
    g = _planted(4, 4)
    built = _recorded_tableaus(monkeypatch)
    dual_packing(g, lp_dual(principal_sequence(g), 4))
    assert [(t.pivots, t.rewinds) for t in built] == [(4, 0)]


@pytest.mark.parametrize(
    "text, path",
    [
        (TT_TEXT, [(5, 0), (5, 0), (9, 0), (9, 0), (10, 0), (10, 0)]),
        (C5_TEXT, [(5, 0)] * 5),
        (K4_TEXT, [(12, 0)] * 4),
    ],
    ids=["TT", "C5", "K4"],
)
def test_forest_lp_pivot_path_pinned(text, path):
    """(pivots, rewinds) of the oracle's one tableau after the packing LP,
    then after each k from 2 to n, as ``verify`` asks them."""
    g = parse_graph(text)
    lp = ForestLP(g)
    lp.treepack()
    got = [(lp.tableau.pivots, lp.tableau.rewinds)]
    for k in range(2, g.n + 1):
        lp.lp_value(k)
        got.append((lp.tableau.pivots, lp.tableau.rewinds))
    assert got == path
