import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcut.packing as packing_mod
import kcut.simplex as simplex_mod
from kcut import (
    Edge,
    Graph,
    PackConfig,
    SaturationError,
    contract_partition,
    dual_packing,
    exact_pack,
    lp_dual,
    min_spanning_forest,
    mincut_respect_bound,
    mwu_pack,
    oracle_min_kcut,
    oracle_treepack,
    parse_graph,
    principal_sequence,
    respect_stats,
    saturating_pack,
    strength,
)
from kcut.graph import component_blocks
from kcut.simplex import solve_lp

from conftest import TT_BRIDGE, TT_TEXT, edge_ids_of_partition, full_suite

F = Fraction


def test_msf_tie_break(c5):
    assert min_spanning_forest(c5, [1] * 5) == (0, 1, 2, 3)


def test_msf_prefers_cheap_bridge(tt):
    weights = [1] * 7
    weights[TT_BRIDGE] = 0
    forest = min_spanning_forest(tt, weights)
    assert TT_BRIDGE in forest
    assert sum(weights[i] for i in forest) == 4


def test_msf_disconnected():
    g = parse_graph("p kcut 4 2\ne 1 2 1\ne 3 4 1\n")
    assert len(min_spanning_forest(g, [1, 1])) == 2  # n - 2 for two components


def test_exact_pack_fixtures(c5, tt, e1):
    p = exact_pack(principal_sequence(c5))
    assert p.total_value == F(5, 4)
    assert len(p.trees) <= c5.m
    p = exact_pack(principal_sequence(tt))
    assert p.total_value == 1
    p = exact_pack(principal_sequence(e1))
    assert p.total_value == 5 and p.trees == ((0,),) and p.weights == (F(5),)


def test_exact_pack_matches_oracle():
    for name, g in full_suite()[:25]:
        if g.m == 0:
            continue
        assert exact_pack(principal_sequence(g)).total_value == oracle_treepack(g), name


def test_exact_pack_feasible_and_small_support():
    for name, g in full_suite()[:25]:
        p = exact_pack(principal_sequence(g))
        assert len(p.trees) <= g.m, name
        loads = p.loads()
        for eid, cap in p.caps.items():
            assert loads[eid] <= cap, name
        for tree in p.trees:
            assert len(tree) == g.n - len(component_blocks(g)), name


@pytest.mark.parametrize("eps", [F(1, 5), F(1, 10), F(1, 20)])
def test_mwu_meets_contract(eps, e1, c5, k4):
    assert mwu_pack(e1, config=PackConfig(epsilon=eps)).total_value >= (1 - eps) * 5
    assert mwu_pack(c5, config=PackConfig(epsilon=eps)).total_value >= (1 - eps) * F(5, 4)
    assert mwu_pack(k4, config=PackConfig(epsilon=eps)).total_value >= (1 - eps) * 2


def test_mwu_contract_on_suite():
    eps = F(1, 10)
    for name, g in full_suite()[:20]:
        packing = mwu_pack(g, config=PackConfig(epsilon=eps))
        exact = exact_pack(principal_sequence(g)).total_value
        assert packing.total_value >= (1 - eps) * exact, name
        loads = packing.loads()
        for eid, cap in packing.caps.items():
            assert loads[eid] <= cap, name  # exact rational feasibility


def test_mwu_deterministic(tt):
    a = mwu_pack(tt, config=PackConfig(epsilon=F(1, 10)))
    b = mwu_pack(tt, config=PackConfig(epsilon=F(1, 10)))
    assert a.trees == b.trees and a.weights == b.weights


def test_mwu_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        PackConfig(epsilon=F(3, 4))
    with pytest.raises(ValueError):
        PackConfig(epsilon=0)


@pytest.mark.parametrize("eps", [F(1, 3), F(1, 10), F(1, 40)])
def test_mwu_rounds_stay_within_the_bound(eps, monkeypatch):
    """A round multiplies its bottleneck's weight by fl(1 + eps) and no
    weight falls, so on m positive edges ``mwu_pack`` prices at most
    m (ceil(ln m / (eps ln(1 + eps))) + 1) forests before a weight passes
    m**(1/eps)."""
    rounds = []
    real = packing_mod._forest

    def counting(*args):
        rounds[-1] += 1
        return real(*args)

    monkeypatch.setattr(packing_mod, "_forest", counting)
    e = float(eps)
    for name, g in full_suite():
        rounds.append(0)
        mwu_pack(g, config=PackConfig(epsilon=eps))
        m = sum(1 for edge in g.edges if edge.cap > 0)
        assert 0 < rounds[-1] <= m * (math.ceil(math.log(m) / (e * math.log1p(e))) + 1), name


def test_zero_capacity_edges_dropped(tt):
    g = Graph(tt.n, (tt.edges[0]._replace(cap=F(0)),) + tt.edges[1:])
    packing = exact_pack(principal_sequence(g))
    assert all(0 not in t for t in packing.trees)
    assert 0 not in packing.caps


def test_saturating_pack_fixtures(c5, k4, tt):
    p = saturating_pack(c5)
    assert p.total_value == F(5, 4)
    assert all(load == 1 for load in p.loads().values())
    p = saturating_pack(k4)
    assert p.total_value == 2
    assert all(load == 1 for load in p.loads().values())
    # the bridge graph TT/{123|456} is a single edge: trivially saturating
    quotient, _, kept = contract_partition(tt, [[0, 1, 2], [3, 4, 5]])
    p = saturating_pack(quotient)
    assert p.total_value == 1 and list(p.loads().values()) == [F(1)]


def test_saturating_pack_rejects_loose_graph(tt):
    with pytest.raises(SaturationError):
        saturating_pack(tt)  # strength 1 < 7/5


def test_respect_counts_on_suite():
    # weight fractions of trees crossing any fixed minimum cut at most
    # once/twice, against the exact packing (eps = 0 bounds)
    for name, g in full_suite()[:18]:
        if g.n < 2:
            continue
        packing = exact_pack(principal_sequence(g))
        _, argmins = oracle_min_kcut(g, 2)
        for p in argmins:
            cut_edges = edge_ids_of_partition(g, p)
            s2 = respect_stats(packing, cut_edges, 2)
            s1 = respect_stats(packing, cut_edges, 1)
            assert s2.q_h >= F(1, 2) + F(1, g.n), name
            assert s1.q_h >= F(2, g.n), name
            assert s1.q_h <= s2.q_h, name
            assert s2.q_h >= mincut_respect_bound(2, g.n), name
            assert s1.q_h >= mincut_respect_bound(1, g.n), name


def test_exact_pack_certificate_catches_sabotaged_pricing(c5, monkeypatch):
    import kcut.packing as packing_mod

    # a pricing kernel that ignores the duals must either repeat a column or
    # terminate below the strength value; both must raise
    original = packing_mod.min_spanning_forest

    def broken(g, weights):
        return original(g, [F(1)] * g.m)

    monkeypatch.setattr(packing_mod, "min_spanning_forest", broken)
    with pytest.raises(packing_mod.PackingError):
        packing_mod.exact_pack(principal_sequence(c5))


def test_dual_packing_certificate_catches_sabotaged_pricing(capsys, monkeypatch):
    """``lp_dual`` calls the uncertified kernel on c + z; its check against
    lambda_j must still stop a packing that pricing left short."""
    from kcut.cli import main

    original = packing_mod.min_spanning_forest

    def broken(g, weights):
        return original(g, [F(1)] * g.m)

    monkeypatch.setattr(packing_mod, "min_spanning_forest", broken)
    monkeypatch.setattr("sys.stdin", io.StringIO(TT_TEXT))
    assert main(["lp", "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal invariant violation: ")
    assert captured.err.count("\n") == 1


# -- one grown master against a cold master per round ------------------------


def _cold_exact_pack(g, caps=None):
    """Column generation as ``exact_pack`` ran it with one cold restricted
    master per round, each a ``solve_lp`` from the slack basis over dense
    Fraction rows: the reference for the grown tableau.  Returns the
    packing's (trees, weights), ordered by tree as ``exact_pack`` orders
    them."""
    work, keep, _ = packing_mod._working_graph(g, caps)
    columns = [min_spanning_forest(work, [F(1)] * work.m)]
    while True:
        nt = len(columns)
        rows = [[F(0)] * nt for _ in range(work.m)]
        for j, forest in enumerate(columns):
            for eid in forest:
                rows[eid][j] = F(1)
        res = solve_lp([F(1)] * nt, rows, [e.cap for e in work.edges])
        forest = min_spanning_forest(work, res.duals)
        if sum((res.duals[eid] for eid in forest), F(0)) >= 1:
            break
        columns.append(forest)
    support = sorted((tuple(keep[i] for i in f), y) for f, y in zip(columns, res.x) if y > 0)
    return tuple(t for t, _ in support), tuple(y for _, y in support)


@st.composite
def _capacitated_graphs(draw):
    """n <= 8 with parallel edges and rational capacities; connected
    unless a vertex is left hanging off nothing."""
    n = draw(st.integers(2, 8))
    label = draw(st.permutations(range(n)))
    connected = draw(st.booleans())
    pairs = []
    for v in range(1, n):
        if v == 1 or connected or draw(st.integers(0, 4)):
            pairs.append((label[v], label[draw(st.integers(0, v - 1))]))
    extra = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(lambda p: (p[0], (p[0] + p[1]) % n))
    pairs += draw(st.lists(extra, max_size=8))
    caps = st.sampled_from([F(1), F(2), F(3, 2), F(1, 3), F(5, 7), F(4, 9)])
    return Graph(n, tuple(Edge(min(p), max(p), draw(caps)) for p in pairs)), connected


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_capacitated_graphs())
def test_exact_pack_matches_a_cold_master_per_round(drawn):
    """The grown master reaches the cold masters' vertex: the same trees and
    weights under the graph's capacities and, on a connected graph, under
    the c+z capacities of the k-cut dual at every k."""
    g, connected = drawn
    psp = principal_sequence(g)
    packing = exact_pack(psp)
    assert (packing.trees, packing.weights) == _cold_exact_pack(g)
    if not connected:
        return
    for k in range(2, g.n + 1):
        dual = lp_dual(psp, k)
        caps = [e.cap + z for e, z in zip(g.edges, dual.z)]
        packing = dual_packing(g, dual).packing
        assert (packing.trees, packing.weights) == _cold_exact_pack(g, caps)


def test_exact_pack_grows_one_tableau(monkeypatch):
    """On K6 column generation builds one tableau and takes fewer pivots
    than the cold masters, so a fall back to one solve per round fails."""
    built = []

    class Recording(simplex_mod.Tableau):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(packing_mod, "Tableau", Recording)
    monkeypatch.setattr(simplex_mod, "Tableau", Recording)  # inside solve_lp
    k6 = Graph(6, tuple(Edge(u, v, F(1)) for u in range(6) for v in range(u + 1, 6)))
    packing = exact_pack(principal_sequence(k6))
    assert len(built) == 1
    grown = built.pop().pivots
    assert (packing.trees, packing.weights) == _cold_exact_pack(k6)
    assert len(built) > 1 and grown < sum(t.pivots for t in built)
