import json
from fractions import Fraction

import pytest

from kcut import (
    PackConfig,
    SaturationError,
    contract_partition,
    exact_pack,
    min_spanning_forest,
    mincut_respect_bound,
    mwu_pack,
    oracle_min_kcut,
    oracle_treepack,
    parse_graph,
    respect_stats,
    saturating_pack,
    strength,
)

from conftest import TT_BRIDGE, edge_ids_of_partition, full_suite

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
    p = exact_pack(c5)
    assert p.total_value == F(5, 4)
    assert len(p.trees) <= c5.m
    p = exact_pack(tt)
    assert p.total_value == 1
    p = exact_pack(e1)
    assert p.total_value == 5 and p.trees == ((0,),) and p.weights == (F(5),)


def test_exact_pack_matches_oracle():
    for name, g in full_suite()[:25]:
        if g.m == 0:
            continue
        assert exact_pack(g).total_value == oracle_treepack(g), name


def test_exact_pack_feasible_and_small_support():
    for name, g in full_suite()[:25]:
        p = exact_pack(g)
        assert len(p.trees) <= g.m, name
        loads = p.loads()
        for eid, cap in p.caps.items():
            assert loads[eid] <= cap, name
        for tree in p.trees:
            assert len(tree) == g.n - g.component_count, name


@pytest.mark.parametrize("eps", [F(1, 5), F(1, 10), F(1, 20)])
def test_mwu_meets_contract(eps, e1, c5, k4):
    assert mwu_pack(e1, config=PackConfig(epsilon=eps)).total_value >= (1 - eps) * 5
    assert mwu_pack(c5, config=PackConfig(epsilon=eps)).total_value >= (1 - eps) * F(5, 4)
    assert mwu_pack(k4, config=PackConfig(epsilon=eps)).total_value >= (1 - eps) * 2


def test_mwu_contract_on_suite():
    eps = F(1, 10)
    for name, g in full_suite()[:20]:
        packing = mwu_pack(g, config=PackConfig(epsilon=eps))
        exact = exact_pack(g).total_value
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


def test_mwu_iteration_cap(c5):
    from kcut import IterationLimitError

    with pytest.raises(IterationLimitError):
        mwu_pack(c5, config=PackConfig(epsilon=F(1, 10), max_iterations=2))


def test_zero_capacity_edges_dropped(tt):
    caps = [e.cap for e in tt.edges]
    caps[0] = F(0)
    packing = exact_pack(tt, caps)
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
        packing = exact_pack(g)
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
        packing_mod.exact_pack(c5)
