from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcut import (
    Edge,
    Graph,
    check_complementary_slackness,
    dual_packing,
    ideal_dual,
    ideal_packing,
    lagrangean_value,
    lp_dual,
    lp_primal,
    min_kcut,
    oracle_lp_value,
    oracle_min_kcut,
    parse_graph,
    partition_from_blocks,
    principal_sequence,
    verify_dual,
    verify_primal,
)
from kcut.lp import DualSolution
from kcut.oracle import set_partitions
from kcut.packing import TreePacking

from conftest import TT_BRIDGE, full_suite
from test_cuts import _disconnected_multigraphs, _strength_zero_multigraphs

F = Fraction


def test_lp_primal_fixtures(tt, c5, k4):
    p = lp_primal(principal_sequence(tt), 3)
    assert p.objective == F(5, 2)
    assert p.x[TT_BRIDGE] == 1
    assert all(p.x[i] == F(1, 4) for i in range(6))
    p = lp_primal(principal_sequence(c5), 2)
    assert p.objective == F(5, 4) and set(p.x) == {F(1, 4)}
    p = lp_primal(principal_sequence(k4), 3)
    assert p.objective == 4 and set(p.x) == {F(2, 3)}


def test_lp_primal_integral_when_k_hits_level(tt):
    p = lp_primal(principal_sequence(tt), 2)
    assert p.alpha == 1
    assert set(p.x) == {F(0), F(1)}
    assert p.objective == 1


def test_lp_dual_fixtures(tt, c5, k4):
    psp = principal_sequence(tt)
    d = lp_dual(psp, 3)
    assert d.z[TT_BRIDGE] == F(1, 2)
    assert all(d.z[i] == 0 for i in range(6))
    assert d.total_y == F(3, 2)
    assert d.objective == F(5, 2)
    d = lp_dual(principal_sequence(c5), 2)
    assert set(d.z) == {F(0)} and d.total_y == F(5, 4) and d.objective == F(5, 4)
    d = lp_dual(principal_sequence(k4), 4)
    assert set(d.z) == {F(0)} and d.total_y == 2 and d.objective == 6


def test_lagrangean_fixtures(tt, c5):
    psp = principal_sequence(tt)
    assert lagrangean_value(psp, 3) == (F(5, 2), F(3, 2))
    assert lagrangean_value(psp, 2) == (F(1), F(1))
    assert lagrangean_value(principal_sequence(c5), 2) == (F(5, 4), F(5, 4))


@st.composite
def _small_multigraphs(draw):
    """n <= 6 with parallel edges and capacities that may be 0."""
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    cap = st.sampled_from([F(0), F(1, 3), F(1, 2), F(1), F(2), F(3)])
    edges = draw(st.lists(st.tuples(st.sampled_from(pairs), cap), max_size=2 * n))
    return Graph(n, tuple(Edge(u, v, c) for (u, v), c in edges))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_small_multigraphs())
def test_lagrangean_value_against_every_partition_property(g):
    """g(b) + b(k-1), with g(b) the minimum of c(delta(P)) - b(|P| - 1) over
    every partition P, is largest at the returned b, is smaller at every
    probe below it, and equals the closed-form primal value."""
    costs = [
        (partition_from_blocks(g, parts).crossing_value, len(parts))
        for parts in set_partitions(list(range(g.n)))
    ]

    def lagrangean(k, b):
        return min(c - b * (size - 1) for c, size in costs) + b * (k - 1)

    psp = principal_sequence(g)
    lams = [level.lam for level in psp.levels]
    probes = {F(0)} | set(lams) | {lam + F(1, 7) for lam in lams}
    probes |= {(a + b) / 2 for a, b in zip(lams, lams[1:])}
    for k in range(2, g.n + 1):
        value, b = lagrangean_value(psp, k)
        assert lagrangean(k, b) == value == lp_primal(psp, k).objective, k
        for p in probes:
            assert lagrangean(k, p) <= value, (k, p)
            if p < b:
                assert lagrangean(k, p) < value, (k, p)


def test_ideal_packing_fixtures(tt, c5, e1):
    ip = ideal_packing(principal_sequence(tt))
    assert [level.total_value for level in ip.levels] == [1, F(3, 2)]
    assert ip.levels[0].support() == ((TT_BRIDGE,),)
    # both triangles split together: each tree spans both, 2 + 2 edges
    assert {len(tree) for tree in ip.levels[1].support()} == {4}
    assert ip.marginal_load(TT_BRIDGE) == 1
    assert ip.marginal_load(0) == F(2, 3)
    ip = ideal_packing(principal_sequence(c5))
    assert all(ip.marginal_load(e) == F(4, 5) for e in range(5))
    ip = ideal_packing(principal_sequence(e1))
    assert ip.marginal_load(0) == 1


def test_ideal_packing_composes_to_forest(tt):
    ip = ideal_packing(principal_sequence(tt))
    chosen = ip.coupling[0][0]
    assert len(chosen) == tt.n - 1
    # a maximal forest: acyclic and spanning
    from kcut.graph import component_blocks

    assert len(component_blocks(tt, exclude_edges=set(range(tt.m)) - set(chosen))) == 1


def test_ideal_packing_levels_are_distributions(tt):
    ip = ideal_packing(principal_sequence(tt))
    for level, psp_level in zip(ip.levels, principal_sequence(tt).levels):
        assert level.total_value == psp_level.lam
        loads = level.loads()
        for eid, cap in level.caps.items():
            assert loads[eid] == cap  # saturating


def _positive_strength(g):
    levels = principal_sequence(g).levels
    return bool(levels) and levels[0].lam > 0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_small_multigraphs().filter(_positive_strength), st.booleans())
def test_ideal_packing_per_level_property(g, doubled):
    """Each level's one packing has value lambda_i, loads exactly the
    positive B_i edges to capacity, and has trees of kappa_i - kappa_{i-1}
    edges that connect the parts of P_i inside every split component.  Two
    disjoint copies of g split two components at every level."""
    from kcut.graph import component_blocks

    if doubled:
        copy = tuple(Edge(e.u + g.n, e.v + g.n, e.cap) for e in g.edges)
        g = Graph(2 * g.n, g.edges + copy)
    psp = principal_sequence(g)
    ip = ideal_packing(psp)
    assert len(ip.levels) == len(psp.levels)
    for i, (packing, level) in enumerate(zip(ip.levels, psp.levels), start=1):
        assert packing.total_value == level.lam, i
        loads = packing.loads()
        for eid, e in enumerate(g.edges):
            tight = eid in level.b_edges and e.cap > 0
            assert loads.get(eid, 0) == (e.cap if tight else 0), (i, eid)
            if eid in level.b_edges:
                assert ip.marginal_load(eid) == e.cap / level.lam, (i, eid)
        block = level.partition.block_of(g.n)
        for tree in packing.support():
            assert len(tree) == level.kappa - psp.kappa_at(i - 1), i
            for comp in level.split_components:
                parts = {block[v] for v in comp}
                inside = [g.edges[eid] for eid in tree if block[g.edges[eid].u] in parts]
                assert len(inside) == len(parts) - 1, (i, comp)
                # the inside edges join the component's parts into one
                reach = {block[comp[0]]}
                for _ in parts:
                    for e in inside:
                        if block[e.u] in reach or block[e.v] in reach:
                            reach |= {block[e.u], block[e.v]}
                assert reach == parts, (i, comp)
    chosen = set(ip.coupling[0][0])
    assert len(chosen) == g.n - psp.kappa0()
    rest = set(range(g.m)) - chosen
    assert len(component_blocks(g, exclude_edges=rest)) == psp.kappa0()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_small_multigraphs().filter(_positive_strength), st.booleans())
def test_ideal_dual_is_an_optimal_dual_at_every_k_property(g, doubled):
    """The coupled ideal packing scaled by lambda_j is an optimal dual at
    every k: feasible in c+z, of value lambda_j, complementary to the
    closed-form primal, with at most sum_i |support_i| - L + 1 maximal
    forests whose probabilities sum to 1; scanned by ``min_kcut`` it
    gives the oracle's every minimizer.  Two disjoint copies of g make
    k at most the number of components possible."""
    from kcut.graph import component_blocks

    if doubled:
        copy = tuple(Edge(e.u + g.n, e.v + g.n, e.cap) for e in g.edges)
        g = Graph(2 * g.n, g.edges + copy)
    psp = principal_sequence(g)
    ip = ideal_packing(psp)
    trees, lengths, d = ip.coupling
    assert sum(lengths) == d
    assert len(trees) <= sum(len(p.support()) for p in ip.levels) - len(ip.levels) + 1
    h = psp.kappa0()
    for tree in trees:
        assert len(tree) == g.n - h
        assert len(component_blocks(g, exclude_edges=set(range(g.m)) - set(tree))) == h
    for k in range(2, g.n + 1):
        primal = lp_primal(psp, k)
        dual = ideal_dual(ip, lp_dual(psp, k))
        assert dual.level_index == primal.level_index == psp.level_for_k(k), k
        assert dual.packing.total_value == dual.total_y, k
        if k > h:
            assert dual.packing.trees == trees, k
            assert dual.total_y == psp.levels[dual.level_index - 1].lam, k
        else:
            assert dual.packing.trees == (), k
        assert verify_dual(g, dual).ok, k
        assert check_complementary_slackness(g, primal.x, dual).ok, k
        if g.n <= 8:
            _, report = min_kcut(psp, k, dual=dual)
            assert set(report.cuts) == set(oracle_min_kcut(g, k)[1]), k


def test_ideal_dual_refuses_another_sequence(tt, c5):
    # C5's k = 2 dual has lambda_1 = 5/4, TT's level 1 has lambda 1
    with pytest.raises(ValueError, match="lambda_j"):
        ideal_dual(ideal_packing(principal_sequence(tt)), lp_dual(principal_sequence(c5), 2))


def test_level_index_counts_the_input_levels():
    # a strength-0 component: the dual reads the positive part's sequence,
    # but both level indices count the input's levels, lambda = 0 included
    g = parse_graph("p kcut 4 3\ne 1 2 1\ne 2 3 0\ne 3 4 1\n")
    psp = principal_sequence(g)
    for k, j in ((2, 1), (3, 2), (4, 2)):
        assert lp_primal(psp, k).level_index == lp_dual(psp, k).level_index == psp.level_for_k(k) == j, k


def test_ideal_packing_on_suite():
    # every composed support tree induces a spanning tree of each level's
    # contraction, and per-level packings are saturating distributions
    from itertools import product

    from kcut.graph import component_blocks, contract_partition

    for name, g in full_suite()[:10]:
        if g.n < 2 or g.m == 0:
            continue
        psp = principal_sequence(g)
        ip = ideal_packing(psp)
        for level, psp_level in zip(ip.levels, psp.levels):
            assert level.total_value == psp_level.lam, name
            loads = level.loads()
            assert all(loads[e] == c for e, c in level.caps.items()), name
        # compose a few trees (first/last choice per level packing)
        for choice in list(product(*[(0, len(p.support()) - 1) for p in ip.levels]))[:8]:
            chosen: list[int] = []
            for packing, idx in zip(ip.levels, choice):
                chosen.extend(packing.support()[idx])
            chosen_set = set(chosen)
            assert len(chosen) == g.n - psp.kappa0(), name
            # spanning: the whole graph collapses to its components
            assert len(
                component_blocks(g, exclude_edges=set(range(g.m)) - chosen_set)
            ) == psp.kappa0(), name
            for j in range(1, len(psp.levels) + 1):
                quotient, _, kept = contract_partition(
                    g, psp.partition_at(j).parts
                )
                inside = [qi for qi, eid in enumerate(kept) if eid in chosen_set]
                # exactly kappa_j - kappa_0 edges, and they connect the
                # contraction: a spanning forest of G / P_j
                assert len(inside) == psp.kappa_at(j) - psp.kappa0(), (name, j)
                remaining = component_blocks(
                    quotient,
                    exclude_edges=[qi for qi in range(quotient.m) if qi not in inside],
                )
                assert len(remaining) == psp.kappa0(), (name, j)


def test_verify_primal_fixtures(tt, c5, k4):
    psp = principal_sequence(tt)
    x = lp_primal(psp, 3).x
    v = verify_primal(tt, x, 3)
    assert v.ok and v.min_forest_weight == 2
    v = verify_primal(c5, [0] * 5, 2)
    assert not v.feasible and v.witness_forest is not None
    assert len(v.witness_forest) == 4
    v = verify_primal(k4, [1] * 6, 4)
    assert v.ok


def test_verify_dual_fixtures(tt, e1):
    psp = principal_sequence(tt)
    d = dual_packing(tt, lp_dual(psp, 3))
    v = verify_dual(tt, d)
    assert v.ok
    loads = d.packing.loads()
    assert loads[TT_BRIDGE] == F(3, 2)  # equals c + z on the bridge
    # doubling one weight overloads a named edge
    bad_packing = TreePacking(
        d.packing.trees,
        (d.packing.weights[0] * 2,) + d.packing.weights[1:],
        d.packing.caps,
    )
    bad = DualSolution(3, d.z, d.total_y, d.level_index, d.objective, 1, bad_packing)
    v = verify_dual(tt, bad)
    assert not v.ok and v.violations
    d1 = dual_packing(e1, lp_dual(principal_sequence(e1), 2))
    v = verify_dual(e1, d1)
    assert v.ok and d1.packing.loads()[0] == 5


def test_complementary_slackness_fixtures(tt, c5):
    psp = principal_sequence(tt)
    x = lp_primal(psp, 3).x
    d = dual_packing(tt, lp_dual(psp, 3))
    cs = check_complementary_slackness(tt, x, d)
    assert cs.ok
    # z = 0 for k = 2 makes condition (1) vacuous
    psp5 = principal_sequence(c5)
    d5 = dual_packing(c5, lp_dual(psp5, 2))
    cs5 = check_complementary_slackness(c5, lp_primal(psp5, 2).x, d5)
    assert cs5.ok and all(z == 0 for z in d5.z)
    # perturbing x breaks tightness with a witness
    x_bad = list(x)
    x_bad[0] = F(0)
    cs_bad = check_complementary_slackness(tt, x_bad, d)
    assert not cs_bad.ok and cs_bad.witnesses
    assert not verify_primal(tt, x_bad, 3).feasible


def test_strong_duality_and_oracle_on_suite():
    for name, g in full_suite()[:20]:
        if g.n < 2:
            continue
        psp = principal_sequence(g)
        for k in range(2, g.n + 1):
            primal = lp_primal(psp, k)
            dual = lp_dual(psp, k)
            lag, _ = lagrangean_value(psp, k)
            assert primal.objective == dual.objective == lag, (name, k)
            if g.n <= 6:
                assert primal.objective == oracle_lp_value(g, k), (name, k)


def test_certificates_on_suite():
    for name, g in full_suite()[:14]:
        psp = principal_sequence(g)
        for k in range(2, g.n + 1):
            primal = lp_primal(psp, k)
            dual = dual_packing(g, lp_dual(psp, k))
            assert verify_primal(g, primal.x, k).ok, (name, k)
            assert verify_dual(g, dual).ok, (name, k)
            assert check_complementary_slackness(g, primal.x, dual).ok, (name, k)


def test_dual_bound_against_min_kcut():
    # (k-1) sum y >= n/(2(n-1)) * min k-cut + z(E), exactly
    for name, g in full_suite()[:14]:
        psp = principal_sequence(g)
        for k in range(2, g.n + 1):
            dual = lp_dual(psp, k)
            cut, _ = oracle_min_kcut(g, k)
            lhs = (k - 1) * dual.total_y
            rhs = F(g.n, 2 * (g.n - 1)) * cut.crossing_value + sum(dual.z, F(0))
            assert lhs >= rhs, (name, k)


def test_support_trees_minimal_crossings():
    # every explicit dual support tree crosses each prefix partition the
    # minimum possible number of times
    for name, g in full_suite()[:10]:
        psp = principal_sequence(g)
        for k in range(2, g.n + 1):
            dual = dual_packing(g, lp_dual(psp, k))
            j = dual.level_index
            if j == 0:
                continue
            for i in range(1, j + 1):
                a_i = psp.levels[i - 1].a_edges
                kappa_i = psp.levels[i - 1].kappa
                for tree in dual.packing.trees:
                    assert len(a_i.intersection(tree)) == kappa_i - psp.kappa0(), (
                        name,
                        k,
                        i,
                    )


def test_disconnected_lp():
    g = parse_graph(
        "p kcut 6 6\ne 1 2 1\ne 1 3 1\ne 2 3 1\ne 4 5 1\ne 4 6 1\ne 5 6 1\n"
    )
    psp = principal_sequence(g)
    assert psp.kappa0() == 2
    p = lp_primal(psp, 3)
    assert p.objective == F(3, 2)
    d = dual_packing(g, lp_dual(psp, 3))
    assert d.objective == F(3, 2)
    assert oracle_lp_value(g, 3) == F(3, 2)
    assert verify_primal(g, p.x, 3).ok
    assert check_complementary_slackness(g, p.x, d).ok
    # k below the component count is trivial
    assert lp_primal(psp, 2).objective == 0
    assert lp_dual(psp, 2).objective == 0


def test_zero_capacity_cut_answered():
    # the dual's z divides by each level's lambda, so it is read off the
    # sequence's positive part: the tail after lambda = 0, whose two parts
    # make k = 2 free; only the ideal packing refuses the graph
    g = parse_graph("p kcut 4 3\ne 1 2 1\ne 2 3 0\ne 3 4 1\n")
    psp = principal_sequence(g)
    assert psp.positive().kappa0() == 2
    for k, value in ((2, 0), (3, 1), (4, 2)):
        primal = lp_primal(psp, k)
        dual = dual_packing(g, lp_dual(psp, k))
        assert primal.objective == dual.objective == lagrangean_value(psp, k)[0] == value, k
        assert value == oracle_lp_value(g, k), k
        assert verify_primal(g, primal.x, k).ok and verify_dual(g, dual).ok, k
        assert check_complementary_slackness(g, primal.x, dual).ok, k
    with pytest.raises(ValueError, match="positive capacity"):
        ideal_packing(psp)


def test_k_out_of_range(tt):
    psp = principal_sequence(tt)
    with pytest.raises(ValueError):
        lp_primal(psp, 1)
    with pytest.raises(ValueError):
        lp_primal(psp, 7)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.one_of(_strength_zero_multigraphs(), _disconnected_multigraphs()))
def test_lp_closed_forms_on_zero_cuts_property(g):
    """On graphs with several components or one of strength 0, the primal,
    the dual read off the sequence's positive part and the Lagrangean agree
    with the oracle at every k, and the explicit dual is certified."""
    psp = principal_sequence(g)
    for k in range(2, g.n + 1):
        primal = lp_primal(psp, k)
        dual = dual_packing(g, lp_dual(psp, k))
        assert primal.objective == dual.objective == lagrangean_value(psp, k)[0] == oracle_lp_value(g, k), k
        assert verify_primal(g, primal.x, k).ok, k
        assert verify_dual(g, dual).ok, k
        assert check_complementary_slackness(g, primal.x, dual).ok, k
