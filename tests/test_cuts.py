import random
from fractions import Fraction
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcut import (
    Edge,
    Graph,
    components,
    cuts_from_tree,
    dual_packing,
    dual_respect_bound,
    enum_partitions,
    enumerate_approx_kcuts,
    lp_dual,
    lp_primal,
    min_kcut,
    min_spanning_forest,
    mwu_pack,
    oracle_lp_value,
    oracle_min_kcut,
    parse_graph,
    partition_from_blocks,
    principal_sequence,
    ravi_sinha_cut,
    respect_stats,
    round_lp,
    verify_primal,
)
from kcut.cuts import _capped_cheapest
from kcut.packing import PackConfig

from conftest import TT_BRIDGE, _random_connected, assert_recomputed, edge_ids_of_partition, full_suite

F = Fraction


def bell_number(n: int) -> int:
    """The number of partitions of n items, by the Bell triangle."""
    row = [1]
    for _ in range(n):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
    return row[0]


def merge_pattern_count(h: int) -> int:
    """Exact number of groupings of h+1 tree pieces into >= 2 groups."""
    return bell_number(h + 1) - 1


def test_cuts_from_tree_c5(c5):
    tree = min_spanning_forest(c5, [1] * 5)
    cuts = list(cuts_from_tree(c5, tree, 1, 2))
    assert len(cuts) == 4
    assert all(c.crossing_value == 2 for c in cuts)


def test_cuts_from_tree_e1(e1):
    cuts = list(cuts_from_tree(e1, (0,), 1, 2))
    assert len(cuts) == 1 and cuts[0].crossing_value == 5


def test_cuts_from_tree_tt(tt):
    weights = [1] * 7
    weights[TT_BRIDGE] = 0
    tree = min_spanning_forest(tt, weights)
    target = ((0,), (1, 2), (3, 4, 5))
    assert any(
        c.parts == target and c.crossing_value == 3
        for c in cuts_from_tree(tt, tree, 3, 3)
    )


def test_cuts_from_tree_h_too_small(c5):
    with pytest.raises(ValueError):
        list(cuts_from_tree(c5, (0, 1, 2, 3), 1, 3))


def test_cuts_from_tree_rejects_a_cycle(c5):
    with pytest.raises(ValueError, match="forest"):
        list(cuts_from_tree(c5, (0, 1, 2, 3, 4), 1, 2))


def test_min_kcut_fixtures(tt, c5):
    cut, report = min_kcut(principal_sequence(tt), 2)
    assert cut.crossing_value == 1 and len(report.cuts) == 1
    assert cut.parts == ((0, 1, 2), (3, 4, 5))
    cut, report = min_kcut(principal_sequence(tt), 4)
    assert cut.crossing_value == 4
    cut, report = min_kcut(principal_sequence(c5), 3)
    assert cut.crossing_value == 3 and len(report.cuts) == 10


def test_min_kcut_k_equals_n(k4):
    cut, report = min_kcut(principal_sequence(k4), 4)
    assert cut.crossing_value == 6 and cut.part_count == 4


def test_min_kcut_matches_oracle_with_full_sets():
    for name, g in full_suite()[:16]:
        psp = principal_sequence(g)
        for k in range(2, min(g.n, 5) + 1):
            cut, report = min_kcut(psp, k)
            ocut, oall = oracle_min_kcut(g, k)
            assert cut.crossing_value == ocut.crossing_value, (name, k)
            assert {c.parts for c in report.cuts} == {
                p.parts for p in oall
            }, (name, k)


def test_min_kcut_approx_mode():
    for name, g in full_suite()[:10]:
        psp = principal_sequence(g)
        for k in range(2, min(g.n, 4) + 1):
            exact_cut, _ = min_kcut(psp, k)
            approx_cut, report = min_kcut(psp, k, eps=F(1, 2 * k))
            assert approx_cut.crossing_value == exact_cut.crossing_value, (name, k)
            if k < g.n:  # k = n short-circuits without packing
                assert report.h == 2 * k - 2


def test_min_kcut_approx_eps_validation(c5):
    # 0 < eps < 1/(2k-1) is checked before any work, k = n included
    psp = principal_sequence(c5)
    began = AssertionError("scan began")
    no_work = mock.patch.multiple(
        "kcut.cuts", lp_dual=mock.Mock(side_effect=began), scaled_capacities=mock.Mock(side_effect=began)
    )
    for k, eps in [(3, F(1, 4)), (3, F(1, 5)), (3, F(0)), (3, F(-1, 5)), (5, F(1, 9)), (5, F(1)), (5, F(-1))]:
        with no_work, pytest.raises(ValueError, match=rf"^eps must satisfy 0 < eps < 1/\(2k-1\) = 1/{2 * k - 1}$"):
            min_kcut(psp, k, eps=eps)


def test_optimal_cut_respect_witnesses():
    # every oracle-optimal k-cut crosses some exact-dual support tree at most
    # 2k-3 times; with eps < 1/(2k-1) some approximate support tree crosses
    # at most 2k-2 times
    for name, g in full_suite()[:12]:
        psp = principal_sequence(g)
        for k in range(2, min(g.n, 4) + 1):
            if k == g.n:
                continue
            dual = dual_packing(g, lp_dual(psp, k))
            caps = [g.edges[i].cap + dual.z[i] for i in range(g.m)]
            approx = mwu_pack(g, caps, PackConfig(epsilon=F(1, 2 * k)))
            _, oall = oracle_min_kcut(g, k)
            h_exact = max(2 * k - 3, 1)
            for p in oall:
                cut_edges = set(edge_ids_of_partition(g, p))
                exact_crossings = [
                    len(cut_edges.intersection(t)) for t in dual.packing.trees
                ]
                assert min(exact_crossings) <= h_exact, (name, k)
                approx_crossings = [
                    len(cut_edges.intersection(t)) for t in approx.trees
                ]
                assert min(approx_crossings) <= 2 * k - 2, (name, k)


def test_enumerate_approx_fixture_counts(tt, c5, k4):
    report = enumerate_approx_kcuts(principal_sequence(c5), 2, 1)
    assert len(report.cuts) == 10 and report.min_value == 2
    report = enumerate_approx_kcuts(principal_sequence(tt), 2, 1)
    assert len(report.cuts) == 1
    report = enumerate_approx_kcuts(principal_sequence(k4), 2, F(4, 3))
    assert len(report.cuts) == 7
    values = sorted(c.crossing_value for c in report.cuts)
    assert values == [3, 3, 3, 3, 4, 4, 4]


def test_enumerate_approx_complete_vs_oracle():
    for name, g in full_suite()[:12]:
        for k in (2, 3):
            if k > g.n:
                continue
            for alpha in (F(1), F(4, 3), F(3, 2)):
                report = enumerate_approx_kcuts(principal_sequence(g), k, alpha)
                threshold = alpha * oracle_min_kcut(g, k)[0].crossing_value
                expected = {
                    p.parts
                    for p in enum_partitions(g)
                    if p.part_count >= k and p.crossing_value <= threshold
                }
                got = {c.parts for c in report.cuts}
                assert got == expected, (name, k, alpha)


@st.composite
def _disconnected_multigraphs(draw):
    """n <= 6 and at least two components, each of positive strength: a
    positive-capacity path through every component, plus parallel edges and
    chords inside the components whose capacity may be 0."""
    n = draw(st.integers(2, 6))
    order = draw(st.permutations(range(n)))
    splits = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1)))
    comps = [order[a:b] for a, b in zip([0] + splits, splits + [n])]
    pos = st.sampled_from([F(1, 2), F(1), F(3, 2), F(2)])
    edges = []
    for comp in comps:
        for u, v in zip(comp, comp[1:]):
            edges.append((min(u, v), max(u, v), draw(pos)))
    inside = [(u, v) for comp in comps for u in comp for v in comp if u < v]
    if inside:
        cap = st.sampled_from([F(0), F(1, 2), F(1), F(3)])
        for u, v in draw(st.lists(st.sampled_from(inside), max_size=5)):
            edges.append((u, v, draw(cap)))
    perm = draw(st.permutations(range(len(edges))))
    return Graph(n, tuple(Edge(*edges[i]) for i in perm))


@st.composite
def _strength_zero_multigraphs(draw):
    """A graph from ``_disconnected_multigraphs`` with zero-capacity edges
    joining some of its components, so that a component has strength 0."""
    g = draw(_disconnected_multigraphs())
    block = components(g).block_of(g.n)
    across = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if block[u] != block[v]]
    links = draw(st.lists(st.sampled_from(across), min_size=1, max_size=4))
    edges = list(g.edges) + [Edge(u, v, F(0)) for u, v in links]
    perm = draw(st.permutations(range(len(edges))))
    return Graph(g.n, tuple(edges[i] for i in perm))


def _assert_kcuts_match_oracle(g, approx):
    """min_kcut with no eps, and with eps = 1/(2k) when ``approx``, and
    enumerate_approx_kcuts against the oracle for every k."""
    psp = principal_sequence(g)
    for k in range(2, g.n + 1):
        ocut, oall = oracle_min_kcut(g, k)
        minimizers = {p.parts for p in oall}
        for eps in (None, F(1, 2 * k)) if approx else (None,):
            cut, report = min_kcut(psp, k, eps=eps)
            assert cut.crossing_value == ocut.crossing_value, (k, eps)
            assert {c.parts for c in report.cuts} == minimizers, (k, eps)
        for alpha in (F(1), F(3, 2)):
            report = enumerate_approx_kcuts(psp, k, alpha)
            assert_recomputed(g, report.cuts)
            assert report.min_value == ocut.crossing_value
            threshold = alpha * ocut.crossing_value
            assert {c.parts for c in report.cuts} == {
                p.parts
                for p in enum_partitions(g)
                if p.part_count >= k and p.crossing_value <= threshold
            }


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_disconnected_multigraphs())
def test_disconnected_kcuts_match_oracle_property(g):
    assert not g.is_connected()
    _assert_kcuts_match_oracle(g, approx=False)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_strength_zero_multigraphs())
def test_strength_zero_kcuts_match_oracle_property(g):
    assert principal_sequence(g).levels[0].lam == 0
    _assert_kcuts_match_oracle(g, approx=True)


def test_enumeration_count_ceiling():
    # found count never exceeds (1/q_h) * f(h) * n^h with f the exact merge
    # count; a sanity ceiling, not a target
    for name, g in full_suite()[:8]:
        k = 2
        psp = principal_sequence(g)
        report = enumerate_approx_kcuts(psp, k, F(3, 2))
        dual = dual_packing(g, lp_dual(psp, k))
        q_min = None
        for cut in report.cuts:
            stats = respect_stats(
                dual.packing,
                edge_ids_of_partition(g, cut),
                report.h,
            )
            q_min = stats.q_h if q_min is None else min(q_min, stats.q_h)
        if q_min:
            ceiling = (1 / q_min) * merge_pattern_count(report.h) * g.n**report.h
            assert len(report.cuts) <= ceiling, name


def test_respect_bound_instantiations(e1):
    assert dual_respect_bound(1, 3, 3, 6) == F(1, 6)
    # pure packing vs the only cut of a single-edge graph
    from kcut import exact_pack

    packing = exact_pack(principal_sequence(e1))
    stats = respect_stats(packing, [0], 1)
    assert stats.crossings == (1,) and stats.q_h == 1


def test_respect_fraction_bound_holds_for_optimal_cuts():
    for name, g in full_suite()[:12]:
        psp = principal_sequence(g)
        for k in range(2, min(g.n, 4) + 1):
            if k == g.n:
                continue
            dual = dual_packing(g, lp_dual(psp, k))
            _, oall = oracle_min_kcut(g, k)
            for h in range(k - 1, 2 * k):
                bound = dual_respect_bound(1, k, h, g.n)
                for p in oall:
                    stats = respect_stats(
                        dual.packing, edge_ids_of_partition(g, p), h
                    )
                    assert stats.q_h >= bound, (name, k, h)


def test_bell_numbers():
    assert [bell_number(i) for i in range(6)] == [1, 1, 2, 5, 15, 52]
    assert merge_pattern_count(1) == 1


def test_round_lp_fixtures(tt, c5, k4):
    r = round_lp(principal_sequence(c5), lp_primal(principal_sequence(c5), 2))
    assert r.cut.crossing_value == 2 and r.certified
    assert r.cut.crossing_value == r.bound  # 8/5 * 5/4, the gap met with equality
    r = round_lp(principal_sequence(tt), lp_primal(principal_sequence(tt), 3))
    assert r.cut.crossing_value == 3 and r.cut.part_count >= 3
    assert r.bound == F(25, 6)
    r = round_lp(principal_sequence(k4), lp_primal(principal_sequence(k4), 2))
    assert r.cut.crossing_value == 3 == r.bound


def test_round_lp_bound_on_suite():
    for name, g in full_suite()[:16]:
        psp = principal_sequence(g)
        for k in range(2, g.n + 1):
            r = round_lp(psp, lp_primal(psp, k))
            assert r.certified, (name, k)
            assert r.cut.part_count >= k, (name, k)
            assert r.cut.crossing_value <= r.bound, (name, k)


def test_round_lp_skips_isolated_residual_blobs():
    # second triangle is heavier, so the level that splits the cheap triangle
    # leaves the heavy one as a zero-degree residual blob that must not be
    # chosen
    g = parse_graph(
        "p kcut 7 7\n"
        "e 1 2 1\ne 1 3 1\ne 2 3 1\n"
        "e 4 5 2\ne 4 6 2\ne 5 6 2\n"
        "e 3 4 1\n"
    )
    psp = principal_sequence(g)
    primal = lp_primal(psp, 3)
    r = round_lp(psp, primal)
    assert r.cut.part_count >= 3
    assert r.cut.crossing_value <= r.bound


def test_round_lp_flags_suboptimal_input(c5):
    psp = principal_sequence(c5)
    primal = lp_primal(psp, 2)
    from kcut.lp import PrimalSolution

    doubled = PrimalSolution(
        2, tuple(min(2 * v, F(1)) for v in primal.x), primal.level_index,
        primal.alpha, 2 * primal.objective,
    )
    r = round_lp(psp, doubled)
    assert not r.certified
    assert r.cut.part_count >= 2


def test_round_lp_rejects_bad_x(c5):
    from kcut.lp import PrimalSolution

    bad = PrimalSolution(2, (F(2),) * 5, 1, F(1), F(10))
    with pytest.raises(ValueError):
        round_lp(principal_sequence(c5), bad)


def test_ravi_sinha_fixtures(tt, c5):
    psp = principal_sequence(tt)
    cut = ravi_sinha_cut(psp, 2)
    assert cut.crossing_value == 1 and cut.parts == ((0, 1, 2), (3, 4, 5))
    cut = ravi_sinha_cut(psp, 3)
    assert cut.crossing_value == 3
    cut = ravi_sinha_cut(principal_sequence(c5), 4)
    assert cut.crossing_value == 4 and cut.part_count >= 4


def test_ravi_sinha_bound_on_suite():
    for name, g in full_suite()[:16]:
        psp = principal_sequence(g)
        for k in range(2, g.n + 1):
            cut = ravi_sinha_cut(psp, k)
            lp, _ = lp_primal(psp, k).objective, None
            assert cut.part_count >= k, (name, k)
            assert cut.crossing_value <= 2 * (1 - F(1, g.n)) * lp, (name, k)


def test_ravi_sinha_never_spends_choices_on_whole_component():
    # two tied strength-3/2 triangles: k=5 needs three shores, at most two
    # from either triangle
    g = parse_graph(
        "p kcut 6 7\n"
        "e 1 2 1\ne 1 3 1\ne 2 3 1\n"
        "e 4 5 1\ne 4 6 1\ne 5 6 1\n"
        "e 3 4 1\n"
    )
    psp = principal_sequence(g)
    cut = ravi_sinha_cut(psp, 5)
    assert cut.part_count >= 5
    assert cut.crossing_value <= 2 * (1 - F(1, 6)) * lp_primal(psp, 5).objective


def _shores_reference(g, psp=None, k=2):
    """The smallest-shores procedure as it was written before it became
    ``round_lp`` of the closed-form optimum, kept as a reference."""
    if psp is None:
        psp = principal_sequence(g)
    if not 2 <= k <= g.n:
        raise ValueError(f"k={k} out of range 2..{g.n}")
    j = psp.level_for_k(k)
    if j == 0:
        return partition_from_blocks(g, psp.p0.parts)
    level = psp.levels[j - 1]
    if level.kappa == k:
        return partition_from_blocks(g, level.partition.parts)
    kappa_prev = psp.kappa_at(j - 1)
    need = k - kappa_prev
    shores = []
    budgets = {}
    for ci, comp in enumerate(level.split_components):
        comp_set = set(comp)
        parts = [p for p in level.partition.parts if p[0] in comp_set]
        budgets[ci] = len(parts) - 1
        for part in parts:
            part_set = set(part)
            boundary = Fraction(0)
            for e in g.edges:
                if e.u in comp_set and e.v in comp_set:
                    if (e.u in part_set) != (e.v in part_set):
                        boundary += e.cap
            shores.append((boundary, part, ci))
    taken = _capped_cheapest(shores, budgets, need)
    if taken is None:
        raise AssertionError("not enough shores to reach k parts")
    cutset = set(psp.a_edges_at(j - 1))
    comp_vertices = {ci: set(comp) for ci, comp in enumerate(level.split_components)}
    for _, part, ci in taken:
        part_set = set(part)
        comp_set = comp_vertices[ci]
        for eid, e in enumerate(g.edges):
            if e.u in comp_set and e.v in comp_set:
                if (e.u in part_set) != (e.v in part_set):
                    cutset.add(eid)
    return components(g, exclude_edges=cutset)


@st.composite
def _multigraphs(draw):
    """n <= 9 with parallel edges and capacities that may be 0, so the
    graph may be disconnected or have a component of strength 0."""
    n = draw(st.integers(2, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    cap = st.sampled_from([F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(3)])
    edges = draw(st.lists(st.tuples(st.sampled_from(pairs), cap), max_size=3 * n))
    return Graph(n, tuple(Edge(u, v, c) for (u, v), c in edges))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(_multigraphs(), _strength_zero_multigraphs()))
def test_ravi_sinha_cut_matches_shores_reference_property(g):
    psp = principal_sequence(g)
    for k in range(2, g.n + 1):
        assert ravi_sinha_cut(psp, k) == _shores_reference(g, psp, k), k


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_strength_zero_multigraphs())
def test_strength_zero_primal_and_rounding_property(g):
    """The closed-form primal divides by no lambda, so it is the LP optimum
    on a graph with a component of strength 0 too, and rounds within
    2(1-1/n) of it."""
    psp = principal_sequence(g)
    assert psp.levels[0].lam == 0
    for k in range(2, g.n + 1):
        primal = lp_primal(psp, k)
        assert primal.objective == oracle_lp_value(g, k), k
        assert verify_primal(g, primal.x, k).ok, k
        r = round_lp(psp, primal)
        assert r.certified and r.cut.part_count >= k, k
        assert r.cut.crossing_value <= r.bound == 2 * (1 - F(1, g.n)) * primal.objective, k


@pytest.mark.parametrize("k", range(2, 8))
def test_positive_sequence_rounds_as_the_input_sequence(k):
    """The primal of ``positive()`` cuts the zero-capacity edges between
    the parts of its p0, so rounding and the 2-approximation read it as
    they read the input's sequence: two unit triangles joined by a 0 edge,
    with a seventh vertex hung on another."""
    g = parse_graph("p kcut 7 8\ne 1 2 1\ne 1 3 1\ne 2 3 1\ne 4 5 1\ne 4 6 1\ne 5 6 1\ne 3 4 0\ne 6 7 0\n")
    psp = principal_sequence(g)
    pos = psp.positive()
    primal = lp_primal(pos, k)
    assert primal.objective == lp_primal(psp, k).objective
    r = round_lp(pos, primal)
    assert r.certified and r.cut.part_count >= k
    assert r.cut.crossing_value == round_lp(psp, lp_primal(psp, k)).cut.crossing_value <= r.bound
    assert ravi_sinha_cut(pos, k).crossing_value == ravi_sinha_cut(psp, k).crossing_value


def test_reports_are_recomputable(tt):
    cut, report = min_kcut(principal_sequence(tt), 3)
    for c in report.cuts:
        assert c.part_count >= 3
        assert partition_from_blocks(tt, c.parts).crossing_value == c.crossing_value


@pytest.mark.parametrize("n", [13, 14, 15, 16])
def test_min_kcut_against_gomory_hu_split(n):
    """Above the oracle's reach, exact ``min_kcut`` k=3 against the split
    of Saran and Vazirani 1995: remove the k-1 lightest edges of a
    Gomory-Hu tree (networkx).  Its k-cut is the union of their cuts, so
    its value lies between our minimum and their weight sum, and that sum
    is within 2 - 2/k of the minimum."""
    k = 3
    g = _random_connected(random.Random(n), n, 2 * n)
    ref = nx.Graph()
    ref.add_nodes_from(range(n))
    for e in g.edges:
        if ref.has_edge(e.u, e.v):
            ref[e.u][e.v]["capacity"] += e.cap
        else:
            ref.add_edge(e.u, e.v, capacity=e.cap)
    tree = nx.gomory_hu_tree(ref)
    lightest = sorted(tree.edges(data="weight"), key=lambda e: e[2])[: k - 1]
    tree.remove_edges_from((u, v) for u, v, _ in lightest)
    split = partition_from_blocks(g, [sorted(c) for c in nx.connected_components(tree)])
    weight = sum(w for _, _, w in lightest)
    best, _ = min_kcut(principal_sequence(g), k)
    assert split.part_count == k
    assert best.crossing_value <= split.crossing_value <= weight <= (2 - F(2, k)) * best.crossing_value
