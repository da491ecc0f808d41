from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcut import (
    Edge,
    Graph,
    cut_of_partition,
    cuts_from_tree,
    dual_respect_bound,
    enum_partitions,
    enumerate_approx_kcuts,
    lp_dual,
    lp_primal,
    min_kcut,
    min_spanning_forest,
    mwu_pack,
    oracle_min_kcut,
    parse_graph,
    principal_sequence,
    ravi_sinha_cut,
    respect_stats,
    round_lp,
)
from kcut.cuts import bell_number, merge_pattern_count
from kcut.packing import PackConfig

from conftest import TT_BRIDGE, edge_ids_of_partition, full_suite

F = Fraction


def test_cuts_from_tree_c5(c5):
    tree = min_spanning_forest(c5, [1] * 5)
    cuts = list(cuts_from_tree(c5, tree, 1, 2))
    assert len(cuts) == 4
    assert all(c.value == 2 for c in cuts)


def test_cuts_from_tree_e1(e1):
    cuts = list(cuts_from_tree(e1, (0,), 1, 2))
    assert len(cuts) == 1 and cuts[0].value == 5


def test_cuts_from_tree_tt(tt):
    weights = [1] * 7
    weights[TT_BRIDGE] = 0
    tree = min_spanning_forest(tt, weights)
    target = ((0,), (1, 2), (3, 4, 5))
    assert any(
        c.partition.parts == target and c.value == 3
        for c in cuts_from_tree(tt, tree, 3, 3)
    )


def test_cuts_from_tree_h_too_small(c5):
    with pytest.raises(ValueError):
        list(cuts_from_tree(c5, (0, 1, 2, 3), 1, 3))


def test_min_kcut_fixtures(tt, c5):
    cut, report = min_kcut(tt, 2)
    assert cut.value == 1 and len(report.cuts) == 1
    assert cut.partition.parts == ((0, 1, 2), (3, 4, 5))
    cut, report = min_kcut(tt, 4)
    assert cut.value == 4
    cut, report = min_kcut(c5, 3)
    assert cut.value == 3 and len(report.cuts) == 10


def test_min_kcut_k_equals_n(k4):
    cut, report = min_kcut(k4, 4)
    assert cut.value == 6 and cut.k_achieved == 4


def test_min_kcut_matches_oracle_with_full_sets():
    for name, g in full_suite()[:16]:
        for k in range(2, min(g.n, 5) + 1):
            cut, report = min_kcut(g, k, mode="exact")
            ocut, oall = oracle_min_kcut(g, k)
            assert cut.value == ocut.value, (name, k)
            assert {c.partition.parts for c in report.cuts} == {
                p.parts for p in oall
            }, (name, k)


def test_min_kcut_approx_mode():
    for name, g in full_suite()[:10]:
        for k in range(2, min(g.n, 4) + 1):
            exact_cut, _ = min_kcut(g, k, mode="exact")
            approx_cut, report = min_kcut(g, k, mode="approx", eps=F(1, 2 * k))
            assert approx_cut.value == exact_cut.value, (name, k)
            if k < g.n:  # k = n short-circuits without packing
                assert report.h == 2 * k - 2


def test_min_kcut_approx_eps_validation(c5):
    with pytest.raises(ValueError):
        min_kcut(c5, 3, mode="approx", eps=F(1, 4))  # needs < 1/5


def test_optimal_cut_respect_witnesses():
    # every oracle-optimal k-cut crosses some exact-dual support tree at most
    # 2k-3 times; with eps < 1/(2k-1) some approximate support tree crosses
    # at most 2k-2 times
    for name, g in full_suite()[:12]:
        psp = principal_sequence(g)
        for k in range(2, min(g.n, 4) + 1):
            if k == g.n:
                continue
            dual = lp_dual(g, psp, k, explicit=True)
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
    report = enumerate_approx_kcuts(c5, 2, 1)
    assert len(report.cuts) == 10 and report.min_value == 2
    report = enumerate_approx_kcuts(tt, 2, 1)
    assert len(report.cuts) == 1
    report = enumerate_approx_kcuts(k4, 2, F(4, 3))
    assert len(report.cuts) == 7
    values = sorted(c.value for c in report.cuts)
    assert values == [3, 3, 3, 3, 4, 4, 4]


def test_enumerate_approx_complete_vs_oracle():
    for name, g in full_suite()[:12]:
        for k in (2, 3):
            if k > g.n:
                continue
            for alpha in (F(1), F(4, 3), F(3, 2)):
                report = enumerate_approx_kcuts(g, k, alpha)
                threshold = alpha * oracle_min_kcut(g, k)[0].value
                expected = {
                    p.parts
                    for p in enum_partitions(g)
                    if p.part_count >= k and p.crossing_value <= threshold
                }
                got = {c.partition.parts for c in report.cuts}
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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_disconnected_multigraphs())
def test_disconnected_kcuts_match_oracle_property(g):
    assert not g.is_connected()
    for k in range(2, g.n + 1):
        ocut, oall = oracle_min_kcut(g, k)
        minimizers = {p.parts for p in oall}
        cut, report = min_kcut(g, k)
        assert cut.value == ocut.value
        assert {c.partition.parts for c in report.cuts} == minimizers
        for alpha in (F(1), F(3, 2)):
            report = enumerate_approx_kcuts(g, k, alpha)
            assert report.min_value == ocut.value
            threshold = alpha * ocut.value
            assert {c.partition.parts for c in report.cuts} == {
                p.parts
                for p in enum_partitions(g)
                if p.part_count >= k and p.crossing_value <= threshold
            }


def test_enumeration_count_ceiling():
    # found count never exceeds (1/q_h) * f(h) * n^h with f the exact merge
    # count; a sanity ceiling, not a target
    for name, g in full_suite()[:8]:
        k = 2
        report = enumerate_approx_kcuts(g, k, F(3, 2))
        psp = principal_sequence(g)
        dual = lp_dual(g, psp, k, explicit=True)
        q_min = None
        for cut in report.cuts:
            stats = respect_stats(
                dual.packing,
                edge_ids_of_partition(g, cut.partition),
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

    packing = exact_pack(e1)
    stats = respect_stats(packing, [0], 1)
    assert stats.crossings == (1,) and stats.q_h == 1


def test_respect_fraction_bound_holds_for_optimal_cuts():
    for name, g in full_suite()[:12]:
        psp = principal_sequence(g)
        for k in range(2, min(g.n, 4) + 1):
            if k == g.n:
                continue
            dual = lp_dual(g, psp, k, explicit=True)
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
    r = round_lp(c5, lp_primal(principal_sequence(c5), 2))
    assert r.cut.value == 2 and r.certified
    assert r.cut.value == r.bound  # 8/5 * 5/4, the gap met with equality
    r = round_lp(tt, lp_primal(principal_sequence(tt), 3))
    assert r.cut.value == 3 and r.cut.k_achieved >= 3
    assert r.bound == F(25, 6)
    r = round_lp(k4, lp_primal(principal_sequence(k4), 2))
    assert r.cut.value == 3 == r.bound


def test_round_lp_bound_on_suite():
    for name, g in full_suite()[:16]:
        psp = principal_sequence(g)
        for k in range(2, g.n + 1):
            r = round_lp(g, lp_primal(psp, k))
            assert r.certified, (name, k)
            assert r.cut.k_achieved >= k, (name, k)
            assert r.cut.value <= r.bound, (name, k)


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
    r = round_lp(g, primal)
    assert r.cut.k_achieved >= 3
    assert r.cut.value <= r.bound


def test_round_lp_flags_suboptimal_input(c5):
    psp = principal_sequence(c5)
    primal = lp_primal(psp, 2)
    from kcut.lp import PrimalSolution

    doubled = PrimalSolution(
        2, tuple(min(2 * v, F(1)) for v in primal.x), primal.level_index,
        primal.alpha, 2 * primal.objective,
    )
    r = round_lp(c5, doubled)
    assert not r.certified
    assert r.cut.k_achieved >= 2


def test_round_lp_rejects_bad_x(c5):
    from kcut.lp import PrimalSolution

    bad = PrimalSolution(2, (F(2),) * 5, 1, F(1), F(10))
    with pytest.raises(ValueError):
        round_lp(c5, bad)


def test_ravi_sinha_fixtures(tt, c5):
    psp = principal_sequence(tt)
    cut = ravi_sinha_cut(tt, psp, 2)
    assert cut.value == 1 and cut.partition.parts == ((0, 1, 2), (3, 4, 5))
    cut = ravi_sinha_cut(tt, psp, 3)
    assert cut.value == 3
    cut = ravi_sinha_cut(c5, principal_sequence(c5), 4)
    assert cut.value == 4 and cut.k_achieved >= 4


def test_ravi_sinha_bound_on_suite():
    for name, g in full_suite()[:16]:
        psp = principal_sequence(g)
        for k in range(2, g.n + 1):
            cut = ravi_sinha_cut(g, psp, k)
            lp, _ = lp_primal(psp, k).objective, None
            assert cut.k_achieved >= k, (name, k)
            assert cut.value <= 2 * (1 - F(1, g.n)) * lp, (name, k)


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
    cut = ravi_sinha_cut(g, psp, 5)
    assert cut.k_achieved >= 5
    assert cut.value <= 2 * (1 - F(1, 6)) * lp_primal(psp, 5).objective


def test_reports_are_recomputable(tt):
    cut, report = min_kcut(tt, 3)
    for c in report.cuts:
        assert c.k_achieved >= 3
        assert cut_of_partition(tt, c.partition).value == c.value
