"""Approximate k-cuts on Thorup's greedy trees, and the work of the scan.

Approximate mode packs the distinct greedy trees in c+z up to the first
that brings the packing's value to (1 - eps) lambda_j, each weighted its
multiplicity times c(e*)/load(e*), or, past the stream's cap, takes the
exact packing.  Either way its minimizers are exact mode's and the
oracle's.  A plain-Fraction loop checks the trees, their weights, the
value bar and the loads within c+z, and a cap of 0 forces the fallback.

The scan scores only the proper merges of a new piece layout, those that
keep the two ends of every removed tree edge apart; the work bounds pin
how few trees and merges that leaves on two of perfbench's graphs.  It
reads any packing, greedy or exact, heaviest first and stops once the
measured LP gap allows, and when h >= n - p0 it reads one maximal forest
and builds no packing; the tree counts pin both.  There, with every tree
edge removable, a traced peak pins how little the walk over a layout's
groupings holds.
"""

import io
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from kcut import (
    Edge,
    Graph,
    enumerate_approx_kcuts,
    lp_dual,
    min_kcut,
    oracle_min_kcut,
    principal_sequence,
    ravi_sinha_cut,
)
from kcut import cuts, lp, packing
from kcut.cli import main
from kcut.graph import partition_sort_key
from kcut.oracle import enum_partitions, partition_table

from conftest import _planted, _random_connected, assert_recomputed
from test_psp_pin import _text
from test_cuts import _disconnected_multigraphs, _strength_zero_multigraphs
from test_scan_property import _eps_packing, _multigraphs

F = Fraction


def _unit_complete(n):
    return Graph(n, tuple(Edge(u, v, F(1)) for u in range(n) for v in range(u + 1, n)))


def _greedy_reference(g, caps, bar):
    """Thorup's greedy packing in plain Fractions: (distinct trees in
    stream order, how many times each came up, packing value) at the first
    tree t with t / max(load/c) >= ``bar``.  Kruskal's scan by (load/c,
    edge id) with a plain union-find."""
    live = [i for i, c in enumerate(caps) if c > 0]
    load = {i: 0 for i in live}
    trees, count = [], []
    t = 0
    while True:
        root = list(range(g.n))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        tree = []
        for i in sorted(live, key=lambda i: (F(load[i]) / caps[i], i)):
            a, b = find(g.edges[i].u), find(g.edges[i].v)
            if a != b:
                root[b] = a
                tree.append(i)
        tree = tuple(sorted(tree))
        if tree not in trees:
            trees.append(tree)
            count.append(0)
        count[trees.index(tree)] += 1
        for i in tree:
            load[i] += 1
        t += 1
        value = t / max(F(load[i]) / caps[i] for i in live)
        if value >= bar:
            return trees, count, value


def _scans_with_greedy_calls(g, k, eps):
    """``min_kcut`` in approximate mode, and the (dual, bar, strict,
    packing) of each ``_greedy_packing`` call it made."""
    calls = []
    real = cuts._greedy_packing

    def spy(graph, dual, bar, strict=False):
        packed = real(graph, dual, bar, strict)
        calls.append((dual, bar, strict, packed))
        return packed

    with mock.patch.object(cuts, "_greedy_packing", spy):
        return min_kcut(principal_sequence(g), k, eps=eps), calls


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(_multigraphs(), _disconnected_multigraphs(), _strength_zero_multigraphs()),
    st.sampled_from(["1/(2k)", "1/20", "1/(2k+1)"]),
)
def test_greedy_approx_scan_matches_exact_and_oracle_property(g, which):
    for k in range(2, g.n + 1):
        eps = {"1/(2k)": F(1, 2 * k), "1/20": F(1, 20), "1/(2k+1)": F(1, 2 * k + 1)}[which]
        ocut, oall = oracle_min_kcut(g, k)
        minimizers = {p.parts for p in oall}
        cut, report = min_kcut(principal_sequence(g), k)
        assert cut.crossing_value == ocut.crossing_value and {c.parts for c in report.cuts} == minimizers
        (acut, areport), calls = _scans_with_greedy_calls(g, k, eps)
        assert acut == cut and areport.cuts == report.cuts, k
        rounded = ravi_sinha_cut(principal_sequence(g), k)  # round_lp's cut of the closed-form optimum
        assert_recomputed(g, [ocut, *oall, cut, *report.cuts, rounded])
        assert areport.mode == "approx"
        for dual, bar, strict, packed in calls:
            caps = [e.cap + z for e, z in zip(g.edges, dual.z)]
            assert bar == (1 - eps) * dual.total_y and not strict, k
            ref_trees, count, value = _greedy_reference(g, caps, bar)
            assert packed.trees == tuple(ref_trees), k
            unit = value / sum(count)  # c(e*)/load(e*)
            assert packed.weights == tuple(m * unit for m in count), k
            assert packed.total_value == value >= bar
            assert all(load <= caps[i] for i, load in packed.loads().items()), k
        # past the cap, the exact packing's support: the same minimizers
        with mock.patch.object(packing, "GREEDY_TREES_PER_EDGE", 0):
            (fcut, freport), fcalls = _scans_with_greedy_calls(g, k, eps)
        assert all(packed is None for *_, packed in fcalls)
        assert fcut == cut and freport.cuts == report.cuts, k


def test_greedy_stream_stops_at_the_cap():
    g = _random_connected(random.Random(6), 6, 7)
    caps = [int(e.cap) for e in g.edges]
    assert len(list(packing.greedy_trees(g, caps))) == packing.GREEDY_TREES_PER_EDGE * g.m
    with mock.patch.object(packing, "GREEDY_TREES_PER_EDGE", 1):
        assert len(list(packing.greedy_trees(g, caps))) == g.m
    with mock.patch.object(packing, "GREEDY_TREES_PER_EDGE", 0):
        assert list(packing.greedy_trees(g, caps)) == []
    # zero-capacity edges count towards no cap
    caps[0] = 0
    assert len(list(packing.greedy_trees(g, caps))) == packing.GREEDY_TREES_PER_EDGE * (g.m - 1)


def test_approx_k3_scans_few_greedy_trees(monkeypatch):
    # perfbench's rand-n6-x7: 145 multiplicative-weights support trees, 6 greedy ones; 2 are read
    g = _random_connected(random.Random(6), 6, 7)
    psp = principal_sequence(g)
    support = _eps_packing(g, lp_dual(psp, 3), F(1, 6)).support()
    trees, generated = _work(monkeypatch)
    _, report = min_kcut(psp, 3, eps=F(1, 6))
    assert len(support) == 6 and len(trees) == 2 and generated == []
    assert report.cuts == min_kcut(psp, 3)[1].cuts


def test_exact_k3_scores_only_proper_merges():
    """Only a proper merge within the running best has its part masks
    built: its parts keep the two ends of each removed edge apart.  On
    unit K5 some improper merges are within the limit.  perfbench's
    planted-k3-s4 reads one of its three support trees, scores 55 piece
    layouts and keeps the 10 cuts it builds; scoring every new layout in
    full scored 465 and kept 1,357."""
    k5 = Graph(5, tuple(Edge(u, v, F(1)) for u in range(5) for v in range(u + 1, 5)))
    real = cuts._layout_cuts
    for g in (k5, _planted(3, 4)):
        layouts, built = [0], []

        def spy(n, wires, masks, removed, min_parts, limit):
            layouts[0] += 1
            for parts, value in real(n, wires, masks, removed, min_parts, limit):
                assert not any(m >> u & 1 and m >> v & 1 for m in parts for u, v in removed)
                built.append(parts)
                yield parts, value

        with mock.patch.object(cuts, "_layout_cuts", spy):
            _, report = min_kcut(principal_sequence(g), 3)
    assert report.distinct_cuts == len(built) == 10
    assert report.candidates_examined == 1210
    assert layouts[0] <= 60


def test_forest_rule_walk_holds_one_grouping_at_a_time():
    """At n=10, k=4 and alpha = 3/2 the forest rule (h = 9 = n - 1) scans
    one spanning tree with every edge removable, so layouts reach ten
    pieces and Bell(10) groupings; the walk keeps only its stack and the
    cuts within the limit, under 2 MiB traced peak."""
    psp = principal_sequence(_random_connected(random.Random(10), 10, 20))
    tracemalloc.start()
    try:
        report = enumerate_approx_kcuts(psp, 4, F(3, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.h == 9 and report.candidates_examined == 431_267
    assert peak < 2 * 2**20


def _work(monkeypatch):
    """(trees read, column generations) lists, filled by spies on the
    ``_rooted_forest`` calls made from ``cuts``, one per tree a scan reads,
    and on ``lp``'s column generation in c+z."""
    trees, generated = [], []
    rooted, generate = cuts._rooted_forest, lp._column_generation
    monkeypatch.setattr(cuts, "_rooted_forest", lambda n, tree, edges: trees.append(tree) or rooted(n, tree, edges))
    monkeypatch.setattr(lp, "_column_generation", lambda *a: generated.append(a) or generate(*a))
    return trees, generated


def test_scan_stops_on_the_measured_gap(monkeypatch):
    """Exact mode reads the greedy packing, with no column generation:
    planted-k3-s4 at k=3 finds its optimum, 3, in its one greedy tree, and
    unit K6 at k=3 reads all 5 of its greedy trees (its exact c+z packing
    has 15 and 5 of them were read).  The eps packing stops on its own LP
    too: a random graph with 12 vertices at k=4 and eps = 1/8 reads 4 of
    its 28 greedy trees, 1,111,044 candidates where all 28 gave 7,777,308,
    and finds exact mode's minimizers."""
    for g, read in ((_planted(3, 4), 1), (_unit_complete(6), 5)):
        trees, generated = _work(monkeypatch)
        min_kcut(principal_sequence(g), 3)
        assert generated == [] and len(trees) == read
    g = _random_connected(random.Random(12), 12, 24)
    psp = principal_sequence(g)
    held = _eps_packing(g, lp_dual(psp, 4), F(1, 8))
    trees, generated = _work(monkeypatch)
    _, report = min_kcut(psp, 4, eps=F(1, 8))
    assert generated == [] and len(held.trees) == 28 and len(trees) == 4
    assert report.candidates_examined == 1_111_044
    assert report.cuts == min_kcut(psp, 4)[1].cuts


def test_forest_rule_builds_no_packing(monkeypatch, capsys):
    """When h >= n - p0 every partition h-respects every maximal forest,
    so one forest is read, with no column generation: perfbench's
    ``enumerate --k 3 --alpha 3/2`` on rand-n6-x6 (h = 6) and exact
    ``solve --k 5`` on rand-n7-x9 (h = 7)."""
    for g, argv in (
        (_random_connected(random.Random(6), 6, 6), ["enumerate", "--k", "3", "--alpha", "3/2"]),
        (_random_connected(random.Random(7), 7, 9), ["solve", "--k", "5", "--all"]),
    ):
        trees, generated = _work(monkeypatch)
        monkeypatch.setattr("sys.stdin", io.StringIO(_text(g)))
        assert main(argv) == 0
        capsys.readouterr()
        assert generated == [] and len(trees) == 1


def test_approx_k5_on_random21_needs_no_fallback(monkeypatch):
    """The case that once passed the greedy stream's cap: Random(21), n=6,
    at k=5 and eps=1/20.  The stream now meets its bar within the cap, and
    under the forest rule (h = 8 >= 5) the scan reads one forest and runs
    no column generation."""
    g = _random_connected(random.Random(21), 6, 6)
    psp = principal_sequence(g)
    assert _eps_packing(g, lp_dual(psp, 5), F(1, 20)) is not None
    trees, generated = _work(monkeypatch)
    _, report = min_kcut(psp, 5, eps=F(1, 20))
    assert generated == [] and len(trees) == 1
    assert report.cuts == min_kcut(psp, 5)[1].cuts


def test_exact_scans_past_the_cap_run_one_column_generation(monkeypatch):
    """With a cap of 0 the greedy stream yields no tree, so an exact or
    ``enumerate`` scan with no caller's dual builds the exact dual, with one
    column generation, and keeps the oracle's answers.  Each (k, alpha)
    below reads a packing: k > p0 and h < n - p0."""
    k6 = _unit_complete(6)
    c8 = Graph(8, tuple(Edge(*sorted((v, (v + 1) % 8)), F(1)) for v in range(8)))
    g7 = _random_connected(random.Random(7), 7, 9)
    rational = Graph(g7.n, tuple(e._replace(cap=e.cap / (1 + i % 3)) for i, e in enumerate(g7.edges)))
    cases = [(k6, 3, None), (k6, 2, F(3, 2)), (c8, 4, None), (c8, 3, F(3, 2)), (g7, 4, None), (rational, 3, None)]
    cases += [(rational, 2, F(3, 2)), (_planted(2, 4), 3, None), (_planted(2, 4), 3, F(3, 2))]
    _, generated = _work(monkeypatch)
    monkeypatch.setattr(packing, "GREEDY_TREES_PER_EDGE", 0)
    for g, k, alpha in cases:
        least, minimizers = partition_table(g).min_kcut(k)
        generated.clear()
        if alpha is None:
            cut, report = min_kcut(principal_sequence(g), k)
            assert cut == least and report.cuts == minimizers, k
        else:
            bar = alpha * least.crossing_value
            within = [p for p in enum_partitions(g) if p.part_count >= k and p.crossing_value <= bar]
            within.sort(key=lambda p: (p.crossing_value, partition_sort_key(p)))
            assert enumerate_approx_kcuts(principal_sequence(g), k, alpha).cuts == tuple(within), k
        assert len(generated) == 1, (k, alpha)


def test_perfbench_exact_jobs_run_no_column_generation(monkeypatch, capsys):
    """perfbench's exact ``solve`` jobs on rand-n7-x9 (k=4), planted-k3-s4
    and unit K6 (k=3) read the greedy packing, so none runs a column
    generation in ``lp`` or ``packing``."""
    generated = []
    for module in (lp, packing):
        real = module._column_generation
        monkeypatch.setattr(module, "_column_generation", lambda *a, real=real: generated.append(a) or real(*a))
    for g, k in ((_random_connected(random.Random(7), 7, 9), 4), (_planted(3, 4), 3), (_unit_complete(6), 3)):
        monkeypatch.setattr("sys.stdin", io.StringIO(_text(g)))
        assert main(["solve", "--k", str(k), "--all"]) == 0
        capsys.readouterr()
        assert generated == [], k
