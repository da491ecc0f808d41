import io
import itertools
import random
from fractions import Fraction
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from kcut import (
    Edge,
    Graph,
    cuts_from_tree,
    enumerate_approx_kcuts,
    exact_pack,
    global_mincut,
    global_mincut_detail,
    min_1respect,
    min_2respect,
    min_kcut,
    min_spanning_forest,
    oracle_min_kcut,
    parse_graph,
    partition_from_blocks,
    principal_sequence,
    respect_stats,
    spanning_forests,
)
from kcut.cli import main
from kcut.graph import _mask_partition, scaled_capacities
from kcut import mincut
from kcut.mincut import _scan_trees, _tree_tables
from kcut.packing import GREEDY_TREES_PER_EDGE
from kcut.oracle import partition_sort_key

from conftest import TT_BRIDGE, _random_connected, assert_recomputed, edge_ids_of_partition, full_suite

F = Fraction


def _tables(g, tree):
    """``_tree_tables`` of a tree of g as the scan calls it: (masks, cuts,
    cross), the last two scaled by the returned scale."""
    caps, scale = scaled_capacities(g)
    positive = [(e.u, e.v, c) for e, c in zip(g.edges, caps) if c]
    return _tree_tables(g.n, tree, g.edges, positive), scale


def test_table_matches_direct_evaluation():
    rng = random.Random(99)
    checked = 0
    for name, g in full_suite():
        if g.n < 3 or not g.is_connected():
            continue
        forests = spanning_forests(g)
        tree = forests[rng.randrange(len(forests))]
        (masks, cuts, cross), scale = _tables(g, tree)
        for i in range(len(tree)):
            side = [v for v in range(g.n) if masks[i] >> v & 1]
            rest = [v for v in range(g.n) if not masks[i] >> v & 1]
            direct = partition_from_blocks(g, [side, rest]).crossing_value
            assert F(cuts[i], scale) == direct, name
            for j in range(i + 1, len(tree)):
                mask = masks[i] ^ masks[j]
                side = [v for v in range(g.n) if mask >> v & 1]
                rest = [v for v in range(g.n) if not mask >> v & 1]
                direct = partition_from_blocks(g, [side, rest]).crossing_value
                assert F(cuts[i] + cuts[j] - 2 * cross[j][i], scale) == direct, name
        checked += 1
        if checked >= 12:
            break


def test_min_1respect_fixtures(e1, tt, c5):
    assert min_1respect(e1, (0,)).crossing_value == 5
    weights = [1] * 7
    weights[TT_BRIDGE] = 0
    bridge_tree = min_spanning_forest(tt, weights)
    assert min_1respect(tt, bridge_tree).crossing_value == 1
    path = min_spanning_forest(c5, [1] * 5)
    assert min_1respect(c5, path).crossing_value == 2


def test_min_2respect_fixtures(c5, k4, tt):
    path = min_spanning_forest(c5, [1] * 5)
    assert min_2respect(c5, path).crossing_value == 2
    star = (0, 1, 2)  # edges 1-2, 1-3, 1-4
    assert min_2respect(k4, star).crossing_value == 3
    for tree in spanning_forests(tt):
        assert min_2respect(tt, tree).crossing_value == 1


def test_two_respect_no_worse_than_one():
    for name, g in full_suite()[:15]:
        if g.n < 3 or not g.is_connected():
            continue
        tree = min_spanning_forest(g, [1] * g.m)
        assert min_2respect(g, tree).crossing_value <= min_1respect(g, tree).crossing_value, name


def test_global_mincut_fixtures(tt, c5, k4, e1):
    assert global_mincut(tt).crossing_value == 1
    assert global_mincut(tt).parts == ((0, 1, 2), (3, 4, 5))
    assert global_mincut(c5).crossing_value == 2
    assert global_mincut(k4).crossing_value == 3
    assert global_mincut(e1).crossing_value == 5


def test_global_mincut_matches_oracle_on_suite():
    for name, g in full_suite():
        cut, _ = oracle_min_kcut(g, 2)
        assert global_mincut(g).crossing_value == cut.crossing_value, name


def test_mincut_q2_bound():
    for name, g in full_suite()[:15]:
        packing = exact_pack(principal_sequence(g))
        _, argmins = oracle_min_kcut(g, 2)
        for p in argmins:
            stats = respect_stats(packing, edge_ids_of_partition(g, p), 2)
            assert stats.q_h >= F(1, 2) + F(1, g.n), name


def test_approx_mincut_enumeration_complete():
    # the k=2 enumeration pipeline is complete for approximate mincuts too
    for name, g in full_suite()[:10]:
        if g.n < 3:
            continue
        report = enumerate_approx_kcuts(principal_sequence(g), 2, F(3, 2))
        from kcut import enum_partitions

        threshold = report.threshold
        expected = {
            p.parts
            for p in enum_partitions(g)
            if p.part_count >= 2 and p.crossing_value <= threshold
        }
        assert {c.parts for c in report.cuts} == expected, name


def test_zero_capacity_cut_short_circuit():
    g = parse_graph("p kcut 4 3\ne 1 2 1\ne 2 3 0\ne 3 4 1\n")
    cut = global_mincut(g)
    assert cut.crossing_value == 0 and cut.part_count >= 2


def test_global_mincut_input_validation():
    g = parse_graph("p kcut 4 2\ne 1 2 1\ne 3 4 1\n")
    with pytest.raises(ValueError):
        global_mincut(g)
    with pytest.raises(ValueError):
        global_mincut(parse_graph("p kcut 1 0\n"))


def test_tree_must_span(c5):
    c4_chord = parse_graph("p kcut 4 5\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 1 4 1\ne 1 3 1\n")
    for scan in (_tables, min_1respect, min_2respect):
        with pytest.raises(ValueError):
            scan(c5, (0, 1))
        with pytest.raises(ValueError):  # the tree edges hold the 4-cycle
            scan(c4_chord, (0, 1, 2, 3))
    # a bad tree anywhere in the list of a many-tree scan
    with pytest.raises(ValueError):
        _scan_trees(c5, [(0, 1, 2, 3), (0, 1)])
    with pytest.raises(ValueError):
        _scan_trees(c4_chord, [(0, 1, 2), (0, 1, 2, 3), (0, 1, 4)])
    for scan in (min_1respect, min_2respect):  # one vertex: no edge to cut
        with pytest.raises(ValueError):
            scan(parse_graph("p kcut 1 0\n"), ())


@st.composite
def _graphs_with_tree(draw, max_n=7, max_extra=8, caps=(F(0), F(1), F(2), F(3, 2), F(1, 3), F(5))):
    """A multigraph with n <= max_n, at most max_extra edges besides one of
    its spanning trees, and that tree (as edge ids).

    The tree joins each vertex to an earlier one under a drawn labelling;
    extra edges may be parallel, and capacities, drawn from ``caps``, may
    be 0 or rational."""
    n = draw(st.integers(2, max_n))
    label = draw(st.permutations(range(n)))
    caps = st.sampled_from(caps)
    pairs = [(label[v], label[draw(st.integers(0, v - 1))]) for v in range(1, n)]
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs += draw(st.lists(extra, max_size=max_extra))
    order = draw(st.permutations(range(len(pairs))))
    edges = tuple(Edge(min(pairs[i]), max(pairs[i]), draw(caps)) for i in order)
    tree = tuple(sorted(order.index(i) for i in range(n - 1)))
    return Graph(n, edges), tree


def _side_of_removal(g, tree, removed):
    """Vertices whose tree path from vertex 0 uses an odd number of the
    removed tree edges: the one side of the cut crossing the tree in them."""
    adj = [[] for _ in range(g.n)]
    for eid in tree:
        e = g.edges[eid]
        adj[e.u].append((e.v, eid))
        adj[e.v].append((e.u, eid))
    parity = {0: 0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v, eid in adj[u]:
            if v not in parity:
                parity[v] = parity[u] ^ (eid in removed)
                stack.append(v)
    return [v for v in range(g.n) if parity[v]]


def _two_sided(g, side):
    return partition_from_blocks(g, [side, [v for v in range(g.n) if v not in side]])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_graphs_with_tree())
def test_tree_scan_matches_partition_values_property(graph_and_tree):
    g, tree = graph_and_tree
    (masks, cuts, cross), scale = _tables(g, tree)
    for extra in set(range(g.m)) - set(tree):  # the tree plus any edge has a cycle
        with pytest.raises(ValueError):
            _tables(g, tree + (extra,))
    for i in range(len(tree)):
        side = [v for v in range(g.n) if masks[i] >> v & 1]
        assert F(cuts[i], scale) == _two_sided(g, side).crossing_value
        for j in range(i + 1, len(tree)):
            side = [v for v in range(g.n) if (masks[i] ^ masks[j]) >> v & 1]
            assert F(cuts[i] + cuts[j] - 2 * cross[j][i], scale) == _two_sided(g, side).crossing_value
    brute = {}
    for f in (1, 2):
        for removed in itertools.combinations(tree, f):
            p = _two_sided(g, _side_of_removal(g, tree, set(removed)))
            brute.setdefault(p.crossing_value, []).append(p.parts)
    best = min_2respect(g, tree)
    assert best.crossing_value == min(brute)
    assert best.parts == min(brute[best.crossing_value])  # the canonical tie-break
    mincut, _, _ = global_mincut_detail(g)
    assert_recomputed(g, [best, min_1respect(g, tree), global_mincut(g), mincut])
    for h, k in ((1, 2), (2, 2), (2, 3), (3, 3)):
        cuts = list(cuts_from_tree(g, tree, h, k))
        assert all(cut.part_count >= k for cut in cuts)
        assert_recomputed(g, cuts)


@st.composite
def _graphs_with_trees(draw):
    """A multigraph with n <= 8 and a list of its spanning trees, shuffled
    and with repeats, so that equal cuts in several trees and witnesses
    other than tree 0 occur.  The trees besides the drawn one are minimum
    spanning trees under a drawn order of the edges.  The graphs are denser
    than ``_graphs_with_tree``'s and draw unit capacities first: a tree
    misses a least cut only when it crosses it three times or more."""
    g, tree = draw(_graphs_with_tree(max_n=8, max_extra=16, caps=(F(1), F(2), F(0), F(1, 3))))
    orders = st.permutations(range(g.m))
    pool = [tree] + [min_spanning_forest(g, draw(orders)) for _ in range(draw(st.integers(1, 5)))]
    return g, draw(st.permutations(pool + draw(st.lists(st.sampled_from(pool), max_size=4))))


def _fold_of_one_tree_scans(g, trees):
    """The many-tree scan as a fold of one-tree scans: the least cut under
    ``partition_sort_key``, kept from the first tree that holds it."""
    best = None
    witness = None
    for idx, tree in enumerate(trees):
        cut = min_2respect(g, tree)
        if (
            best is None
            or cut.crossing_value < best.crossing_value
            or (cut.crossing_value == best.crossing_value and partition_sort_key(cut) < partition_sort_key(best))
        ):
            best = cut
            witness = idx
    return best, witness


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_graphs_with_trees())
def test_many_tree_scan_matches_fold_property(graph_and_trees):
    g, trees = graph_and_trees
    cut = _scan_trees(g, trees)
    ref, ref_witness = _fold_of_one_tree_scans(g, trees)
    target(float(ref_witness), label="witness")  # steer towards cuts first held by a late tree
    assert cut.crossing_value == ref.crossing_value
    assert cut.parts == ref.parts


def _unskipped_scan(g, trees, pairs=True):
    """``_scan_trees``' cut, from a scan of every tree, and the index of
    the first tree holding it: the witness ``global_mincut_detail`` names."""
    caps, scale = scaled_capacities(g)
    positive = [(e.u, e.v, c) for e, c in zip(g.edges, caps) if c]
    n, full = g.n, (1 << g.n) - 1
    best, side, key, witness = sum(caps) + 1, 0, None, None

    def offer(value, mask, idx):
        nonlocal best, side, key, witness
        cand = full ^ mask
        if cand == side:
            return
        cand_key = [v for v in range(n) if cand >> v & 1]
        if value < best or cand_key < key:
            best, side, key, witness = value, cand, cand_key, idx

    for idx, tree in enumerate(trees):
        masks, cuts, cross = _tree_tables(n, tree, g.edges, positive)
        for i, ci in enumerate(cuts):
            mi = masks[i]
            if ci <= best:
                offer(ci, mi, idx)
            for j, x in enumerate(cross[i] if pairs else ()):
                v = ci + cuts[j] - 2 * x
                if v <= best:
                    offer(v, mi ^ masks[j], idx)
    if witness is None:
        raise ValueError("no tree edge to cut")
    return _mask_partition(n, (side, full ^ side), F(best, scale)), witness


def _networkx_mincut(g):
    simple = nx.Graph()
    simple.add_nodes_from(range(g.n))
    for e in g.edges:
        weight = simple.get_edge_data(e.u, e.v, {"weight": 0})["weight"]
        simple.add_edge(e.u, e.v, weight=weight + e.cap)
    value, _ = nx.stoer_wagner(simple)
    return value


@pytest.mark.parametrize("n, extra", [(12, 20), (20, 40), (30, 60), (40, 80), (60, 140)])
def test_global_mincut_matches_stoer_wagner(n, extra):
    ladder = _random_connected(random.Random(n), n, extra)
    g = Graph(n, tuple(Edge(e.u, e.v, e.cap / 3) for e in ladder.edges))
    cut = global_mincut(g)
    assert cut.crossing_value == _networkx_mincut(g)
    assert cut.crossing_value == partition_from_blocks(g, cut.parts).crossing_value


def test_global_mincut_past_the_cap_matches_oracle_and_stoer_wagner():
    # no greedy tree at all: the multiplicative-weights support at mincut.EPS alone is scanned
    with mock.patch("kcut.packing.GREEDY_TREES_PER_EDGE", 0):
        for name, g in full_suite():
            _, argmins = oracle_min_kcut(g, 2)
            cut = global_mincut(g)
            assert cut == min(argmins, key=partition_sort_key), name
            assert cut.crossing_value == partition_from_blocks(g, cut.parts).crossing_value, name
        for n, extra in ((12, 20), (20, 40)):
            g = _random_connected(random.Random(n), n, extra)
            assert global_mincut(g).crossing_value == _networkx_mincut(g)


# The full ``mincut`` JSON on three multigraphs with parallel edges, on
# which a scanned greedy tree joins the same vertex pairs as an earlier
# one: such a tree offers the same cuts, so reading it changes no answer.
PARALLEL_MINCUT = {
    'p kcut 4 11\ne 2 3 3\ne 1 4 3\ne 1 3 1\ne 3 4 3\ne 2 3 2\ne 2 3 3\ne 1 3 3\ne 2 3 3\ne 1 3 1\ne 1 4 3\ne 1 3 1\n':
        '{"mincut": {"value": "9/1", "parts": 2, "partition": [[1, 2, 3], [4]]}, "crossing_edges": [1, 3, 9], '
        '"witness_tree": 0, "witness_tree_edges": [0, 1, 2]}',
    'p kcut 5 13\ne 4 5 1\ne 4 5 1\ne 1 2 3\ne 4 5 2\ne 1 2 2\ne 2 3 1\ne 1 4 1\ne 4 5 2\ne 1 4 1\ne 1 5 2\ne 2 3 2\n'
    'e 2 3 2\ne 1 2 3\n':
        '{"mincut": {"value": "4/1", "parts": 2, "partition": [[1, 2, 3], [4, 5]]}, "crossing_edges": [6, 8, 9], '
        '"witness_tree": 0, "witness_tree_edges": [0, 2, 5, 8]}',
    'p kcut 6 15\ne 3 6 2\ne 1 2 3\ne 1 4 2\ne 3 5 3\ne 2 6 1\ne 1 4 3\ne 3 6 1\ne 1 2 1\ne 1 2 2\ne 3 5 2\ne 2 6 2\n'
    'e 1 4 1\ne 2 6 1\ne 1 2 1\ne 4 6 2\n':
        '{"mincut": {"value": "3/1", "parts": 2, "partition": [[1, 2, 4, 6], [3, 5]]}, "crossing_edges": [0, 6], '
        '"witness_tree": 0, "witness_tree_edges": [0, 1, 2, 3, 4]}',
}


@pytest.mark.parametrize("text", list(PARALLEL_MINCUT))
def test_mincut_output_pinned_on_parallel_multigraphs(text, capsys, monkeypatch):
    g, shapes = parse_graph(text), []
    real = mincut._tree_tables

    def recording(n, tree, edges, positive):
        shapes.append(sorted((edges[i].u, edges[i].v) for i in tree))
        return real(n, tree, edges, positive)

    monkeypatch.setattr(mincut, "_tree_tables", recording)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["mincut"]) == 0
    assert capsys.readouterr().out == PARALLEL_MINCUT[text] + "\n"
    assert any(shape in shapes[:i] for i, shape in enumerate(shapes))


@st.composite
def _mincut_multigraphs(draw):
    """A multigraph with n <= 9 whose positive-capacity edges connect it:
    a spanning tree of positive rational capacities, extra edges that may
    be 0 and parallel, and a parallel copy of at least one edge."""
    caps = (F(0), F(1), F(2), F(3, 2), F(1, 3), F(5))
    g, tree = draw(_graphs_with_tree(max_n=9, max_extra=14, caps=caps))
    positive = st.sampled_from(caps[1:])
    edges = [Edge(e.u, e.v, draw(positive)) if i in tree and not e.cap else e for i, e in enumerate(g.edges)]
    for i in draw(st.lists(st.integers(0, g.m - 1), min_size=1, max_size=4)):
        edges.append(Edge(edges[i].u, edges[i].v, draw(st.sampled_from(caps))))
    return Graph(g.n, tuple(edges))


@st.composite
def _two_clusters(draw):
    """Two complete clusters of heavy edges joined by 3 to 6 light ones,
    some of them 0, with drawn vertex labels and edge order.  The least
    cut is mostly the light one, and an early greedy tree often crosses it
    three times or more."""
    a, b = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    n = a + b
    heavy = st.sampled_from([F(5), F(6), F(11, 2)])
    light = [draw(st.sampled_from([F(1), F(1, 2)]))]
    light += draw(st.lists(st.sampled_from([F(0), F(1), F(1, 2)]), min_size=2, max_size=5))
    pairs = [p for lo, hi in ((0, a), (a, n)) for p in itertools.combinations(range(lo, hi), 2)]
    caps = [draw(heavy) for _ in pairs] + light
    pairs += [(draw(st.integers(0, a - 1)), draw(st.integers(a, n - 1))) for _ in light]
    label = draw(st.permutations(range(n)))
    order = draw(st.permutations(range(len(pairs))))
    edges = ((label[pairs[i][0]], label[pairs[i][1]], caps[i]) for i in order)
    return Graph(n, tuple(Edge(min(u, v), max(u, v), c) for u, v, c in edges))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(_mincut_multigraphs(), _two_clusters()))
def test_greedy_mincut_matches_the_full_support_scan_property(g):
    cut, witness, packing = global_mincut_detail(g)
    support = packing.support()
    ref, ref_witness = _unskipped_scan(g, support)  # the scan of every support tree it replaces
    assert (cut, witness) == (ref, ref_witness)
    assert global_mincut(g) == ref
    # no greedy tree at all: the support alone is scanned
    with mock.patch("kcut.packing.GREEDY_TREES_PER_EDGE", 0):
        assert global_mincut_detail(g) == (ref, ref_witness, packing)
        assert global_mincut(g) == ref


@pytest.mark.parametrize("n, extra", [(20, 40), (40, 80), (60, 140)])
def test_global_mincut_builds_few_tree_tables(monkeypatch, n, extra):
    built = []
    real, real_packing = mincut._tree_tables, mincut.mwu_pack

    def counting(n, tree, edges, positive):
        built.append(tree)
        return real(n, tree, edges, positive)

    def no_packing(*args, **kwargs):
        raise AssertionError("global_mincut built the multiplicative-weights packing")

    g = _random_connected(random.Random(n), n, extra)
    monkeypatch.setattr(mincut, "_tree_tables", counting)
    monkeypatch.setattr(mincut, "mwu_pack", no_packing)
    cut = global_mincut(g)
    assert 1 <= len(built) <= 10  # the support holds 676, 608 and 1,147 trees
    # the witness needs the packing: one is built, and its trees get no tables
    packings, greedy = [], len(built)

    def one_packing(*args, **kwargs):
        packings.append(real_packing(*args, **kwargs))
        return packings[-1]

    monkeypatch.setattr(mincut, "mwu_pack", one_packing)
    assert global_mincut_detail(g) == (cut, mock.ANY, packings[0])
    assert len(packings) == 1 and len(built) == 2 * greedy


def test_global_mincut_detail_builds_one_packing_on_the_suite(monkeypatch):
    # the greedy stream meets its bar before its cap on every suite graph,
    # so the packing is built once, for the witness, and never for the scan
    packings, streams = [], []
    real_packing, real_greedy = mincut.mwu_pack, mincut.greedy_trees

    def counting_packing(*args, **kwargs):
        packings.append(None)
        return real_packing(*args, **kwargs)

    def counting_greedy(g, caps):
        streams.append(0)
        for item in real_greedy(g, caps):
            streams[-1] += 1
            yield item

    monkeypatch.setattr(mincut, "mwu_pack", counting_packing)
    monkeypatch.setattr(mincut, "greedy_trees", counting_greedy)
    for name, g in full_suite():
        del packings[:], streams[:]
        cut, _, _ = global_mincut_detail(g)
        assert len(packings) == (cut.crossing_value > 0), name
        positive = sum(1 for e in g.edges if e.cap > 0)
        assert all(t < GREEDY_TREES_PER_EDGE * positive for t in streams), name


def test_global_mincut_detail_past_the_cap_builds_one_packing(monkeypatch):
    # with no greedy tree the cut's scan reads the packing, and the
    # witness is named in that same packing: one build per positive cut
    packings = []
    real_packing = mincut.mwu_pack

    def counting_packing(*args, **kwargs):
        packings.append(real_packing(*args, **kwargs))
        return packings[-1]

    monkeypatch.setattr(mincut, "mwu_pack", counting_packing)
    monkeypatch.setattr("kcut.packing.GREEDY_TREES_PER_EDGE", 0)
    for name, g in full_suite():
        del packings[:]
        cut, _, packing = global_mincut_detail(g)
        if cut.crossing_value > 0:
            assert len(packings) == 1 and packing is packings[0], name
        else:
            assert packings == [] and packing is None, name
