"""The bounded support scan against plain per-tree streams and the oracle.

``_enumerate_over_support`` keeps a running limit, floor(alpha * best),
skips each layout whose removed edges alone cost more, scores each distinct
piece layout once and keeps only cuts within the limit.  Against the
``cuts_from_tree`` stream of every tree it must keep every cut within alpha
of the stream's minimum, keep no value the stream does not give, and count
the same candidates.  The tree lists repeat trees and mix
multiplicative-weights supports with random maximal forests, so layouts
recur both within a tree and across trees.  Graphs of unit and zero
capacities tie many cuts at the limit, which ``min_kcut`` and
``enumerate_approx_kcuts`` must keep, as the oracle does.

``cuts_from_tree`` itself is checked against a brute-force stream that
takes the components of tree - F from ``component_blocks`` and prices each
merge with ``partition_from_blocks``.

The scan of a packing in c+z reads its support heaviest first and stops
once the weight read, S, has S (h - k + p0 + 1) > alpha U - LP, with LP
the packing's own (k - p0) Y - z(E) for its value Y.  On multigraphs with
several components or zero-capacity edges, so that p0 > 1 and the forest
rule (h >= n - p0) are both met, the exact, coupled-dual, greedy (eps) and
alpha scans must keep the oracle's answers, with and without a caller's
dual; and the trees crossing an optimal cut more than h times must weigh
at most (OPT - LP) / (h - k + p0 + 1) in the exact and the greedy
packings, the inequality the stop rests on.  With no caller's dual an
exact scan packs greedy trees until (2k - 2) Y - z(E) exceeds the value
of ``ravi_sinha_cut``; at h = 2k - 3 some tree of that packing then
h-respects each optimal cut.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import floor

from hypothesis import given, settings
from hypothesis import strategies as st

from kcut import (
    Edge,
    Graph,
    cuts_from_tree,
    dual_packing,
    enumerate_approx_kcuts,
    ideal_dual,
    ideal_packing,
    lp_dual,
    min_kcut,
    min_spanning_forest,
    partition_from_blocks,
    principal_sequence,
    ravi_sinha_cut,
)
from kcut.cuts import _enumerate_over_support, _greedy_packing, _groupings, _layout_cuts, _wires
from kcut.graph import component_blocks, partition_sort_key, scaled_capacities
from kcut.oracle import enum_partitions, partition_table, set_partitions
from kcut.packing import PackConfig, mwu_pack

from conftest import _random_connected

F = Fraction


@st.composite
def _multigraphs(draw):
    """n <= 7; about one in five graphs is disconnected.  Extra edges may be
    parallel, and capacities may be 0 or rational."""
    n = draw(st.integers(2, 7))
    label = draw(st.permutations(range(n)))
    caps = st.sampled_from([F(0), F(1), F(2), F(3, 2), F(1, 3), F(5)])
    connected = draw(st.integers(0, 4)) > 0
    pairs = []
    for v in range(1, n):
        if connected or draw(st.booleans()):
            pairs.append((label[v], label[draw(st.integers(0, v - 1))]))
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs += draw(st.lists(extra, max_size=6))
    return Graph(n, tuple(Edge(min(p), max(p), draw(caps)) for p in pairs))


@st.composite
def _scans(draw):
    """(graph, tree list with repeats, h, k): the trees are maximal forests
    under random weights and the support of a multiplicative-weights
    packing of the graph's positive-capacity edges."""
    g = draw(_multigraphs())
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = [min_spanning_forest(g, [rng.random() for _ in range(g.m)]) for _ in range(3)]
    if any(e.cap > 0 for e in g.edges):
        eps = draw(st.sampled_from([F(1, 4), F(1, 6)]))
        pool += list(mwu_pack(g, config=PackConfig(epsilon=eps)).support())
    trees = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    k = draw(st.integers(2, min(4, g.n)))
    h = draw(st.integers(k - 1, 2 * k - 2))
    return g, trees, h, k


def _eps_packing(g, dual, eps):
    """The greedy packing of an eps scan: up to the value (1 - eps) lambda_j."""
    return _greedy_packing(g, dual, (1 - eps) * dual.total_y)


def _mask_key(partition):
    return frozenset(sum(1 << v for v in part) for part in partition.parts)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_scans(), st.sampled_from([F(1), F(3, 2), F(2)]))
def test_memoized_scan_matches_per_tree_streams(scan, alpha):
    g, trees, h, k = scan
    stream: dict[frozenset, Fraction] = {}
    candidates = 0
    for tree in trees:
        for cut in cuts_from_tree(g, tree, h, k):
            candidates += 1
            stream.setdefault(_mask_key(cut), cut.crossing_value)
    found, scale, examined = _enumerate_over_support(g, trees, h, k, alpha)
    assert examined == candidates
    kept = {masks: F(v, scale) for masks, v in found.items()}
    assert all(masks in stream and stream[masks] == value for masks, value in kept.items())
    least = min(stream.values())
    assert min(kept.values()) == least
    bar = alpha * least
    assert {m for m, v in kept.items() if v <= bar} == {m for m, v in stream.items() if v <= bar}


def _brute_stream(g, tree, h, k):
    """(parts, value) of every subset F of at most h tree edges and every
    merge of the components of tree - F into at least k groups, in the
    scan's order: F by size then ``itertools.combinations``, components by
    smallest vertex, merges in ``set_partitions`` order."""
    forest = Graph(g.n, tuple(g.edges[eid] for eid in tree))
    for f in range(min(h, len(tree)) + 1):
        for removed in itertools.combinations(range(len(tree)), f):
            pieces = sorted(component_blocks(forest, exclude_edges=removed), key=min)
            for blocks in set_partitions(pieces):
                if len(blocks) >= k:
                    cut = partition_from_blocks(g, [sum(blk, []) for blk in blocks])
                    yield cut.parts, cut.crossing_value


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_scans())
def test_tree_stream_matches_component_brute_force(scan):
    g, trees, h, k = scan
    for tree in set(trees):
        stream = [(cut.parts, cut.crossing_value) for cut in cuts_from_tree(g, tree, h, k)]
        assert stream == list(_brute_stream(g, tree, h, k))


def test_groupings_count_the_set_partitions():
    for p in range(10):
        blocks = Counter(len(b) for b in set_partitions(list(range(p))))
        for k in range(p + 2):
            assert _groupings(9, k)[p] == sum([c for j, c in blocks.items() if j >= k]), (p, k)


@st.composite
def _piece_layouts(draw):
    """(graph, pieces of tree - F as vertex lists by smallest vertex, the
    (u, v) ends of the edges of F, least group count) for a random maximal
    forest and a random subset F of its edges."""
    g = draw(_multigraphs())
    rng = random.Random(draw(st.integers(0, 2**32)))
    tree = min_spanning_forest(g, [rng.random() for _ in range(g.m)])
    removed = draw(st.lists(st.sampled_from(range(len(tree))), unique=True)) if tree else []
    forest = Graph(g.n, tuple(g.edges[eid] for eid in tree))
    pieces = sorted(component_blocks(forest, exclude_edges=removed), key=min)
    ends = [(g.edges[tree[i]].u, g.edges[tree[i]].v) for i in removed]
    return g, pieces, ends, draw(st.integers(1, len(pieces)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_piece_layouts())
def test_layout_walk_yields_the_proper_merges_within_the_limit(layout):
    """With the limit at each value of a proper merge in turn (and below
    them all), the walk yields exactly the brute-force proper merges at
    most the limit, in ``set_partitions`` order: every grouping of the
    pieces into at least the least group count that keeps the two ends
    of each removed edge apart, priced over every edge."""
    g, pieces, removed, min_parts = layout
    caps, _ = scaled_capacities(g)
    wires, _ = _wires(g, caps)
    masks = tuple(sum(1 << v for v in piece) for piece in pieces)
    proper = []
    for blocks in set_partitions(list(range(len(pieces)))):
        group = {v: i for i, block in enumerate(blocks) for p in block for v in pieces[p]}
        if len(blocks) >= min_parts and all(group[u] != group[v] for u, v in removed):
            value = sum([c for e, c in zip(g.edges, caps) if group[e.u] != group[e.v]])
            proper.append((frozenset(sum(masks[p] for p in block) for block in blocks), value))
    for limit in [-1, *sorted({v for _, v in proper})]:
        walked = list(_layout_cuts(g.n, wires, masks, removed, min_parts, [limit]))
        assert walked == [(parts, v) for parts, v in proper if v <= limit], limit


@st.composite
def _tied_multigraphs(draw):
    """n <= 7: a cycle, K_n or a random connected graph, plus parallel
    copies of its edges, with capacities 1 or 0; so many cuts tie."""
    n = draw(st.integers(2, 7))
    shape = draw(st.sampled_from(["cycle", "complete", "random"]))
    if shape == "cycle":
        pairs = [(v, (v + 1) % n) for v in range(n)]
    elif shape == "complete":
        pairs = list(itertools.combinations(range(n), 2))
    else:
        pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        pairs += draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))), max_size=4))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    caps = st.sampled_from([F(1), F(1), F(1), F(0)])
    return Graph(n, tuple(Edge(min(p), max(p), draw(caps)) for p in pairs))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_tied_multigraphs())
def test_bounded_scan_keeps_every_tie_at_the_limit(g):
    table = partition_table(g)
    partitions = list(enum_partitions(g))
    psp = principal_sequence(g)
    for k in range(2, min(4, g.n) + 1):
        least, minimizers = table.min_kcut(k)
        for eps in (None, F(1, 2 * k)):
            cut, report = min_kcut(psp, k, eps=eps)
            assert cut == least and report.cuts == minimizers, (k, eps)
        for alpha in (F(1), F(3, 2)):
            bar = alpha * least.crossing_value
            within = [p for p in partitions if p.part_count >= k and p.crossing_value <= bar]
            within.sort(key=lambda p: (p.crossing_value, partition_sort_key(p)))
            assert enumerate_approx_kcuts(psp, k, alpha).cuts == tuple(within), (k, alpha)


def test_exact_k4_store_stays_bounded():
    # the unbounded store held 186,517 cuts; the candidates are counted in closed form
    g = _random_connected(random.Random(12), 12, 24)
    cut, report = min_kcut(principal_sequence(g), 4)
    assert report.candidates_examined == 329_736
    assert report.distinct_cuts <= 100


@st.composite
def _split_multigraphs(draw):
    """n <= 8: up to three groups of vertices, each a cycle, a complete
    graph or a random tree plus extra edges, with parallel edges among them;
    capacities are rational, mostly 1 so that cuts tie, and some 0.  Groups
    are joined by zero-capacity edges or not at all, so the graph of
    positive edges often has p0 > 1 components."""
    n = draw(st.integers(3, 8))
    groups = draw(st.sampled_from([1, 1, 2, 3]))
    members = [[] for _ in range(groups)]
    for v in draw(st.permutations(range(n))):
        members[draw(st.integers(0, groups - 1))].append(v)
    pairs = []
    for group in members:
        shape = draw(st.sampled_from(["cycle", "complete", "tree"]))
        if shape == "cycle" and len(group) > 2:
            pairs += [(group[i - 1], group[i]) for i in range(len(group))]
        elif shape == "complete":
            pairs += list(itertools.combinations(group, 2))
        else:
            pairs += [(group[draw(st.integers(0, i - 1))], group[i]) for i in range(1, len(group))]
    caps = st.sampled_from([F(1), F(1), F(1), F(2), F(3, 2), F(1, 3), F(0)])
    edges = [(u, v, draw(caps)) for u, v in pairs]
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    for u, v in draw(st.lists(extra, max_size=n)):
        same = any(u in group and v in group for group in members)
        edges.append((u, v, draw(caps) if same else F(0)))
    return Graph(n, tuple(Edge(min(u, v), max(u, v), c) for u, v, c in edges))


def _crossings(g, tree, cut):
    part = {v: i for i, block in enumerate(cut.parts) for v in block}
    return sum([part[g.edges[eid].u] != part[g.edges[eid].v] for eid in tree])


def _every_cut(g):
    """{part masks: (value, part count)} over every partition of V, the
    value as a Fraction summed on the capacities scaled to integers."""
    caps, scale = scaled_capacities(g)
    out = {}
    for blocks in set_partitions(list(range(g.n))):
        part = [0] * g.n
        for i, block in enumerate(blocks):
            for v in block:
                part[v] = i
        value = sum([c for e, c in zip(g.edges, caps) if part[e.u] != part[e.v]])
        out[frozenset(sum(1 << v for v in block) for block in blocks)] = F(value, scale), len(blocks)
    return out


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_split_multigraphs())
def test_stopped_scan_keeps_the_oracle_answers(g):
    table = partition_table(g)
    every = _every_cut(g)
    psp = principal_sequence(g)
    ideal = ideal_packing(psp) if psp.levels and psp.levels[0].lam > 0 else None  # it refuses strength 0
    for k in range(2, g.n + 1):
        least, minimizers = table.min_kcut(k)
        base = lp_dual(psp, k)
        duals = [None]  # no caller's dual: the greedy packing, or with k <= p0 none
        exact_greedy = None
        if k > base.h:
            duals += [dual_packing(g, base)] + ([ideal_dual(ideal, base)] if ideal else [])
            bar = (ravi_sinha_cut(psp, k).crossing_value + sum(base.z)) / (2 * k - 2)
            exact_greedy = _greedy_packing(g, base, bar, strict=True)
        packings = [exact_greedy] if exact_greedy else []
        for dual in duals:
            cut, report = min_kcut(psp, k, dual=dual)
            assert cut == least and report.cuts == minimizers, (k, dual)
            if dual is not None:
                assert (k - base.h) * dual.packing.total_value - sum(base.z) == dual.objective
                packings.append(dual.packing)
        for eps in (F(1, 2 * k), F(1, 20)):
            cut, report = min_kcut(psp, k, eps=eps)
            assert cut == least and report.cuts == minimizers, (k, eps)
            greedy = _eps_packing(g, base, eps) if k > base.h else None
            if greedy is not None:
                packings.append(greedy)
        for packing in packings:
            lp_value = (k - base.h) * packing.total_value - sum(base.z)
            for h in sorted({2 * k - 3, 2 * k - 2, floor(F(5, 2) * (k - 1)), 3 * (k - 1)}):
                step = h - k + base.h + 1
                for opt in minimizers:
                    trees = zip(packing.trees, packing.weights)
                    over = sum([w for t, w in trees if _crossings(g, t, opt) > h], F(0))
                    assert over * step <= opt.crossing_value - lp_value, (k, h)
                    if packing is exact_greedy and h == 2 * k - 3:
                        assert over < packing.total_value, k  # the strict bar: a tree h-respects opt
        for alpha in (F(5, 4), F(3, 2)):
            bar = alpha * least.crossing_value
            cuts = enumerate_approx_kcuts(psp, k, alpha).cuts
            assert {_mask_key(c) for c in cuts} == {m for m, (v, p) in every.items() if p >= k and v <= bar}
            assert len(cuts) == len({_mask_key(c) for c in cuts})
            assert all(c.crossing_value == every[_mask_key(c)][0] for c in cuts), (k, alpha)
            assert list(cuts) == sorted(cuts, key=lambda c: (c.crossing_value, partition_sort_key(c)))
