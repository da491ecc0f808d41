import importlib
import io
import sys
from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kcut import (
    Edge,
    Graph,
    attack,
    breakpoints,
    components,
    exact_pack,
    oracle_min_kcut,
    oracle_strength,
    parse_graph,
    principal_sequence,
    strength,
)
from kcut.cli import main
from kcut.flow import FlowNetwork
from kcut.graph import (
    _block_map,
    canonical_parts,
    component_blocks,
    contract_partition,
    induced_subgraph,
    partition_from_blocks,
    scaled_capacities,
    set_partitions,
)
from kcut.oracle import enum_partitions, partition_table
from kcut.strength import PspLevel, _attack_core, _sweep
from kcut.verify import run_verification

from conftest import (
    TT_TEXT,
    _random_connected,
    edge_ids_of_partition,
    flow_network,
    full_suite,
    residual_side,
    st_flow,
)

F = Fraction


def test_max_flow_e1(e1):
    net = flow_network(e1)
    assert st_flow(net, 0, 1) == (5, {0}) and residual_side(net, 0) == {0}


def test_max_flow_tt_bridge(tt):
    net = flow_network(tt)
    assert st_flow(net, 0, 5) == (1, {0, 1, 2}) and residual_side(net, 0) == {0, 1, 2}


def test_max_flow_k4_brute(k4):
    value, _ = st_flow(flow_network(k4), 0, 1)
    # brute force over 2-partitions separating the terminals
    best = min(
        p.crossing_value
        for p in enum_partitions(k4)
        if p.part_count == 2 and (0 in p.parts[0]) != (1 in p.parts[0])
    )
    assert value == best == 3


def test_max_flow_rational_caps():
    g = parse_graph("p kcut 4 5\ne 1 2 1/3\ne 2 4 1/2\ne 1 3 3/4\ne 3 4 1/5\ne 1 4 2\n")
    value, _ = st_flow(flow_network(g), 0, 3)
    assert value == F(1, 3) + F(1, 5) + 2


def test_attack_fixtures(tt, c5):
    res = attack(tt, 1)
    assert res.value == 0
    assert res.argmin_max_parts.parts == ((0, 1, 2), (3, 4, 5))
    res = attack(tt, 2)
    assert res.value == -3 and res.argmin_max_parts.part_count == 6
    res = attack(c5, 1)
    assert res.value == 0 and res.argmin_max_parts.part_count == 1


def _coarsest(g, b, res):
    """The coarsest optimal partition at b: the breakpoint's ``before`` at a
    breakpoint, and the unique optimum ``attack`` returns everywhere else."""
    return {bp.b: bp.before for bp in breakpoints(principal_sequence(g))}.get(b, res.argmin_max_parts)


def test_attack_matches_bruteforce():
    bs = [F(0), F(1, 3), F(1), F(5, 4), F(3, 2), F(7, 3), F(5)]
    for name, g in full_suite()[:20]:
        for b in bs:
            res = attack(g, b)
            brute, coarse, fine = partition_table(g).attack(b)
            assert res.value == brute, (name, b)
            assert _coarsest(g, b, res) == coarse, (name, b)
            assert res.argmin_max_parts == fine, (name, b)


def test_breakpoints_fixtures(tt, c5, e1):
    bps = breakpoints(principal_sequence(tt))
    assert [bp.b for bp in bps] == [1, F(3, 2)]
    assert bps[0].before.part_count == 1
    assert bps[0].after.parts == ((0, 1, 2), (3, 4, 5))
    assert bps[1].before.parts == ((0, 1, 2), (3, 4, 5))
    assert bps[1].after.part_count == 6
    bps = breakpoints(principal_sequence(c5))
    assert [bp.b for bp in bps] == [F(5, 4)]
    bps = breakpoints(principal_sequence(e1))
    assert [bp.b for bp in bps] == [5]


def test_breakpoint_structure():
    for name, g in full_suite()[:18]:
        bps = breakpoints(principal_sequence(g))
        assert len(bps) <= g.n - 1, name
        prev = None
        for bp in bps:
            # nested optimal edge sets: after strictly refines before
            a_before = set(edge_ids_of_partition(g, bp.before))
            a_after = set(edge_ids_of_partition(g, bp.after))
            assert a_before < a_after, name
            assert bp.before.part_count < bp.after.part_count, name
            if prev is not None:
                assert prev.b < bp.b, name
                assert prev.after == bp.before, name
            prev = bp


def test_attack_value_concave_piecewise():
    for name, g in full_suite()[:10]:
        bps = breakpoints(principal_sequence(g))
        samples = [F(0)] + [bp.b for bp in bps] + [bps[-1].b + 1 if bps else F(1)]
        values = [attack(g, b).value for b in samples]
        # g is non-increasing in b
        assert all(v1 >= v2 for v1, v2 in zip(values, values[1:])), name


def test_strength_fixtures(tt, c5, k4):
    assert strength(tt) == oracle_strength(tt)
    assert strength(c5) == oracle_strength(c5)
    assert strength(k4) == oracle_strength(k4)


def test_strength_matches_oracle_on_suite():
    for name, g in full_suite()[:25]:
        assert strength(g) == oracle_strength(g), name


def test_psp_fixtures(tt, c5, k4):
    psp = principal_sequence(tt)
    assert psp.lambdas() == (1, F(3, 2))
    assert psp.kappas() == (2, 6)
    assert psp.levels[0].partition.parts == ((0, 1, 2), (3, 4, 5))
    assert len(psp.levels[0].b_edges) == 1
    assert len(psp.levels[1].b_edges) == 6
    assert principal_sequence(c5).lambdas() == (F(5, 4),)
    assert principal_sequence(k4).lambdas() == (2,)


def test_psp_invariants():
    for name, g in full_suite()[:25]:
        psp = principal_sequence(g)
        prev_parts = set(psp.p0.parts)
        prev_kappa = psp.p0.part_count
        prev_lam = None
        for level in psp.levels:
            # strict refinement
            for part in level.partition.parts:
                assert any(set(part) <= set(q) for q in prev_parts), name
            assert level.kappa > prev_kappa, name
            if prev_lam is not None:
                assert level.lam > prev_lam, name
            # A_i equals the crossing set of P_i
            assert level.a_edges == frozenset(
                edge_ids_of_partition(g, level.partition)
            ), name
            prev_parts = set(level.partition.parts)
            prev_kappa = level.kappa
            prev_lam = level.lam
        if psp.levels:
            assert psp.levels[-1].kappa == g.n, name
            assert psp.levels[-1].a_edges == frozenset(range(g.m)), name
        total = sum(
            level.kappa - psp.kappa_at(i) for i, level in enumerate(psp.levels)
        )
        assert total == g.n - psp.p0.part_count, name


def _assert_breakpoints_match_oracle(g):
    """At each breakpoint the brute-force extreme argmins are its before and
    after partitions; below, between and above the breakpoints the optimum
    is unique and equals the neighbouring breakpoint's, so none is missing."""
    bps = breakpoints(principal_sequence(g))
    if not bps:
        assert g.n == 1
        return

    def extremes(b):
        _, coarse, fine = partition_table(g).attack(b)
        return coarse, fine

    prev = None
    for bp in bps:
        assert extremes(bp.b) == (bp.before, bp.after)
        lo = F(0) if prev is None else prev.b
        if bp.b > lo:
            assert extremes((lo + bp.b) / 2) == (bp.before, bp.before)
        if prev is None:
            assert bp.before.part_count == 1
            if bp.b > 0:
                assert extremes(F(0)) == (bp.before, bp.before)
        else:
            assert prev.after == bp.before
        prev = bp
    assert extremes(prev.b + 1) == (prev.after, prev.after)


def test_breakpoints_match_oracle():
    for name, g in full_suite()[:25]:
        _assert_breakpoints_match_oracle(g)


@st.composite
def _multigraphs(draw):
    n = draw(st.integers(1, 6))
    edges = []
    if n >= 2:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1]
        )
        for u, v in draw(st.lists(pairs, max_size=10)):
            cap = draw(st.sampled_from([F(0), F(1), F(2), F(3, 2), F(5)]))
            edges.append(Edge(min(u, v), max(u, v), cap))
    return Graph(n, tuple(edges))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_multigraphs())
def test_breakpoints_and_strength_match_oracle_property(g):
    _assert_breakpoints_match_oracle(g)
    if g.n >= 2 and g.is_connected():
        assert strength(g) == oracle_strength(g)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_multigraphs())
def test_attack_matches_oracle_property(g):
    # b = 0, every critical value, the midpoints and one value above the last
    lams = list(principal_sequence(g).lambdas())
    bs = [F(0)] + lams + [(lo + hi) / 2 for lo, hi in zip([F(0)] + lams, lams)]
    bs.append((lams[-1] if lams else F(0)) + 1)
    _assert_attack_matches_oracle(g, bs)


def _assert_attack_matches_oracle(g, bs):
    for b in bs:
        res = attack(g, b)
        brute, coarse, fine = partition_table(g).attack(b)
        assert res.value == brute, b
        assert _coarsest(g, b, res) == coarse, b
        assert res.argmin_max_parts == fine, b


# The sweep scales by S = 2·lcm(L, den b).  Capacity denominators 3, 5 and 7
# are pairwise coprime, so L = 105 needs each of them; odd capacities make
# c/2 need the factor 2; b's denominators 11 and 13 are coprime to 2L.
_SCALE_GRAPHS = {
    "coprime": "p kcut 5 8\ne 1 2 1/3\ne 2 3 2/5\ne 3 1 3/7\ne 3 4 4/3\n"
    "e 4 5 6/5\ne 5 3 1/7\ne 1 2 2/7\ne 2 5 0\n",
    "odd": "p kcut 5 7\ne 1 2 1\ne 2 3 3\ne 3 1 1\ne 3 4 1\ne 4 5 5\ne 5 3 3\ne 1 4 0\n",
    "zero-only": "p kcut 4 3\ne 1 2 0\ne 2 3 0\ne 1 4 0\n",
}


@pytest.mark.parametrize("name", sorted(_SCALE_GRAPHS))
def test_attack_scale_matches_oracle(name):
    g = parse_graph(_SCALE_GRAPHS[name])
    bs = {F(0), F(1, 11), F(1, 13)}
    for lam in principal_sequence(g).lambdas():
        bs |= {lam, lam - F(1, 11), lam + F(1, 11), lam - F(1, 13), lam + F(1, 13)}
    _assert_attack_matches_oracle(g, sorted(b for b in bs if b >= 0))


def test_psp_split_inside_components():
    # each level's new edges lie inside the components split at that level
    for name, g in full_suite()[:25]:
        psp = principal_sequence(g)
        for level in psp.levels:
            allowed = set()
            for comp in level.split_components:
                comp_set = set(comp)
                for eid, e in enumerate(g.edges):
                    if e.u in comp_set and e.v in comp_set:
                        allowed.add(eid)
            assert set(level.b_edges) <= allowed, name


def test_attack_at_psp_critical_values():
    for name, g in full_suite()[:15]:
        psp = principal_sequence(g)
        for level in psp.levels:
            for b in (level.lam - F(1, 7), level.lam, level.lam + F(1, 7)):
                if b < 0:
                    continue
                res = attack(g, b)
                brute, _, _ = partition_table(g).attack(b)
                assert res.value == brute, (name, b)


def test_single_vertex_psp():
    g = parse_graph("p kcut 1 0\n")
    psp = principal_sequence(g)
    assert psp.levels == ()
    assert psp.p0.part_count == 1


def test_disconnected_psp():
    g = parse_graph("p kcut 4 2\ne 1 2 3\ne 3 4 2\n")
    psp = principal_sequence(g)
    assert psp.p0.part_count == 2
    assert psp.lambdas() == (2, 3)
    assert psp.kappas() == (3, 4)


def test_zero_capacity_strength():
    g = parse_graph("p kcut 3 3\ne 1 2 0\ne 2 3 1\ne 1 3 1\n")
    sigma, part = strength(g)
    assert sigma == 1  # cheapest ratio cuts the zero edge plus one unit edge
    psp = principal_sequence(g)
    assert psp.lambdas()[0] == 1


# -- the sweep against Edmonds-Karp alone -------------------------------------


class _EdmondsKarp:
    """A plain s-t Edmonds-Karp network for the reference sweep: one
    breadth-first search per augmenting path, no pre-flow."""

    def __init__(self, n):
        self.n = n
        self.adj = [[] for _ in range(n)]
        self.to, self.cap = [], []

    def add_arc(self, u, v, cap, rev_cap=0):
        for x, y, c in ((u, v, cap), (v, u, rev_cap)):
            self.adj[x].append(len(self.to))
            self.to.append(y)
            self.cap.append(c)

    def add_undirected(self, u, v, cap):
        self.add_arc(u, v, cap, cap)

    def max_flow(self, s, t):
        total = 0
        while True:
            prev = {s: None}
            queue = [s]
            for u in queue:
                for a in self.adj[u]:
                    if self.to[a] not in prev and self.cap[a] > 0:
                        prev[self.to[a]] = a
                        queue.append(self.to[a])
            if t not in prev:
                return total
            path = []
            v = t
            while v != s:
                path.append(prev[v])
                v = self.to[prev[v] ^ 1]
            f = min(self.cap[a] for a in path)
            for a in path:
                self.cap[a] -= f
                self.cap[a ^ 1] += f
            total += f

    def residual_reachable(self, s):
        seen = {s}
        queue = [s]
        for u in queue:
            for a in self.adj[u]:
                if self.to[a] not in seen and self.cap[a] > 0:
                    seen.add(self.to[a])
                    queue.append(self.to[a])
        return frozenset(seen)


def _sweep_inputs(g, b):
    """``_sweep``'s arguments for g at b, scaled as ``_attack_core`` scales
    them: n, the adjacency, c/2·S and b·S with S = 2·lcm(L, den b)."""
    caps, cap_scale = scaled_capacities(g)
    scale = 2 * lcm(cap_scale, b.denominator)
    half = [c * (scale // (2 * cap_scale)) for c in caps]
    adj = [[] for _ in range(g.n)]
    for eid, e in enumerate(g.edges):
        adj[e.u].append((e.v, eid))
        adj[e.v].append((e.u, eid))
    return g.n, adj, half, b.numerator * (scale // b.denominator)


def _swept(g, b):
    """``_sweep``'s blocks, as sets in sweep order, and its label sum x(V)."""
    blocks, x_sum = _sweep(*_sweep_inputs(g, b))
    return [set(blk) for blk in blocks], x_sum


def _reference_sweep(n, adj, half, b_s):
    """The Dilworth sweep as it stood before the block contraction, the
    prefix edge list and the pre-flow, on ``_sweep``'s arguments: every
    step runs on the whole prefix, one node per vertex, rescans the
    adjacency of {0..j} for its arcs and runs on ``_EdmondsKarp``.  Returns
    the finest blocks and the greedy labels' sum x(V)."""
    fine = [{0}]
    x = [-b_s] + [0] * (n - 1)
    hdeg = [0] * n
    for j in range(1, n):
        for w, eid in adj[j]:
            if w < j:
                hdeg[j] += half[eid]
                hdeg[w] += half[eid]
        net = _EdmondsKarp(j + 2)
        t = j + 1
        const = 0
        for u in range(j):
            p_u = -hdeg[u] - x[u]
            if p_u > 0:
                net.add_arc(u, t, p_u)
            elif p_u < 0:
                net.add_arc(j, u, -p_u)
                const += p_u
        for v in range(j + 1):
            for w, eid in adj[v]:
                if v < w <= j and half[eid] > 0:
                    net.add_undirected(v, w, half[eid])
        x[j] = net.max_flow(j, t) + const - hdeg[j] - b_s
        side = net.residual_reachable(j)
        merged = {j}
        rest = []
        for blk in fine:
            if blk & side:
                merged |= blk
            else:
                rest.append(blk)
        fine = rest + [merged]
    return fine, sum(x)


@st.composite
def _sweep_multigraphs(draw):
    """Multigraphs on up to 9 vertices with rational and zero capacities;
    sparse draws leave some of them disconnected."""
    n = draw(st.integers(1, 9))
    edges = []
    if n >= 2:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1]
        )
        caps = st.sampled_from([F(0), F(1), F(2), F(3, 2), F(5), F(2, 3), F(7, 4)])
        for u, v in draw(st.lists(pairs, max_size=18)):
            edges.append(Edge(min(u, v), max(u, v), draw(caps)))
    return Graph(n, tuple(edges))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_sweep_multigraphs())
def test_sweep_matches_edmonds_karp_sweep_property(g):
    """The finest blocks and the label sum of ``_sweep`` equal those of the
    reference sweep at b = 0, at every critical value and
    1/7 either side."""
    bs = {F(0)}
    for lam in principal_sequence(g).lambdas():
        bs |= {lam, lam - F(1, 7), lam + F(1, 7)}
    for b in sorted(b for b in bs if b >= 0):
        assert _swept(g, b) == _reference_sweep(*_sweep_inputs(g, b)), b


def _relabelled(n, edges, order):
    """The graph on ``edges`` with vertex v renamed ``order[v]``."""
    return Graph(
        n,
        tuple(Edge(min(order[u], order[v]), max(order[u], order[v]), c) for u, v, c in edges),
    )


@st.composite
def _planted_clusters(draw):
    """2-4 dense clusters of 2-5 vertices joined by light edges, their
    vertices interleaved in the sweep's insertion order, so that one step
    joins blocks of several clusters."""
    sizes = draw(st.lists(st.integers(2, 5), min_size=2, max_size=4))
    heavy = st.sampled_from([F(3), F(4), F(9, 2), F(6)])
    light = st.sampled_from([F(1), F(1, 2), F(2, 3)])
    n = sum(sizes)
    edges = []
    start = 0
    for size in sizes:
        for u in range(start, start + size):
            for v in range(u + 1, start + size):
                edges.append((u, v, draw(heavy)))
        start += size
    for u, v in draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=8)
    ):
        if u != v:
            edges.append((u, v, draw(light)))
    return _relabelled(n, edges, draw(st.permutations(range(n))))


@st.composite
def _uniform_complete_or_cycle(draw):
    """K_n or C_n with one capacity on every edge, so that every partition
    into singletons is strength-tight; the cycle is drawn in a random order."""
    n = draw(st.integers(3, 9))
    c = draw(st.sampled_from([F(1), F(2), F(5, 3)]))
    if draw(st.booleans()):
        edges = [(u, v, c) for u in range(n) for v in range(u + 1, n)]
    else:
        edges = [(i, (i + 1) % n, c) for i in range(n)]
    return _relabelled(n, edges, draw(st.permutations(range(n))))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.one_of(_planted_clusters(), _uniform_complete_or_cycle()))
def test_contracted_sweep_matches_reference_on_merges_property(g):
    """The block-contracted sweep against the uncontracted reference on
    planted clusters, where below the first critical value one step joins
    blocks of several clusters at once, and on uniform K_n and C_n, whose
    blocks stay singletons at their strength: at b = 0, half the first
    critical value, every critical value and 1/7 either side."""
    lams = principal_sequence(g).lambdas()
    bs = {F(0), lams[0] / 2}
    for lam in lams:
        bs |= {lam, lam - F(1, 7), lam + F(1, 7)}
    for b in sorted(b for b in bs if b >= 0):
        assert _swept(g, b) == _reference_sweep(*_sweep_inputs(g, b)), b


def test_one_network_until_a_merge(monkeypatch):
    """The sweep builds its network at step 1 and again only at the step
    after a merge: 1 + (merging steps before the last) networks.  At step
    j the nodes that hold an arc or an excess are blocks of the sweep over
    {0..j-1} alone, each named by its last vertex, and every block with an
    edge to another block holds an arc."""
    rng = Random(2101)
    edges = [(u, v, F(5)) for lo in (0, 4, 8) for u in range(lo, lo + 4) for v in range(u + 1, lo + 4)]
    edges += [(3, 4, F(1)), (7, 8, F(1)), (11, 0, F(1))]
    order = list(range(12))
    rng.shuffle(order)
    planted = _relabelled(12, edges, order)  # three K4s in a ring, lambda_1 = 3/2
    k6 = Graph(6, tuple(Edge(u, v, F(1)) for u in range(6) for v in range(u + 1, 6)))
    # (graph, b, whether some step runs on fewer nodes than the prefix has)
    cases = ((planted, F(1), True), (planted, F(3), True), (k6, F(2), True), (k6, F(3), False))
    built_counts = []
    for g, b, contracts in cases:
        prefix = [_swept(induced_subgraph(g, range(j))[0], b)[0] for j in range(1, g.n + 1)]
        assert any(len(prefix[j - 1]) < j for j in range(1, g.n)) == contracts
        merges = sum(1 for j in range(1, g.n - 1) if {j} not in prefix[j])  # prefix[j] is {0..j}'s
        built, nodes = [], []
        with monkeypatch.context() as m:
            real_init, real_flow = FlowNetwork.__init__, FlowNetwork.max_flow

            def init(self, n):
                built.append(self)
                real_init(self, n)

            def flow(self, excess):
                nodes.append({u for u in range(self.n) if self.adj[u] or excess[u]})
                return real_flow(self, excess)

            m.setattr(FlowNetwork, "__init__", init)
            m.setattr(FlowNetwork, "max_flow", flow)
            _swept(g, b)
        assert len(built) == 1 + merges
        assert len(nodes) == g.n - 1
        for j, held in enumerate(nodes, start=1):
            inner = [e for e in g.edges if e.u < j and e.v < j]
            linked = {max(blk) for blk in prefix[j - 1] if any((e.u in blk) != (e.v in blk) for e in inner)}
            assert linked <= held <= {max(blk) for blk in prefix[j - 1]}
        built_counts.append(len(built))
    assert built_counts[-1] == 1 and max(built_counts) > 2


def test_every_sweep_arc_has_capacity(monkeypatch):
    """The sweep's network holds arcs between blocks only, each with the
    positive summed half-capacity of their edges, and no unused arc for
    the searches to visit."""
    arcs = []
    real = FlowNetwork.add_arc

    def add_arc(self, u, v, cap, rev_cap=0):
        arcs.append((cap, rev_cap))
        real(self, u, v, cap, rev_cap)

    monkeypatch.setattr(FlowNetwork, "add_arc", add_arc)
    c16 = Graph(16, tuple(Edge(i, (i + 1) % 16, F(1)) for i in range(16)))
    edges = [(u, v, F(5)) for lo in (0, 4, 8) for u in range(lo, lo + 4) for v in range(u + 1, lo + 4)]
    edges += [(3, 4, F(1)), (7, 8, F(1)), (11, 0, F(1))]
    planted = _relabelled(12, edges, [5, 0, 9, 2, 11, 7, 1, 4, 10, 3, 8, 6])
    for g in (c16, planted):
        for b in (F(1, 2), F(16, 15), F(3), F(7)):
            attack(g, b)
    assert arcs and all(cap > 0 or rev_cap > 0 for cap, rev_cap in arcs)


# -- the split search against the Dinkelbach route ------------------------------


def _reference_strength(g):
    """The strength by Dinkelbach's ratio iteration, as it stood before the
    split search: attack g at the line of the last finest argmin, starting
    from the singletons, until the value is 0."""
    cval, parts = sum((e.cap for e in g.edges), F(0)), g.n
    for _ in range(4 * g.n + 8):
        b = cval / F(parts - 1)
        res = attack(g, b)
        if res.value == 0:
            return b, res.argmin_max_parts
        cval, parts = res.argmin_max_parts.crossing_value, res.argmin_max_parts.part_count
    raise AssertionError("ratio search failed to converge")


def _reference_psp(g):
    """(P_0, levels) of the principal sequence by the route that predates the
    split search: each level splits every piece of least strength by the
    finest minimum-strength partition of its induced subgraph, found by
    ``_reference_strength``."""
    p0 = partition_from_blocks(g, component_blocks(g))
    pieces = {}  # piece -> (strength, its finest minimum-strength blocks)

    def piece_strength(part):
        if part not in pieces:
            sub, vmap, _ = induced_subgraph(g, part)
            sigma, q = _reference_strength(sub)
            inv = {i: v for v, i in vmap.items()}
            pieces[part] = sigma, [[inv[x] for x in blk] for blk in q.parts]
        return pieces[part]

    levels = []
    current = p0.parts
    a_edges = frozenset()
    while any(len(part) > 1 for part in current):
        lam = min(piece_strength(part)[0] for part in current if len(part) > 1)
        split = [part for part in current if len(part) > 1 and piece_strength(part)[0] == lam]
        blocks = [blk for part in current for blk in (piece_strength(part)[1] if part in split else [part])]
        partition = partition_from_blocks(g, blocks)
        a_now = frozenset(edge_ids_of_partition(g, partition))
        levels.append(PspLevel(lam, partition, a_now, a_now - a_edges, tuple(split), partition.part_count))
        a_edges = a_now
        current = partition.parts
    return p0, tuple(levels)


@st.composite
def _component_multigraphs(draw, max_components=3):
    """Multigraphs on up to 14 vertices made of 1 to ``max_components``
    components, each a random spanning tree plus up to twice as many extra
    edges (parallels allowed), with zero and fractional capacities, their
    vertices interleaved by a random relabelling."""
    count = draw(st.integers(1, max_components))
    sizes = draw(st.lists(st.integers(1, 14 // count), min_size=count, max_size=count))
    caps = st.sampled_from([F(0), F(1), F(3, 2), F(5), F(2, 3), F(7, 4)])
    edges = []
    start = 0
    for size in sizes:
        for v in range(start + 1, start + size):
            edges.append((draw(st.integers(start, v - 1)), v, draw(caps)))
        vertex = st.integers(start, start + size - 1)
        for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=2 * size)):
            if u != v:
                edges.append((u, v, draw(caps)))
        start += size
    return _relabelled(start, edges, draw(st.permutations(range(start))))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_component_multigraphs())
def test_psp_and_strength_match_dinkelbach_reference_property(g):
    psp = principal_sequence(g)
    assert (psp.p0, psp.levels) == _reference_psp(g)
    if g.n >= 2 and g.is_connected():
        assert strength(g) == _reference_strength(g)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_component_multigraphs(max_components=1))
def test_strength_is_first_psp_level_property(g):
    assume(g.n >= 2)
    level = principal_sequence(g).levels[0]
    assert strength(g) == (level.lam, level.partition)


def _least_component_strength(g):
    """The least strength of the induced subgraph of a component with at
    least 2 vertices: how ``exact_pack`` once certified its value."""
    return min(strength(induced_subgraph(g, blk)[0])[0] for blk in component_blocks(g) if len(blk) > 1)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_component_multigraphs())
def test_pack_certificate_is_least_component_strength_property(g):
    """lambda_1 of the PSP, which certifies ``exact_pack``, is the
    least component strength, and the optimal packing value; the packing
    drops the zero-capacity edges, so it is compared on what remains."""
    if any(len(blk) > 1 for blk in component_blocks(g)):
        assert principal_sequence(g).levels[0].lam == _least_component_strength(g)
    work = Graph(g.n, tuple(e for e in g.edges if e.cap > 0))
    assume(work.m > 0)
    expected = _least_component_strength(work)
    assert principal_sequence(work).levels[0].lam == expected
    assert exact_pack(principal_sequence(g)).total_value == expected


def _count_calls(monkeypatch, fn):
    """Replace every binding of ``fn`` in the kcut modules by a wrapper that
    records its arguments; returns the record."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name == "kcut" or name.startswith("kcut."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_pack_and_verify_call_no_strength(monkeypatch, tt):
    principal_sequence.cache_clear()
    calls = _count_calls(monkeypatch, strength)
    exact_pack(principal_sequence(_random_connected(Random(12), 12, 24)))
    assert calls == []
    run_verification(tt)
    assert calls == []


def test_lp_k2_attacks_the_whole_graph_once(monkeypatch, capsys):
    """At k = 2 the dual's graph c + z is g itself."""
    g = _random_connected(Random(8), 8, 16)
    text = f"p kcut {g.n} {g.m}\n" + "".join(f"e {e.u + 1} {e.v + 1} {e.cap}\n" for e in g.edges)
    principal_sequence.cache_clear()
    calls = _count_calls(monkeypatch, _attack_core)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["lp", "--k", "2"]) == 0
    capsys.readouterr()
    assert sum(n == g.n for n, *_ in calls) == 1


def test_lp_k3_attacks_the_whole_graph_once(monkeypatch, capsys):
    """At k = 3 on TT, z lifts the bridge from 1 to 3/2, so c + z is not g;
    its packing is certified against lambda_j of g's PSP, and c + z gets no
    sequence of its own."""
    principal_sequence.cache_clear()
    calls = _count_calls(monkeypatch, _attack_core)
    monkeypatch.setattr("sys.stdin", io.StringIO(TT_TEXT))
    assert main(["lp", "--k", "3"]) == 0
    capsys.readouterr()
    assert sum(n == 6 for n, *_ in calls) == 1


def test_psp_runs_one_search(monkeypatch):
    """``principal_sequence`` calls no ``strength`` and attacks the whole
    graph once, at the search's first step; every later attack runs on a
    piece contracted by its blocks."""
    module = importlib.import_module("kcut.strength")
    g = _random_connected(Random(40), 40, 80)
    calls = {"strength": 0, "whole graph": 0}

    def counted_core(n, *args, _real=module._attack_core):
        calls["whole graph"] += n == g.n
        return _real(n, *args)

    def counted_strength(h, _real=module.strength):
        calls["strength"] += 1
        return _real(h)

    principal_sequence.cache_clear()
    monkeypatch.setattr(module, "_attack_core", counted_core)
    monkeypatch.setattr(module, "strength", counted_strength)
    principal_sequence(g)
    assert calls == {"strength": 0, "whole graph": 1}


# -- the label-sum certificate --------------------------------------------------


def test_attack_checks_blocks_against_label_sum(tt, monkeypatch):
    # every step's smallest minimum cut becomes the new vertex alone, so the
    # sweep merges nothing while its flows, and so its labels, stay right
    real = FlowNetwork.max_flow
    monkeypatch.setattr(FlowNetwork, "max_flow", lambda self, excess: real(self, excess) and frozenset())
    with pytest.raises(AssertionError, match="label sum"):
        attack(tt, 1)


def test_max_flow_returns_the_residual_side_in_the_sweep(monkeypatch):
    # every side the sweep reads is the residual reach of the supplies left
    # that its own search would find on the network max_flow leaves behind
    sides = []
    real = FlowNetwork.max_flow

    def checked(self, excess):
        side = real(self, excess)
        left = [v for v in range(self.n) if excess[v] > 0]
        sides.append(side == residual_side(self, *left) and isinstance(side, frozenset))
        return side

    monkeypatch.setattr(FlowNetwork, "max_flow", checked)
    principal_sequence.cache_clear()
    principal_sequence(_random_connected(Random(20), 20, 40))
    assert sides and all(sides)


# -- one scale per search -------------------------------------------------------


@st.composite
def _graphs_with_blocks(draw):
    """A multigraph on 2-8 vertices and a partition with a part of two or
    more.  Each such part is joined by a path of capacities over 7 or 14,
    every other edge has a capacity over 1-5 or 0, parallels allowed, so
    that g's common denominator has a factor 7 that its quotient's lacks."""
    n = draw(st.integers(2, 8))
    label = draw(st.lists(st.integers(0, n - 2), min_size=n, max_size=n))
    blocks = canonical_parts(
        [v for v in range(n) if label[v] == i] for i in range(n - 1)
    )
    edges = []
    inner = st.sampled_from([F(1, 7), F(3, 7), F(9, 14)])
    for part in blocks:
        for u, v in zip(part, part[1:]):
            edges.append(Edge(u, v, draw(inner)))
    caps = st.sampled_from([F(0), F(1), F(2), F(3, 2), F(2, 3), F(5, 4), F(4, 5)])
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    for u, v in draw(st.lists(pairs, max_size=14)):
        edges.append(Edge(min(u, v), max(u, v), draw(caps)))
    order = draw(st.permutations(range(len(edges))))
    return Graph(n, tuple(edges[i] for i in order)), blocks


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_graphs_with_blocks())
def test_core_on_the_graphs_scale_matches_attack_on_the_quotient_property(case):
    """``_attack_core`` on a quotient's int capacities, on g's scale as the
    search passes them, gives the parts and value of ``attack`` on the
    Fraction quotient that ``contract_partition`` builds, whose own scale
    differs: at b = 0, 1/11, every breakpoint and 1/11 either side."""
    g, blocks = case
    q, _, kept = contract_partition(g, blocks)
    caps, scale = scaled_capacities(g)
    assert scaled_capacities(q)[1] != scale
    ends = [(e.u, e.v) for e in q.edges]
    q_caps = [caps[i] for i in kept]
    bs = {F(0), F(1, 11)}
    for bp in breakpoints(principal_sequence(q)):
        bs |= {bp.b, bp.b - F(1, 11), bp.b + F(1, 11)}
    for b in sorted(b for b in bs if b >= 0):
        res = attack(q, b)
        assert _attack_core(q.n, ends, q_caps, scale, b) == (res.argmin_max_parts.parts, res.value), b


def test_psp_and_strength_scale_capacities_once(monkeypatch):
    """A breakpoint search scales g's capacities once, for every step's
    attack, certificate and level partition."""
    g = _random_connected(Random(40), 40, 80)
    calls = _count_calls(monkeypatch, scaled_capacities)
    principal_sequence.cache_clear()
    principal_sequence(g)
    assert len(calls) == 1
    calls.clear()
    strength(g)
    assert len(calls) == 1


# -- the integer route against edge-by-edge Fraction sums ------------------------


def _fraction_crossing(g, parts):
    """c(E(P)), summed edge by edge in Fractions."""
    block = _block_map(g.n, parts)
    return sum((e.cap for e in g.edges if block[e.u] != block[e.v]), F(0))


def _reference_attack(crossing, b):
    """(value, finest argmin) of min c(E(P)) - b(|P| - 1) over the partitions
    in ``crossing``, a map from parts to Fraction crossing values: the finest
    optimum has the most parts of all optima."""
    value, _, parts = min((cv - b * (len(parts) - 1), -len(parts), parts) for parts, cv in crossing.items())
    return value, parts


@st.composite
def _rational_multigraphs(draw):
    """Multigraphs on up to 7 vertices with capacities a/b, b up to 10**6,
    some of them 0; parallels are allowed, and sparse draws are disconnected."""
    n = draw(st.integers(1, 7))
    caps = st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=10, max_denominator=10**6))
    edges = []
    if n >= 2:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
        for u, v in draw(st.lists(pairs, max_size=14)):
            edges.append(Edge(min(u, v), max(u, v), draw(caps)))
    return Graph(n, tuple(edges))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_rational_multigraphs())
def test_integer_route_matches_fraction_sums_property(g):
    """Every level's crossing value, and ``attack``'s value and finest
    argmin at every critical value and 1/7 either side, equal those of
    Fraction sums over all partitions."""
    crossing = {
        canonical_parts(blocks): _fraction_crossing(g, blocks) for blocks in set_partitions(list(range(g.n)))
    }
    psp = principal_sequence(g)
    for partition in (psp.p0, *(level.partition for level in psp.levels)):
        assert partition.crossing_value == crossing[partition.parts]
    bs = set()
    for lam in psp.lambdas():
        bs |= {lam, lam - F(1, 7), lam + F(1, 7)}
    for b in sorted(b for b in bs if b >= 0):
        res = attack(g, b)
        assert (res.value, res.argmin_max_parts.parts) == _reference_attack(crossing, b), b
        assert res.argmin_max_parts.crossing_value == crossing[res.argmin_max_parts.parts]


def test_psp_adds_no_fractions(monkeypatch):
    """The sequence's searches, attacks, certificates and level partitions
    sum capacities as ints scaled once per search: no Fraction is added."""
    g = _random_connected(Random(40), 40, 80)
    calls = []

    def counted(a, b, _real=Fraction.__add__):
        calls.append(b)
        return _real(a, b)

    principal_sequence.cache_clear()
    monkeypatch.setattr(Fraction, "__add__", counted)
    principal_sequence(g)
    monkeypatch.undo()
    assert len(calls) == 0
