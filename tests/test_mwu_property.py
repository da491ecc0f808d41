"""``mwu_pack`` and ``greedy_trees`` against their all-``Fraction`` loops.

``mwu_pack`` keeps its loads and accumulated tree weights as integers on
scaled capacities and builds ``Fraction``s only in the final rescale.  The
reference below is the earlier loop, which added a ``Fraction`` per forest
edge per iteration, kept verbatim together with the minimum spanning forest
it priced with (sort key ``(weight, id)``).  Both must return the same
trees, weights and capacities: the float weights that steer the loop are
computed the same way in both.  The reference forest is also the oracle for
``min_spanning_forest``, whose scan stops early and halves paths inline.

``greedy_trees`` sorts its edges on the integer keys load * (lcm / c).
Its reference is the earlier stream, which sorted on ``Fraction(load, c)``
and priced on a rebuilt graph of the positive edges, kept verbatim except
that it prices with the reference forest.
"""

from fractions import Fraction
from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from kcut import Edge, Graph, lp_dual, principal_sequence
from kcut.graph import _scaled
from kcut.packing import (
    GREEDY_TREES_PER_EDGE,
    PackConfig,
    TreePacking,
    _float_cap,
    _working_graph,
    greedy_trees,
    min_spanning_forest,
    mwu_pack,
)

F = Fraction


def _reference_msf(g: Graph, edge_weights) -> tuple[int, ...]:
    order = sorted(range(g.m), key=lambda i: (edge_weights[i], i))
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    forest = []
    for i in order:
        e = g.edges[i]
        ru, rv = find(e.u), find(e.v)
        if ru != rv:
            parent[rv] = ru
            forest.append(i)
    return tuple(sorted(forest))


def _reference_mwu_pack(g: Graph, caps=None, config: PackConfig = PackConfig()) -> TreePacking:
    work, keep, caps_full = _working_graph(g, caps)
    if work.m == 0:
        raise ValueError("packing undefined without positive-capacity edges")
    eps = float(config.epsilon)
    m = work.m
    try:
        threshold = m ** (1.0 / eps)
    except OverflowError:
        raise ValueError(
            f"epsilon {config.epsilon} too small for {m} edges: "
            "the stopping weight m**(1/eps) overflows a float"
        ) from None
    cap_q = [e.cap for e in work.edges]
    cap_f = [_float_cap(c) for c in cap_q]
    w = [1.0] * m
    raw: dict[tuple[int, ...], Fraction] = {}
    load = [Fraction(0)] * m
    while True:
        lengths = [w[i] / cap_f[i] for i in range(m)]
        forest = _reference_msf(work, lengths)
        delta = min(cap_q[i] for i in forest)
        key = tuple(keep[i] for i in forest)
        raw[key] = raw.get(key, Fraction(0)) + delta
        stop = False
        df = float(delta)
        for i in forest:
            load[i] += delta
            w[i] *= 1.0 + eps * df / cap_f[i]
            if w[i] > threshold:
                stop = True
        if stop:
            break
    rho = max(load[i] / cap_q[i] for i in range(m))
    trees = tuple(sorted(raw))
    weights = tuple(raw[t] / rho for t in trees)
    caps_used = {keep[i]: cap_q[i] for i in range(m)}
    return TreePacking(trees, weights, caps_used, approximate=True)


def _reference_greedy_trees(g: Graph, caps):
    keep = [i for i, c in enumerate(caps) if c]
    work = Graph(g.n, tuple(g.edges[i] for i in keep))
    cap = [caps[i] for i in keep]
    load = [0] * work.m
    length = [0] * work.m  # load / cap
    top = 0  # an edge of the largest load / cap once a tree is packed
    for t in range(1, GREEDY_TREES_PER_EDGE * len(keep) + 1):
        forest = _reference_msf(work, length)
        for i in forest:
            load[i] += 1
            length[i] = Fraction(load[i], cap[i])
            if length[i] > length[top]:
                top = i
        yield tuple(keep[i] for i in forest), t * cap[top], load[top]


EPSILONS = st.sampled_from([F(1, 10), F(1, 6), F(1, 20)])


@st.composite
def _graphs(draw, connected=False):
    """n <= 6 with parallel edges and at least one edge; unless
    ``connected``, some vertices may hang off nothing."""
    n = draw(st.integers(2, 6))
    label = draw(st.permutations(range(n)))
    pairs = []
    for v in range(1, n):
        if v == 1 or connected or draw(st.integers(0, 4)):
            pairs.append((label[v], label[draw(st.integers(0, v - 1))]))
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs += draw(st.lists(extra, max_size=5))
    return Graph(n, tuple(Edge(min(p), max(p), F(1)) for p in pairs))


_WEIGHTS = {  # few distinct values, zero among them, so ties are common
    "int": st.integers(0, 3),
    "Fraction": st.builds(F, st.integers(0, 4), st.sampled_from([1, 2, 3])),
    "float": st.sampled_from([0.0, 0.25, 1.0, 1 / 3, 2.5]),
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.booleans().flatmap(lambda connected: _graphs(connected=connected)), st.data(), st.sampled_from(sorted(_WEIGHTS)))
def test_min_spanning_forest_matches_full_kruskal(g, data, kind):
    """The early-exit, path-halving Kruskal scan against the full scan."""
    weights = data.draw(st.lists(_WEIGHTS[kind], min_size=g.m, max_size=g.m))
    assert min_spanning_forest(g, weights) == _reference_msf(g, weights)


# capacities over pairwise coprime denominators, so the common scale is large
_COPRIME = st.builds(
    F, st.integers(0, 40), st.sampled_from([1, 2, 3, 5, 7, 11, 13, 17, 19])
)


def _assert_same_packing(g, caps, eps):
    config = PackConfig(epsilon=eps)
    got = mwu_pack(g, caps, config)
    want = _reference_mwu_pack(g, caps, config)
    assert got.trees == want.trees
    assert got.weights == want.weights
    assert got.caps == want.caps
    assert got.approximate and want.approximate


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_graphs(), st.data(), EPSILONS)
def test_mwu_matches_fraction_loop_on_coprime_capacities(g, data, eps):
    caps = data.draw(st.lists(_COPRIME, min_size=g.m, max_size=g.m))
    if not any(caps):
        caps[0] = F(1, 7)
    _assert_same_packing(g, caps, eps)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_graphs(connected=True), st.data(), EPSILONS)
def test_mwu_matches_fraction_loop_on_dual_capacities(g, data, eps):
    """c + z for the lazy dual of each k, as the approximate k-cut scan
    packs it; the base capacities are rational and positive."""
    base = data.draw(
        st.lists(st.sampled_from([F(1), F(2), F(3, 2), F(1, 3), F(5, 7)]), min_size=g.m, max_size=g.m)
    )
    g = Graph(g.n, tuple(Edge(e.u, e.v, c) for e, c in zip(g.edges, base)))
    psp = principal_sequence(g)
    k = data.draw(st.integers(2, g.n))
    dual = lp_dual(psp, k)
    _assert_same_packing(g, [e.cap + z for e, z in zip(g.edges, dual.z)], eps)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_graphs(), st.data(), st.booleans())
def test_greedy_trees_match_fraction_loop(g, data, scaled):
    """Integer keys against ``Fraction`` keys over the first 4m trees, on
    integer or scaled rational capacities, zero entries among them."""
    if scaled:
        caps, _ = _scaled(data.draw(st.lists(_COPRIME, min_size=g.m, max_size=g.m)))
    else:
        caps = data.draw(st.lists(st.integers(0, 5), min_size=g.m, max_size=g.m))
    got = list(islice(greedy_trees(g, caps), 4 * g.m))
    assert got == list(islice(_reference_greedy_trees(g, caps), 4 * g.m))
