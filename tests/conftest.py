import random
from fractions import Fraction

import pytest

from kcut import Edge, Graph, parse_graph, partition_from_blocks
from kcut.flow import FlowNetwork
from kcut.simplex import Tableau

E1_TEXT = "p kcut 2 1\ne 1 2 5\n"

C5_TEXT = "p kcut 5 5\n" + "".join(f"e {i} {i % 5 + 1} 1\n" for i in range(1, 6))

# two unit triangles {1,2,3} and {4,5,6} joined by the unit bridge 3-4
TT_TEXT = """\
p kcut 6 7
e 1 2 1
e 1 3 1
e 2 3 1
e 4 5 1
e 4 6 1
e 5 6 1
e 3 4 1
"""

K4_TEXT = "p kcut 4 6\n" + "".join(
    f"e {u} {v} 1\n" for u in range(1, 5) for v in range(u + 1, 5)
)

P3_TEXT = "p kcut 3 2\ne 1 2 1\ne 2 3 1\n"

TT_BRIDGE = 6  # edge id of the bridge in TT_TEXT


@pytest.fixture(scope="session")
def e1():
    return parse_graph(E1_TEXT)


@pytest.fixture(scope="session")
def c5():
    return parse_graph(C5_TEXT)


@pytest.fixture(scope="session")
def tt():
    return parse_graph(TT_TEXT)


@pytest.fixture(scope="session")
def k4():
    return parse_graph(K4_TEXT)


@pytest.fixture(scope="session")
def p3():
    return parse_graph(P3_TEXT)


def _random_connected(rng: random.Random, n: int, extra: int) -> Graph:
    edges = []
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.append((min(u, v), max(u, v)))
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        edges.append((min(u, v), max(u, v)))  # parallels allowed
    return Graph(
        n, tuple(Edge(u, v, Fraction(rng.randint(1, 9))) for u, v in edges)
    )


def _planted(k, size):
    """perfbench's ``planted-k{k}-s{size}``: k complete clusters with
    capacities 4..9, joined in a ring by unit edges."""
    rng = random.Random(f"planted-{k}-{size}")
    edges = []
    for c in range(k):
        base = c * size
        for i in range(size):
            for j in range(i + 1, size):
                edges.append((base + i, base + j, rng.randint(4, 9)))
    for c in range(k):
        a = c * size + rng.randrange(size)
        b = (c + 1) % k * size + rng.randrange(size)
        edges.append((min(a, b), max(a, b), 1))
    return Graph(k * size, tuple(Edge(u, v, Fraction(c)) for u, v, c in edges))


def build_random_suite(count: int = 50, seed: int = 7340320):
    """Deterministic random suite: connected graphs, n <= 7, integer
    capacities <= 9, occasional parallel edges."""
    rng = random.Random(seed)
    graphs = []
    sizes = [2, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7]
    for i in range(count):
        n = sizes[i % len(sizes)]
        max_extra = min(4, n * (n - 1) // 2 - (n - 1) + 1)
        extra = rng.randint(0, max_extra)
        graphs.append((f"g{i:02d}-n{n}", _random_connected(rng, n, extra)))
    return graphs


_SUITE = None


def full_suite():
    global _SUITE
    if _SUITE is None:
        fixtures = [
            ("E1", parse_graph(E1_TEXT)),
            ("C5", parse_graph(C5_TEXT)),
            ("TT", parse_graph(TT_TEXT)),
            ("K4", parse_graph(K4_TEXT)),
            ("P3", parse_graph(P3_TEXT)),
        ]
        _SUITE = fixtures + build_random_suite()
    return _SUITE


@pytest.fixture(scope="session")
def suite():
    return full_suite()


@pytest.fixture(scope="session")
def small_suite():
    """A fast subset for per-module property tests."""
    return [(name, g) for name, g in full_suite() if g.n <= 5][:18]


def assert_recomputed(g: Graph, cuts):
    """Each cut is the canonical partition of its own parts, with the
    crossing value that ``partition_from_blocks`` computes from g."""
    for cut in cuts:
        assert partition_from_blocks(g, cut.parts) == cut, cut


def edge_ids_of_partition(g: Graph, partition):
    block = partition.block_of(g.n)
    return [i for i, e in enumerate(g.edges) if block[e.u] != block[e.v]]


def flow_network(g: Graph, caps=None) -> FlowNetwork:
    """g as an undirected flow network; ``caps`` overrides the capacities
    (aligned with g.edges)."""
    net = FlowNetwork(g.n)
    for e, c in zip(g.edges, caps or [e.cap for e in g.edges]):
        net.add_arc(e.u, e.v, c, c)
    return net


def residual_side(net: FlowNetwork, s: int) -> set[int]:
    """The vertices reachable from s over arcs of positive residual
    capacity in ``net.cap``, by a breadth-first search of its own."""
    seen = {s}
    queue = [s]
    for u in queue:
        for a in net.adj[u]:
            if net.to[a] not in seen and net.cap[a] > 0:
                seen.add(net.to[a])
                queue.append(net.to[a])
    return seen


def tableau_of(rows, rhs) -> Tableau:
    """A tableau at the slack basis of rows . x <= rhs, zero objective:
    ``Tableau(rhs)`` with the rows' columns added in order at cost 0."""
    t = Tableau(rhs)
    for column in zip(*rows):
        t.add_column(column, 0)
    return t
