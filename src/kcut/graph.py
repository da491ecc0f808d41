"""Graph representation with exact rational capacities, partition algebra,
contraction/deletion, connected components, and canonical cut evaluation.

Vertices are 0-indexed internally; the text format and all JSON output use
1-indexed ids.  Edges are identified by their position in ``Graph.edges``.
Parallel edges are permitted, self-loops are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .exact import parse_rational, rational_str


class ParseError(ValueError):
    """Malformed input text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Edge(NamedTuple):
    u: int
    v: int
    cap: Fraction


@dataclass(frozen=True)
class Graph:
    """Undirected multigraph with nonnegative rational edge capacities."""

    n: int
    edges: tuple[Edge, ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def total_capacity(self) -> Fraction:
        return sum((e.cap for e in self.edges), Fraction(0))

    def neighbors(self) -> list[list[tuple[int, int]]]:
        """Adjacency list of (neighbor, edge id) pairs."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            adj[e.u].append((e.v, i))
            adj[e.v].append((e.u, i))
        return adj

    @property
    def component_count(self) -> int:
        return len(components(self).parts)

    def is_connected(self) -> bool:
        return self.component_count <= 1


@dataclass(frozen=True)
class VertexPartition:
    """Canonical partition of the vertex set.

    Parts are sorted tuples, ordered by their minimum element.
    ``crossing_value`` is the total capacity of edges with endpoints in two
    different parts of the partition (recomputable from the graph).
    """

    parts: tuple[tuple[int, ...], ...]
    crossing_value: Fraction

    @property
    def part_count(self) -> int:
        return len(self.parts)

    def block_of(self, n: int) -> list[int]:
        """Vertex -> part index array."""
        block = [-1] * n
        for i, part in enumerate(self.parts):
            for v in part:
                block[v] = i
        return block

    def to_json(self) -> list[list[int]]:
        return [[v + 1 for v in part] for part in self.parts]


@dataclass(frozen=True)
class CutResult:
    partition: VertexPartition
    value: Fraction
    k_achieved: int


def canonical_parts(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    parts = [tuple(sorted(b)) for b in blocks if len(tuple(b)) > 0]
    parts.sort(key=lambda p: p[0])
    return tuple(parts)


def crossing_edges(g: Graph, block: Sequence[int]) -> list[int]:
    """Edge ids with endpoints in different blocks of a vertex->block map."""
    return [i for i, e in enumerate(g.edges) if block[e.u] != block[e.v]]


def scaled_capacities(g: Graph) -> tuple[list[int], int]:
    """(c(e)·L as ints, L), with L the lcm of the capacity denominators.

    Sums of scaled capacities are exact integers; divide by L to get back."""
    scale = lcm(*(e.cap.denominator for e in g.edges))
    return [e.cap.numerator * (scale // e.cap.denominator) for e in g.edges], scale


def partition_from_blocks(g: Graph, blocks: Iterable[Iterable[int]]) -> VertexPartition:
    parts = canonical_parts(blocks)
    _check_partition(g, parts)
    block = [-1] * g.n
    for i, part in enumerate(parts):
        for v in part:
            block[v] = i
    value = sum((g.edges[i].cap for i in crossing_edges(g, block)), Fraction(0))
    return VertexPartition(parts, value)


def _check_partition(g: Graph, parts) -> None:
    seen: set[int] = set()
    for part in parts:
        for v in part:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range")
            if v in seen:
                raise ValueError(f"vertex {v} appears in two parts")
            seen.add(v)
    if len(seen) != g.n:
        raise ValueError("parts do not cover the vertex set")


def cut_of_partition(g: Graph, p) -> CutResult:
    """Cut value of a partition; accepts a VertexPartition or raw blocks."""
    if not isinstance(p, VertexPartition):
        p = partition_from_blocks(g, p)
    else:
        p = partition_from_blocks(g, p.parts)  # revalidate and recompute
    return CutResult(p, p.crossing_value, p.part_count)


def parse_graph(text) -> Graph:
    """Parse the ``p kcut n m`` / ``e u v cap`` text format.

    Comments are lines whose first nonblank character is '#'.  Capacities are
    nonnegative integers, decimals (converted exactly), or "a/b" rationals.
    Vertices are 1-indexed in the input, 0-indexed in the result.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    n = -1
    m_declared = -1
    edges: list[Edge] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n >= 0:
                raise ParseError(line_no, "duplicate header")
            if len(fields) != 4 or fields[1] != "kcut":
                raise ParseError(line_no, f"malformed header: {line!r}")
            try:
                n = int(fields[2])
                m_declared = int(fields[3])
            except ValueError:
                raise ParseError(line_no, f"malformed header: {line!r}") from None
            if n < 1 or m_declared < 0:
                raise ParseError(line_no, f"malformed header: {line!r}")
        elif fields[0] == "e":
            if n < 0:
                raise ParseError(line_no, "edge before header")
            if len(fields) != 4:
                raise ParseError(line_no, f"malformed edge record: {line!r}")
            try:
                u = int(fields[1])
                v = int(fields[2])
            except ValueError:
                raise ParseError(line_no, f"malformed edge record: {line!r}") from None
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise ParseError(line_no, f"vertex id out of range 1..{n}: {line!r}")
            if u == v:
                raise ParseError(line_no, f"self-loop not allowed: {line!r}")
            try:
                cap = parse_rational(fields[3])
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
            if len(edges) >= m_declared:
                raise ParseError(line_no, f"more than {m_declared} edges")
            a, b = min(u, v) - 1, max(u, v) - 1
            edges.append(Edge(a, b, cap))
        else:
            raise ParseError(line_no, f"unknown record type: {line!r}")
    if n < 0:
        raise ParseError(1, "missing header")
    if len(edges) != m_declared:
        raise ParseError(
            line_no if text.strip() else 1,
            f"edge-count mismatch: header says {m_declared}, found {len(edges)}",
        )
    return Graph(n, tuple(edges))


class _DSU:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def component_blocks(g: Graph, exclude_edges: Iterable[int] = ()) -> list[list[int]]:
    """Connected components of g with some edges deleted, as raw blocks."""
    skip = set(exclude_edges)
    dsu = _DSU(g.n)
    for i, e in enumerate(g.edges):
        if i not in skip:
            dsu.union(e.u, e.v)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(dsu.find(v), []).append(v)
    return list(groups.values())


def components(g: Graph, exclude_edges: Iterable[int] = ()) -> VertexPartition:
    """Connected components (after optionally deleting edges), canonical.

    The crossing value is evaluated against the full edge set of g.
    """
    return partition_from_blocks(g, component_blocks(g, exclude_edges))


def _quotient(g: Graph, block: Sequence[int], nblocks: int) -> tuple[Graph, list[int]]:
    """Merge each block into one vertex; drop self-loops, keep parallels.

    Returns the new graph and the list of surviving original edge ids
    (aligned with the new graph's edges).
    """
    edges = []
    kept = []
    for i, e in enumerate(g.edges):
        bu, bv = block[e.u], block[e.v]
        if bu == bv:
            continue
        edges.append(Edge(min(bu, bv), max(bu, bv), e.cap))
        kept.append(i)
    return Graph(nblocks, tuple(edges)), kept


def _renumber_by_min(g: Graph, rep_of: Sequence[int]) -> list[int]:
    """Turn an arbitrary representative map into block ids ordered by the
    minimum original vertex in each block."""
    min_vertex: dict[int, int] = {}
    for v in range(g.n):
        r = rep_of[v]
        if r not in min_vertex or v < min_vertex[r]:
            min_vertex[r] = v
    order = sorted(min_vertex, key=lambda r: min_vertex[r])
    index = {r: i for i, r in enumerate(order)}
    return [index[rep_of[v]] for v in range(g.n)]


def contract(g: Graph, edge_ids: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Contract a set of edges; returns (new graph, old-vertex -> new-vertex).

    Endpoints of contracted edges are merged, self-loops dropped, parallel
    edges kept.  New vertex ids follow the minimum original vertex of each
    merged group.
    """
    ids = list(edge_ids)
    for i in ids:
        if not 0 <= i < g.m:
            raise ValueError(f"edge id {i} out of range")
    dsu = _DSU(g.n)
    for i in ids:
        e = g.edges[i]
        dsu.union(e.u, e.v)
    block = _renumber_by_min(g, [dsu.find(v) for v in range(g.n)])
    new_g, _ = _quotient(g, block, max(block) + 1)
    return new_g, tuple(block)


def contract_partition(g: Graph, parts: Iterable[Iterable[int]]):
    """Contract every part of a partition to a single vertex.

    Returns (new graph, old-vertex -> new-vertex map, surviving edge ids).
    """
    parts = canonical_parts(parts)
    _check_partition(g, parts)
    block = [-1] * g.n
    for i, part in enumerate(parts):
        for v in part:
            block[v] = i
    new_g, kept = _quotient(g, block, len(parts))
    return new_g, tuple(block), tuple(kept)


def induced_subgraph(g: Graph, vertices: Iterable[int]):
    """Subgraph induced by a vertex subset.

    Returns (subgraph, old->new vertex map, original edge ids kept).
    New vertex ids follow ascending original ids.
    """
    vs = sorted(set(vertices))
    vmap = {v: i for i, v in enumerate(vs)}
    edges = []
    kept = []
    for i, e in enumerate(g.edges):
        if e.u in vmap and e.v in vmap:
            a, b = vmap[e.u], vmap[e.v]
            edges.append(Edge(min(a, b), max(a, b), e.cap))
            kept.append(i)
    return Graph(len(vs), tuple(edges)), vmap, tuple(kept)


def normalize_parallel(g: Graph) -> Graph:
    """Merge parallel edges by summing capacities (cut values are invariant)."""
    total: dict[tuple[int, int], Fraction] = {}
    for e in g.edges:
        key = (e.u, e.v)
        total[key] = total.get(key, Fraction(0)) + e.cap
    edges = tuple(Edge(u, v, c) for (u, v), c in sorted(total.items()))
    return Graph(g.n, edges)


def graph_to_json(g: Graph) -> dict:
    return {
        "n": g.n,
        "m": g.m,
        "edges": [[e.u + 1, e.v + 1, rational_str(e.cap)] for e in g.edges],
    }
