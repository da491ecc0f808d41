"""Graph representation with exact rational capacities, partition algebra,
contraction/deletion, connected components, and canonical cut evaluation,
with the parsing and formatting of exact rationals.

Vertices are 0-indexed internally; the text format and all JSON output use
1-indexed ids.  Edges are identified by their position in ``Graph.edges``.
Parallel edges are permitted, self-loops are not.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, NamedTuple, Sequence

MAX_EXPONENT = 1000  # Fraction("1e<x>") builds 10**|x|: 13.7 s at x = 10**7
MAX_DIGITS = 2000  # half the 4300 digits Python prints: room for sums and ratios
# A cut value, strength or PSP value is a sum of capacities over a count of at
# most n: numerator at most c(E)·L, denominator n·L, for L the lcm of the
# capacity denominators.  Bounding both leaves 300 of Python's 4300 digits for n.
MAX_GRAPH_DIGITS = 4000
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")
_TOO_LONG = 10**MAX_DIGITS
_GRAPH_TOO_LONG = 10**MAX_GRAPH_DIGITS


def to_fraction(text: str) -> Fraction:
    """``Fraction(text)``, refusing an exponent past ``MAX_EXPONENT`` before
    expanding it, and a numerator or denominator of more than ``MAX_DIGITS``
    digits.  A plain ASCII integer skips the regexes; past 4300 digits
    ``int`` refuses it as ``Fraction`` would."""
    try:
        if text.isascii() and text.isdigit():
            value = Fraction(int(text))
        elif (exponent := _EXPONENT.search(text)) is None or abs(int(exponent.group(1))) <= MAX_EXPONENT:
            value = Fraction(text)
        else:
            value = None
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc
    if value is None:
        raise ValueError(f"exponent beyond {MAX_EXPONENT} in magnitude: {text!r}")
    if abs(value.numerator) >= _TOO_LONG or value.denominator >= _TOO_LONG:
        raise ValueError(f"numerator or denominator beyond {MAX_DIGITS} digits")
    return value


def parse_rational(text: str) -> Fraction:
    """Parse a nonnegative rational written as an integer, a decimal, or "a/b".

    Decimals are converted exactly (0.25 -> 1/4).  Raises ValueError on
    anything else, including negative values and huge exponents.
    """
    value = to_fraction(text.strip())
    if value < 0:
        raise ValueError(f"negative capacity: {text!r}")
    return value


def rational_str(value) -> str:
    """Canonical "p/q" rendering, denominator always present ("5" -> "5/1").
    A numerator or denominator past Python's int-to-string limit raises a
    ``ValueError`` that names the limit."""
    f = Fraction(value)
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"a result's numerator or denominator passes the {limit}-digit print limit") from None


class ParseError(ValueError):
    """Malformed input text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Edge(NamedTuple):
    u: int
    v: int
    cap: Fraction


class Graph(NamedTuple):
    """Undirected multigraph with nonnegative rational edge capacities.

    Equal and hashed by value, like every record here."""

    n: int
    edges: tuple[Edge, ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        return len(component_blocks(self)) <= 1


class VertexPartition(NamedTuple):
    """Canonical partition of the vertex set.

    Parts are sorted tuples, ordered by their minimum element.
    ``crossing_value`` is the total capacity of edges with endpoints in two
    different parts of the partition (recomputable from the graph).  Every
    cut the library returns is one of these.
    """

    parts: tuple[tuple[int, ...], ...]
    crossing_value: Fraction

    @property
    def part_count(self) -> int:
        return len(self.parts)

    def block_of(self, n: int) -> list[int]:
        """Vertex -> part index array."""
        return _block_map(n, self.parts)

    def to_json(self) -> list[list[int]]:
        return [[v + 1 for v in part] for part in self.parts]


def canonical_parts(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    parts = [part for part in (tuple(sorted(b)) for b in blocks) if part]
    parts.sort(key=lambda p: p[0])
    return tuple(parts)


def _block_map(n: int, parts) -> list[int]:
    """Vertex -> index of its part among ``parts``; -1 for a vertex in none."""
    block = [-1] * n
    for i, part in enumerate(parts):
        for v in part:
            block[v] = i
    return block


def crossing_edges(g: Graph, block: Sequence[int]) -> list[int]:
    """Edge ids with endpoints in different blocks of a vertex->block map."""
    return [i for i, e in enumerate(g.edges) if block[e.u] != block[e.v]]


def _scaled(values) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over their least common denominator
    (so the numerators and the denominator share no factor).  Values are
    ints, Fractions or anything ``Fraction`` accepts."""
    vals = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    d = lcm(*[v.denominator for v in vals])
    if d == 1:
        return [v.numerator for v in vals], 1
    return [v.numerator * (d // v.denominator) for v in vals], d


def scaled_capacities(g: Graph) -> tuple[list[int], int]:
    """(c(e)·L as ints, L), with L the lcm of the capacity denominators.

    Sums of scaled capacities are exact integers; divide by L to get back."""
    return _scaled([e.cap for e in g.edges])


def partition_from_blocks(g: Graph, blocks: Iterable[Iterable[int]]) -> VertexPartition:
    return _scaled_partition(g, blocks, *scaled_capacities(g))


def _scaled_partition(g: Graph, blocks, caps: Sequence[int], scale: int) -> VertexPartition:
    """``partition_from_blocks`` on the caller's ``scaled_capacities(g)``:
    the crossing value is one int sum over ``caps``, divided by ``scale``."""
    return _scaled_crossing(g, blocks, caps, scale)[0]


def _scaled_crossing(g: Graph, blocks, caps: Sequence[int], scale: int):
    """``_scaled_partition`` and the ids of the edges crossing it."""
    parts = canonical_parts(blocks)
    _check_partition(g, parts)
    crossing = crossing_edges(g, _block_map(g.n, parts))
    return VertexPartition(parts, Fraction(sum([caps[i] for i in crossing]), scale)), crossing


def partition_sort_key(p: VertexPartition):
    """Tie-break used everywhere: maximum part count first, then canonical."""
    return (-p.part_count, p.parts)


def set_partitions(items: list) -> Iterator[list[list]]:
    """Set partitions via restricted growth strings, lexicographic."""
    n = len(items)
    if n == 0:
        yield []
        return
    rgs = [0] * n
    maxes = [0] * n
    while True:
        nblocks = max(rgs) + 1
        blocks: list[list] = [[] for _ in range(nblocks)]
        for i, b in enumerate(rgs):
            blocks[b].append(items[i])
        yield blocks
        i = n - 1
        while i > 0 and rgs[i] == maxes[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        maxes[i] = max(maxes[i - 1], rgs[i])
        for j in range(i + 1, n):
            rgs[j] = 0
            maxes[j] = maxes[i]


def check_k(g: Graph, k: int) -> None:
    """Reject a part count k outside 2..n."""
    if not 2 <= k <= g.n:
        raise ValueError(f"k={k} out of range 2..{g.n}")


def check_connected(g: Graph, what: str) -> None:
    """Reject a graph with fewer than two vertices or more than one component."""
    if g.n < 2:
        raise ValueError(f"{what} needs at least two vertices")
    if not g.is_connected():
        raise ValueError(f"{what} is defined for connected graphs")


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
    scale, total = 1, 0  # L and c(E)·L over the edges so far
    parsed: dict[str, Fraction] = {}  # each distinct capacity text, parsed once
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
            cap = parsed.get(fields[3])
            if cap is None:
                try:
                    cap = parsed[fields[3]] = parse_rational(fields[3])
                except ValueError as exc:
                    raise ParseError(line_no, str(exc)) from None
            if len(edges) >= m_declared:
                raise ParseError(line_no, f"more than {m_declared} edges")
            if cap.denominator == 1 == scale:  # integers within MAX_DIGITS never reach the bound
                total += cap.numerator
            else:
                grown = lcm(scale, cap.denominator)
                total = total * (grown // scale) + cap.numerator * (grown // cap.denominator)
                scale = grown
                if scale >= _GRAPH_TOO_LONG or total >= _GRAPH_TOO_LONG:
                    why = f"capacities' common denominator or scaled sum beyond {MAX_GRAPH_DIGITS} digits"
                    raise ParseError(line_no, why)
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


def component_blocks(g: Graph, exclude_edges: Iterable[int] = ()) -> list[list[int]]:
    """Connected components of g with some edges deleted, as raw blocks in
    the order of their least vertices."""
    skip = set(exclude_edges)
    parent = list(range(g.n))

    def find(x: int) -> int:  # path halving
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for i, e in enumerate(g.edges):
        if i not in skip:
            parent[find(e.v)] = find(e.u)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def components(g: Graph, exclude_edges: Iterable[int] = ()) -> VertexPartition:
    """Connected components (after optionally deleting edges), canonical.

    The crossing value is evaluated against the full edge set of g.
    """
    return partition_from_blocks(g, component_blocks(g, exclude_edges))


def _rooted_forest(n: int, tree: Sequence[int], edges: Sequence[Edge]):
    """(component masks, mask below each tree edge, root-path mask of each
    vertex) of a forest given as edge ids, each component rooted at its
    smallest vertex.  The mask below a tree edge is the subtree of its child
    end; a vertex's root-path mask has bit i set iff the i-th tree edge lies
    on its path to the root.  Edges with a cycle raise ``ValueError``."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for ti, eid in enumerate(tree):
        e = edges[eid]
        adj[e.u].append((e.v, ti))
        adj[e.v].append((e.u, ti))
    parent = [-1] * n
    up = [-1] * n  # tree index of the edge to the parent
    path = [0] * n
    subtree = [1 << v for v in range(n)]
    below = [0] * len(tree)
    comps = []
    for root in range(n):
        if parent[root] >= 0:
            continue
        parent[root] = root
        order = [root]
        for u in order:  # grows while it is walked: a breadth-first order
            for v, ti in adj[u]:
                if parent[v] < 0:
                    parent[v] = u
                    up[v] = ti
                    path[v] = path[u] | 1 << ti
                    order.append(v)
                elif ti != up[u]:
                    raise ValueError("tree edges must form a forest")
        for v in reversed(order[1:]):
            below[up[v]] = subtree[v]
            subtree[parent[v]] |= subtree[v]
        comps.append(subtree[root])
    return comps, below, path


def _mask_partition(n: int, masks: Iterable[int], value: Fraction) -> VertexPartition:
    """The canonical partition whose parts are the given disjoint vertex
    bitmasks, carrying the crossing value the caller already holds."""
    parts = sorted(masks, key=lambda mask: mask & -mask)
    return VertexPartition(
        tuple([tuple([v for v in range(n) if mask >> v & 1]) for mask in parts]), value
    )


def contract_partition(g: Graph, parts: Iterable[Iterable[int]]):
    """Contract every part of a partition to a single vertex; self-loops are
    dropped, parallel edges kept, and new ids follow each part's minimum.

    Returns (new graph, old-vertex -> new-vertex map, surviving edge ids).
    """
    parts = canonical_parts(parts)
    _check_partition(g, parts)
    block = _block_map(g.n, parts)
    edges = []
    kept = []
    for i, e in enumerate(g.edges):
        bu, bv = block[e.u], block[e.v]
        if bu != bv:
            edges.append(Edge(min(bu, bv), max(bu, bv), e.cap))
            kept.append(i)
    return Graph(len(parts), tuple(edges)), tuple(block), tuple(kept)


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
