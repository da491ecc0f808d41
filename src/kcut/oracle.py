"""Brute-force ground truth on small instances.

Everything here is exponential by design.  Strength, min k-cut and attack
values are read off a ``PartitionTable``: one depth-first pass over all
Bell(n) set partitions in integer arithmetic, keeping the least crossing
value of each part count and every partition attaining it.  The packing and
k-cut relaxation values are exact LPs over the explicitly enumerated
spanning forests, all on one ``ForestLP`` per graph: it enumerates the
forests once, adds each to one simplex tableau as the sparse column of its
edge ids, solves the packing LP, and re-optimises the same tableau for
each k, since only the objective depends on k.  Past the forest limit the
forests are counted by the matrix-tree theorem and never enumerated.  The
table shares only ``scaled_capacities`` with the fast paths, so it is an
independent check on them.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterator, NamedTuple

from .graph import (
    Graph,
    VertexPartition,
    check_connected,
    check_k,
    component_blocks,
    partition_from_blocks,
    partition_sort_key,
    scaled_capacities,
    set_partitions,
)
from .simplex import Tableau, solve_lp  # noqa: F401  perfbench's tracer wraps oracle.solve_lp


class OracleLimitError(ValueError):
    """Input exceeds the configured brute-force limits."""


class _LimitFields(NamedTuple):
    max_n_partitions: int
    max_spanning_trees: int


class OracleLimits(_LimitFields):
    __slots__ = ()

    def __new__(cls, max_n_partitions: int = 12, max_spanning_trees: int = 20000):
        self = super().__new__(cls, max_n_partitions, max_spanning_trees)
        for name, value in zip(self._fields, self):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        return self


DEFAULT_LIMITS = OracleLimits()
MAX_TIES = 2**17
"""``partition_table`` keeps at most this many tied minimizers over all part
counts: above Bell(10) = 115,975, so every graph on 10 vertices fits."""


def enum_partitions(g: Graph, limits: OracleLimits = DEFAULT_LIMITS) -> Iterator[VertexPartition]:
    """Every set partition of V exactly once (Bell(n) total), canonical."""
    n = g.n
    if n > limits.max_n_partitions:
        raise OracleLimitError(f"n={n} exceeds max_n_partitions={limits.max_n_partitions}")
    for blocks in set_partitions(list(range(n))):
        yield partition_from_blocks(g, blocks)


class PartitionTable(NamedTuple):
    """The least crossing value of each part count, with its minimizers.

    ``best[p]`` is the least crossing value, scaled by ``scale``, over the
    partitions with p parts, and ``ties[p]`` holds the restricted growth
    string (one byte per vertex) of every partition attaining it, in
    enumeration order.  Every
    brute-force partition answer is read off these two maps.
    """

    graph: Graph
    scale: int
    best: dict[int, int]
    ties: dict[int, list[bytes]]

    def _partition(self, p: int, rgs: bytes) -> VertexPartition:
        """The canonical partition of a restricted growth string with p
        parts; block i opens at its smallest vertex, so no sort is needed."""
        blocks: list[list[int]] = [[] for _ in range(p)]
        for v, b in enumerate(rgs):
            blocks[b].append(v)
        return VertexPartition(tuple(map(tuple, blocks)), Fraction(self.best[p], self.scale))

    def min_kcut(self, k: int):
        """Minimum k-cut: (the optimal partition, tuple of every optimal
        partition with >= k parts), ordered by ``partition_sort_key``."""
        check_k(self.graph, k)
        counts = [p for p in self.best if p >= k]
        least = min(self.best[p] for p in counts)
        argmins = sorted(
            (self._partition(p, rgs) for p in counts if self.best[p] == least for rgs in self.ties[p]),
            key=partition_sort_key,
        )
        return argmins[0], tuple(argmins)

    def strength(self):
        """(strength, argmin partition): of the partitions attaining the
        least c(E(P))/(|P|-1), the first by ``partition_sort_key``.  The
        graph must be connected with n >= 2, which callers check."""
        ratios = {p: Fraction(v, self.scale * (p - 1)) for p, v in self.best.items() if p >= 2}
        sigma = min(ratios.values())
        p = max(q for q, r in ratios.items() if r == sigma)
        return sigma, min((self._partition(p, rgs) for rgs in self.ties[p]), key=lambda q: q.parts)

    def attack(self, b: Fraction):
        """min over partitions of c(E(P)) - b(|P|-1), with the first argmin
        in enumeration order at the least and at the greatest part count."""
        values = {p: Fraction(v, self.scale) - b * (p - 1) for p, v in self.best.items()}
        least = min(values.values())
        tied = [p for p, v in values.items() if v == least]
        lo, hi = min(tied), max(tied)
        return least, self._partition(lo, self.ties[lo][0]), self._partition(hi, self.ties[hi][0])


def partition_table(g: Graph, limits: OracleLimits = DEFAULT_LIMITS) -> PartitionTable:
    """One depth-first pass over the restricted growth strings of V.

    Vertex v joins block b of a string on vertices 0..v-1, and the capacity
    of v's edges to earlier vertices outside b is added to the prefix's
    crossing value, so every value is one integer update of its parent's.
    Only the least value of each part count and the strings attaining it
    are kept; at the last vertex only the blocks of least added value are
    visited.  More than ``MAX_TIES`` minimizers in all raise
    ``OracleLimitError``.
    """
    n = g.n
    if n > limits.max_n_partitions:
        raise OracleLimitError(f"n={n} exceeds max_n_partitions={limits.max_n_partitions}")
    caps, scale = scaled_capacities(g)
    back: list[dict[int, int]] = [{} for _ in range(n)]  # v -> {u < v: capacity}
    for e, c in zip(g.edges, caps):
        u, v = sorted((e.u, e.v))
        if u != v:
            back[v][u] = back[v].get(u, 0) + c
    earlier = [tuple(d.items()) for d in back]
    earlier_total = [sum(d.values()) for d in back]
    best: list[int | None] = [None] * (n + 1)
    ties: list[list[bytes]] = [[] for _ in range(n + 1)]
    rgs = [0] * n
    kept = 0  # the strings in ties

    def keep(p: int, value: int) -> None:
        nonlocal kept
        if best[p] is None or value < best[p]:
            best[p] = value
            kept += 1 - len(ties[p])
            ties[p] = [bytes(rgs)]
        elif value == best[p]:
            ties[p].append(bytes(rgs))
            kept += 1
            if kept > MAX_TIES:
                raise OracleLimitError(f"more than {MAX_TIES} tied minimum partitions")

    def grow(v: int, cost: int, used: int) -> None:
        # conn[b]: capacity from v to block b, saved when v joins b
        conn = [0] * used
        for u, c in earlier[v]:
            conn[rgs[u]] += c
        cost += earlier_total[v]
        if v == n - 1:
            top = max(conn)
            if best[used] is None or cost - top <= best[used]:
                for b in range(used):
                    if conn[b] == top:
                        rgs[v] = b
                        keep(used, cost - top)
            rgs[v] = used
            keep(used + 1, cost)
            return
        for b in range(used):
            rgs[v] = b
            grow(v + 1, cost - conn[b], used)
        rgs[v] = used
        grow(v + 1, cost, used + 1)

    if n < 2:
        keep(n, 0)
    else:
        grow(1, 0, 1)
    return PartitionTable(
        g,
        scale,
        {p: v for p, v in enumerate(best) if v is not None},
        {p: ties[p] for p, v in enumerate(best) if v is not None},
    )


def oracle_strength(g: Graph, limits: OracleLimits = DEFAULT_LIMITS):
    """(strength, argmin partition) by exhaustive partition scan."""
    check_connected(g, "strength")
    return partition_table(g, limits).strength()


def oracle_min_kcut(g: Graph, k: int, limits: OracleLimits = DEFAULT_LIMITS):
    """Minimum k-cut by exhaustive scan.

    Returns (partition, tuple of every optimal partition with >= k parts),
    the representative tie-broken to maximum part count then canonical order.
    """
    check_k(g, k)
    return partition_table(g, limits).min_kcut(k)


def spanning_forests(g: Graph, limit: int | None = None) -> list[tuple[int, ...]]:
    """All maximal forests (edge-id tuples); a forest has n - h edges.

    More than ``limit`` of them raise ``OracleLimitError`` before any is
    enumerated: when C(m, n - h) exceeds the limit, the forests are first
    counted (``_forest_count``).  Enumerates by include/exclude branching
    on edge ids with a connectivity pruning test (``_forests``), so every
    forest is maximal and none repeats.
    """
    blocks = component_blocks(g)
    target = g.n - len(blocks)
    if limit is not None and comb(g.m, target) > limit and _forest_count(g, blocks) > limit:
        raise OracleLimitError(f"more than {limit} spanning forests")
    return _forests(g, target)


def _forests(g: Graph, target: int) -> list[tuple[int, ...]]:
    """``spanning_forests``'s enumeration: every maximal forest (``target``
    = n - h edges), in lexicographic order of the edge-id tuples."""
    m = g.m
    out: list[tuple[int, ...]] = []

    def completable(parent: list[int], start: int, need: int) -> bool:
        if need == 0:
            return True
        scratch = parent[:]

        def find(x):
            while scratch[x] != x:
                scratch[x] = scratch[scratch[x]]
                x = scratch[x]
            return x

        got = 0
        for j in range(start, m):
            e = g.edges[j]
            ru, rv = find(e.u), find(e.v)
            if ru != rv:
                scratch[rv] = ru
                got += 1
                if got >= need:
                    return True
        return False

    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    chosen: list[int] = []
    # Depth first on an explicit stack, so the depth (up to m) is not bound
    # by the recursion limit.  (i, None) branches on edge i; (i, rv) undoes
    # the inclusion of edge i, whose root rv was attached, once that branch
    # is exhausted, and then takes the exclusion branch.
    stack: list[tuple[int, int | None]] = [(0, None)]
    while stack:
        i, undo = stack.pop()
        if undo is None:
            if len(chosen) == target:
                out.append(tuple(chosen))
                continue
            if i == m:
                continue
            e = g.edges[i]
            ru, rv = find(e.u), find(e.v)
            if ru != rv:
                parent[rv] = ru
                chosen.append(i)
                stack.append((i, rv))
            # else edge i closes a cycle, so no maximal forest reachable
            # here uses it: excluding it leaves one reachable
            stack.append((i + 1, None))
            continue
        chosen.pop()
        parent[undo] = undo
        # exclude edge i iff a maximal forest is still reachable
        if completable(parent, i + 1, target - len(chosen)):
            stack.append((i + 1, None))
    return out


def _forest_count(g: Graph, blocks) -> int:
    """The number of maximal forests of g, whose components are ``blocks``
    (each ascending), parallel and zero-capacity edges counted: by
    Kirchhoff's matrix-tree theorem, the product over the components of
    the determinant of the Laplacian with the first vertex's row and column
    removed.  A connected graph's reduced Laplacian is positive definite,
    so Bareiss's fraction-free elimination takes its determinant in exact
    ints without a pivot search."""
    at = {}  # vertex -> (component, its row), the first vertex of each dropped
    for c, block in enumerate(blocks):
        at.update((v, (c, i)) for i, v in enumerate(block[1:]))
    laplacians = [[[0] * (len(block) - 1) for _ in block[1:]] for block in blocks]
    for e in g.edges:
        for u, v in ((e.u, e.v), (e.v, e.u)):
            if u != v and u in at:
                c, i = at[u]
                row = laplacians[c][i]
                row[i] += 1
                if v in at:
                    row[at[v][1]] -= 1
    count = 1
    for a in laplacians:
        prev = 1
        for k in range(len(a) - 1):
            pk, rk = a[k][k], a[k]
            for ri in a[k + 1 :]:
                fi = ri[k]
                for j in range(k + 1, len(a)):
                    ri[j] = (pk * ri[j] - fi * rk[j]) // prev
            prev = pk
        count *= a[-1][-1] if a else 1
    return count


class ForestLP:
    """The exact LPs over every maximal forest of one graph, on one tableau.

    The forests are enumerated once, at the first query, and each enters
    a ``Tableau`` over the edge rows as a sparse column, its edge ids
    (``Tableau.add_support``); no forest-by-edge matrix is built.  The
    tableau first solves the packing LP: max sum y_T with per-edge load at
    most c.  One z column per edge is then added, and each k re-optimises
    the packing dual of the k-cut relaxation, max (k-h) sum y_T - sum z_e
    with per-edge load at most c + z, from the last optimal basis: only the
    objective changes with k.  The tableau keeps the forests as columns
    apart from its m + 1 wide rows, so a pivot costs the same however many
    forests there are; only the pricing scan reads them.
    """

    def __init__(self, g: Graph, limits: OracleLimits = DEFAULT_LIMITS):
        self.graph = g
        self.limits = limits
        self.h = len(component_blocks(g))
        self.tableau: Tableau | None = None
        self._treepack: Fraction | None = None

    def _build(self) -> None:
        g = self.graph
        if g.m == 0:
            raise ValueError("packing value undefined for edgeless graph")
        forests = spanning_forests(g, self.limits.max_spanning_trees)
        tableau = Tableau([e.cap for e in g.edges])
        for f in forests:
            tableau.add_support(f)  # at cost 1: the packing LP's objective
        self._treepack = tableau.solve().value
        for eid in range(g.m):
            tableau.add_column([-1 if i == eid else 0 for i in range(g.m)], -1)
        self.tableau = tableau

    def treepack(self) -> Fraction:
        """Optimal fractional packing value of maximal forests under
        capacities."""
        if self.tableau is None:
            self._build()
        return self._treepack

    def lp_value(self, k: int) -> Fraction:
        """Exact optimum of the k-cut relaxation with one covering
        constraint per maximal forest (right-hand side k - h for h
        components); 0 for k <= h, without enumerating."""
        check_k(self.graph, k)
        if k <= self.h:
            return Fraction(0)
        self.treepack()
        t = self.tableau  # y per forest, then z per edge
        t.set_objective([k - self.h] * (t.added - self.graph.m) + [-1] * self.graph.m)
        return t.solve().value


def oracle_treepack(g: Graph, limits: OracleLimits = DEFAULT_LIMITS) -> Fraction:
    """Optimal fractional packing value of maximal forests under capacities,
    solved as an exact LP over the full forest list."""
    return ForestLP(g, limits).treepack()


def oracle_lp_value(g: Graph, k: int, limits: OracleLimits = DEFAULT_LIMITS) -> Fraction:
    """Exact optimum of the k-cut relaxation with one covering constraint per
    enumerated maximal forest (right-hand side k - h for h components).

    Solved through its packing dual (same optimum, m rows instead of one row
    per forest): max (k-h) sum y_T - sum z_e with per-edge load at most c+z.
    """
    return ForestLP(g, limits).lp_value(k)
