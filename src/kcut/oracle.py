"""Brute-force ground truth on small instances.

Everything here is exponential by design: set-partition enumeration for
strength / min k-cut / attack values, and exact LPs over the explicitly
enumerated spanning forests for the packing and k-cut relaxation values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .graph import (
    Graph,
    VertexPartition,
    CutResult,
    component_blocks,
    partition_from_blocks,
)
from .simplex import solve_lp


class OracleLimitError(ValueError):
    """Input exceeds the configured brute-force limits."""


@dataclass(frozen=True)
class OracleLimits:
    max_n_partitions: int = 12
    max_spanning_trees: int = 20000


DEFAULT_LIMITS = OracleLimits()


def enum_partitions(g: Graph, limits: OracleLimits = DEFAULT_LIMITS) -> Iterator[VertexPartition]:
    """Every set partition of V exactly once (Bell(n) total), canonical."""
    n = g.n
    if n > limits.max_n_partitions:
        raise OracleLimitError(f"n={n} exceeds max_n_partitions={limits.max_n_partitions}")
    for blocks in set_partitions(list(range(n))):
        yield partition_from_blocks(g, blocks)


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


def partition_sort_key(p: VertexPartition):
    """Tie-break used everywhere: maximum part count first, then canonical."""
    return (-p.part_count, p.parts)


def oracle_strength(g: Graph, limits: OracleLimits = DEFAULT_LIMITS):
    """(strength, argmin partition) by exhaustive partition scan."""
    if g.n < 2:
        raise ValueError("strength needs at least two vertices")
    if not g.is_connected():
        raise ValueError("strength is defined for connected graphs")
    best = None
    best_p = None
    for p in enum_partitions(g, limits):
        if p.part_count < 2:
            continue
        ratio = p.crossing_value / (p.part_count - 1)
        if best is None or ratio < best:
            best, best_p = ratio, p
        elif ratio == best and partition_sort_key(p) < partition_sort_key(best_p):
            best_p = p
    return best, best_p


def oracle_min_kcut(g: Graph, k: int, limits: OracleLimits = DEFAULT_LIMITS):
    """Minimum k-cut by exhaustive scan.

    Returns (CutResult, tuple of every optimal partition with >= k parts),
    the representative tie-broken to maximum part count then canonical order.
    """
    if not 2 <= k <= g.n:
        raise ValueError(f"k={k} out of range 2..{g.n}")
    best = None
    argmins: list[VertexPartition] = []
    for p in enum_partitions(g, limits):
        if p.part_count < k:
            continue
        v = p.crossing_value
        if best is None or v < best:
            best = v
            argmins = [p]
        elif v == best:
            argmins.append(p)
    argmins.sort(key=partition_sort_key)
    top = argmins[0]
    return CutResult(top, best, top.part_count), tuple(argmins)


def oracle_attack_value(g: Graph, b: Fraction, limits: OracleLimits = DEFAULT_LIMITS):
    """min over partitions of c(E(P)) - b(|P|-1), with an extreme argmin pair."""
    best = None
    coarse = fine = None
    for p in enum_partitions(g, limits):
        v = p.crossing_value - b * (p.part_count - 1)
        if best is None or v < best:
            best, coarse, fine = v, p, p
        elif v == best:
            if p.part_count < coarse.part_count:
                coarse = p
            if p.part_count > fine.part_count:
                fine = p
    return best, coarse, fine


def spanning_forests(g: Graph, limit: int | None = None) -> list[tuple[int, ...]]:
    """All maximal forests (edge-id tuples); a forest has n - h edges.

    Enumerates by include/exclude branching on edge ids with a connectivity
    pruning test, so every yielded forest is maximal and none repeats.
    """
    target = g.n - len(component_blocks(g))
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
        if undo is not None:
            chosen.pop()
            parent[undo] = undo
        else:
            if len(chosen) == target:
                out.append(tuple(chosen))
                if limit is not None and len(out) > limit:
                    raise OracleLimitError(f"more than {limit} spanning forests")
                continue
            if i == m:
                continue
            e = g.edges[i]
            ru, rv = find(e.u), find(e.v)
            if ru != rv:
                parent[rv] = ru
                chosen.append(i)
                stack.append((i, rv))
                stack.append((i + 1, None))
                continue
        # exclude edge i iff a maximal forest is still reachable
        if completable(parent, i + 1, target - len(chosen)):
            stack.append((i + 1, None))
    return out


def oracle_treepack(g: Graph, limits: OracleLimits = DEFAULT_LIMITS) -> Fraction:
    """Optimal fractional packing value of maximal forests under capacities,
    solved as an exact LP over the full forest list."""
    if g.m == 0:
        raise ValueError("packing value undefined for edgeless graph")
    forests = spanning_forests(g, limits.max_spanning_trees)
    nt = len(forests)
    rows = [[Fraction(0)] * nt for _ in range(g.m)]
    for j, f in enumerate(forests):
        for eid in f:
            rows[eid][j] = Fraction(1)
    return solve_lp([Fraction(1)] * nt, rows, [e.cap for e in g.edges]).value


def oracle_lp_value(g: Graph, k: int, limits: OracleLimits = DEFAULT_LIMITS) -> Fraction:
    """Exact optimum of the k-cut relaxation with one covering constraint per
    enumerated maximal forest (right-hand side k - h for h components).

    Solved through its packing dual (same optimum, m rows instead of one row
    per forest): max (k-h) sum y_T - sum z_e with per-edge load at most c+z.
    """
    if not 2 <= k <= g.n:
        raise ValueError(f"k={k} out of range 2..{g.n}")
    h = len(component_blocks(g))
    if k <= h:
        return Fraction(0)
    forests = spanning_forests(g, limits.max_spanning_trees)
    nt = len(forests)
    nvar = nt + g.m  # y per forest, then z per edge
    obj = [Fraction(k - h)] * nt + [Fraction(-1)] * g.m
    rows = [[Fraction(0)] * nvar for _ in range(g.m)]
    for j, f in enumerate(forests):
        for eid in f:
            rows[eid][j] = Fraction(1)
    for eid in range(g.m):
        rows[eid][nt + eid] = Fraction(-1)
    return solve_lp(obj, rows, [e.cap for e in g.edges]).value
