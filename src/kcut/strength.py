"""Exact graph strength, the attack function, its breakpoints, and the
principal sequence of partitions.

The attack value for parameter b is

    g(b) = min over partitions P of  c(E(P)) - b(|P| - 1).

Writing c(E(P)) = c(E) - sum of internal capacities, minimizing g(b) is a
partition minimization of the submodular part-cost f(S) = -c(E[S]) - b and
is solved exactly by incremental Dilworth truncation: insert vertices one at
a time, each step one exact min s-t cut in a small auxiliary network.

Ties are handled structurally rather than by perturbing the graph: the
optimal partitions form a lattice under refinement, and one sweep yields its
finest member by merging along the smallest minimum cut of each step.  The
sweep's greedy labels sum to the attack value, which certifies that member.

The strength is found by a Dinkelbach ratio iteration over the attack
oracle, and the principal sequence by recursively splitting each
minimum-strength component by its finest minimum-strength partition.  The
critical values of that sequence are the breakpoints of g, so
``breakpoints`` reads them off the cached sequence.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .flow import FlowNetwork
from .graph import (
    Graph,
    VertexPartition,
    check_connected,
    component_blocks,
    crossing_edges,
    induced_subgraph,
    partition_from_blocks,
    scaled_capacities,
)


@dataclass(frozen=True)
class AttackResult:
    b: Fraction
    value: Fraction
    argmin_max_parts: VertexPartition


@dataclass(frozen=True)
class Breakpoint:
    b: Fraction
    before: VertexPartition  # coarsest optimal at b (optimal just below)
    after: VertexPartition  # finest optimal at b (optimal just above)


@dataclass(frozen=True)
class PspLevel:
    lam: Fraction
    partition: VertexPartition  # P_i
    a_edges: frozenset[int]  # cumulative crossing edge ids, A_i = E(P_i)
    b_edges: frozenset[int]  # increment B_i = A_i \ A_{i-1}
    split_components: tuple[tuple[int, ...], ...]  # the C's split at this level
    kappa: int  # |P_i|


@dataclass(frozen=True)
class PrincipalSequence:
    graph: Graph
    p0: VertexPartition  # components of G
    levels: tuple[PspLevel, ...]

    def lambdas(self) -> tuple[Fraction, ...]:
        return tuple(level.lam for level in self.levels)

    def kappas(self) -> tuple[int, ...]:
        return tuple(level.kappa for level in self.levels)

    def kappa0(self) -> int:
        return self.p0.part_count

    def level_for_k(self, k: int) -> int:
        """Smallest level index j (1-based) with kappa_j >= k; 0 if kappa_0 >= k."""
        if self.p0.part_count >= k:
            return 0
        for j, level in enumerate(self.levels, start=1):
            if level.kappa >= k:
                return j
        raise ValueError(f"k={k} exceeds the final partition size")

    def partition_at(self, j: int) -> VertexPartition:
        return self.p0 if j == 0 else self.levels[j - 1].partition

    def a_edges_at(self, j: int) -> frozenset[int]:
        return frozenset() if j == 0 else self.levels[j - 1].a_edges

    def kappa_at(self, j: int) -> int:
        return self.p0.part_count if j == 0 else self.levels[j - 1].kappa


def _dilworth_partition(g: Graph, b: Fraction):
    """One Dilworth-truncation sweep minimizing sum_S (-c(E[S]) - b) over
    partitions; returns the blocks of the finest minimizer and the attack
    value c(E) + b + x(V) from the greedy labels x.

    Inserting vertex j costs one max-flow, whose minimum cuts are the tight
    sets j may join; merging along the smallest (residual-reachable from j)
    builds the finest minimizer.  The labels depend only on the flow values,
    and x(V) is the least partition cost, so the value certifies the blocks.

    Every quantity of the sweep is scaled once by S = 2·lcm(L, den b), with
    L the lcm of the capacity denominators: half-capacities c/2, b, the
    prefix half-degrees, potentials, greedy labels and flows are then Python
    ints, and so is the label sum c(E)·S + b·S + x(V).  Minimum cuts are
    unchanged by the scaling, and only they reach the blocks.

    The prefix edges of positive capacity are kept in one list over the
    sweep, which step j extends by vertex j's edges to {0..j-1}, so each
    step adds its undirected arcs from that list without scanning the
    adjacency of the prefix again.  The arc order decides only which paths
    the max-flow augments, not its value or its smallest minimum cut.
    """
    n = g.n
    caps, cap_scale = scaled_capacities(g)
    scale = 2 * lcm(cap_scale, b.denominator)  # S
    half = [c * (scale // (2 * cap_scale)) for c in caps]  # c(e)/2·S
    b_s = b.numerator * (scale // b.denominator)  # b·S
    fine: list[set[int]] = [{0}]
    x = [-b_s] + [0] * (n - 1)  # greedy labels, one per processed vertex
    adj = g.neighbors()
    hdeg = [0] * n  # half-degrees within the processed prefix {0..j}
    inner: list[tuple[int, int, int]] = []  # (w, v, c/2·S), w < v <= j, c > 0
    for j in range(1, n):
        for w, eid in adj[j]:
            if w < j:
                hdeg[j] += half[eid]
                hdeg[w] += half[eid]
                if half[eid] > 0:
                    inner.append((w, j, half[eid]))
        # potentials: p_u = -deg(u)/2 - x_u for u < j; p_j enters as a constant
        net = FlowNetwork(j + 2)
        t = j + 1
        const = 0
        for u in range(j):
            p_u = -hdeg[u] - x[u]
            if p_u > 0:
                net.add_arc(u, t, p_u)
            elif p_u < 0:
                net.add_arc(j, u, -p_u)
                const += p_u
        for w, v, h in inner:
            net.add_undirected(w, v, h)
        flow = net.max_flow(j, t)
        x[j] = flow + const - hdeg[j] - b_s
        fine = _merge(fine, j, net.residual_reachable(j))
    return fine, Fraction(2 * sum(half) + b_s + sum(x), scale)


def _merge(blocks: list[set[int]], j: int, side: frozenset[int]) -> list[set[int]]:
    """Join j with every block that meets ``side``."""
    merged = {j}
    rest = []
    for blk in blocks:
        if blk & side:
            merged |= blk
        else:
            rest.append(blk)
    rest.append(merged)
    return rest


def attack(g: Graph, b) -> AttackResult:
    """Exact minimum of c(E(P)) - b(|P|-1) and its finest argmin.

    One truncation sweep gives the finest optimal partition, so degenerate
    ties never require perturbing capacities.  Its value must equal the
    sweep's label sum; the coarsest optimum differs from it only at a
    breakpoint, where ``breakpoints`` gives it as ``before``.
    """
    b = Fraction(b)
    if b < 0:
        raise ValueError("attack parameter must be nonnegative")
    if g.n == 0:
        raise ValueError("empty graph")
    blocks, label_value = _dilworth_partition(g, b)
    fine = partition_from_blocks(g, blocks)
    value = fine.crossing_value - b * (fine.part_count - 1)
    if value != label_value:
        raise AssertionError("finest argmin disagrees with the sweep's label sum")
    return AttackResult(b, value, fine)


def breakpoints(g: Graph) -> tuple[Breakpoint, ...]:
    """All breakpoints of the attack function, read off the principal sequence.

    The attack function is concave and piecewise linear.  It bends at every
    critical value lambda_i, where the coarsest optimal partition is P_{i-1}
    and the finest is P_i.  A disconnected graph also bends at b = 0, where
    {V} gives way to its components; when lambda_1 = 0 that bend is level 1's.
    A connected graph has at most n - 1 breakpoints.
    """
    if g.n < 2:
        return ()
    psp = principal_sequence(g)
    before = partition_from_blocks(g, [range(g.n)])
    found: list[Breakpoint] = []
    if psp.p0.part_count > 1 and not (psp.levels and psp.levels[0].lam == 0):
        found.append(Breakpoint(Fraction(0), before, psp.p0))
        before = psp.p0
    for level in psp.levels:
        found.append(Breakpoint(level.lam, before, level.partition))
        before = level.partition
    return tuple(found)


@functools.lru_cache(maxsize=None)
def strength(g: Graph):
    """Exact strength and its finest attaining partition.

    The strength is the first breakpoint of the attack function; the
    partition is the maximum-part-count minimizer of c(E(P)) / (|P|-1),
    which is the finest optimal attack partition at b = strength.
    """
    check_connected(g, "strength")
    # Dinkelbach-style ratio search: start from the singleton line.
    cval = g.total_capacity()
    parts = g.n
    for _ in range(4 * g.n + 8):
        b = cval / Fraction(parts - 1)
        res = attack(g, b)
        if res.value == 0:
            return b, res.argmin_max_parts
        best = res.argmin_max_parts
        cval, parts = best.crossing_value, best.part_count
    raise AssertionError("ratio search failed to converge")


@functools.lru_cache(maxsize=None)
def principal_sequence(g: Graph) -> PrincipalSequence:
    """The nested sequence of partitions from the recursive decomposition:
    repeatedly split every minimum-strength component by its minimum-strength
    partition (ties split simultaneously at one level).

    Critical values are strictly increasing and the final partition is all
    singletons.  Disconnected graphs are supported; level 0 is the component
    partition.
    """
    p0 = partition_from_blocks(g, component_blocks(g))
    levels: list[PspLevel] = []
    current: list[tuple[int, ...]] = list(p0.parts)
    a_edges: set[int] = set()
    strengths: dict[tuple[int, ...], tuple[Fraction, VertexPartition]] = {}

    def component_strength(part: tuple[int, ...]):
        if part not in strengths:
            sub, vmap, eids = induced_subgraph(g, part)
            sigma, q = strength(sub)
            inv = {i: v for v, i in vmap.items()}
            q_parts = tuple(tuple(sorted(inv[x] for x in blk)) for blk in q.parts)
            strengths[part] = (sigma, q_parts)
        return strengths[part]

    prev_lam = None
    while any(len(part) > 1 for part in current):
        lam = None
        for part in current:
            if len(part) < 2:
                continue
            sigma, _ = component_strength(part)
            if lam is None or sigma < lam:
                lam = sigma
        split_components = []
        next_parts: list[tuple[int, ...]] = []
        for part in current:
            if len(part) >= 2 and component_strength(part)[0] == lam:
                _, q_parts = component_strength(part)
                split_components.append(part)
                next_parts.extend(q_parts)
            else:
                next_parts.append(part)
        partition = partition_from_blocks(g, next_parts)
        block = partition.block_of(g.n)
        a_now = set(crossing_edges(g, block))
        new_b = a_now - a_edges
        if prev_lam is not None and not lam > prev_lam:
            raise AssertionError("critical values must be strictly increasing")
        prev_lam = lam
        a_edges = a_now
        levels.append(
            PspLevel(
                lam=lam,
                partition=partition,
                a_edges=frozenset(a_edges),
                b_edges=frozenset(new_b),
                split_components=tuple(sorted(split_components)),
                kappa=partition.part_count,
            )
        )
        current = list(partition.parts)
    if levels and levels[-1].kappa != g.n:
        raise AssertionError("final partition must be all singletons")
    return PrincipalSequence(g, p0, tuple(levels))
