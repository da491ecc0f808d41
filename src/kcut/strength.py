"""Exact graph strength, the attack function, its breakpoints, and the
principal sequence of partitions.

The attack value for parameter b is

    g(b) = min over partitions P of  c(E(P)) - b(|P| - 1).

Writing c(E(P)) = c(E) - sum of internal capacities, minimizing g(b) is a
partition minimization of the submodular part-cost f(S) = -c(E[S]) - b and
is solved exactly by incremental Dilworth truncation: insert vertices one at
a time, each step one exact min s-t cut in a small auxiliary network.

That network is the processed prefix contracted by the sweep's current
blocks, one node per block plus the new vertex and the sink.  Every block B
is tight for the greedy labels x, x(B) = f(B), while x(T) <= f(T) for every
T, and f is submodular on intersecting sets; so when a minimum cut of the
step meets B, its union with B is a minimum cut too.  The contraction thus
keeps the flow value, and with it the label, and the smallest minimum cut
of the contracted network is the union of the blocks that the uncontracted
smallest cut meets: the sweep merges exactly the same blocks.  The sweep
keeps one network, a node per block name with two terminal arc slots, and
builds it anew only at the step after a merge: a step that merges nothing
appends its vertex as a block, and each step rewrites only the slots of
the blocks that the new vertex touches.

Ties are handled structurally rather than by perturbing the graph: the
optimal partitions form a lattice under refinement, and one sweep yields its
finest member by merging along the smallest minimum cut of each step.  The
sweep's greedy labels sum to the attack value, which certifies that member.

The strength and the principal sequence come from one search over the
breakpoints of g (``_splits``), one attack per step on a piece contracted
by the blocks of a finer optimal partition.  The critical values of the
sequence are the breakpoints of g, so ``breakpoints`` reads them off a
given sequence.  Capacities are scaled to ints once per search: each step
contracts g's int capacities straight into int lists, with no ``Graph``,
and attacks them on that one scale, which is as good as the piece's own
(``_attack_core``).  The sweep and its certificate share it, so every
capacity sum is an int sum.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .flow import FlowNetwork
from .graph import (
    Graph,
    VertexPartition,
    _block_map,
    _scaled_crossing,
    _scaled_partition,
    canonical_parts,
    check_connected,
    component_blocks,
    crossing_edges,
    partition_from_blocks,
    scaled_capacities,
)


class AttackResult(NamedTuple):
    b: Fraction
    value: Fraction
    argmin_max_parts: VertexPartition


class Breakpoint(NamedTuple):
    b: Fraction
    before: VertexPartition  # coarsest optimal at b (optimal just below)
    after: VertexPartition  # finest optimal at b (optimal just above)


class PspLevel(NamedTuple):
    lam: Fraction
    partition: VertexPartition  # P_i
    a_edges: frozenset[int]  # cumulative crossing edge ids, A_i = E(P_i)
    b_edges: frozenset[int]  # increment B_i = A_i \ A_{i-1}
    split_components: tuple[tuple[int, ...], ...]  # the C's split at this level
    kappa: int  # |P_i|


class PrincipalSequence(NamedTuple):
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
        """A_j, the edges crossing P_j; A_0 is empty but on ``positive()``,
        where it holds the zero-capacity edges between the parts of p0."""
        if j:
            return self.levels[j - 1].a_edges
        return frozenset(crossing_edges(self.graph, self.p0.block_of(self.graph.n)))

    def kappa_at(self, j: int) -> int:
        return self.p0.part_count if j == 0 else self.levels[j - 1].kappa

    def positive(self) -> PrincipalSequence:
        """The sequence of the graph less its zero-capacity edges, which
        keeps every partition's value, on the graph's vertex and edge ids:
        the levels after a lambda = 0 level, with its partition as p0."""
        if self.levels and self.levels[0].lam == 0:
            return PrincipalSequence(self.graph, self.levels[0].partition, self.levels[1:])
        return self


def _sweep(n: int, adj, half: list[int], b_s: int):
    """One Dilworth-truncation sweep minimizing sum_S (-c(E[S]) - b) over
    partitions of {0..n-1}; returns the blocks of the finest minimizer, as
    vertex lists, and the greedy labels' sum x(V).

    ``adj`` is the adjacency list of (neighbour, edge id) pairs, ``half``
    each edge's c/2 and ``b_s`` the parameter b, all as ints on one scale
    S (``_attack_core`` picks it).  Inserting vertex j costs one max-flow,
    whose minimum cuts are the tight sets j may join; merging along the
    smallest (residual-reachable from j) builds the finest minimizer.  The
    labels depend only on the flow values, and x(V) is the least partition
    cost, so the value c(E) + b + x(V) certifies the blocks.

    Step j's label is x_j = min over S ∋ j in {0..j} of f(S) - x(S - j),
    with f(S) = -c(E[S]) - b, and its flow network is the prefix contracted
    by its blocks.  That is exact: every block B is tight, x(B) = f(B),
    x(T) <= f(T) for every T, and f is submodular on intersecting sets, so
    when S meets B
        f(S ∪ B) - x(S ∪ B - j) <= f(S) - x(S - j)
                                   + (f(B) - x(B)) - (f(S ∩ B) - x(S ∩ B))
                                <= f(S) - x(S - j),
    and S ∪ B is a minimizer too.  The flow value, and so x_j, is
    unchanged, and the smallest minimum cut of the contracted network is
    the union of the blocks that the uncontracted smallest cut meets, which
    is exactly what the merge joins.

    The network has a node per block name, plus s = n for j and t = n + 1.
    Block B owns two terminal slots, B->t holding max(p_B, 0) and s->B
    holding max(-p_B, 0) plus the c/2·S of j's edges into B, with
    p_B = -hdeg(B) - x(B) and the constant summing min(p_B, 0); one
    undirected arc per pair of blocks carries their summed half-capacities.
    That is the contracted network with j's arcs to B added to the slot:
    parallel arcs add, and an arc into s or out of t is on no s-t path and
    moves neither what s reaches nor any cut.  The sweep keeps ``base``,
    the capacities before any flow, and each step hands ``max_flow`` a copy
    with only the slots of j's neighbour blocks rewritten.  A step that
    merges nothing appends block j's slots and arcs; a merge rebuilds the
    network at the next step.

    A block is named by the step that made it, so names grow along the
    block order.  Each block keeps its members, its half-degree sum, its
    label sum, its summed half-capacities to the blocks named before it
    (``lower``, the arcs the network reads) and the later blocks that keep
    such a sum to it (``upper``).  A step that merges nothing appends j as
    a block in O(deg j); a merge touches only the joined blocks and their
    neighbours.  The blocks come back in sweep order, each merged block
    after the blocks it left untouched.  The arc order decides only which
    paths the max-flow augments, not its value or its smallest minimum cut.
    """
    members: dict[int, list[int]] = {0: [0]}  # block name -> vertices, in block order
    block_of = [0] * n  # vertex -> its block's name
    hdeg = [0] * n  # block name -> half-degree sum within the prefix {0..j}
    label = [-b_s] + [0] * (n - 1)  # block name -> x(B)
    lower: list[dict[int, int]] = [{} for _ in range(n)]  # name -> {earlier name: c/2·S > 0}
    upper: list[set[int]] = [set() for _ in range(n)]  # name -> later names keeping it in lower
    slot = [0] * n  # block name -> its arc B->t; s->B is the arc two after it
    s, t = n, n + 1
    net = None  # built at the first step and at the step after each merge
    x_sum = -b_s

    def add_block(blk):
        """Append ``blk``'s two slots and its arcs to ``lower``; return min(p_B, 0)."""
        slot[blk] = len(net.to)
        p = -hdeg[blk] - label[blk]
        net.add_arc(blk, t, p if p > 0 else 0)
        net.add_arc(s, blk, 0 if p > 0 else -p)
        for c, h in lower[blk].items():
            net.add_arc(c, blk, h, h)
        return 0 if p > 0 else p

    for j in range(1, n):
        if net is None:
            net = FlowNetwork(n + 2)
            const = sum([add_block(blk) for blk in members])  # sum of min(p_B, 0)
            base = net.cap
        h_j = 0
        to_j: dict[int, int] = {}  # block name -> c/2·S of its edges to j
        for w, eid in adj[j]:
            if w < j:
                h = half[eid]
                h_j += h
                if h > 0:
                    blk = block_of[w]
                    hdeg[blk] += h
                    to_j[blk] = to_j.get(blk, 0) + h
        net.cap = caps = base.copy()
        for blk, h in to_j.items():
            a = slot[blk]
            p = -hdeg[blk] - label[blk]
            if p > 0:  # p only falls as j's edges come in, so s->B held 0 and still does
                caps[a] = base[a] = p
            else:
                const += base[a + 2] + p  # min(p_B, 0) was -base[a + 2]
                caps[a] = base[a] = 0
                base[a + 2] = -p
            caps[a + 2] = base[a + 2] + h
        flow, side = net.max_flow(s, t)
        net.cap = base
        x_j = flow + const - h_j - b_s
        x_sum += x_j
        joined = [blk for blk in side if blk < s]
        members[j] = verts = [j]
        block_of[j] = j
        hdeg[j] = h_j
        label[j] = x_j
        for blk in joined:
            for v in members.pop(blk):
                block_of[v] = j
                verts.append(v)
            hdeg[j] += hdeg[blk]
            label[j] += label[blk]
            for c, h in lower[blk].items():
                upper[c].discard(blk)
                to_j[c] = to_j.get(c, 0) + h
            for c in upper[blk]:
                to_j[c] = to_j.get(c, 0) + lower[c].pop(blk)
        for blk in joined:  # their sums to one another are now inside j's block
            to_j.pop(blk, None)
        lower[j] = to_j
        for c in to_j:
            upper[c].add(j)
        if joined:
            net = None
        else:
            const += add_block(j)
    return list(members.values()), x_sum


def _attack_core(n: int, ends, caps: list[int], scale: int, b: Fraction):
    """The attack at b >= 0 on the graph of n vertices whose edge i joins
    ``ends[i]`` with capacity ``caps[i] / scale``: the canonical parts of
    its finest optimal partition and the attack value, certified by the
    parts' int crossing value minus b(|P| - 1) equalling the label sum.

    The sweep is scaled by S = 2·lcm(scale, den b), so c/2, b, the labels
    and flows, and the label sum c(E)·S + b·S + x(V), are Python ints.
    Any ``scale`` that makes every capacity an int will do: a multiple of
    the least one multiplies every network by one positive constant, which
    moves no augmenting path, minimum cut or block.  So the search passes
    g's scale for every quotient of g.
    """
    unit = 2 * lcm(scale, b.denominator)  # S
    half = [c * (unit // (2 * scale)) for c in caps]  # c(e)/2·S
    b_s = b.numerator * (unit // b.denominator)  # b·S
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(ends):
        adj[u].append((v, i))
        adj[v].append((u, i))
    blocks, x_sum = _sweep(n, adj, half, b_s)
    label_sum = 2 * sum(half) + b_s + x_sum
    parts = canonical_parts(blocks)
    block = _block_map(n, parts)
    crossing = sum([c for (u, v), c in zip(ends, caps) if block[u] != block[v]])
    if crossing * (unit // scale) - b_s * (len(parts) - 1) != label_sum:
        raise AssertionError("finest argmin disagrees with the sweep's label sum")
    return parts, Fraction(label_sum, unit)


def attack(g: Graph, b) -> AttackResult:
    """Exact minimum of c(E(P)) - b(|P|-1) and its finest argmin.

    One truncation sweep gives the finest optimal partition, so degenerate
    ties never require perturbing capacities; ``_attack_core`` certifies it
    against the sweep's label sum.  The coarsest optimum differs from it
    only at a breakpoint, where ``breakpoints`` gives it as ``before``.
    """
    b = Fraction(b)
    if b < 0:
        raise ValueError("attack parameter must be nonnegative")
    if g.n == 0:
        raise ValueError("empty graph")
    caps, scale = scaled_capacities(g)
    parts, value = _attack_core(g.n, [(e.u, e.v) for e in g.edges], caps, scale, b)
    return AttackResult(b, value, _scaled_partition(g, parts, caps, scale))


def breakpoints(psp: PrincipalSequence) -> tuple[Breakpoint, ...]:
    """All breakpoints of the attack function of ``psp.graph``, read off ``psp``.

    The attack function is concave and piecewise linear.  It bends at every
    critical value lambda_i, where the coarsest optimal partition is P_{i-1}
    and the finest is P_i.  A disconnected graph also bends at b = 0, where
    {V} gives way to its components; when lambda_1 = 0 that bend is level 1's.
    A connected graph has at most n - 1 breakpoints.
    """
    g = psp.graph
    if g.n < 2:
        return ()
    before = partition_from_blocks(g, [range(g.n)])
    found: list[Breakpoint] = []
    if psp.p0.part_count > 1 and not (psp.levels and psp.levels[0].lam == 0):
        found.append(Breakpoint(Fraction(0), before, psp.p0))
        before = psp.p0
    for level in psp.levels:
        found.append(Breakpoint(level.lam, before, level.partition))
        before = level.partition
    return tuple(found)


def _splits(g: Graph, pieces, scaled):
    """Yield (lambda, blocks) for every split of the principal sequence
    inside ``pieces``, parts of a partition of g as ascending vertex lists:
    ``blocks`` is the finest minimum-strength partition of their union, a
    piece of strength lambda.  The first split is that of ``pieces[0]``.

    A state is a piece with its finest optimal partition R at some b_R
    (the singletons, for b large).  Every optimum at b <= b_R is coarser
    than R, so one attack on the piece contracted by R's blocks is exact at
    b = c(R)/(|R| - 1), where R's line meets the piece's line 0.  Value 0
    makes b the piece's strength and R its finest optimum.  Otherwise the
    finest argmin Q lies strictly between R and the piece: the search goes
    on with (piece, Q) for the breakpoints up to b, then with each part q
    of Q against R's blocks inside q, since above b the attack splits over
    Q's parts.  Every state has fewer blocks than the one it came from.
    ``scaled`` is ``scaled_capacities(g)``: each state's quotient is the
    int lists of its edges' ends and capacities on that one scale, c(R) is
    their int sum, and the attack runs on them as they are, since g's scale
    is a multiple of the quotient's own and so moves no minimum cut.
    """
    caps, scale = scaled
    stack = [[[v] for v in piece] for piece in reversed(pieces) if len(piece) > 1]
    while stack:
        blocks = stack.pop()
        block = _block_map(g.n, blocks)
        q_ends, q_caps = [], []
        for (u, v, _), c in zip(g.edges, caps):
            bu, bv = block[u], block[v]
            if bu != bv and bu >= 0 and bv >= 0:
                q_ends.append((bu, bv))
                q_caps.append(c)
        b = Fraction(sum(q_caps), scale * (len(blocks) - 1))
        parts, value = _attack_core(len(blocks), q_ends, q_caps, scale, b)
        if value == 0:
            yield b, blocks
            continue
        stack.extend([blocks[i] for i in part] for part in reversed(parts) if len(part) > 1)
        stack.append([[v for i in part for v in blocks[i]] for part in parts])


def strength(g: Graph):
    """Exact strength and its finest attaining partition.

    The strength is the first breakpoint of the attack function; the
    partition is the maximum-part-count minimizer of c(E(P)) / (|P|-1),
    which is the finest optimal attack partition at b = strength.
    """
    check_connected(g, "strength")
    lam, blocks = next(_splits(g, [range(g.n)], scaled_capacities(g)))
    # R's line c(R) - b(|R| - 1) meets the line of {V} at b = lambda
    return lam, VertexPartition(canonical_parts(blocks), lam * (len(blocks) - 1))


@functools.lru_cache(maxsize=1)
def principal_sequence(g: Graph) -> PrincipalSequence:
    """The nested sequence of partitions: level i splits every piece of
    P_{i-1} whose strength is the least, lambda_i, by its finest
    minimum-strength partition (ties split simultaneously at one level).

    Critical values are strictly increasing and the final partition is all
    singletons.  Disconnected graphs are supported; level 0 is the component
    partition.  Only the CLI and ``verify`` build it, and every other
    reader takes it, so no library function relies on a cache hit.  The
    cache keeps the last graph's sequence only, for the bench to count.
    """
    scaled = scaled_capacities(g)
    p0 = _scaled_partition(g, component_blocks(g), *scaled)
    splits: dict[Fraction, list[list[list[int]]]] = {}
    for lam, blocks in _splits(g, p0.parts, scaled):
        splits.setdefault(lam, []).append(blocks)
    levels: list[PspLevel] = []
    current = set(p0.parts)
    a_edges: frozenset[int] = frozenset()
    for lam in sorted(splits):
        pieces = []
        for blocks in splits[lam]:
            piece = tuple(sorted(v for blk in blocks for v in blk))
            pieces.append(piece)
            current.remove(piece)
            current.update(tuple(blk) for blk in blocks)
        partition, crossing = _scaled_crossing(g, current, *scaled)
        a_now = frozenset(crossing)
        levels.append(
            PspLevel(
                lam=lam,
                partition=partition,
                a_edges=a_now,
                b_edges=a_now - a_edges,
                split_components=tuple(sorted(pieces)),
                kappa=partition.part_count,
            )
        )
        a_edges = a_now
        current = set(partition.parts)
    if levels and levels[-1].kappa != g.n:
        raise AssertionError("final partition must be all singletons")
    return PrincipalSequence(g, p0, tuple(levels))
