"""Minimum k-cuts and cut enumeration through trees of packings in c+z.

A cut whose crossing set inside a tree T is F corresponds to a grouping of
the components of T - F; enumerating every subset F of at most h tree edges
and every merge of the pieces therefore reaches every cut that h-respects T.
So a scan is complete over the trees it reads: it finds every cut that
h-respects one of them.  With h = 2k-3 against an exact dual packing
(h = 2k-2 against any packing in c+z of value at least (1-eps) lambda_j,
eps < 1/(2k-1)), every optimal k-cut h-respects some support tree; h =
floor(2*alpha*(k-1)) reaches every alpha-approximate cut.  Unless the
caller gives a dual, the scan reads Thorup's greedy packing up to a bar
(that value, or with no eps the one below), and the exact dual only past
the stream's cap.

No packing's support need be read in full.  Let y be any packing in c+z of
maximal forests of the positive edges of c+z, of value Y: an exact dual,
or the greedy trees, each weighted c(e*)/load(e*) per time it came up.
Such a forest has at most p0 components, p0 those of the positive edges
of c, so it crosses a partition C of at least k parts at least k - p0
times, and y fits in c+z, so sum_T y_T |T & delta(C)| <= c(delta C) +
z(E).  With the packing's own LP = (k - p0) Y - z(E), the dual objective
for an exact dual and at most that for the greedy packing, the trees
crossing C more than h times weigh at most (c(delta C) - LP) / (h - k +
p0 + 1).  A target cut has value at most alpha OPT <= alpha U, with U the
least value scored so far, so once the trees read weigh more than
(alpha U - LP) / (h - k + p0 + 1) one of them h-respects every target
cut.  So a packing is complete once (h + 1) Y - z(E) > alpha U0, for U0
the value of any k-cut: the greedy bar with no eps.  The support is read
heaviest first and the scan stops there: after one tree when the best
cut found meets the LP value, as it often does.
And when h >= n - p0, every partition h-respects every maximal forest, of
n - p0 edges, so one forest is scanned and no packing is built at all.

A scan scores only the proper merges of a layout: those that put the two
ends of every removed edge in different groups.  Any other merge is a cut C
whose crossing set in T is a proper subset F' of F, so C is a merge of the
layout of T - F', which has fewer removed edges and comes earlier in T's
walk (F by size).  So every cut is still scored at its exact crossing set
in the first tree it h-respects, where it is a proper merge.

The scan is a branch and bound on integer values.  Its running limit is
the least value scored so far (floor(alpha times it) for
``enumerate_approx_kcuts``).  A proper merge cuts every edge joining the
ends of a removed edge, so its value is at least the layout's bound, the
sum of those pair capacities.  A set F whose bound is above the limit is
skipped before its pieces are built, a partial merge above the limit is
not extended, and only cuts within the limit are kept.  No cut at most
the final limit is lost: the layout of its crossing set in the first tree
it h-respects is new there and has a bound at most its value.  So the
minimizers and every alpha-approximate cut are the unbounded scan's; only
``distinct_cuts``, the store's size, differs.

Many pairs (tree, F) leave the same pieces, so each distinct piece layout
is scored once per scan: the capacity between every pair of its pieces is
summed on integer-scaled capacities, and its proper merges are walked
depth first as restricted growth strings of the pieces.  A piece joins no
group that holds the other end of one of its removed edges, and each step
adds the capacity from the piece to the earlier pieces outside its group,
so no list of merges is built and no improper one is visited.  Every
merge of every layout still counts as a candidate, in closed form per
size of F from one row of Stirling numbers, so a skipped layout costs
nothing to count.  Values stay integers in the scale of the capacities,
through the minimum and the threshold; only a reported cut gets its
``Fraction``.

Each scan takes the principal sequence of the graph it cuts and builds
none.  The dual comes from ``PrincipalSequence.positive()``, so a
component of strength 0 is scanned as in the graph less its
zero-capacity edges.

Also here, each a function of the sequence it is given: the LP rounding
algorithm (contract the zeros, keep the ones, isolate cheap vertices of
the fractional residual) and the principal sequence 2-approximation (cut
the smallest shores of the splitting level).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, floor
from operator import mul
from typing import NamedTuple

from .graph import (
    Graph,
    VertexPartition,
    _mask_partition,
    _rooted_forest,
    _scaled,
    _scaled_partition,
    check_k,
    component_blocks,
    partition_sort_key,
    scaled_capacities,
)
from .lp import DualSolution, PrimalSolution, dual_packing, lagrangean_value, lp_dual, lp_primal
from .packing import TreePacking, greedy_trees, min_spanning_forest
from .strength import PrincipalSequence


class RespectStats(NamedTuple):
    h: int
    cut_edges: frozenset[int]
    crossings: tuple[int, ...]  # |E(T) & cut| per packing tree
    q_h: Fraction


class EnumerationReport(NamedTuple):
    """What one k-cut scan examined and found.  ``mode`` is "approx" when
    the scan was given an eps, else "exact".  ``distinct_cuts`` counts the
    cuts the scan kept, each within its running limit when scored."""

    k: int
    h: int
    mode: str
    candidates_examined: int
    distinct_cuts: int
    cuts: tuple[VertexPartition, ...]
    min_value: Fraction
    threshold: Fraction | None = None


def dual_respect_bound(alpha, k: int, h: int, n: int) -> Fraction:
    """Lower bound on the packing weight fraction of trees crossing a cut of
    value at most alpha times the minimum k-cut at most h times:
    1 - 2 alpha (k-1) (1 - 1/n) / (h+1)."""
    alpha = Fraction(alpha)
    return 1 - Fraction(2) * alpha * (k - 1) * (1 - Fraction(1, n)) / (h + 1)


def mincut_respect_bound(h: int, n: int) -> Fraction:
    """Mincut-specific bounds for pure tree packings: the weight fraction
    1-respecting a fixed minimum cut is at least 2 - 2(1-1/n), and
    2-respecting at least 3/2 - (1-1/n)."""
    if h == 1:
        return 2 - 2 * (1 - Fraction(1, n))
    if h == 2:
        return Fraction(3, 2) - (1 - Fraction(1, n))
    raise ValueError("mincut bounds are stated for h in {1, 2}")


def respect_stats(packing: TreePacking, cut_edges, h: int) -> RespectStats:
    """Exact crossing counts and weight fractions of a packing against a
    cut, summed on the weights over their least common denominator."""
    if not packing.trees:
        raise ValueError("empty packing")
    cut = frozenset(cut_edges)
    crossings = tuple(len(cut.intersection(t)) for t in packing.trees)
    weights, _ = _scaled(packing.weights)
    hit = sum([w for ell, w in zip(crossings, weights) if ell <= h])
    return RespectStats(h, cut, crossings, Fraction(hit, sum(weights)))


def _groupings(npieces: int, min_parts: int) -> list[int]:
    """For each p = 0..npieces, how many groupings of p pieces have at least
    ``min_parts`` groups: the tail of row p of the Stirling numbers of the
    second kind."""
    row, counts = [1], [int(min_parts <= 0)]  # row: S(p, j) for j = 0..p
    for _ in range(npieces):
        row = [j * s + t for j, (s, t) in enumerate(zip(row + [0], [0] + row))]
        counts.append(sum(row[min_parts:]))
    return counts


def _layouts(g: Graph, tree: tuple[int, ...], h: int, min_parts: int, weights, limit):
    """Yield (piece masks, removed edges) of tree - F for every subset F of
    at most h tree edges that leaves at least ``min_parts`` pieces, F by
    size and then in ``itertools.combinations`` order; the removed edges
    are the (u, v) ends of the edges of F.  F is skipped unbuilt when its
    edges' ``weights`` sum above ``limit[0]``.

    The pieces are ordered by their smallest vertex, so two subsets leave
    the same pieces iff their mask tuples are equal.  The piece below a
    removed edge is its subtree less the subtrees below the other removed
    edges inside it; the rest of each component is a piece of its own."""
    comps, below, _ = _rooted_forest(g.n, tree, g.edges)
    ends = {sub: (g.edges[eid].u, g.edges[eid].v) for sub, eid in zip(below, tree)}
    weight = {sub: weights[eid] for sub, eid in zip(below, tree)}
    for f in range(max(min_parts - len(comps), 0), min(h, len(tree)) + 1):
        for removed in itertools.combinations(below, f):
            if sum([weight[sub] for sub in removed]) > limit[0]:
                continue
            pieces = []
            cut_off = 0
            for sub in removed:
                cut_off |= sub
                piece = sub
                for other in removed:
                    if other & sub == other and other != sub:
                        piece &= ~other
                pieces.append(piece)
            pieces += [c & ~cut_off for c in comps]
            pieces.sort(key=lambda mask: mask & -mask)
            yield tuple(pieces), [ends[sub] for sub in removed]


def _layout_cuts(n: int, wires, masks, removed, min_parts: int, limit):
    """Yield (frozenset of part bitmasks, value) for every proper merge of
    one piece layout into at least ``min_parts`` groups (the two ends of
    each ``removed`` edge in different groups) of value at most
    ``limit[0]``, read as it comes up, in ``set_partitions`` order; values
    are integers in the scale of the capacities of ``_wires``.

    The restricted growth strings of the pieces are grown depth first on a
    stack, so no recursion limit applies.  Piece i joins group g only when
    no removed edge joins it to a piece in g, adding the capacity from i to
    the earlier pieces outside g.  Values only grow, so a prefix above the
    limit is cut off, as is one that can no longer reach ``min_parts``
    groups; a layout whose removed edges' piece pairs alone weigh more than
    the limit is not walked."""
    npieces = len(masks)
    piece_of = [0] * n  # piece 0 holds vertex 0 and whatever no later piece holds
    for p in range(1, npieces):
        mask = masks[p]
        while mask:
            low = mask & -mask
            piece_of[low.bit_length() - 1] = p
            mask ^= low
    between = [0] * (npieces * npieces)  # b * npieces + a: the capacity between pieces a < b
    for u, v, c in wires:
        a, b = piece_of[u], piece_of[v]
        if a < b:
            between[b * npieces + a] += c
        elif b < a:
            between[a * npieces + b] += c
    apart = [0] * npieces  # per piece: the earlier pieces that removed edges join it to, as vertices
    held = 0  # the pieces of T - F form a forest, so no two removed edges join the same two
    for u, v in removed:
        a, b = piece_of[u], piece_of[v]
        if a > b:
            a, b = b, a
        apart[b] |= masks[a]
        held += between[b * npieces + a]
    if held > limit[0] or npieces < min_parts:
        return
    if npieces == min_parts or npieces == 1:  # the one grouping: each piece alone
        total = sum(between)
        if total <= limit[0]:
            yield frozenset(masks), total
        return
    last = npieces - 1
    group_of = [0] * npieces
    parts = [0] * npieces  # each group's vertices, and 0 past the last group
    parts[0] = masks[0]
    placed = []  # (group, value before, value in each group) per piece 1..i-1
    i, gi, groups, value, joins = 1, 0, 1, 0, None  # piece i tries group gi next
    while True:
        if joins is None:  # piece i's value in each group, the last a new one
            row = i * npieces
            joins = [value + sum(between[row : row + i])] * (groups + 1)
            if groups + last - i < min_parts:  # every later piece opens a group
                gi = groups
            else:
                for a in range(i):
                    joins[group_of[a]] -= between[row + a]
        while gi <= groups and (parts[gi] & apart[i] or joins[gi] > limit[0]):
            gi += 1
        if gi <= groups:
            parts[gi] |= masks[i]
            if i == last:
                yield frozenset(parts[: groups + (gi == groups)]), joins[gi]
                parts[gi] ^= masks[i]
                gi += 1
                continue
            placed.append((gi, value, joins))
            group_of[i] = gi
            value = joins[gi]
            if gi == groups:
                groups += 1
            i, gi, joins = i + 1, 0, None
            continue
        if not placed:
            return
        i -= 1
        gi, value, joins = placed.pop()
        parts[gi] ^= masks[i]
        if not parts[gi]:
            groups -= 1
        gi += 1


def _wires(g: Graph, caps):
    """(u, v, scaled capacity) of each vertex pair that edges of positive
    capacity join, with its parallel edges summed; and that sum by edge id."""
    joined: dict[tuple[int, int], int] = {}
    keys = []
    for e, c in zip(g.edges, caps):
        key = (e.u, e.v) if e.u < e.v else (e.v, e.u)
        keys.append(key)
        if c:
            joined[key] = joined.get(key, 0) + c
    return [(u, v, c) for (u, v), c in joined.items()], [joined.get(key, 0) for key in keys]


def cuts_from_tree(g: Graph, tree, h: int, k: int = 2):
    """Stream every cut of g that h-respects the given maximal forest and has
    at least k parts, as partitions; deduplication is the caller's job.
    Edges that do not form a forest raise ``ValueError``."""
    if h < k - 1:
        raise ValueError("h must be at least k - 1")
    caps, scale = scaled_capacities(g)
    wires, weights = _wires(g, caps)
    total = [sum(caps)]  # no cut is above it, so nothing is skipped
    for pieces, _ in _layouts(g, tuple(tree), h, k, weights, total):
        for masks, value in _layout_cuts(g.n, wires, pieces, (), k, total):
            yield _mask_partition(g.n, masks, Fraction(value, scale))


def _enumerate_over_support(g: Graph, trees, h: int, k: int, alpha=1, reach=None):
    """({part masks: value}, scale, candidates examined) over the trees
    read: the cuts kept under the running limit floor(alpha * least value
    scored), each value an integer in the scale of ``scaled_capacities(g)``,
    and every cut at most the final limit among them (see the module
    docstring).  Candidates are counted in closed form per f; a piece
    layout met again is not scored again.  ``trees`` are read in order.
    Given ``reach``, a bound per tree, the scan stops before the next tree
    once the bound of the last tree read exceeds the running limit, in the
    capacities' own scale; ``_scan`` says when that loses no cut."""
    caps, scale = scaled_capacities(g)
    wires, weights = _wires(g, caps)
    num, den = Fraction(alpha).as_integer_ratio()
    limit = [sum(caps)]
    seen: set[tuple[int, ...]] = set()
    found: dict[frozenset, int] = {}
    groupings = _groupings(g.n, k)
    candidates = 0
    for i, tree in enumerate(trees):
        nt = len(tree)
        candidates += sum([comb(nt, f) * groupings[g.n - nt + f] for f in range(min(h, nt) + 1)])
        for pieces, removed in _layouts(g, tuple(tree), h, k, weights, limit):
            if pieces in seen:
                continue
            seen.add(pieces)
            for parts, value in _layout_cuts(g.n, wires, pieces, removed, k, limit):
                found[parts] = value
                limit[0] = min(limit[0], value * num // den)
        if reach and reach[i] * scale > limit[0]:
            break
    return found, scale, candidates


def _greedy_packing(g: Graph, dual: DualSolution, bar: Fraction, strict=False):
    """Thorup's greedy packing in c+z as a ``TreePacking``: its distinct
    trees in stream order, up to the first that brings the packing's value
    to ``bar`` (past it when ``strict``), each weighted its multiplicity
    times c(e*)/load(e*), so the weights sum to that value and every load
    is at most c+z; None should the stream pass its cap first.  The test is
    exact: the value t c(e*)/load(e*) of ``greedy_trees`` against the bar,
    both on c+z scaled to integers."""
    work = [e.cap + z for e, z in zip(g.edges, dual.z)]
    caps, scale = _scaled(work)
    bar *= scale
    count: dict[tuple[int, ...], int] = {}
    for t, (tree, value, load) in enumerate(greedy_trees(g, caps), 1):
        count[tree] = count.get(tree, 0) + 1
        over = value * bar.denominator - bar.numerator * load
        if over > 0 or over == 0 and not strict:
            unit = Fraction(value // t, load * scale)  # c(e*)/load(e*)
            weights = tuple(m * unit for m in count.values())
            return TreePacking(tuple(count), weights, {i: c for i, c in enumerate(work) if c}, approximate=True)
    return None


def _scan(psp: PrincipalSequence, k: int, eps=None, dual=None, alpha=None) -> EnumerationReport:
    """The scan behind ``min_kcut`` and ``enumerate_approx_kcuts``: every
    cut of ``psp.graph`` crossing a tree of a packing in c+z at most h
    times, h = floor(2 alpha (k-1)) under an alpha and 0 with none, raised
    to the completeness bound (2k-3 with no eps, 2k-2 with one), and at
    most alpha times the minimum, with the cuts kept before the limit
    fell.  Reports the cuts at most alpha times the minimum, by
    (value, ``partition_sort_key``), with the threshold alpha times the
    minimum; with no alpha, the minimizers and no threshold.  An eps must
    satisfy 0 < eps < 1/(2k-1), checked before any work.

    With no eps, a caller's explicit ``dual`` (as ``verify`` passes) is
    read as given.  Otherwise the scan reads ``_greedy_packing``: the
    distinct greedy trees up to the first that brings the packing's value
    Y to (1 - eps) lambda_j given an eps, and with none past (alpha U0 +
    z(E)) / (h + 1), U0 the value of ``ravi_sinha_cut`` on the input's
    sequence; both tests are exact on integers.  Should the stream pass
    its cap of ``packing.GREEDY_TREES_PER_EDGE`` trees per positive edge of
    c+z, the scan falls back to the exact packing (``lp.dual_packing``),
    complete at every such h; so no scan is open-ended.

    Any packing is read heaviest first, ties in packing order, stopping
    before the next tree once S (h - k + p0 + 1) > alpha U - LP: S the
    weight read, U the least value scored, p0 = ``dual.h`` and LP = (k -
    p0) Y - z(E), the dual's objective for an exact packing.  Every target
    cut then h-respects a tree read (see the module docstring), so only
    ``candidates_examined`` and ``distinct_cuts`` differ from a full scan.

    When h >= n - p0 every partition h-respects every maximal forest of the
    positive edges, so with or without an eps one such forest is scanned,
    and no packing is built or read; h is reported as raised.  k = n scans
    nothing: the singletons come back with h unraised.  When k is at most
    the number of components the exact packing is empty and every optimal
    cut groups whole components at value 0, so the same forest is scanned:
    with no edge removed and h = 0 when no eps is given, and with one as
    the one greedy tree that meets the bar 0, with h = 2k-2.  The dual is
    read off the sequence's positive part, so a component of strength 0 is
    scanned in the sequence of g less its zero-capacity edges, which gives
    every partition g's value.
    """
    g = psp.graph
    check_k(g, k)
    mode = "exact" if eps is None else "approx"
    ratio = 1 if alpha is None else alpha
    h = 0 if alpha is None else floor(2 * alpha * (k - 1))
    if eps is not None:
        eps = Fraction(eps)
        if not 0 < eps < Fraction(1, 2 * k - 1):
            raise ValueError(f"eps must satisfy 0 < eps < 1/(2k-1) = 1/{2 * k - 1}")
    if k == g.n:
        caps, scale = scaled_capacities(g)
        found, candidates = {frozenset(1 << v for v in range(g.n)): sum(caps)}, 0
    else:
        positive = psp.positive()
        if dual is None:
            dual = lp_dual(positive, k)
        approx = eps is not None and bool(positive.levels)  # with no level, no capacity is positive
        h = 0 if k <= dual.h and not approx else max(h, 2 * k - 2 if approx else 2 * k - 3)
        reach = None
        if k <= dual.h or h >= g.n - dual.h:  # a maximal forest has n - p0 edges
            forest = min_spanning_forest(g, [e.cap == 0 for e in g.edges])  # zero edges last
            trees = [tuple(i for i in forest if g.edges[i].cap)]
        else:
            packing = dual.packing
            if approx or packing is None:
                if approx:
                    bar = (1 - eps) * dual.total_y
                else:  # the whole packing's reach then passes alpha U0 >= alpha OPT
                    bar = (ratio * ravi_sinha_cut(psp, k).crossing_value + sum(dual.z)) / (h + 1)
                packing = _greedy_packing(g, dual, bar, not approx) or packing or dual_packing(g, dual).packing
            support = sorted(
                [(w, t) for t, w in zip(packing.trees, packing.weights) if w > 0],
                key=lambda wt: -wt[0],
            )
            trees = [t for _, t in support]
            lp_value = (k - dual.h) * packing.total_value - sum(dual.z)
            step = h - k + dual.h + 1
            reach = [lp_value + step * s for s in itertools.accumulate(w for w, _ in support)]
        found, scale, candidates = _enumerate_over_support(g, trees, h, k, ratio, reach)
        if not found:
            raise AssertionError("enumeration found no k-cut")
    best = min(found.values())
    limit = floor(ratio * best)  # an integer v is at most alpha * best iff at most this
    keep = [(v, _mask_partition(g.n, masks, Fraction(v, scale))) for masks, v in found.items() if v <= limit]
    keep.sort(key=lambda vp: (vp[0], partition_sort_key(vp[1])))
    value = Fraction(best, scale)
    threshold = None if alpha is None else alpha * value
    return EnumerationReport(k, h, mode, candidates, len(found), tuple(p for _, p in keep), value, threshold)


def min_kcut(psp: PrincipalSequence, k: int, eps=None, dual=None):
    """Minimum k-cut of ``psp.graph`` with full enumeration of the optimal
    partitions, read off its principal sequence ``psp``.

    Pipeline: closed-form dual z -> Thorup's greedy trees in c+z up to a
    bar (``_scan``; past the stream's cap, the exact packing by column
    generation) -> scan the trees for cuts crossing them at most h times
    (h = 2k-3 exact, 2k-2 with an eps, 0 < eps < 1/(2k-1)) -> deduplicate
    and minimize.  Every optimal k-cut h-respects a tree of the packing,
    and the scan reads its trees heaviest first until the gap between the
    best cut found and the packing's own LP value shows that one tree read
    h-respects every optimal cut.  When h >= n - p0, for p0 components of
    the positive edges, one maximal forest holds every cut, and no packing
    is built.  When k is at most the number of components the minimum is 0
    and the minimizers are the groupings of whole components into at least
    k parts.  A caller that already holds an explicit optimal dual of k,
    such as ``ideal_dual(ideal, lp_dual(psp, k))``, passes it as ``dual``;
    with no eps its packing is read.
    """
    report = _scan(psp, k, eps, dual)
    return report.cuts[0], report


def enumerate_approx_kcuts(psp: PrincipalSequence, k: int, alpha) -> EnumerationReport:
    """All distinct cuts of ``psp.graph`` with at least k parts and value
    at most alpha times the minimum k-cut, with h = floor(2*alpha*(k-1));
    complete because every such cut h-respects a tree of the packing
    ``_scan`` reads, heaviest first until the gap alpha U - LP shows that a
    tree read h-respects every such cut.  When h >= n - p0 one maximal
    forest is read instead."""
    alpha = Fraction(alpha)
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    return _scan(psp, k, alpha=alpha)


class RoundResult(NamedTuple):
    cut: VertexPartition
    certified: bool  # input verified optimal, so the 2(1-1/n) bound applies
    bound: Fraction  # 2(1-1/n) times the objective of the rounded vector


def _capped_cheapest(items, budgets, count):
    """Greedy pick of ``count`` items by (cost, id), never taking more than
    budgets[group] from one group; the capped pool's mean cost dominates the
    selection, which preserves the rounding guarantee."""
    taken: list = []
    used: dict = {}
    for cost, ident, group in sorted(items):
        if used.get(group, 0) >= budgets[group]:
            continue
        taken.append((cost, ident, group))
        used[group] = used.get(group, 0) + 1
        if len(taken) == count:
            return taken
    return None


def round_lp(psp: PrincipalSequence, primal: PrimalSolution) -> RoundResult:
    """Round an optimal fractional vector to a k-cut within twice (1 - 1/n)
    of its objective: contract x=0 edges, keep x=1 edges, and isolate the
    cheapest capacitated-degree vertices of the fractional residual, at most
    size-1 of them per residual component so each pick adds a part.  x,
    the capacities and the degrees are ints: x over its least common
    denominator d, the capacities scaled by L.  The input is certified
    against the value of ``psp``, the sequence of the graph it cuts.  An
    x=0 block goes by its least vertex, ranked as its contracted id."""
    g = psp.graph
    x, d = _scaled(primal.x)
    if any(v < 0 or v > d for v in x):
        raise ValueError("x must lie in [0, 1]")
    k = primal.k
    block = [0] * g.n  # vertex -> the least vertex of its x=0 block
    for blk in component_blocks(g, exclude_edges=[i for i in range(g.m) if x[i] > 0]):
        for v in blk:
            block[v] = blk[0]
    ones = [i for i in range(g.m) if x[i] == d]  # all cut: one inside a block separates nothing

    caps, scale = scaled_capacities(g)
    cx = sum(map(mul, caps, x))  # c.x times L d
    objective = Fraction(cx, scale * d)
    lp_value, _ = lagrangean_value(psp, k)
    certified = objective == lp_value
    bound = Fraction(2 * (g.n - 1) * cx, g.n * scale * d)  # 2 (1 - 1/n) c.x

    # with k or more residual components, the x=1 edges are the cut and these are its parts
    parts = res_blocks = component_blocks(g, exclude_edges=ones)
    if len(res_blocks) < k:
        ends = [(block[e.u], block[e.v]) for e in g.edges]
        frac = [i for i in range(g.m) if 0 < x[i] < d and ends[i][0] != ends[i][1]]
        comp_of = [0] * g.n
        budgets = []  # per residual component: its blocks, less one
        for ci, blk in enumerate(res_blocks):
            for v in blk:
                comp_of[v] = ci
            budgets.append(sum([block[v] == v for v in blk]) - 1)
        deg = [0] * g.n  # per block, scaled by L
        for i in frac:
            deg[ends[i][0]] += caps[i]
            deg[ends[i][1]] += caps[i]
        items = [(deg[v], v, comp_of[v]) for v in range(g.n) if block[v] == v]
        taken = _capped_cheapest(items, budgets, k - len(res_blocks))
        if taken is None:
            raise ValueError("residual graph too small to reach k parts")
        chosen = {v for _, v, _ in taken}
        isolated = [i for i in frac if ends[i][0] in chosen or ends[i][1] in chosen]
        parts = component_blocks(g, exclude_edges=ones + isolated)
    return RoundResult(_scaled_partition(g, parts, caps, scale), certified, bound)


def ravi_sinha_cut(psp: PrincipalSequence, k: int) -> VertexPartition:
    """Combinatorial 2(1-1/n)-approximation from the principal sequence.

    Take the first level reaching k parts; when it overshoots, keep the
    previous level's cut and additionally isolate the needed number of
    smallest-boundary shores of the splitting components (never a whole
    component, so every shore adds a part).  That is ``round_lp`` on the
    closed-form optimum: its zero edges lie inside the parts of P_j, its
    ones are A_{j-1}, its fractional residual is B_j, and a part's degree
    there is its shore's boundary, so the same shores are picked in the
    same (cost, id) order."""
    return round_lp(psp, lp_primal(psp, k)).cut
