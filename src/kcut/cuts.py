"""Minimum k-cuts and cut enumeration through trees of dual packings.

A cut whose crossing set inside a tree T is F corresponds to a grouping of
the components of T - F; enumerating every subset F of at most h tree edges
and every merge of the pieces therefore reaches every cut that h-respects T.
With h = 2k-3 against an exact dual packing (h = 2k-2 against a (1-eps)
one, eps < 1/(2k-1)), every optimal k-cut h-respects some support tree, so
scanning the support is a complete, certificate-backed search.  The same
pipeline with h = floor(2*alpha*(k-1)) reaches every alpha-approximate cut.

Many pairs (tree, F) leave the same pieces, so each distinct piece layout
is scored once per scan: the capacity between every pair of its pieces is
summed on integer-scaled capacities, and each merge adds only the piece
pairs it separates.  A layout met again only adds its merge count to the
candidates, and a merge whose parts were already found is not summed.  The
merges of p pieces are listed once per scan.  Values stay integers in the
scale of the capacities, through the minimum and the threshold; only a
reported cut gets its ``Fraction``.

Also here: the LP rounding algorithm (contract the zeros, keep the ones,
isolate cheap vertices of the fractional residual) and the principal
sequence 2-approximation (cut the smallest shores of the splitting level).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import floor
from typing import NamedTuple

from .graph import (
    Graph,
    CutResult,
    _mask_partition,
    _rooted_forest,
    check_k,
    component_blocks,
    components,
    contract_partition,
    cut_of_partition,
    partition_sort_key,
    scaled_capacities,
    set_partitions,
)
from .lp import DualSolution, PrimalSolution, lagrangean_value, lp_dual, lp_primal
from .packing import PackConfig, TreePacking, min_spanning_forest, mwu_pack
from .strength import PrincipalSequence, principal_sequence


class RespectStats(NamedTuple):
    h: int
    cut_edges: frozenset[int]
    crossings: tuple[int, ...]  # |E(T) & cut| per packing tree
    q_h: Fraction


class EnumerationReport(NamedTuple):
    """What one k-cut scan examined and found.  ``dual`` is the LP dual
    the scan used: in exact mode the explicit optimal dual whose packing
    was scanned, in approximate mode the lazy dual whose z set the
    capacities of the scanned MWU packing.  It is None on the k = n
    shortcut, which scans nothing, and on a graph with a component of
    strength 0, whose LP has no closed-form dual: there the scan reads its
    packing off the tail of the graph's own sequence after lambda = 0."""

    k: int
    h: int
    mode: str  # "exact" or "approx"
    candidates_examined: int
    distinct_cuts: int
    cuts: tuple[CutResult, ...]
    min_value: Fraction
    threshold: Fraction | None = None
    dual: DualSolution | None = None


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
    """Exact crossing counts and weight fractions of a packing against a cut."""
    if not packing.trees:
        raise ValueError("empty packing")
    cut = frozenset(cut_edges)
    crossings = tuple(len(cut.intersection(t)) for t in packing.trees)
    total = packing.total_value
    hit = sum(
        (w for ell, w in zip(crossings, packing.weights) if ell <= h), Fraction(0)
    )
    return RespectStats(h, cut, crossings, hit / total)


def bell_number(n: int) -> int:
    row = [1]
    for _ in range(n):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
    return row[0]


def merge_pattern_count(h: int) -> int:
    """Exact number of groupings of h+1 tree pieces into >= 2 groups."""
    return bell_number(h + 1) - 1


def _merges(npieces: int, min_parts: int):
    """(group count, piece -> group) of every grouping of the pieces into at
    least ``min_parts`` groups, in ``set_partitions`` order."""
    out = []
    for blocks in set_partitions(list(range(npieces))):
        if len(blocks) < min_parts:
            continue
        group_of = [0] * npieces
        for gi, blk in enumerate(blocks):
            for p in blk:
                group_of[p] = gi
        out.append((len(blocks), group_of))
    return out


def _layouts(g: Graph, tree: tuple[int, ...], h: int, min_parts: int, merges):
    """Yield (piece masks, merges of the pieces) of tree - F for every
    subset F of at most h tree edges that leaves at least ``min_parts``
    pieces.  ``merges`` memoizes ``_merges`` by piece count.

    The pieces are ordered by their smallest vertex, so two subsets leave
    the same pieces iff their mask tuples are equal.  The piece below a
    removed edge is its subtree less the subtrees below the other removed
    edges inside it; the rest of each component is a piece of its own."""
    comps, below, _ = _rooted_forest(g.n, tree, g.edges)
    for f in range(max(min_parts - len(comps), 0), min(h, len(tree)) + 1):
        npieces = len(comps) + f
        if npieces not in merges:
            merges[npieces] = _merges(npieces, min_parts)
        for removed in itertools.combinations(below, f):
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
            yield tuple(pieces), merges[npieces]


def _layout_cuts(g: Graph, caps, masks, merges, known=()):
    """Yield (frozenset of part bitmasks, value) for every merge of one
    piece layout whose part masks are not in ``known``.

    ``caps`` are the scaled integer capacities, so values are integers in
    the same scale.  The capacity between each pair of pieces is summed
    once, when the first merge needs it; each merge then adds the pairs it
    separates."""
    between = None
    for ngroups, group_of in merges:
        part_masks = [0] * ngroups
        for p, mask in enumerate(masks):
            part_masks[group_of[p]] |= mask
        parts = frozenset(part_masks)
        if parts in known:
            continue
        if between is None:
            piece_of = [0] * g.n
            for p, mask in enumerate(masks):
                for v in range(g.n):
                    if mask >> v & 1:
                        piece_of[v] = p
            pairs: dict[tuple[int, int], int] = {}
            for e, c in zip(g.edges, caps):
                a, b = piece_of[e.u], piece_of[e.v]
                if a != b and c:
                    key = (a, b) if a < b else (b, a)
                    pairs[key] = pairs.get(key, 0) + c
            between = list(pairs.items())
        value = 0
        for (a, b), c in between:
            if group_of[a] != group_of[b]:
                value += c
        yield parts, value


def cuts_from_tree(g: Graph, tree, h: int, k: int = 2):
    """Stream every cut of g that h-respects the given maximal forest and has
    at least k parts, as CutResults; deduplication is the caller's job.
    Edges that do not form a forest raise ``ValueError``."""
    if h < k - 1:
        raise ValueError("h must be at least k - 1")
    caps, scale = scaled_capacities(g)
    for pieces, layout_merges in _layouts(g, tuple(tree), h, k, {}):
        for masks, value in _layout_cuts(g, caps, pieces, layout_merges):
            p = _mask_partition(g.n, masks, Fraction(value, scale))
            yield CutResult(p, p.crossing_value, p.part_count)


def _enumerate_over_support(g: Graph, trees, h: int, k: int):
    """({part masks: value}, scale, candidates examined): every distinct
    candidate over the given trees, with its value as an integer in the
    scale of ``scaled_capacities(g)``.

    A piece layout met again, on this tree or another, yields only cuts
    already found, so its merges are counted and not scored again."""
    caps, scale = scaled_capacities(g)
    merges: dict[int, list] = {}
    seen: set[tuple[int, ...]] = set()
    found: dict[frozenset, int] = {}
    candidates = 0
    for tree in trees:
        for pieces, layout_merges in _layouts(g, tuple(tree), h, k, merges):
            candidates += len(layout_merges)
            if pieces in seen:
                continue
            seen.add(pieces)
            for parts, value in _layout_cuts(g, caps, pieces, layout_merges, found):
                found[parts] = value
    return found, scale, candidates


def _scan(g: Graph, k: int, h: int, mode: str = "exact", eps=None, dual=None):
    """The scan behind ``min_kcut`` and ``enumerate_approx_kcuts``: every
    cut crossing a support tree of the packing in c+z at most h times, h
    raised to the mode's completeness bound (2k-3 exact, 2k-2 approximate).
    Returns ({part masks: value}, scale, candidates examined, h, dual),
    each value an integer in the scale.  A ``dual`` given by the caller is
    scanned instead of one built here.

    k = n scans nothing: the singletons come back with h as given and no
    dual.  When k is at most the number of components the exact packing is
    empty and every optimal cut groups whole components at value 0, so one
    maximal forest of positive edges is scanned with no edge removed and h
    is 0.  When a component has strength 0, no dual comes back, and the
    tail of g's sequence after lambda = 0 is scanned: it is the sequence of
    g less its zero-capacity edges, which gives every partition g's value.
    """
    check_k(g, k)
    if mode not in ("exact", "approx"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and eps is not None:
        raise ValueError("eps applies to approximate mode only")
    if k == g.n:
        caps, scale = scaled_capacities(g)
        return {frozenset(1 << v for v in range(g.n)): sum(caps)}, scale, 0, h, None
    psp = principal_sequence(g)
    zero = psp.levels and psp.levels[0].lam == 0
    if zero:  # on g's vertex and edge ids; its p0 is level 1's partition, not g's components
        psp = PrincipalSequence(g, psp.levels[0].partition, psp.levels[1:])
    if dual is None:
        dual = lp_dual(g, psp, k, explicit=(mode == "exact"))
    if mode == "approx":
        if eps is None:
            eps = Fraction(1, 2 * k)
        eps = Fraction(eps)
        if not eps < Fraction(1, 2 * k - 1):
            raise ValueError("approximate mode needs eps < 1/(2k-1)")
    if mode == "approx" and psp.levels:  # with no level, no capacity is positive
        caps = [g.edges[i].cap + dual.z[i] for i in range(g.m)]
        trees = mwu_pack(g, caps, PackConfig(epsilon=eps)).support()
        h = max(h, 2 * k - 2)
    elif k <= dual.h:
        forest = min_spanning_forest(g, [e.cap == 0 for e in g.edges])  # zero edges last
        trees, h = [tuple(i for i in forest if g.edges[i].cap)], 0
    else:
        trees, h = dual.packing.support(), max(h, 2 * k - 3)
    found, scale, candidates = _enumerate_over_support(g, trees, h, k)
    if not found:
        raise AssertionError("enumeration found no k-cut")
    return found, scale, candidates, h, None if zero else dual


def min_kcut(g: Graph, k: int, mode: str = "exact", eps=None, dual=None):
    """Minimum k-cut with full enumeration of the optimal partitions.

    Pipeline: principal sequence -> closed-form dual z -> packing in c+z
    (exact column generation, or multiplicative weights with
    eps < 1/(2k-1), the one mode that takes an eps) -> scan every support
    tree for cuts crossing it at most h times (h = 2k-3 exact, 2k-2
    approximate) -> deduplicate and minimize.
    Both modes are guaranteed to contain every optimal k-cut.  When k is
    at most the number of components the minimum is 0 and the minimizers
    are the groupings of whole components into at least k parts.  In exact
    mode ``report.dual`` is the optimal dual whose packing was scanned, so
    a caller can certify it without a second column generation.  A caller
    that already holds ``lp_dual(g, k=k, explicit=True)``, or the same
    dual with the packing of another k at its PSP level, passes it as
    ``dual`` and no column generation runs.
    """
    found, scale, candidates, h, dual = _scan(g, k, 0, mode, eps, dual)
    best = min(found.values())
    value = Fraction(best, scale)
    minimizers = [
        _mask_partition(g.n, masks, value) for masks, v in found.items() if v == best
    ]
    minimizers.sort(key=partition_sort_key)
    cuts = tuple(CutResult(p, value, p.part_count) for p in minimizers)
    report = EnumerationReport(
        k, h, mode, candidates, len(found), cuts, value, dual=dual
    )
    return cuts[0], report


def enumerate_approx_kcuts(g: Graph, k: int, alpha) -> EnumerationReport:
    """All distinct cuts with at least k parts and value at most alpha times
    the minimum k-cut, via the exact dual packing with
    h = floor(2*alpha*(k-1)); complete because every such cut h-respects a
    positive fraction of the packing."""
    alpha = Fraction(alpha)
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    found, scale, candidates, h, dual = _scan(g, k, floor(2 * alpha * (k - 1)))
    best = min(found.values())
    lam_k = Fraction(best, scale)
    threshold = alpha * lam_k
    limit = floor(alpha * best)  # an integer v is at most alpha * best iff at most this
    keep = [
        (v, _mask_partition(g.n, masks, Fraction(v, scale)))
        for masks, v in found.items()
        if v <= limit
    ]
    keep.sort(key=lambda vp: (vp[0], partition_sort_key(vp[1])))
    cuts = tuple(CutResult(p, p.crossing_value, p.part_count) for _, p in keep)
    return EnumerationReport(
        k, h, "exact", candidates, len(found), cuts, lam_k, threshold, dual
    )


class RoundResult(NamedTuple):
    cut: CutResult
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


def round_lp(g: Graph, primal: PrimalSolution) -> RoundResult:
    """Round an optimal fractional vector to a k-cut within twice (1 - 1/n)
    of its objective: contract x=0 edges, keep x=1 edges, and isolate the
    cheapest capacitated-degree vertices of the fractional residual, at most
    size-1 of them per residual component so each pick adds a part."""
    x = [Fraction(v) for v in primal.x]
    if any(v < 0 or v > 1 for v in x):
        raise ValueError("x must lie in [0, 1]")
    k = primal.k
    zero_blocks = component_blocks(g, exclude_edges=[i for i in range(g.m) if x[i] > 0])
    gc, block_map, kept = contract_partition(g, zero_blocks)
    frac = [j for j, eid in enumerate(kept) if 0 < x[eid] < 1]
    ones = [eid for eid in kept if x[eid] == 1]

    objective = sum((g.edges[i].cap * x[i] for i in range(g.m)), Fraction(0))
    lp_value, _ = lagrangean_value(principal_sequence(g), k)
    certified = objective == lp_value
    bound = 2 * (1 - Fraction(1, g.n)) * objective

    res_blocks = component_blocks(gc, exclude_edges=[j for j in range(gc.m) if j not in frac])
    if len(res_blocks) >= k:
        cutset = set(ones)
    else:
        comp_of = [0] * gc.n
        for ci, blk in enumerate(res_blocks):
            for v in blk:
                comp_of[v] = ci
        deg = [Fraction(0)] * gc.n
        for j in frac:
            e = gc.edges[j]
            deg[e.u] += e.cap
            deg[e.v] += e.cap
        budgets = {ci: len(blk) - 1 for ci, blk in enumerate(res_blocks)}
        items = [(deg[v], v, comp_of[v]) for v in range(gc.n)]
        taken = _capped_cheapest(items, budgets, k - len(res_blocks))
        if taken is None:
            raise ValueError("residual graph too small to reach k parts")
        chosen = {v for _, v, _ in taken}
        cutset = set(ones)
        for j in frac:
            e = gc.edges[j]
            if e.u in chosen or e.v in chosen:
                cutset.add(kept[j])
    partition = components(g, exclude_edges=cutset)
    cut = cut_of_partition(g, partition)
    return RoundResult(cut, certified, bound)


def ravi_sinha_cut(g: Graph, psp: PrincipalSequence | None = None, k: int = 2) -> CutResult:
    """Combinatorial 2(1-1/n)-approximation from the principal sequence.

    Take the first level reaching k parts; when it overshoots, keep the
    previous level's cut and additionally isolate the needed number of
    smallest-boundary shores of the splitting components (never a whole
    component, so every shore adds a part).  That is ``round_lp`` on the
    closed-form optimum: its zero edges lie inside the parts of P_j, its
    ones are A_{j-1}, its fractional residual is B_j, and a part's degree
    there is its shore's boundary, so the same shores are picked in the
    same (cost, id) order."""
    if psp is None:
        psp = principal_sequence(g)
    return round_lp(g, lp_primal(psp, k)).cut
