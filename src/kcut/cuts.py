"""Minimum k-cuts and cut enumeration through trees of dual packings.

A cut whose crossing set inside a tree T is F corresponds to a grouping of
the components of T - F; enumerating every subset F of at most h tree edges
and every merge of the pieces therefore reaches every cut that h-respects T.
With h = 2k-3 against an exact dual packing (h = 2k-2 against a (1-eps)
one, eps < 1/(2k-1)), every optimal k-cut h-respects some support tree, so
scanning the support is a complete, certificate-backed search.  The same
pipeline with h = floor(2*alpha*(k-1)) reaches every alpha-approximate cut.

Each removed set F is scored once: the capacity between every pair of its
pieces is summed on integer-scaled capacities, and each merge adds only the
piece pairs it separates.  The merges of p pieces are listed once per
enumeration.  Values stay integers until each distinct cut gets its
``Fraction``.

Also here: the LP rounding algorithm (contract the zeros, keep the ones,
isolate cheap vertices of the fractional residual) and the principal
sequence 2-approximation (cut the smallest shores of the splitting level).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .graph import (
    Graph,
    CutResult,
    VertexPartition,
    component_blocks,
    components,
    contract_partition,
    cut_of_partition,
    partition_from_blocks,
    scaled_capacities,
)
from .lp import DualSolution, PrimalSolution, lagrangean_value, lp_dual
from .oracle import partition_sort_key, set_partitions
from .packing import PackConfig, TreePacking, min_spanning_forest, mwu_pack
from .strength import PrincipalSequence, principal_sequence


@dataclass(frozen=True)
class RespectStats:
    h: int
    cut_edges: frozenset[int]
    crossings: tuple[int, ...]  # |E(T) & cut| per packing tree
    q_h: Fraction
    bound: Fraction | None


@dataclass(frozen=True)
class EnumerationReport:
    """What one k-cut scan examined and found.  ``dual`` is the LP dual
    the scan used: in exact mode the explicit optimal dual whose packing
    was scanned, in approximate mode the lazy dual whose z set the
    capacities of the scanned MWU packing, and None on the k = n shortcut,
    which scans nothing."""

    k: int
    h: int
    mode: str  # "exact" or "approx"
    candidates_examined: int
    distinct_cuts: int
    cuts: tuple[CutResult, ...]
    min_value: Fraction
    threshold: Fraction | None = None
    dual: DualSolution | None = None


def dual_respect_bound(alpha, k: int, h: int, n: int, eps=Fraction(0)) -> Fraction:
    """Lower bound on the packing weight fraction of trees crossing a cut of
    value at most alpha times the minimum k-cut at most h times:
    1 - 2 alpha (k-1) (1 - 1/n) / ((h+1)(1-eps))."""
    alpha = Fraction(alpha)
    eps = Fraction(eps)
    return 1 - Fraction(2) * alpha * (k - 1) * (1 - Fraction(1, n)) / (
        (h + 1) * (1 - eps)
    )


def mincut_respect_bound(h: int, n: int, eps=Fraction(0)) -> Fraction:
    """Mincut-specific bounds for pure tree packings: the weight fraction
    1-respecting a fixed minimum cut is at least 2(1-eps) - 2(1-1/n), and
    2-respecting at least (3/2)(1-eps) - (1-1/n)."""
    eps = Fraction(eps)
    if h == 1:
        return 2 * (1 - eps) - 2 * (1 - Fraction(1, n))
    if h == 2:
        return Fraction(3, 2) * (1 - eps) - (1 - Fraction(1, n))
    raise ValueError("mincut bounds are stated for h in {1, 2}")


def respect_stats(
    packing: TreePacking,
    cut_edges,
    h: int,
    *,
    alpha=None,
    k: int | None = None,
    n: int | None = None,
    eps=Fraction(0),
) -> RespectStats:
    """Exact crossing counts and weight fractions of a packing against a cut.

    When (alpha, k, n) are supplied the matching lower bound on q_h is
    attached for comparison."""
    if not packing.trees:
        raise ValueError("empty packing")
    cut = frozenset(cut_edges)
    crossings = tuple(len(cut.intersection(t)) for t in packing.trees)
    total = packing.total_value
    hit = sum(
        (w for ell, w in zip(crossings, packing.weights) if ell <= h), Fraction(0)
    )
    bound = None
    if alpha is not None and k is not None and n is not None:
        bound = dual_respect_bound(alpha, k, h, n, eps)
    return RespectStats(h, cut, crossings, hit / total, bound)


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


def _tree_pieces(n: int, tree: tuple[int, ...], removed: set[int], edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for eid in tree:
        if eid not in removed:
            e = edges[eid]
            ru, rv = find(e.u), find(e.v)
            if ru != rv:
                parent[rv] = ru
    groups: dict[int, int] = {}
    piece_of = [0] * n
    masks: list[int] = []
    for v in range(n):
        r = find(v)
        if r not in groups:
            groups[r] = len(masks)
            masks.append(0)
        piece_of[v] = groups[r]
        masks[groups[r]] |= 1 << v
    return piece_of, masks


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


def _candidate_partitions(g: Graph, tree: tuple[int, ...], h: int, min_parts: int, caps, merges):
    """Yield (frozenset of part bitmasks, value) for every subset F of at most
    h tree edges and every merge of the pieces of tree - F into at least
    ``min_parts`` groups.  Duplicates across subsets are not removed.

    ``caps`` are the scaled integer capacities, so values are integers in
    the same scale; ``merges`` memoizes ``_merges`` by piece count."""
    tree = tuple(tree)
    edges = g.edges
    max_f = min(h, len(tree))
    base_pieces = g.n - len(tree)  # forest components before any removal
    for f in range(max(min_parts - base_pieces, 0), max_f + 1):
        for removed in itertools.combinations(tree, f):
            piece_of, masks = _tree_pieces(g.n, tree, set(removed), edges)
            npieces = len(masks)
            if npieces < min_parts:
                continue
            # capacity between each pair of pieces, accumulated once per F
            between: dict[tuple[int, int], int] = {}
            for e, c in zip(edges, caps):
                a, b = piece_of[e.u], piece_of[e.v]
                if a != b and c:
                    key = (a, b) if a < b else (b, a)
                    between[key] = between.get(key, 0) + c
            if npieces not in merges:
                merges[npieces] = _merges(npieces, min_parts)
            for ngroups, group_of in merges[npieces]:
                value = 0
                for (a, b), c in between.items():
                    if group_of[a] != group_of[b]:
                        value += c
                part_masks = [0] * ngroups
                for p in range(npieces):
                    part_masks[group_of[p]] |= masks[p]
                yield frozenset(part_masks), value


def _masks_to_partition(g: Graph, masks) -> VertexPartition:
    blocks = []
    for mask in masks:
        blocks.append([v for v in range(g.n) if mask >> v & 1])
    return partition_from_blocks(g, blocks)


def cuts_from_tree(g: Graph, tree, h: int, k: int = 2):
    """Stream every cut of g that h-respects the given maximal forest and has
    at least k parts, as CutResults; deduplication is the caller's job."""
    if h < k - 1:
        raise ValueError("h must be at least k - 1")
    caps, scale = scaled_capacities(g)
    for masks, value in _candidate_partitions(g, tuple(tree), h, k, caps, {}):
        p = _masks_to_partition(g, masks)
        yield CutResult(p, Fraction(value, scale), p.part_count)


def _enumerate_over_support(g: Graph, trees, h: int, k: int):
    """{part masks: value} of every distinct candidate over the given trees,
    and the number of candidates examined."""
    caps, scale = scaled_capacities(g)
    merges: dict[int, list] = {}
    found: dict[frozenset, int] = {}
    candidates = 0
    for tree in trees:
        for masks, value in _candidate_partitions(g, tree, h, k, caps, merges):
            candidates += 1
            if masks not in found:
                found[masks] = value
    return {masks: Fraction(v, scale) for masks, v in found.items()}, candidates


def _scan(g: Graph, k: int, h: int, mode: str = "exact", eps=None):
    """The scan behind ``min_kcut`` and ``enumerate_approx_kcuts``: every
    cut crossing a support tree of the packing in c+z at most h times, h
    raised to the mode's completeness bound (2k-3 exact, 2k-2 approximate).
    Returns ({part masks: value}, candidates examined, h, dual).

    k = n scans nothing: the singletons come back with h as given and no
    dual.  When k is at most the number of components the exact packing is
    empty and every optimal cut groups whole components at value 0, so one
    maximal forest is scanned with no edge removed and h is 0.
    """
    if not 2 <= k <= g.n:
        raise ValueError(f"k={k} out of range 2..{g.n}")
    if mode not in ("exact", "approx"):
        raise ValueError(f"unknown mode {mode!r}")
    if k == g.n:
        singletons = frozenset(1 << v for v in range(g.n))
        value = _masks_to_partition(g, singletons).crossing_value
        return {singletons: value}, 0, h, None
    psp = principal_sequence(g)
    dual = lp_dual(g, psp, k, explicit=(mode == "exact"))
    if mode == "exact":
        if k <= dual.h:
            trees, h = [min_spanning_forest(g, [0] * g.m)], 0
        else:
            trees, h = dual.packing.support(), max(h, 2 * k - 3, k - 1)
    else:
        if eps is None:
            eps = Fraction(1, 2 * k)
        eps = Fraction(eps)
        if not eps < Fraction(1, 2 * k - 1):
            raise ValueError("approximate mode needs eps < 1/(2k-1)")
        caps = [g.edges[i].cap + dual.z[i] for i in range(g.m)]
        trees = mwu_pack(g, caps, PackConfig(epsilon=eps)).support()
        h = max(h, 2 * k - 2)
    found, candidates = _enumerate_over_support(g, trees, h, k)
    if not found:
        raise AssertionError("enumeration found no k-cut")
    return found, candidates, h, dual


def min_kcut(g: Graph, k: int, mode: str = "exact", eps=None):
    """Minimum k-cut with full enumeration of the optimal partitions.

    Pipeline: principal sequence -> closed-form dual z -> packing in c+z
    (exact column generation, or multiplicative weights with
    eps < 1/(2k-1)) -> scan every support tree for cuts crossing it at most
    h times (h = 2k-3 exact, 2k-2 approximate) -> deduplicate and minimize.
    Both modes are guaranteed to contain every optimal k-cut.  When k is
    at most the number of components the minimum is 0 and the minimizers
    are the groupings of whole components into at least k parts.  In exact
    mode ``report.dual`` is the optimal dual whose packing was scanned, so
    a caller can certify it without a second column generation.
    """
    found, candidates, h, dual = _scan(g, k, 0, mode, eps)
    best = min(found.values())
    minimizers = [
        _masks_to_partition(g, masks) for masks, v in found.items() if v == best
    ]
    minimizers.sort(key=partition_sort_key)
    cuts = tuple(CutResult(p, best, p.part_count) for p in minimizers)
    report = EnumerationReport(
        k, h, mode, candidates, len(found), cuts, best, dual=dual
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
    found, candidates, h, dual = _scan(g, k, floor(2 * alpha * (k - 1)))
    lam_k = min(found.values())
    threshold = alpha * lam_k
    keep = [
        (_masks_to_partition(g, masks), v)
        for masks, v in found.items()
        if v <= threshold
    ]
    keep.sort(key=lambda pv: (pv[1], partition_sort_key(pv[0])))
    cuts = tuple(CutResult(p, v, p.part_count) for p, v in keep)
    return EnumerationReport(
        k, h, "exact", candidates, len(found), cuts, lam_k, threshold, dual
    )


@dataclass(frozen=True)
class RoundResult:
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
    component, so every shore adds a part)."""
    if psp is None:
        psp = principal_sequence(g)
    if not 2 <= k <= g.n:
        raise ValueError(f"k={k} out of range 2..{g.n}")
    j = psp.level_for_k(k)
    if j == 0:
        return cut_of_partition(g, psp.p0)
    level = psp.levels[j - 1]
    if level.kappa == k:
        return cut_of_partition(g, level.partition)
    kappa_prev = psp.kappa_at(j - 1)
    need = k - kappa_prev
    shores = []
    budgets = {}
    for ci, comp in enumerate(level.split_components):
        comp_set = set(comp)
        parts = [p for p in level.partition.parts if p[0] in comp_set]
        budgets[ci] = len(parts) - 1
        for part in parts:
            part_set = set(part)
            boundary = Fraction(0)
            for e in g.edges:
                if e.u in comp_set and e.v in comp_set:
                    if (e.u in part_set) != (e.v in part_set):
                        boundary += e.cap
            shores.append((boundary, part, ci))
    taken = _capped_cheapest(shores, budgets, need)
    if taken is None:
        raise AssertionError("not enough shores to reach k parts")
    cutset = set(psp.a_edges_at(j - 1))
    comp_vertices = {ci: set(comp) for ci, comp in enumerate(level.split_components)}
    for _, part, ci in taken:
        part_set = set(part)
        comp_set = comp_vertices[ci]
        for eid, e in enumerate(g.edges):
            if e.u in comp_set and e.v in comp_set:
                if (e.u in part_set) != (e.v in part_set):
                    cutset.add(eid)
    partition = components(g, exclude_edges=cutset)
    return cut_of_partition(g, partition)
