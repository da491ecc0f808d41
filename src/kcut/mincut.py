"""Global minimum cut via tree packings: minimum 1-respecting and
2-respecting cuts of a given spanning tree, and the full pipeline that packs
trees and scans every support tree.

A cut crossing a rooted spanning tree in exactly the edge pair {e, f} puts
on one side the vertices whose root path holds exactly one of e, f.  A graph
edge crosses that cut iff its own tree path holds exactly one of them, so
with cut(e) the capacity of edges whose path holds e and cross(e, f) that of
edges whose path holds both, the pair's value is
cut(e) + cut(f) - 2 cross(e, f).  One pass over the edges, on capacities
scaled to integers, fills both tables; each edge adds to the pairs on its
own tree path only.  The root paths and the subtree below each tree edge
come from the same rooted-forest walk as the k-cut scan in ``cuts``, so
both scans reject a tree that contains a cycle the same way.

The pipeline scans all support trees in one integer pass.  It compares
every 1- and 2-respecting value, as a Python int, with one running best
(value, side, first tree index), and builds the one ``CutResult`` at the
end.  ``min_1respect`` and ``min_2respect`` are the one-tree case of the
same scan.

On a graph with parallel edges the pipeline skips a support tree whose
edges join the same multiset of vertex pairs as an earlier tree's; the
multiplicative-weights packing often loads another parallel copy of one
edge and so repeats a tree in this sense.  The skip changes no answer:
the rooted walk and the subtree masks depend only on the vertex pairs, and
the values only on the masks, so the two trees offer the same cuts with
the same values, and the earlier tree offers each of them with a smaller
index.  The best value, its side and its witness, the first tree holding
it, are those of the scan that reads every tree.  A tree that holds two
copies of one pair contains a cycle, and its multiset matches no earlier
tree that passed, so it is still read and rejected.
"""

from __future__ import annotations

from fractions import Fraction

from .graph import (
    Graph,
    CutResult,
    _mask_partition,
    _rooted_forest,
    check_connected,
    component_blocks,
    components,
    cut_of_partition,
    scaled_capacities,
)
from .packing import PackConfig, mwu_pack


def _tree_tables(n: int, tree, edges, positive):
    """(masks, cuts, cross) of a spanning tree rooted at vertex 0, given as
    edge ids into ``edges``: the vertex mask below each tree edge, and the
    integer tables cut(i) and cross(i, j), j < i, summed over ``positive``,
    the (u, v, scaled capacity) triples of the edges of positive capacity.
    Edges that contain a cycle or do not span the graph raise ``ValueError``."""
    comps, masks, path = _rooted_forest(n, tree, edges)
    if len(comps) != 1:
        raise ValueError("tree does not span the graph")
    nt = len(tree)
    cuts = [0] * nt
    cross = [[0] * i for i in range(nt)]
    for u, v, c in positive:
        rest = path[u] ^ path[v]
        on_path = []
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            cuts[i] += c
            row = cross[i]
            for j in on_path:
                row[j] += c
            on_path.append(i)
            rest ^= low
    return masks, cuts, cross


def _scan_trees(g: Graph, trees, pairs=True) -> tuple[CutResult, int]:
    """The least cut crossing one of ``trees`` in exactly one edge, or in
    one or two when ``pairs``, and the index of the first tree holding it.

    Equal values go to the side of vertex 0 whose sorted vertices come
    first, as in ``partition_sort_key``; no subtree mask holds the root,
    vertex 0, so that side is the mask's complement.  A side is built only
    for a value that reaches the running best, and a later tree replaces
    the best only when strictly better.  A tree on the same vertex pairs as
    an earlier one is skipped (see the module docstring)."""
    caps, scale = scaled_capacities(g)
    positive = [(e.u, e.v, c) for e, c in zip(g.edges, caps) if c]
    n, full = g.n, (1 << g.n) - 1
    best, side, key, witness = sum(caps) + 1, 0, None, None

    def offer(value, mask, idx):
        nonlocal best, side, key, witness
        cand = full ^ mask
        if cand == side:  # the best cut again, from a later tree
            return
        cand_key = [v for v in range(n) if cand >> v & 1]
        if value < best or cand_key < key:
            best, side, key, witness = value, cand, cand_key, idx

    first: dict[tuple[int, int], int] = {}  # vertex pair -> its lowest edge id
    same = [first.setdefault((min(e.u, e.v), max(e.u, e.v)), i) for i, e in enumerate(g.edges)]
    seen = set() if len(first) < g.m else None  # only parallel edges repeat a tree
    for idx, tree in enumerate(trees):
        if seen is not None:
            shape = tuple(sorted(map(same.__getitem__, tree)))
            if shape in seen:
                continue
            seen.add(shape)
        masks, cuts, cross = _tree_tables(n, tree, g.edges, positive)
        for i, ci in enumerate(cuts):
            mi = masks[i]
            if ci <= best:
                offer(ci, mi, idx)
            for j, x in enumerate(cross[i] if pairs else ()):
                v = ci + cuts[j] - 2 * x
                if v <= best:
                    offer(v, mi ^ masks[j], idx)
    if witness is None:
        raise ValueError("no tree edge to cut")
    value = Fraction(best, scale)
    return CutResult(_mask_partition(n, (side, full ^ side), value), value, 2), witness


def min_1respect(g: Graph, tree) -> CutResult:
    """Minimum cut among those crossing the tree in exactly one edge."""
    return _scan_trees(g, [tuple(tree)], pairs=False)[0]


def min_2respect(g: Graph, tree) -> CutResult:
    """Minimum cut among those crossing the tree in at most two edges."""
    return _scan_trees(g, [tuple(tree)])[0]


def global_mincut_detail(g: Graph, eps=Fraction(1, 6)):
    """Global mincut plus its witness: (cut, witness tree index, packing).

    Packs trees to within (1 - eps) of the strength and scans the 1- and
    2-respecting cuts of every support tree in one integer pass with a
    running best.  The cut is the least over all trees, with the canonical
    tie-break, and the witness is the first tree holding it.  For eps < 1/3
    a positive weight fraction of the packing 2-respects each fixed minimum
    cut, so the scan is exhaustive without sampling.  Deterministic.
    """
    eps = Fraction(eps)
    if not eps < Fraction(1, 3):
        raise ValueError("eps must be below 1/3")
    check_connected(g, "mincut")
    zero = [i for i in range(g.m) if g.edges[i].cap == 0]
    if len(component_blocks(g, exclude_edges=zero)) > 1:
        # zero-capacity cut: the components of the positive part achieve 0
        return cut_of_partition(g, components(g, exclude_edges=zero)), None, None
    packing = mwu_pack(g, config=PackConfig(epsilon=eps))
    cut, witness = _scan_trees(g, packing.support())
    return cut, witness, packing


def global_mincut(g: Graph, eps=Fraction(1, 6)) -> CutResult:
    """Global minimum cut via the packing-then-scan pipeline."""
    cut, _, _ = global_mincut_detail(g, eps)
    return cut
