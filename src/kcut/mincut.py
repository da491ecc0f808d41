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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .graph import (
    Graph,
    CutResult,
    _mask_partition,
    _rooted_forest,
    component_blocks,
    components,
    cut_of_partition,
    scaled_capacities,
)
from .oracle import partition_sort_key
from .packing import PackConfig, mwu_pack


@dataclass
class TreeCutTable:
    """Spanning tree rooted at vertex 0, with subtree masks and the integer
    tables of its 1- and 2-respecting cut values.  Edges that contain a
    cycle or do not span the graph raise ``ValueError``.

    ``cut(i)`` is the capacity leaving the subtree below the i-th tree edge;
    ``pair_value(i, j)`` the capacity of the unique cut crossing the tree in
    exactly those two edges, whose side is ``pair_mask(i, j)``.  ``scaled``
    is ``scaled_capacities(graph)``, computed here when not given.
    """

    graph: Graph
    tree: tuple[int, ...]
    scaled: tuple[list[int], int] | None = None
    scale: int = field(init=False)
    masks: list[int] = field(init=False)
    int_cuts: list[int] = field(init=False)  # cut(i) times the scale
    int_cross: list[list[int]] = field(init=False)  # cross(i, j), j < i, times the scale

    def __post_init__(self):
        g = self.graph
        self.tree = tuple(self.tree)
        if self.scaled is None:
            self.scaled = scaled_capacities(g)
        caps, self.scale = self.scaled
        comps, self.masks, path = _rooted_forest(g.n, self.tree, g.edges)
        if len(comps) != 1:
            raise ValueError("tree does not span the graph")
        nt = len(self.tree)
        cuts = [0] * nt
        cross = [[0] * i for i in range(nt)]
        for e, c in zip(g.edges, caps):
            if not c:
                continue
            rest = path[e.u] ^ path[e.v]
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
        self.int_cuts = cuts
        self.int_cross = cross

    @property
    def cuts(self) -> list[Fraction]:
        return [Fraction(c, self.scale) for c in self.int_cuts]

    def cut(self, i: int) -> Fraction:
        return Fraction(self.int_cuts[i], self.scale)

    def pair_mask(self, i: int, j: int) -> int:
        return self.masks[i] ^ self.masks[j]

    def pair_value(self, i: int, j: int) -> Fraction:
        both = self.int_cross[max(i, j)][min(i, j)]
        return Fraction(self.int_cuts[i] + self.int_cuts[j] - 2 * both, self.scale)


def _best_mask_cut(g: Graph, masks, value: Fraction) -> CutResult:
    """The tie-break winner among two-sided cuts of equal value: the side
    holding vertex 0 comes first in each canonical partition, so the side
    whose sorted vertices come first wins.  ``value`` is the table's exact
    cut value, so the partition takes it as is."""
    full = (1 << g.n) - 1
    sides = [mask if mask & 1 else full ^ mask for mask in masks]
    side = sides[0]
    if len(sides) > 1:  # the usual single tie needs no key
        side = min(sides, key=lambda mask: [v for v in range(g.n) if mask >> v & 1])
    return CutResult(_mask_partition(g.n, (side, full ^ side), value), value, 2)


def min_1respect(g: Graph, tree) -> CutResult:
    """Minimum cut among those crossing the tree in exactly one edge."""
    table = TreeCutTable(g, tuple(tree))
    best = min(table.int_cuts)
    ties = [m for m, c in zip(table.masks, table.int_cuts) if c == best]
    return _best_mask_cut(g, ties, Fraction(best, table.scale))


def min_2respect(g: Graph, tree, scaled=None) -> CutResult:
    """Minimum cut among those crossing the tree in at most two edges.

    ``scaled`` is ``scaled_capacities(g)``, for callers that scan many trees."""
    table = TreeCutTable(g, tuple(tree), scaled=scaled)
    cuts, cross, masks = table.int_cuts, table.int_cross, table.masks
    best = None
    ties: list[int] = []
    for i, ci in enumerate(cuts):
        values = [(ci, masks[i])]
        values += [(ci + cuts[j] - 2 * cross[i][j], masks[i] ^ masks[j]) for j in range(i)]
        for v, mask in values:
            if best is None or v < best:
                best = v
                ties = [mask]
            elif v == best:
                ties.append(mask)
    return _best_mask_cut(g, ties, Fraction(best, table.scale))


def global_mincut_detail(g: Graph, eps=Fraction(1, 6)):
    """Global mincut plus its witness: (cut, witness tree index, packing).

    Packs trees to within (1 - eps) of the strength and scans every support
    tree for its best 2-respecting cut.  For eps < 1/3 a positive weight
    fraction of the packing 2-respects each fixed minimum cut, so the scan
    is exhaustive without sampling.  Deterministic.
    """
    eps = Fraction(eps)
    if not eps < Fraction(1, 3):
        raise ValueError("eps must be below 1/3")
    if g.n < 2:
        raise ValueError("mincut needs at least two vertices")
    if not g.is_connected():
        raise ValueError("mincut is defined for connected graphs")
    zero = [i for i in range(g.m) if g.edges[i].cap == 0]
    if len(component_blocks(g, exclude_edges=zero)) > 1:
        # zero-capacity cut: the components of the positive part achieve 0
        return cut_of_partition(g, components(g, exclude_edges=zero)), None, None
    packing = mwu_pack(g, config=PackConfig(epsilon=eps))
    scaled = scaled_capacities(g)
    best: CutResult | None = None
    witness = None
    for idx, tree in enumerate(packing.support()):
        cut = min_2respect(g, tree, scaled)
        if (
            best is None
            or cut.value < best.value
            or (cut.value == best.value and partition_sort_key(cut.partition) < partition_sort_key(best.partition))
        ):
            best = cut
            witness = idx
    return best, witness, packing


def global_mincut(g: Graph, eps=Fraction(1, 6)) -> CutResult:
    """Global minimum cut via the packing-then-scan pipeline."""
    cut, _, _ = global_mincut_detail(g, eps)
    return cut
