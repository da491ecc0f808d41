"""Global minimum cut via tree packings: minimum 1-respecting and
2-respecting cuts of a given spanning tree, and the pipeline that scans a
few greedily packed trees for the global minimum cut.

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

A scan reads its trees in one integer pass.  It compares every 1- and
2-respecting value, as a Python int, with one running best (value and
side), and builds the one partition at the end.
``min_1respect`` and ``min_2respect`` are the one-tree case of the same
scan.

The pipeline's trees are Thorup's greedy packing (Thorup 2008), streamed by
``packing.greedy_trees``: tree t + 1 is a minimum spanning forest of the
positive-capacity edges under load(e)/c(e), where load(e) counts the
earlier trees that hold e.  With e* an edge of the largest load/c, giving
each of the t trees the weight c(e*)/load(e*) packs value
P = t c(e*)/load(e*) within the capacities.  A minimum cut C of value
lambda then carries at most lambda of the packing's weight, so its
average crossing count is at most lambda/P; once
P > lambda/3 some tree crosses C at most twice, and a 2-respecting scan of
that tree meets C (Karger 2000).  lambda is not known, but c_up, the least
of the minimum weighted degree and the running best, bounds it from above,
so the stream stops once 3 t c(e*) > c_up load(e*), an exact comparison of
integers.  Every minimum cut is then among the values scanned, so the
running best is the least cut with the canonical tie-break: the answer of a
scan of every tree of any packing of value above lambda/3.

``global_mincut`` builds the multiplicative-weights packing of
``packing.mwu_pack`` at ``EPS`` = 1/6 only should the stream pass
``greedy_trees``' own cap, and reads its support then: within (1 - eps)
of the strength, which is at least lambda/2, it is above lambda/3 for
eps < 1/3 and meets the same bar.  ``global_mincut_detail`` takes that
cut and names the witness in the same packing, built for it unless the
scan already built it: the first of its support trees that crosses the
cut at most twice.
"""

from __future__ import annotations

from fractions import Fraction

from .graph import (
    Graph,
    VertexPartition,
    _mask_partition,
    _rooted_forest,
    check_connected,
    component_blocks,
    components,
    crossing_edges,
    scaled_capacities,
)
from .packing import PackConfig, PackingError, greedy_trees, mwu_pack

EPS = Fraction(1, 6)  # of every multiplicative-weights packing here: below 1/3


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


class _TreeScan:
    """One integer pass over spanning trees with one running best.

    ``add`` reads the cuts crossing a tree in exactly one edge, or in one
    or two when ``pairs``, and keeps the least as (``best``, ``side``):
    ``best`` is the value as an int on the scale of ``caps``, the graph's
    capacities scaled to integers.  Equal values go to the side of vertex 0
    whose sorted vertices come first, as in ``partition_sort_key``; no
    subtree mask holds the root, vertex 0, so that side is the mask's
    complement.  A side is built only for a value that reaches the running
    best, and a later tree replaces the best only when strictly better."""

    def __init__(self, g: Graph, pairs=True):
        self.caps, self.scale = scaled_capacities(g)
        self.g, self.pairs, self.full = g, pairs, (1 << g.n) - 1
        self.positive = [(e.u, e.v, c) for e, c in zip(g.edges, self.caps) if c]
        self.best, self.side, self.key = sum(self.caps) + 1, 0, None

    def add(self, tree) -> None:
        masks, cuts, cross = _tree_tables(self.g.n, tree, self.g.edges, self.positive)
        best, offer = self.best, self._offer
        for i, ci in enumerate(cuts):
            mi = masks[i]
            if ci <= best:
                best = offer(ci, mi)
            for j, x in enumerate(cross[i] if self.pairs else ()):
                v = ci + cuts[j] - 2 * x
                if v <= best:
                    best = offer(v, mi ^ masks[j])

    def _offer(self, value, mask) -> int:
        cand = self.full ^ mask
        if cand != self.side:  # else the best cut again
            key = [v for v in range(self.g.n) if cand >> v & 1]
            if value < self.best or key < self.key:
                self.best, self.side, self.key = value, cand, key
        return self.best

    def cut(self) -> VertexPartition:
        if self.key is None:
            raise ValueError("no tree edge to cut")
        parts = (self.side, self.full ^ self.side)
        return _mask_partition(self.g.n, parts, Fraction(self.best, self.scale))


def _scan_trees(g: Graph, trees, pairs=True) -> VertexPartition:
    """The least cut crossing one of ``trees`` in exactly one edge, or in
    one or two when ``pairs``."""
    scan = _TreeScan(g, pairs)
    for tree in trees:
        scan.add(tree)
    return scan.cut()


def min_1respect(g: Graph, tree) -> VertexPartition:
    """Minimum cut among those crossing the tree in exactly one edge."""
    return _scan_trees(g, [tuple(tree)], pairs=False)


def min_2respect(g: Graph, tree) -> VertexPartition:
    """Minimum cut among those crossing the tree in at most two edges."""
    return _scan_trees(g, [tuple(tree)])


def _mincut_and_packing(g: Graph):
    """``global_mincut``'s cut, with the multiplicative-weights packing it
    scanned past the greedy stream's cap, or None."""
    check_connected(g, "mincut")
    zero = [i for i in range(g.m) if g.edges[i].cap == 0]
    if len(component_blocks(g, exclude_edges=zero)) > 1:
        return components(g, exclude_edges=zero), None
    scan = _TreeScan(g)
    degree = [0] * g.n
    for u, v, c in scan.positive:
        degree[u] += c
        degree[v] += c
    c_deg = min(degree)
    for tree, value, load in greedy_trees(g, scan.caps):
        scan.add(tree)
        if 3 * value > min(c_deg, scan.best) * load:
            return scan.cut(), None
    packing = mwu_pack(g, config=PackConfig(epsilon=EPS))
    for tree in packing.support():
        scan.add(tree)
    return scan.cut(), packing


def global_mincut(g: Graph) -> VertexPartition:
    """Global minimum cut: the least 1- or 2-respecting cut of Thorup's
    greedy trees, scanned in one integer pass with a running best up to
    the first tree with 3 t c(e*) above c_up load(e*), where every minimum
    cut 2-respects a scanned tree (see the module docstring).  Should the
    stream pass its cap first, the support of the multiplicative-weights
    packing at ``EPS`` is scanned too.  The cut is the least of all, with
    the canonical tie-break.  When the positive-capacity edges leave
    several components, it is their partition, of value 0.  Deterministic."""
    return _mincut_and_packing(g)[0]


def global_mincut_detail(g: Graph):
    """Global mincut plus its witness: (cut, witness tree index, packing).

    The cut is ``global_mincut``'s.  The packing is the
    multiplicative-weights one within (1 - ``EPS``) of the strength, which
    exceeds a third of the mincut, so some support tree crosses the cut at
    most twice: the witness is the index of the first.  Past the greedy
    stream's cap it is the packing the cut's scan read, built once.  A cut
    of value 0 gets no packing: (cut, None, None).  Deterministic.
    """
    cut, packing = _mincut_and_packing(g)
    if cut.crossing_value == 0:
        return cut, None, None
    if packing is None:
        packing = mwu_pack(g, config=PackConfig(epsilon=EPS))
    crossing = set(crossing_edges(g, cut.block_of(g.n)))
    support = packing.support()
    witness = next((idx for idx, tree in enumerate(support) if len(crossing.intersection(tree)) <= 2), None)
    if witness is None:
        raise PackingError("no support tree crosses the minimum cut at most twice")
    return cut, witness, packing
