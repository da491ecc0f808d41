"""Fractional packings of spanning forests under edge capacities.

Every forest here comes from one Kruskal kernel, ``_forest``: a scan of
edge ids in a given order over flat endpoint lists, with inline
path-halving roots, which stops as soon as the forest spans (n - 1
edges).  ``min_spanning_forest`` wraps it for a graph and a weight vector;
the column generation, ``lp.verify_primal`` and the k-cut scan in ``cuts``
call that.  The two streaming packers build their endpoint lists once per
call and hand the kernel a new order each round.

* ``greedy_trees``: Thorup's greedy tree packing as a stream of trees, each
  with the exact value of the packing so far.  Loads are integers, and the
  edges are sorted on the integer key load * (lcm(caps) / c), which orders
  them as load/c does, ties included, with no ``Fraction``.  The stream
  has a cap; each caller (the mincut and approximate k-cut scans) stops it
  with a test of its own.
* ``mwu_pack``: a deterministic width-based multiplicative-weights packer
  meeting a (1 - eps) guarantee, in at most m (ceil(ln m / (eps ln(1 +
  eps))) + 1) rounds on m positive edges.  Only the edge weights are
  floats; a round recomputes the lengths w(e)/c(e) of the forest it loaded
  and no others, by the float expressions a full recomputation would use,
  so every float and every forest is the same.  Loads and tree weights are
  integers on scaled capacities, and one exact rational rescale at the end
  makes the reported loads and value rigorous.
* ``exact_pack``: column generation on one exact simplex tableau that
  grows by each priced forest, as the sparse column of its edge ids
  (``_column_generation``), certified against
  lambda_1 of the positive part of the principal sequence it is given.
  The column generation certifies nothing itself: ``saturating_pack``
  checks saturation and ``lp.lp_dual`` checks lambda_j of the input's
  sequence, so the dual's c+z graph gets no sequence of its own.

``saturating_pack`` asks for a packing whose loads meet capacity on every
edge; it exists exactly when the graph is strength-tight, i.e. the packing
value reaches c(E)/(n - h), since the per-edge load total is (n - h) times
the packing value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .graph import Edge, Graph, _scaled, scaled_capacities
from .simplex import Tableau, solve_lp  # noqa: F401  perfbench's self-test reads packing.solve_lp
from .strength import PrincipalSequence
from .strength import strength as _strength  # noqa: F401  perfbench's self-test reads packing._strength


class PackingError(RuntimeError):
    pass


class SaturationError(PackingError):
    """The input graph admits no capacity-saturating packing."""


class _PackFields(NamedTuple):
    epsilon: Fraction


class PackConfig(_PackFields):
    """The MWU packer's settings; ``epsilon`` is normalised to a Fraction."""

    __slots__ = ()

    def __new__(cls, epsilon=Fraction(1, 10)):
        eps = Fraction(epsilon)
        if not 0 < eps < Fraction(1, 2):
            raise ValueError("epsilon must lie in (0, 1/2)")
        return super().__new__(cls, eps)


class TreePacking(NamedTuple):
    """Weighted list of maximal forests of the working graph.

    The working graph is the input with zero-capacity edges removed; edge ids
    refer to the original graph.  Weights are exact rationals in both modes
    (the MWU packer rounds through an exact rescale), ``approximate`` marks
    packings that only promise a (1 - eps) fraction of the optimum.  Two
    packings are equal only with equal ``caps`` too, and a packing is not
    hashable, since ``caps`` is a dict.
    """

    trees: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]
    caps: dict[int, Fraction]
    approximate: bool = False

    @property
    def total_value(self) -> Fraction:
        weights, d = _scaled(self.weights)
        return Fraction(sum(weights), d)

    def scaled_loads(self) -> tuple[dict[int, int], int]:
        """(load of each edge of ``caps`` as an int over d, d), with d the
        least common denominator of the weights."""
        weights, d = _scaled(self.weights)
        out = dict.fromkeys(self.caps, 0)
        for tree, w in zip(self.trees, weights):
            for eid in tree:
                out[eid] += w
        return out, d

    def loads(self) -> dict[int, Fraction]:
        out, d = self.scaled_loads()
        return {eid: Fraction(load, d) for eid, load in out.items()}

    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(t for t, w in zip(self.trees, self.weights) if w.numerator > 0)


def _forest(n: int, eu, ev, order) -> tuple[int, ...]:
    """Kruskal's scan of the edge ids in ``order`` over endpoint lists
    ``eu``, ``ev``: the sorted ids of the edges that join two components.
    Roots are found inline by path halving, and the scan stops once the
    forest holds n - 1 edges: every later edge would close a cycle.  A
    disconnected graph never reaches n - 1, so it scans every edge."""
    parent = list(range(n))
    forest = []
    need = n - 1
    for i in order:
        u = eu[i]
        v = ev[i]
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[v] = u
            forest.append(i)
            if len(forest) == need:
                break
    forest.sort()
    return tuple(forest)


def min_spanning_forest(g: Graph, edge_weights) -> tuple[int, ...]:
    """Maximal forest minimizing total weight; ties broken by lowest edge id.

    ``edge_weights`` is a sequence aligned with g.edges (rationals or
    floats).  A maximal forest has n - h edges for h connected components.
    The scan is the packers' one Kruskal kernel, ``_forest``, over the
    edges in a stable sort by weight.
    """
    order = sorted(range(g.m), key=edge_weights.__getitem__)  # stable: ties by id
    return _forest(g.n, [e.u for e in g.edges], [e.v for e in g.edges], order)


GREEDY_TREES_PER_EDGE = 16
"""``greedy_trees`` stops after this many trees per positive edge."""


def greedy_trees(g: Graph, caps):
    """Thorup's greedy tree packing (Thorup 2008) of the edges with a positive
    entry in ``caps``, integers aligned with g.edges.

    Tree t + 1 is a minimum spanning forest of those edges under load/c,
    where load(e) counts the earlier trees that hold e, so every tree is a
    maximal forest of the positive edges.  With e* an edge of the largest
    load/c, giving each of the first t trees the weight c(e*)/load(e*)
    packs the value t c(e*)/load(e*) within the capacities.  Yields each
    tree, as sorted edge ids of g, with that value as the int pair
    (t c(e*), load(e*)).  Stops after ``GREEDY_TREES_PER_EDGE`` trees per
    positive edge: a caller whose bar the stream did not reach by then
    falls back to a packing of its own.

    load/c is kept as the integer load * (L / c), with L the lcm of the
    positive caps: it is load/c times L, so it orders the edges as load/c
    does, ties included, and a stable sort of the positive edge ids on it
    prices each forest as the ``Fraction`` keys would.  The kernel scans
    g's own edge ids, so no graph of the positive edges is built.
    """
    keep = [i for i, c in enumerate(caps) if c]
    if not keep:
        return
    eu, ev = [e.u for e in g.edges], [e.v for e in g.edges]
    unit = math.lcm(*[caps[i] for i in keep])
    step = [unit // c if c else 0 for c in caps]
    load = [0] * g.m
    key = [0] * g.m
    top = keep[0]  # an edge of the largest load / cap once a tree is packed
    for t in range(1, GREEDY_TREES_PER_EDGE * len(keep) + 1):
        forest = _forest(g.n, eu, ev, sorted(keep, key=key.__getitem__))  # stable: ties by id
        for i in forest:
            load[i] += 1
            key[i] += step[i]
            if key[i] > key[top]:
                top = i
        yield forest, t * caps[top], load[top]


def _working_graph(g: Graph, caps):
    """Drop zero-capacity edges, keeping original edge ids; ``ValueError``
    when no edge has positive capacity."""
    if caps is None:
        caps = [e.cap for e in g.edges]
    caps = [Fraction(c) for c in caps]
    if len(caps) != g.m:
        raise ValueError("capacity vector length mismatch")
    if any(c < 0 for c in caps):
        raise ValueError("capacities must be nonnegative")
    keep = [i for i in range(g.m) if caps[i] > 0]
    if not keep:
        raise ValueError("packing undefined without positive-capacity edges")
    edges = tuple(Edge(g.edges[i].u, g.edges[i].v, caps[i]) for i in keep)
    return Graph(g.n, edges), keep, caps


def mwu_pack(g: Graph, caps=None, config: PackConfig = PackConfig()) -> TreePacking:
    """Deterministic (1 - eps)-approximate packing by multiplicative weights.

    Per-edge weights start at 1; each round adds the bottleneck capacity of
    the minimum spanning forest under w(e)/c(e) and multiplies the chosen
    edges' weights by (1 + eps * delta / c(e)); the loop stops once any
    weight exceeds m**(1/eps), and the accumulated packing is rescaled by
    the exact maximum relative overload.  A round multiplies its
    bottleneck's weight by fl(1 + eps), its factor being 1 + eps * c_b /
    c_b, and no weight ever falls, so an edge is the bottleneck at most
    ceil(ln m / (eps ln(1 + eps))) + 1 times, and the loop ends within m
    times that many rounds; no cap is needed.  The weights are floats;
    loads and accumulated tree weights are integers on
    ``scaled_capacities``, and ``Fraction``s are built only in the final
    rescale, one per distinct accumulated tree weight (trees with equal
    ones share it).  A round changes only the loaded forest's weights, so
    only their lengths w/c are recomputed, by the same float expression:
    the forests priced are those a full recomputation would give.  The
    growth factors
    1.0 + eps * c_b / c_e of a bottleneck b are computed once, the first
    time b is the bottleneck, by that same expression, so every weight is
    the float the per-round product gives.  Forests stay on the working
    graph's ids until the end: ``keep`` is increasing, so mapping the
    sorted trees through it once keeps their order.  Every tree it returns
    has positive weight, so the packing's support is its tree list.
    """
    work, keep, caps_full = _working_graph(g, caps)
    eps = float(config.epsilon)
    m = work.m
    try:  # 1/eps is 1/0 when eps underflows to 0.0, and inf when it is subnormal
        threshold = m ** (1.0 / eps)
    except (OverflowError, ZeroDivisionError):
        threshold = math.inf
    if threshold == math.inf or 1.0 + eps == 1.0:
        why = ("the stopping weight m**(1/eps) overflows a float" if threshold == math.inf
               else "1 + eps rounds to 1.0, so no weight grows")
        raise ValueError(f"epsilon {config.epsilon} too small for {m} edges: {why}")
    cap_q = [e.cap for e in work.edges]
    cap_f = [_float_cap(c) for c in cap_q]
    cap_s, scale = scaled_capacities(work)
    eu, ev = [e.u for e in work.edges], [e.v for e in work.edges]
    w = [1.0] * m
    raw: dict[tuple[int, ...], int] = {}  # scaled like cap_s
    load = [0] * m  # scaled like cap_s
    grow: dict[int, list[float]] = {}  # bottleneck -> each edge's weight factor
    lengths = [w[i] / cap_f[i] for i in range(m)]
    stop = False
    while not stop:
        forest = _forest(work.n, eu, ev, sorted(range(m), key=lengths.__getitem__))  # stable: ties by id
        bottleneck = min(forest, key=cap_s.__getitem__)
        delta = cap_s[bottleneck]
        raw[forest] = raw.get(forest, 0) + delta
        factor = grow.get(bottleneck)
        if factor is None:
            df = cap_f[bottleneck]
            factor = grow[bottleneck] = [1.0 + eps * df / c for c in cap_f]
        for i in forest:
            load[i] += delta
            w[i] *= factor[i]
            lengths[i] = w[i] / cap_f[i]
            if w[i] > threshold:
                stop = True
    rho = max(Fraction(load[i], cap_s[i]) for i in range(m))
    trees = sorted(raw)
    # raw / scale / rho as one Fraction, reduced once per distinct raw value
    weight = {r: Fraction(r * rho.denominator, scale * rho.numerator) for r in set(raw.values())}
    weights = tuple(weight[raw[t]] for t in trees)
    if m < g.m:  # else keep is the identity
        trees = [tuple(map(keep.__getitem__, t)) for t in trees]
    caps_used = {keep[i]: cap_q[i] for i in range(m)}
    return TreePacking(tuple(trees), weights, caps_used, approximate=True)


def _float_cap(cap: Fraction) -> float:
    """A positive capacity as a float; the weights divide by it."""
    try:
        f = float(cap)
    except OverflowError:
        raise ValueError("a capacity overflows a float in multiplicative weights") from None
    if f == 0.0:
        raise ValueError("a positive capacity underflows to 0.0 in multiplicative weights")
    return f


def _column_generation(g: Graph, caps=None) -> TreePacking:
    """Optimal packing by column generation, uncertified: each caller checks
    the value it expects.  The restricted master (exact simplex) prices
    maximal forests under its duals; a forest enters while its dual weight
    is below 1.  The master is one ``Tableau`` over the edge rows, grown by
    one column per forest, the first one included, given as its edge ids
    (``Tableau.add_support``).  Adding a forest touches no row of the
    tableau, which holds only B^-1 over its determinant and prices the
    forests on demand.  Each solve ends at the vertex that a cold solve of
    the same master from the slack basis reaches, so the packing is the one
    a fresh master per round would give.  Pricing reads the master's duals
    as integers over one denominator, and the packing's Fractions are built
    once, after the last round.
    """
    work, keep, _ = _working_graph(g, caps)
    master = Tableau([e.cap for e in work.edges])
    forest = min_spanning_forest(work, [1] * work.m)
    columns = []
    seen = set()
    while True:
        if forest in seen:
            raise PackingError("pricing repeated a forest; arithmetic bug")
        seen.add(forest)
        columns.append(forest)
        master.add_support(forest)
        # integer duals over one positive denominator order the edges as
        # their Fractions do, so the forests are the same
        duals, den = master.solve_duals()
        forest = min_spanning_forest(work, duals)
        if sum(duals[eid] for eid in forest) >= den:
            break
    res = master.solve()  # already optimal: no pivot, only the Fractions
    trees = []
    weights = []
    for forest, y in zip(columns, res.x):
        if y > 0:
            trees.append(tuple(keep[i] for i in forest))
            weights.append(y)
    order = sorted(range(len(trees)), key=lambda i: trees[i])
    return TreePacking(
        tuple(trees[i] for i in order),
        tuple(weights[i] for i in order),
        {keep[i]: work.edges[i].cap for i in range(work.m)},
    )


def exact_pack(psp: PrincipalSequence) -> TreePacking:
    """Exact optimal packing of ``psp.graph``, certified against the least
    component strength of the working graph: lambda_1 of the positive part
    of its sequence ``psp``."""
    packing = _column_generation(psp.graph)
    expected = psp.positive().levels[0].lam
    if packing.total_value != expected:
        raise PackingError(f"packing value {packing.total_value} != strength {expected}")
    return packing


def saturating_pack(g: Graph, caps=None) -> TreePacking:
    """Packing whose loads equal capacity on every positive-capacity edge.

    Exists iff the working graph is strength-tight: the packing optimum
    equals c(E)/(n - h).  Since the load total of any packing y is
    (n - h) * sum(y), reaching that value forces every edge tight, so the
    column-generation optimum is already saturating.  Every packed forest
    has n - h edges, so the target is read off the packing; reaching it is
    the packing's one certificate."""
    packing = _column_generation(g, caps)
    target = sum(packing.caps.values()) / len(packing.trees[0])
    if packing.total_value != target:
        raise SaturationError(
            f"graph is not strength-tight: packing value {packing.total_value}, "
            f"saturation needs {target}"
        )
    loads, d = packing.scaled_loads()
    for eid, cap in packing.caps.items():
        if loads[eid] * cap.denominator != cap.numerator * d:
            raise AssertionError("saturation arithmetic violated")
    return packing
