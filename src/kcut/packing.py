"""Fractional packings of spanning forests under edge capacities.

Two packers share a pricing kernel (minimum spanning forest):

* ``mwu_pack``: a deterministic width-based multiplicative-weights packer
  meeting a (1 - eps) guarantee.  Only the edge weights are floats; loads
  and tree weights are integers on scaled capacities, and one exact
  rational rescale at the end makes the reported loads and value rigorous.
* ``exact_pack``: column generation; one exact rational simplex tableau
  holds the restricted master and grows by each priced forest, pricing by
  minimum spanning forest under the master duals, certified against the
  strength min-max value on termination.  The grown tableau takes the
  pivots a cold solve of each master from the slack basis would take
  (``simplex.Tableau.add_column``), so it reaches the same vertex, skipping
  the part of the path that the new forest does not change.

``saturating_pack`` asks for a packing whose loads meet capacity on every
edge; it exists exactly when the graph is strength-tight, i.e. the packing
value reaches c(E)/(n - h), since the per-edge load total is (n - h) times
the packing value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .graph import Graph, component_blocks, induced_subgraph, scaled_capacities
from .simplex import Tableau, solve_lp  # noqa: F401  perfbench's self-test reads packing.solve_lp
from .strength import strength as _strength


class PackingError(RuntimeError):
    pass


class SaturationError(PackingError):
    """The input graph admits no capacity-saturating packing."""


class IterationLimitError(PackingError):
    """The multiplicative-weights loop hit its iteration cap."""


@dataclass(frozen=True)
class PackConfig:
    epsilon: Fraction = Fraction(1, 10)
    max_iterations: int | None = None

    def __post_init__(self):
        eps = Fraction(self.epsilon)
        if not 0 < eps < Fraction(1, 2):
            raise ValueError("epsilon must lie in (0, 1/2)")
        object.__setattr__(self, "epsilon", eps)


@dataclass(frozen=True)
class TreePacking:
    """Weighted list of maximal forests of the working graph.

    The working graph is the input with zero-capacity edges removed; edge ids
    refer to the original graph.  Weights are exact rationals in both modes
    (the MWU packer rounds through an exact rescale), ``approximate`` marks
    packings that only promise a (1 - eps) fraction of the optimum.
    """

    trees: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]
    caps: dict[int, Fraction] = field(compare=False)
    approximate: bool = False

    @property
    def total_value(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def loads(self) -> dict[int, Fraction]:
        out = {eid: Fraction(0) for eid in self.caps}
        for tree, w in zip(self.trees, self.weights):
            for eid in tree:
                out[eid] += w
        return out

    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(t for t, w in zip(self.trees, self.weights) if w > 0)


def min_spanning_forest(g: Graph, edge_weights) -> tuple[int, ...]:
    """Maximal forest minimizing total weight; ties broken by lowest edge id.

    ``edge_weights`` is a sequence aligned with g.edges (rationals or
    floats).  A maximal forest has n - h edges for h connected components.
    """
    order = sorted(range(g.m), key=edge_weights.__getitem__)  # stable: ties by id
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    forest = []
    for i in order:
        e = g.edges[i]
        ru, rv = find(e.u), find(e.v)
        if ru != rv:
            parent[rv] = ru
            forest.append(i)
    return tuple(sorted(forest))


def _working_graph(g: Graph, caps):
    """Drop zero-capacity edges, keeping original edge ids."""
    if caps is None:
        caps = [e.cap for e in g.edges]
    caps = [Fraction(c) for c in caps]
    if len(caps) != g.m:
        raise ValueError("capacity vector length mismatch")
    if any(c < 0 for c in caps):
        raise ValueError("capacities must be nonnegative")
    keep = [i for i in range(g.m) if caps[i] > 0]
    from .graph import Edge

    edges = tuple(Edge(g.edges[i].u, g.edges[i].v, caps[i]) for i in keep)
    return Graph(g.n, edges), keep, caps


def mwu_pack(g: Graph, caps=None, config: PackConfig = PackConfig()) -> TreePacking:
    """Deterministic (1 - eps)-approximate packing by multiplicative weights.

    Per-edge weights start at 1; each round adds the bottleneck capacity of
    the minimum spanning forest under w(e)/c(e) and multiplies the chosen
    edges' weights by (1 + eps * delta / c(e)); the loop stops once any
    weight exceeds m**(1/eps), and the accumulated packing is rescaled by
    the exact maximum relative overload.  The weights are floats; loads and
    accumulated tree weights are integers on ``scaled_capacities``, and
    ``Fraction``s are built only in the final rescale.
    """
    work, keep, caps_full = _working_graph(g, caps)
    if work.m == 0:
        raise ValueError("packing undefined without positive-capacity edges")
    eps = float(config.epsilon)
    m = work.m
    try:
        threshold = m ** (1.0 / eps)
    except OverflowError:
        raise ValueError(
            f"epsilon {config.epsilon} too small for {m} edges: "
            "the stopping weight m**(1/eps) overflows a float"
        ) from None
    cap_q = [e.cap for e in work.edges]
    cap_f = [_float_cap(c) for c in cap_q]
    cap_s, scale = scaled_capacities(work)
    w = [1.0] * m
    raw: dict[tuple[int, ...], int] = {}  # scaled like cap_s
    load = [0] * m  # scaled like cap_s
    max_iter = config.max_iterations
    if max_iter is None:
        max_iter = 16 + int(4 * m * math.log(max(m, 2)) / (eps * eps))
    iterations = 0
    while True:
        if iterations >= max_iter:
            raise IterationLimitError(f"no convergence within {max_iter} iterations")
        iterations += 1
        lengths = [w[i] / cap_f[i] for i in range(m)]
        forest = min_spanning_forest(work, lengths)
        bottleneck = min(forest, key=cap_s.__getitem__)
        delta = cap_s[bottleneck]
        key = tuple(keep[i] for i in forest)
        raw[key] = raw.get(key, 0) + delta
        stop = False
        df = cap_f[bottleneck]
        for i in forest:
            load[i] += delta
            w[i] *= 1.0 + eps * df / cap_f[i]
            if w[i] > threshold:
                stop = True
        if stop:
            break
    rho = max(Fraction(load[i], cap_s[i]) for i in range(m))
    trees = tuple(sorted(raw))
    weights = tuple(Fraction(raw[t], scale) / rho for t in trees)
    caps_used = {keep[i]: cap_q[i] for i in range(m)}
    return TreePacking(trees, weights, caps_used, approximate=True)


def _float_cap(cap: Fraction) -> float:
    """A positive capacity as a float; the weights divide by it."""
    try:
        f = float(cap)
    except OverflowError:
        raise ValueError("a capacity overflows a float in multiplicative weights") from None
    if f == 0.0:
        raise ValueError("a positive capacity underflows to 0.0 in multiplicative weights")
    return f


def _min_component_strength(work: Graph) -> Fraction:
    best = None
    for blk in component_blocks(work):
        if len(blk) < 2:
            continue
        sub, _, _ = induced_subgraph(work, blk)
        sigma, _ = _strength(sub)
        if best is None or sigma < best:
            best = sigma
    if best is None:
        raise ValueError("packing undefined without positive-capacity edges")
    return best


def exact_pack(g: Graph, caps=None, certify: bool = True) -> TreePacking:
    """Exact optimal packing by column generation.

    The restricted master (exact simplex) prices maximal forests under its
    duals; a forest enters while its dual weight is below 1.  The master is
    one ``Tableau`` over the edge rows, grown by one 0/1 column per forest,
    the first one included.  Each solve ends at the vertex that a cold solve
    of the same master from the slack basis reaches, so the packing is the
    one a fresh master per round would give.  On termination the value is
    certified against the strength min-max value computed by an independent
    path (parametric attack oracle) unless ``certify=False``.
    """
    work, keep, _ = _working_graph(g, caps)
    if work.m == 0:
        raise ValueError("packing undefined without positive-capacity edges")
    master = Tableau([[] for _ in range(work.m)], [e.cap for e in work.edges])
    forest = min_spanning_forest(work, [Fraction(1)] * work.m)
    columns = []
    seen = set()
    while True:
        if forest in seen:
            raise PackingError("pricing repeated a forest; arithmetic bug")
        seen.add(forest)
        columns.append(forest)
        loads = [0] * work.m
        for eid in forest:
            loads[eid] = 1
        master.add_column(loads, 1)
        res = master.solve()
        duals = res.duals
        forest = min_spanning_forest(work, duals)
        priced = sum((duals[eid] for eid in forest), Fraction(0))
        if priced >= 1:
            break
    trees = []
    weights = []
    for forest, y in zip(columns, res.x):
        if y > 0:
            trees.append(tuple(keep[i] for i in forest))
            weights.append(y)
    order = sorted(range(len(trees)), key=lambda i: trees[i])
    packing = TreePacking(
        tuple(trees[i] for i in order),
        tuple(weights[i] for i in order),
        {keep[i]: work.edges[i].cap for i in range(work.m)},
    )
    if certify:
        expected = _min_component_strength(work)
        if packing.total_value != expected:
            raise PackingError(
                f"packing value {packing.total_value} != strength {expected}"
            )
    return packing


def saturating_pack(g: Graph, caps=None, expected_value=None) -> TreePacking:
    """Packing whose loads equal capacity on every positive-capacity edge.

    Exists iff the working graph is strength-tight: the packing optimum
    equals c(E)/(n - h).  Since the load total of any packing y is
    (n - h) * sum(y), reaching that value forces every edge tight, so the
    column-generation optimum is already saturating.
    """
    work, keep, _ = _working_graph(g, caps)
    if work.m == 0:
        raise ValueError("packing undefined without positive-capacity edges")
    h = len(component_blocks(work))
    target = work.total_capacity() / Fraction(work.n - h)
    packing = exact_pack(g, caps, certify=False)
    if packing.total_value != target:
        raise SaturationError(
            f"graph is not strength-tight: packing value {packing.total_value}, "
            f"saturation needs {target}"
        )
    if expected_value is not None and packing.total_value != Fraction(expected_value):
        raise SaturationError(
            f"saturating value {packing.total_value} != expected {expected_value}"
        )
    loads = packing.loads()
    for eid, cap in packing.caps.items():
        if loads[eid] != cap:
            raise AssertionError("saturation arithmetic violated")
    return packing
