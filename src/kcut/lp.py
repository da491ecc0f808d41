"""Closed-form primal and dual optima of the k-cut relaxation, built from the
principal sequence of partitions, with machine-checkable certificates.

For level index j (the smallest with kappa_j >= k) and
alpha = (k - kappa_{j-1}) / (kappa_j - kappa_{j-1}):

* primal: x = 1 on A_{j-1}, alpha on B_j, 0 elsewhere;
* dual: z adds (lambda_j/lambda_i - 1) c_e to every B_i edge with i < j, and
  y scales the ideal tree packing (one saturating packing per level,
  coupled into one distribution of spanning trees) by lambda_j;
* both objectives equal cbar(A_{j-1}) + (k - kappa_{j-1}) lambda_j, which is
  also the Lagrangean bound max_b g(b) + b(k-1), maximized at b = lambda_j.

The dual's packing is made explicit in two ways.  ``ideal_dual`` scales
the coupled ideal packing (``IdealPacking.coupling``), built once for every
k; ``verify`` reads it.  ``dual_packing`` runs a column generation in c+z,
whose basic packing ``lp`` reads, and ``solve`` and ``enumerate`` only past
the cap of the greedy tree stream they read first (``cuts._scan``): the
ideal packing is slow on large strength-tight quotients.

Disconnected graphs are supported throughout: constraints run over maximal
forests with right-hand side k - h for h components.  So are components of
strength 0, except by ``ideal_packing``: the dual reads the sequence's
positive part (``PrincipalSequence.positive``), where h counts the parts of
the lambda = 0 level.  Each closed form reads the graph off its sequence.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain
from math import lcm
from operator import mul
from typing import NamedTuple

from .graph import Graph, _scaled, check_k, component_blocks, contract_partition, scaled_capacities
from .packing import SaturationError, TreePacking, _column_generation, min_spanning_forest, saturating_pack
from .strength import PrincipalSequence


class PrimalSolution(NamedTuple):
    k: int
    x: tuple[Fraction, ...]
    level_index: int  # j = psp.level_for_k(k), in the input's sequence
    alpha: Fraction
    objective: Fraction


class DualSolution(NamedTuple):
    k: int
    z: tuple[Fraction, ...]
    total_y: Fraction  # sum of packing weights, lambda_j
    level_index: int  # j = psp.level_for_k(k), in the input's sequence
    objective: Fraction
    h: int
    packing: TreePacking | None  # set by ideal_dual or dual_packing


class IdealPacking(NamedTuple):
    """One saturating packing per PSP level, composing to the ideal
    distribution.

    Level i's packing has value lambda_i and loads every B_i edge to its
    capacity; scaled by 1/lambda_i it is the level's tree distribution, with
    load c(e)/lambda_i on each B_i edge.  ``coupling`` is the levels'
    distributions coupled into one distribution of maximal forests, each
    the union of one support tree from every level (``_coupling``).
    """

    graph: Graph
    levels: tuple[TreePacking, ...]  # edge ids refer to the graph
    edge_level: tuple[int, ...]  # 1-based level whose B_i contains each edge
    # the coupled trees, and each one's weight as an int over one denominator
    coupling: tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]

    def marginal_load(self, eid: int) -> Fraction:
        lam = self.levels[self.edge_level[eid] - 1].total_value
        return self.graph.edges[eid].cap / lam


def _coupling(levels) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]:
    """The coupling of the levels' tree distributions: the trees of a
    packing of value 1 whose every tree is the union of one tree per level,
    and each one's sub-interval length as an int over one denominator d.

    Level i's trees get probabilities w / lambda_i, laid end to end on
    [0, 1) in tree order.  Cut at every level's cumulative breakpoints,
    [0, 1) falls into sub-intervals that each lie in one tree's segment at
    every level.  The union of those trees, one joining the parts of P_i
    inside each part of P_{i-1} per level, is a maximal forest of the
    graph, and its weight is the sub-interval's length.  So every level-i
    tree keeps its probability, every B_i edge carries its marginal load
    c_e / lambda_i, and there are at most sum_i |support_i| - L + 1 trees,
    in interval order: the first is the union of every level's first tree.

    Built on ints: level i's weights over their own denominator sum to
    s_i, so with d = lcm(s_i) a segment of weight w ends at its level's
    running sum times d / s_i."""
    ends = []  # per level, the end of each tree's segment, over d
    for p in levels:
        ws, _ = _scaled(p.weights)
        ends.append(list(accumulate(ws)))
    d = lcm(*[e[-1] for e in ends])
    ends = [[x * (d // e[-1]) for x in e] for e in ends]
    pick = [0] * len(ends)  # per level, the tree whose segment holds the sub-interval
    trees, lengths, start = [], [], 0
    for cut in sorted(set().union(*ends)):
        trees.append(tuple(sorted(chain.from_iterable(p.trees[t] for p, t in zip(levels, pick)))))
        lengths.append(cut - start)
        start = cut
        for i, level_ends in enumerate(ends):
            if level_ends[pick[i]] == cut:
                pick[i] += 1
    return tuple(trees), tuple(lengths), d


def lp_primal(psp: PrincipalSequence, k: int) -> PrimalSolution:
    """Optimal primal vector: 1 on A_{j-1}, alpha on B_j, 0 elsewhere.

    The one reader of the PSP level for k.  Nothing here divides by a
    lambda, so a component of strength 0 is allowed."""
    g = psp.graph
    check_k(g, k)
    x = [Fraction(0)] * g.m
    if k <= psp.kappa0():  # x = 1 on the zero-capacity edges between the parts of positive()'s p0
        for eid in psp.a_edges_at(0):
            x[eid] = Fraction(1)
        return PrimalSolution(k, tuple(x), 0, Fraction(0), Fraction(0))
    j = psp.level_for_k(k)
    level = psp.levels[j - 1]
    kappa_prev = psp.kappa_at(j - 1)
    alpha = Fraction(k - kappa_prev, level.kappa - kappa_prev)
    for eid in psp.a_edges_at(j - 1):
        x[eid] = Fraction(1)
    for eid in level.b_edges:
        x[eid] = alpha
    # c(A_{j-1}) = c(delta(P_{j-1})), which the sequence holds
    objective = psp.partition_at(j - 1).crossing_value + (k - kappa_prev) * level.lam
    caps, scale = scaled_capacities(g)
    xs, d = _scaled(x)
    if sum(map(mul, caps, xs)) * objective.denominator != objective.numerator * scale * d:
        raise AssertionError("primal objective mismatch")
    return PrimalSolution(k, tuple(x), j, alpha, objective)


def lagrangean_value(psp: PrincipalSequence, k: int):
    """max over b >= 0 of g(b) + b(k-1), where g(b) is the minimum over
    partitions P of c(delta(P)) - b(|P| - 1), and the b attaining it.

    g is concave and piecewise linear, and the partitions of the principal
    sequence are its minimizers, so the maximum is taken over b = 0 (value
    0) and the breakpoints b = lambda_i, at each of which P_i minimizes.
    The first maximum sits at b = lambda_j and equals the LP optimum."""
    check_k(psp.graph, k)
    value, b = Fraction(0), Fraction(0)
    for level in psp.levels:
        # c(delta(P_i)) - lambda_i (|P_i| - 1) + lambda_i (k - 1)
        at = level.partition.crossing_value + level.lam * (k - level.kappa)
        if at > value:
            value, b = at, level.lam
    return value, b


def ideal_packing(psp: PrincipalSequence) -> IdealPacking:
    """One saturating packing per level of ``psp``.

    Contracting P_i and keeping only the B_i capacities leaves the level's
    split components, each contracted by its minimum-strength partition and
    so strength-tight at lambda_i, beside isolated vertices.  The union is
    strength-tight at lambda_i too, since c(B_i) = lambda_i (kappa_i -
    kappa_{i-1}), so its saturating packing has value lambda_i and loads
    every B_i edge to capacity.  The levels' coupling is built here, once:
    ``ideal_dual`` scales it for every k.
    """
    g = psp.graph
    if psp.levels and psp.levels[0].lam <= 0:
        raise ValueError(
            "k-cut LP closed forms require every cut to have positive "
            "capacity (minimum component strength is 0)"
        )
    levels = []
    edge_level = [0] * g.m
    for idx, level in enumerate(psp.levels, start=1):
        quotient, _, kept = contract_partition(g, level.partition.parts)
        caps = [g.edges[eid].cap if eid in level.b_edges else 0 for eid in kept]
        local = saturating_pack(quotient, caps)
        if local.total_value != level.lam:
            raise SaturationError(
                f"level {idx}: saturating value {local.total_value} != lambda {level.lam}"
            )
        # quotient edge ids back to the graph's; kept ascends, so order holds
        trees = tuple(tuple(kept[i] for i in tree) for tree in local.trees)
        used = {kept[i]: c for i, c in local.caps.items()}
        levels.append(TreePacking(trees, local.weights, used))
        for eid in level.b_edges:
            edge_level[eid] = idx
    if psp.levels and any(lv == 0 for lv in edge_level):
        raise AssertionError("every edge must appear in exactly one level")
    return IdealPacking(g, tuple(levels), tuple(edge_level), _coupling(levels))


def lp_dual(psp: PrincipalSequence, k: int) -> DualSolution:
    """Optimal dual without its packing: closed-form z and lambda_j, the
    value of an optimal packing in c+z (enough for objective and
    feasibility checks).  ``ideal_dual(ideal_packing(psp), lp_dual(psp, k))``
    or ``dual_packing(g, lp_dual(psp, k))`` adds the explicit packing that
    complementary slackness and cut enumeration need.  It is the dual of
    ``psp.positive()``, so no lambda is 0, but its ``level_index`` counts
    the input's levels, as ``lp_primal``'s does: a lambda = 0 level
    counts."""
    g = psp.graph
    check_k(g, k)
    j = psp.level_for_k(k)
    psp = psp.positive()
    lag, lam_j = lagrangean_value(psp, k)
    h = psp.kappa0()
    if k <= h:
        return DualSolution(k, (Fraction(0),) * g.m, Fraction(0), j, Fraction(0), h, None)
    # lambda strictly increases along the sequence: the levels below
    # lambda_j are the ones z raises.
    below = [level for level in psp.levels if level.lam < lam_j]
    z = [Fraction(0)] * g.m
    for level in below:
        ratio = lam_j / level.lam - 1
        for eid in level.b_edges:
            z[eid] = ratio * g.edges[eid].cap
    zs, d = _scaled(z)
    objective = (k - h) * lam_j - Fraction(sum(zs), d)
    if objective != lag:
        raise AssertionError("dual objective mismatch")
    return DualSolution(k, tuple(z), lam_j, j, objective, h, None)


def ideal_dual(ideal: IdealPacking, dual: DualSolution) -> DualSolution:
    """``dual`` made explicit with no column generation: the coupled ideal
    packing of its sequence (``ideal.coupling``) scaled by lambda_j.  A
    B_i edge then carries lambda_j c_e / lambda_i, which is c_e + z_e for
    i < j and at most c_e from level j on, so the packing is feasible in
    c+z, and its value lambda_j makes it optimal.  ``ideal`` must be the
    ideal packing of the sequence ``dual`` was read off.  With k at most
    the number of components the packing is empty."""
    if dual.k <= dual.h:
        return dual._replace(packing=TreePacking((), (), {}))
    lam = dual.total_y
    if ideal.levels[dual.level_index - 1].total_value != lam:
        raise ValueError("the dual's lambda_j is not its level's in the ideal packing")
    trees, lengths, d = ideal.coupling
    weights = tuple(Fraction(x * lam.numerator, d * lam.denominator) for x in lengths)
    edges = ideal.graph.edges
    caps = {eid: edges[eid].cap + dual.z[eid] for eid in range(len(edges)) if edges[eid].cap}
    return dual._replace(packing=TreePacking(trees, weights, caps))


def dual_packing(g: Graph, dual: DualSolution) -> DualSolution:
    """``dual`` made explicit: with a basic optimal packing of value
    lambda_j against c+z, by column generation.  Its one certificate is
    its value against lambda_j of the sequence ``dual`` was built from:
    c+z gets no sequence of its own.  With k at most the number of
    components the packing is empty."""
    if dual.k <= dual.h:
        return dual._replace(packing=TreePacking((), (), {}))
    packing = _column_generation(g, [e.cap + z for e, z in zip(g.edges, dual.z)])
    if packing.total_value != dual.total_y:
        raise AssertionError("explicit dual packing value != lambda_j")
    return dual._replace(packing=packing)


class PrimalVerdict(NamedTuple):
    feasible: bool
    bounds_ok: bool
    min_forest_weight: Fraction | None
    required: Fraction
    witness_forest: tuple[int, ...] | None

    @property
    def ok(self) -> bool:
        return self.feasible and self.bounds_ok


def verify_primal(g: Graph, x, k: int) -> PrimalVerdict:
    """Check 0 <= x <= 1 and that every maximal forest carries weight at
    least k - h, by pricing a minimum spanning forest under x (exact, on
    x over its least common denominator d)."""
    x, d = _scaled(x)
    if len(x) != g.m:
        raise ValueError("x length mismatch")
    bounds_ok = all(0 <= v <= d for v in x)
    required = max(k - len(component_blocks(g)), 0)
    if g.m == 0:
        return PrimalVerdict(required == 0, bounds_ok, None, Fraction(required), None)
    forest = min_spanning_forest(g, x)
    weight = sum([x[i] for i in forest])
    feasible = weight >= required * d
    return PrimalVerdict(
        feasible, bounds_ok, Fraction(weight, d), Fraction(required), None if feasible else forest
    )


class DualVerdict(NamedTuple):
    feasible: bool
    violations: tuple[tuple[int, Fraction, Fraction], ...]  # (edge, load, cap+z)
    messages: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.feasible


def _scaled_limits(g: Graph, z) -> tuple[list[int], list[int], int]:
    """(z, c + z, d): z and c + z as ints over one denominator d."""
    cz, d = _scaled([*(e.cap for e in g.edges), *z])
    zs = cz[g.m :]
    return zs, [c + v for c, v in zip(cz, zs)], d


def verify_dual(g: Graph, dual: DualSolution) -> DualVerdict:
    """Exact feasibility of an explicit dual: loads <= c + z, y >= 0, z >= 0,
    compared as ints: the loads over the weights' denominator, c + z over
    its own."""
    if dual.packing is None:
        raise ValueError("verify_dual needs an explicit packing")
    z, limits, d = _scaled_limits(g, dual.z)
    messages = [f"negative z on edge {eid}" for eid in range(g.m) if z[eid] < 0]
    for tree, w in zip(dual.packing.trees, dual.packing.weights):
        if w < 0:
            messages.append(f"negative weight on tree {tree}")
    bad = []
    loads, dl = dual.packing.scaled_loads()
    for eid in range(g.m):
        load = loads.get(eid, 0)
        if load * d > limits[eid] * dl:
            load, limit = Fraction(load, dl), Fraction(limits[eid], d)
            bad.append((eid, load, limit))
            messages.append(f"edge {eid} overloaded: {load} > {limit}")
    return DualVerdict(not messages, tuple(bad), tuple(messages))


class CsVerdict(NamedTuple):
    z_implies_tight_x: bool
    trees_tight: bool
    x_implies_tight_load: bool
    witnesses: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.z_implies_tight_x and self.trees_tight and self.x_implies_tight_load


def check_complementary_slackness(g: Graph, x, dual: DualSolution) -> CsVerdict:
    """The three tightness conditions certifying joint optimality:
    (1) z_e > 0 only with x_e = 1; (2) every support tree's x-weight equals
    k - h; (3) x_e > 0 only with load(e) = c_e + z_e.  All exact: x, the
    loads and c + z are each compared as ints over a denominator of their
    own."""
    if dual.packing is None:
        raise ValueError("complementary slackness needs an explicit packing")
    x, dx = _scaled(x)
    z, limits, d = _scaled_limits(g, dual.z)
    witnesses = []
    cond1 = True
    for eid in range(g.m):
        if z[eid] > 0 and x[eid] != dx:
            cond1 = False
            witnesses.append(f"z>0 but x<1 on edge {eid}")
    cond2 = True
    target = dual.k - dual.h
    for tree in dual.packing.support():
        s = sum([x[eid] for eid in tree])
        if s != target * dx:
            cond2 = False
            witnesses.append(f"support tree {tree} has x-weight {Fraction(s, dx)} != {target}")
    cond3 = True
    loads, dl = dual.packing.scaled_loads()
    for eid in range(g.m):
        if x[eid] > 0:
            load = loads.get(eid, 0)
            if load * d != limits[eid] * dl:
                cond3 = False
                witnesses.append(f"x>0 but load {Fraction(load, dl)} not tight on edge {eid}")
    return CsVerdict(cond1, cond2, cond3, tuple(witnesses))
