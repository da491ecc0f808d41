"""The certificate layer in exact ``Fraction`` arithmetic: the reference for
the integer-scaled checks in ``kcut.lp``, ``kcut.cuts`` and
``kcut.packing.TreePacking``.

Each function is the rational version as it stood before those checks
moved onto integer-scaled vectors, copied unchanged except that the two
``TreePacking`` members are module functions here (``packing_loads`` and
``packing_total_value``), which the call sites read, and that ``lp_dual``
and ``round_lp`` take the principal sequence, as the library's do, with
``lp_dual`` reading its positive part.
``tests/test_certificate_parity.py`` checks that the library's versions
return the same verdicts, values and witness strings.
"""

from fractions import Fraction

from kcut.cuts import RespectStats, RoundResult, _capped_cheapest
from kcut.graph import (
    Graph,
    check_k,
    component_blocks,
    components,
    contract_partition,
)
from kcut.lp import (
    CsVerdict,
    DualSolution,
    DualVerdict,
    PrimalSolution,
    PrimalVerdict,
)
from kcut.packing import TreePacking, min_spanning_forest
from kcut.strength import PrincipalSequence


def packing_total_value(packing) -> Fraction:
    return sum(packing.weights, Fraction(0))


def packing_loads(packing) -> dict[int, Fraction]:
    out = {eid: Fraction(0) for eid in packing.caps}
    for tree, w in zip(packing.trees, packing.weights):
        for eid in tree:
            out[eid] += w
    return out


def _cbar(g: Graph, edge_ids) -> Fraction:
    return sum((g.edges[i].cap for i in edge_ids), Fraction(0))


def lp_primal(psp: PrincipalSequence, k: int) -> PrimalSolution:
    """Optimal primal vector: 1 on A_{j-1}, alpha on B_j, 0 elsewhere.

    The one reader of the PSP level for k.  Nothing here divides by a
    lambda, so a component of strength 0 is allowed."""
    g = psp.graph
    check_k(g, k)
    if k <= psp.kappa0():
        return PrimalSolution(k, (Fraction(0),) * g.m, 0, Fraction(0), Fraction(0))
    j = psp.level_for_k(k)
    level = psp.levels[j - 1]
    kappa_prev = psp.kappa_at(j - 1)
    a_prev = psp.a_edges_at(j - 1)
    alpha = Fraction(k - kappa_prev, level.kappa - kappa_prev)
    x = [Fraction(0)] * g.m
    for eid in a_prev:
        x[eid] = Fraction(1)
    for eid in level.b_edges:
        x[eid] = alpha
    objective = _cbar(g, a_prev) + (k - kappa_prev) * level.lam
    got = sum((g.edges[i].cap * x[i] for i in range(g.m)), Fraction(0))
    if got != objective:
        raise AssertionError("primal objective mismatch")
    return PrimalSolution(k, tuple(x), j, alpha, objective)


def lagrangean_value(psp: PrincipalSequence, k: int):
    """max over b >= 0 of g(b) + b(k-1), where g(b) is the minimum over
    partitions P of c(delta(P)) - b(|P| - 1), and the b attaining it.

    g is concave and piecewise linear, and the partitions of the principal
    sequence are its minimizers, so the maximum is taken over b = 0 (value
    0) and the breakpoints b = lambda_i, at each of which P_i minimizes.
    The first maximum sits at b = lambda_j and equals the LP optimum."""
    g = psp.graph
    check_k(g, k)
    value, b = Fraction(0), Fraction(0)
    cut = Fraction(0)  # c(delta(P_i)): the B_l with l <= i
    for level in psp.levels:
        cut += _cbar(g, level.b_edges)
        at = cut - level.lam * (level.kappa - 1) + level.lam * (k - 1)
        if at > value:
            value, b = at, level.lam
    return value, b


def _check_positive_strength(psp: PrincipalSequence) -> None:
    """A guard: the positive part that ``lp_dual`` reads has no lambda = 0
    level, so none of its lambdas is a divisor of 0."""
    if psp.levels and psp.levels[0].lam <= 0:
        raise ValueError(
            "k-cut LP closed forms require every cut to have positive "
            "capacity (minimum component strength is 0)"
        )


def lp_dual(psp: PrincipalSequence, k: int) -> DualSolution:
    """Optimal dual without its packing: closed-form z and lambda_j, the
    value of an optimal packing in c+z (enough for objective and
    feasibility checks), read off the sequence's positive part.
    ``dual_packing(g, lp_dual(psp, k))`` adds the explicit packing that
    complementary slackness and cut enumeration need.  Its level index
    counts the input's levels, lambda = 0 included."""
    g = psp.graph
    lag, lam_j = lagrangean_value(psp.positive(), k)
    j = psp.level_for_k(k)
    psp = psp.positive()
    h = psp.kappa0()
    if k <= h:
        return DualSolution(k, (Fraction(0),) * g.m, Fraction(0), j, Fraction(0), h, None)
    _check_positive_strength(psp)
    # lambda strictly increases along the sequence: the levels below
    # lambda_j are the ones z raises.
    below = [level for level in psp.levels if level.lam < lam_j]
    z = [Fraction(0)] * g.m
    for level in below:
        ratio = lam_j / level.lam - 1
        for eid in level.b_edges:
            z[eid] = ratio * g.edges[eid].cap
    objective = (k - h) * lam_j - sum(z, Fraction(0))
    if objective != lag:
        raise AssertionError("dual objective mismatch")
    return DualSolution(k, tuple(z), lam_j, j, objective, h, None)


def verify_primal(g: Graph, x, k: int) -> PrimalVerdict:
    """Check 0 <= x <= 1 and that every maximal forest carries weight at
    least k - h, by pricing a minimum spanning forest under x (exact)."""
    x = [Fraction(v) for v in x]
    if len(x) != g.m:
        raise ValueError("x length mismatch")
    bounds_ok = all(0 <= v <= 1 for v in x)
    h = len(component_blocks(g))
    required = Fraction(max(k - h, 0))
    if g.m == 0:
        return PrimalVerdict(required == 0, bounds_ok, None, required, None)
    forest = min_spanning_forest(g, x)
    weight = sum((x[i] for i in forest), Fraction(0))
    feasible = weight >= required
    return PrimalVerdict(
        feasible, bounds_ok, weight, required, None if feasible else forest
    )


def verify_dual(g: Graph, dual: DualSolution) -> DualVerdict:
    """Exact feasibility of an explicit dual: loads <= c + z, y >= 0, z >= 0."""
    if dual.packing is None:
        raise ValueError("verify_dual needs an explicit packing")
    messages = []
    for eid in range(g.m):
        if dual.z[eid] < 0:
            messages.append(f"negative z on edge {eid}")
    for tree, w in zip(dual.packing.trees, dual.packing.weights):
        if w < 0:
            messages.append(f"negative weight on tree {tree}")
    bad = []
    loads = packing_loads(dual.packing)
    for eid in range(g.m):
        load = loads.get(eid, Fraction(0))
        limit = g.edges[eid].cap + dual.z[eid]
        if load > limit:
            bad.append((eid, load, limit))
            messages.append(f"edge {eid} overloaded: {load} > {limit}")
    return DualVerdict(not messages, tuple(bad), tuple(messages))


def check_complementary_slackness(g: Graph, x, dual: DualSolution) -> CsVerdict:
    """The three tightness conditions certifying joint optimality:
    (1) z_e > 0 only with x_e = 1; (2) every support tree's x-weight equals
    k - h; (3) x_e > 0 only with load(e) = c_e + z_e.  All exact."""
    if dual.packing is None:
        raise ValueError("complementary slackness needs an explicit packing")
    x = [Fraction(v) for v in x]
    witnesses = []
    cond1 = True
    for eid in range(g.m):
        if dual.z[eid] > 0 and x[eid] != 1:
            cond1 = False
            witnesses.append(f"z>0 but x<1 on edge {eid}")
    cond2 = True
    target = Fraction(dual.k - dual.h)
    for tree, w in zip(dual.packing.trees, dual.packing.weights):
        if w > 0:
            s = sum((x[eid] for eid in tree), Fraction(0))
            if s != target:
                cond2 = False
                witnesses.append(f"support tree {tree} has x-weight {s} != {target}")
    cond3 = True
    loads = packing_loads(dual.packing)
    for eid in range(g.m):
        if x[eid] > 0:
            load = loads.get(eid, Fraction(0))
            if load != g.edges[eid].cap + dual.z[eid]:
                cond3 = False
                witnesses.append(f"x>0 but load {load} not tight on edge {eid}")
    return CsVerdict(cond1, cond2, cond3, tuple(witnesses))


def respect_stats(packing: TreePacking, cut_edges, h: int) -> RespectStats:
    """Exact crossing counts and weight fractions of a packing against a cut."""
    if not packing.trees:
        raise ValueError("empty packing")
    cut = frozenset(cut_edges)
    crossings = tuple(len(cut.intersection(t)) for t in packing.trees)
    total = packing_total_value(packing)
    hit = sum(
        (w for ell, w in zip(crossings, packing.weights) if ell <= h), Fraction(0)
    )
    return RespectStats(h, cut, crossings, hit / total)


def round_lp(psp: PrincipalSequence, primal: PrimalSolution) -> RoundResult:
    """Round an optimal fractional vector to a k-cut within twice (1 - 1/n)
    of its objective: contract x=0 edges, keep x=1 edges, and isolate the
    cheapest capacitated-degree vertices of the fractional residual, at most
    size-1 of them per residual component so each pick adds a part."""
    g = psp.graph
    x = [Fraction(v) for v in primal.x]
    if any(v < 0 or v > 1 for v in x):
        raise ValueError("x must lie in [0, 1]")
    k = primal.k
    zero_blocks = component_blocks(g, exclude_edges=[i for i in range(g.m) if x[i] > 0])
    gc, block_map, kept = contract_partition(g, zero_blocks)
    frac = [j for j, eid in enumerate(kept) if 0 < x[eid] < 1]
    ones = [eid for eid in kept if x[eid] == 1]

    objective = sum((g.edges[i].cap * x[i] for i in range(g.m)), Fraction(0))
    lp_value, _ = lagrangean_value(psp, k)
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
    return RoundResult(components(g, exclude_edges=cutset), certified, bound)
