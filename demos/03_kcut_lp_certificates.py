"""The k-cut relaxation solved in closed form from the principal sequence,
with a full certificate chain: primal feasibility, dual feasibility, strong
duality, the Lagrangean bound, and the three complementary-slackness
conditions, all in exact rational arithmetic.
"""

from kcut import (
    check_complementary_slackness,
    dual_packing,
    ideal_packing,
    lagrangean_value,
    lp_dual,
    lp_primal,
    oracle_lp_value,
    parse_graph,
    principal_sequence,
    verify_dual,
    verify_primal,
)

TT = parse_graph(
    """
p kcut 6 7
e 1 2 1
e 1 3 1
e 2 3 1
e 4 5 1
e 4 6 1
e 5 6 1
e 3 4 1
"""
)


def main():
    psp = principal_sequence(TT)
    print("graph: two unit triangles joined by a unit bridge (edge 6)")
    print(f"principal sequence: lambdas {psp.lambdas()}, kappas {psp.kappas()}")
    print()

    for k in (2, 3, 4):
        primal = lp_primal(psp, k)
        dual = dual_packing(TT, lp_dual(psp, k))
        lag, b = lagrangean_value(psp, k)
        print(f"k = {k}:")
        print(f"  primal x = {[str(v) for v in primal.x]}")
        print(f"  dual   z = {[str(v) for v in dual.z]}, packing value {dual.total_y}")
        print(
            f"  objectives: primal {primal.objective} = dual {dual.objective}"
            f" = Lagrangean {lag} (maximized at b = {b})"
        )
        print(f"  brute-force LP over enumerated trees: {oracle_lp_value(TT, k)}")
        pv = verify_primal(TT, primal.x, k)
        dv = verify_dual(TT, dual)
        cs = check_complementary_slackness(TT, primal.x, dual)
        print(
            f"  certificates: primal {pv.ok} (cheapest tree weight {pv.min_forest_weight}),"
            f" dual {dv.ok}, complementary slackness "
            f"{[cs.z_implies_tight_x, cs.trees_tight, cs.x_implies_tight_load]}"
        )
        print()

    ip = ideal_packing(principal_sequence(TT))
    print("ideal packing marginals (load = capacity / level lambda):")
    for eid in range(TT.m):
        print(f"  edge {eid}: level {ip.edge_level[eid]}, marginal load {ip.marginal_load(eid)}")


if __name__ == "__main__":
    main()
