"""Fractional spanning-tree packings three ways.

* exact column generation (restricted master + spanning-forest pricing),
* the multiplicative-weights packer with a (1 - eps) guarantee,
* a saturating packing that loads every edge to capacity (exists exactly on
  strength-tight graphs, such as a cycle).

The packing value always equals the strength: the minmax identity that the
exact packer re-certifies on every run.
"""

from fractions import Fraction

from kcut import (
    PackConfig,
    exact_pack,
    mwu_pack,
    oracle_treepack,
    parse_graph,
    principal_sequence,
    saturating_pack,
    strength,
)

C5 = parse_graph("p kcut 5 5\n" + "".join(f"e {i} {i % 5 + 1} 1\n" for i in range(1, 6)))
K4 = parse_graph(
    "p kcut 4 6\n" + "".join(f"e {u} {v} 1\n" for u in range(1, 5) for v in range(u + 1, 5))
)


def main():
    for name, g in [("5-cycle", C5), ("complete graph K4", K4)]:
        sigma, _ = strength(g)
        packing = exact_pack(principal_sequence(g))
        print(f"{name}: strength = {sigma}")
        print(f"  exact packing value = {packing.total_value} with {len(packing.trees)} trees:")
        for tree, w in zip(packing.trees, packing.weights):
            print(f"    weight {str(w):>4} on edges {list(tree)}")
        print(f"  brute-force LP over all spanning trees agrees: {oracle_treepack(g)}")

        for eps in (Fraction(1, 5), Fraction(1, 20)):
            approx = mwu_pack(g, config=PackConfig(epsilon=eps))
            ratio = approx.total_value / packing.total_value
            print(
                f"  multiplicative weights, eps={eps}: value {float(approx.total_value):.6f}"
                f" ({float(ratio):.4f} of optimum, guarantee {float(1-eps):.2f})"
            )

        sat = saturating_pack(g)
        loads = sat.loads()
        print(f"  saturating packing: every edge loaded to capacity? "
              f"{all(loads[e] == c for e, c in sat.caps.items())}")
        print()


if __name__ == "__main__":
    main()
