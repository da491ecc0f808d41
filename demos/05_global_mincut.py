"""Global minimum cut via 2-respecting trees.

Pack trees greedily until the packing exceeds a third of an upper bound on
the mincut; the average tree then crosses any minimum cut fewer than three
times, so scanning those few trees with the O(n^2) two-subtree table is
exhaustive.  A packing within (1 - eps) of the strength names the witness.
"""

from fractions import Fraction

from kcut import (
    PackConfig,
    exact_pack,
    global_mincut,
    min_1respect,
    min_2respect,
    mwu_pack,
    oracle_min_kcut,
    parse_graph,
    principal_sequence,
    respect_stats,
)

WHEEL = parse_graph(
    "p kcut 6 10\n"
    + "".join(f"e {i} {i % 5 + 1} 2\n" for i in range(1, 6))  # rim, capacity 2
    + "".join(f"e 6 {i} 1\n" for i in range(1, 6))  # spokes, capacity 1
)


def show(partition):
    return " | ".join("".join(str(v + 1) for v in part) for part in partition.parts)


def main():
    g = WHEEL
    print("graph: 5-wheel, rim capacity 2, spokes capacity 1")
    cut = global_mincut(g)
    print(f"global mincut value {cut.crossing_value}: {show(cut)}")
    ocut, _ = oracle_min_kcut(g, 2)
    print(f"oracle agrees: {ocut.crossing_value}")
    print()

    packing = mwu_pack(g, config=PackConfig(epsilon=Fraction(1, 6)))
    print(f"approximate packing: value {float(packing.total_value):.4f}, "
          f"{len(packing.trees)} support trees")
    for tree in packing.support()[:3]:
        one = min_1respect(g, tree)
        two = min_2respect(g, tree)
        print(f"  tree {list(tree)}: best 1-respecting {one.crossing_value}, best 2-respecting {two.crossing_value}")
    print()

    exact = exact_pack(principal_sequence(g))
    block = cut.block_of(g.n)
    cut_edges = [i for i, e in enumerate(g.edges) if block[e.u] != block[e.v]]
    stats = respect_stats(exact, cut_edges, 2)
    print(f"fraction of exact packing weight 2-respecting the mincut: {stats.q_h}")
    print(f"(always at least 1/2 + 1/n = {Fraction(1,2) + Fraction(1, g.n)})")


if __name__ == "__main__":
    main()
