"""Minimum k-cuts by scanning trees of the dual packing.

Every optimal k-cut crosses some support tree of the exact dual packing at
most 2k-3 times, so enumerating the cuts induced by removing up to 2k-3
edges from each support tree finds them all.  The scan skips every set of
removed edges whose own capacity is above the best cut so far, and keeps
only the cuts at most that best.  Raising the budget to
floor(2*alpha*(k-1)) reaches every alpha-approximate cut.  The rounded LP
solution and the smallest-shores cut bracket the optimum within 2(1-1/n).
"""

from fractions import Fraction

from kcut import (
    enumerate_approx_kcuts,
    lp_primal,
    min_kcut,
    oracle_min_kcut,
    parse_graph,
    principal_sequence,
    ravi_sinha_cut,
    round_lp,
)

C5 = parse_graph("p kcut 5 5\n" + "".join(f"e {i} {i % 5 + 1} 1\n" for i in range(1, 6)))


def show(partition):
    return " | ".join("".join(str(v + 1) for v in part) for part in partition.parts)


def main():
    g = C5
    print("graph: unit 5-cycle")
    psp = principal_sequence(g)
    for k in (2, 3):
        cut, report = min_kcut(psp, k)
        print(f"k = {k}: minimum {k}-cut value {cut.crossing_value} "
              f"(h = {report.h}, {report.candidates_examined} candidates, "
              f"{report.distinct_cuts} cuts kept)")
        print(f"  all {len(report.cuts)} minimizers:")
        for c in report.cuts:
            print(f"    {show(c)}")
        ocut, oall = oracle_min_kcut(g, k)
        print(f"  oracle agrees: value {ocut.crossing_value}, {len(oall)} minimizers")
        print()

    report = enumerate_approx_kcuts(psp, 2, Fraction(3, 2))
    print(f"cuts within 3/2 of the minimum 2-cut (threshold {report.threshold}):")
    for c in report.cuts:
        print(f"  value {c.crossing_value}: {show(c)}")
    print()

    for k in (2, 4):
        primal = lp_primal(psp, k)
        rounded = round_lp(psp, primal)
        shores = ravi_sinha_cut(psp, k)
        bound = 2 * (1 - Fraction(1, g.n)) * primal.objective
        print(f"k = {k}: LP value {primal.objective}, bound 2(1-1/n)*LP = {bound}")
        print(f"  rounded LP cut:     value {rounded.cut.crossing_value}  ({show(rounded.cut)})")
        print(f"  smallest shores:    value {shores.crossing_value}  ({show(shores)})")


if __name__ == "__main__":
    main()
