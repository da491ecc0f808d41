"""Graph strength, the attack curve, and the principal sequence of partitions.

The running example is two unit triangles joined by a unit bridge.  Its
cheapest structure is the bridge (strength 1); once the bridge is "paid for",
each triangle falls apart at rate 3/2.
"""

from fractions import Fraction

from kcut import attack, breakpoints, parse_graph, principal_sequence, strength

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


def show(partition):
    return " | ".join("".join(str(v + 1) for v in part) for part in partition.parts)


def main():
    sigma, part = strength(TT)
    print(f"strength = {sigma}, attained by {show(part)}")
    print()

    print("attack value g(b) = min over partitions of c(E(P)) - b(|P|-1):")
    psp = principal_sequence(TT)
    # the optimum is unique except at a breakpoint, whose coarsest optimum is its `before`
    before = {bp.b: bp.before for bp in breakpoints(psp)}
    for b in [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2)]:
        res = attack(TT, b)
        print(
            f"  b={str(b):>4}  g(b)={str(res.value):>4}   "
            f"coarsest {show(before.get(b, res.argmin_max_parts)):<17} finest {show(res.argmin_max_parts)}"
        )
    print()

    print("breakpoints of the attack curve (each swaps in a finer optimum):")
    for bp in breakpoints(psp):
        print(f"  b={bp.b}:  {show(bp.before)}  ->  {show(bp.after)}")
    print()

    print("principal sequence of partitions (critical value, partition):")
    print(f"  level 0: components = {show(psp.p0)}")
    for i, level in enumerate(psp.levels, 1):
        print(f"  level {i}: lambda = {level.lam}, P = {show(level.partition)}, kappa = {level.kappa}")
    print()
    print("the level-1 split is the bridge; level 2 shatters both triangles")
    print("simultaneously because they tie at strength 3/2.")


if __name__ == "__main__":
    main()
