import random
from fractions import Fraction

import pytest

from kcut import (
    Graph,
    ParseError,
    components,
    enumerate_approx_kcuts,
    global_mincut,
    lagrangean_value,
    lp_dual,
    lp_primal,
    min_kcut,
    oracle_lp_value,
    oracle_min_kcut,
    oracle_strength,
    parse_graph,
    partition_from_blocks,
    principal_sequence,
    ravi_sinha_cut,
    strength,
)
from kcut.graph import contract_partition

from conftest import TT_BRIDGE, full_suite


def test_parse_e1(e1):
    assert (e1.n, e1.m) == (2, 1)
    assert e1.edges[0].cap == 5


def test_parse_c5(c5):
    assert (c5.n, c5.m) == (5, 5)
    assert all(e.cap == 1 for e in c5.edges)


def test_parse_tt(tt):
    assert (tt.n, tt.m) == (6, 7)


def test_parse_comments_and_rationals():
    g = parse_graph("# header comment\np kcut 3 2\ne 1 2 0.5\n# mid comment\ne 2 3 7/3\n")
    assert g.edges[0].cap == Fraction(1, 2)
    assert g.edges[1].cap == Fraction(7, 3)


@pytest.mark.parametrize(
    "text,line",
    [
        ("p cut 2 1\ne 1 2 5\n", 1),  # malformed header
        ("p kcut 2 1\ne 1 3 5\n", 2),  # out-of-range vertex
        ("p kcut 2 1\ne 1 2 -3\n", 2),  # negative capacity
        ("p kcut 2 2\ne 1 2 5\n", 2),  # edge-count mismatch
        ("p kcut 2 1\ne 1 1 5\n", 2),  # self-loop
        ("p kcut 2 1\nq 1 2 5\n", 2),  # unknown record
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert err.value.line_no == line


def test_components(tt, c5, k4):
    p = components(tt, exclude_edges=[TT_BRIDGE])
    assert p.parts == ((0, 1, 2), (3, 4, 5))
    assert components(c5).part_count == 1
    assert components(k4, exclude_edges=range(6)).part_count == 4


def test_cut_of_partition_values(tt, c5, k4):
    assert partition_from_blocks(tt, [[0, 1, 2], [3, 4, 5]]).crossing_value == 1
    assert partition_from_blocks(c5, [[v] for v in range(5)]).crossing_value == 5
    assert partition_from_blocks(k4, [[0], [1, 2, 3]]).crossing_value == 3


def test_one_shot_blocks(tt):
    """Blocks that can be read only once, such as generators, give the same
    partition as lists, and empty blocks are dropped."""
    blocks = ([0, 1, 2], [], [3, 4, 5])

    def once():
        return [iter(b) for b in blocks]

    expected = partition_from_blocks(tt, [[0, 1, 2], [3, 4, 5]])
    assert partition_from_blocks(tt, once()) == expected
    assert contract_partition(tt, once()) == contract_partition(tt, expected.parts)
    assert partition_from_blocks(tt, [iter([0, 1]), iter([2, 3, 4, 5])]).crossing_value == 2


def test_cut_requires_partition(c5):
    with pytest.raises(ValueError):
        partition_from_blocks(c5, [[0, 1], [1, 2, 3, 4]])
    with pytest.raises(ValueError):
        partition_from_blocks(c5, [[0, 1]])


def test_canonicalization_idempotent():
    rng = random.Random(5)
    for name, g in full_suite()[:20]:
        blocks = [[] for _ in range(3)]
        for v in range(g.n):
            blocks[rng.randrange(3)].append(v)
        blocks = [b for b in blocks if b]
        p1 = partition_from_blocks(g, blocks)
        p2 = partition_from_blocks(g, p1.parts)
        assert p1 == p2


def test_crossing_equals_half_boundary_sum():
    for name, g in full_suite()[:20]:
        rng = random.Random(hash(name) & 0xFFFF)
        blocks: dict[int, list[int]] = {}
        for v in range(g.n):
            blocks.setdefault(rng.randrange(1 + g.n // 2), []).append(v)
        p = partition_from_blocks(g, blocks.values())
        total = Fraction(0)
        for part in p.parts:
            inside = set(part)
            for e in g.edges:
                if (e.u in inside) != (e.v in inside):
                    total += e.cap
        assert p.crossing_value == total / 2


K_ENTRY_POINTS = {
    "lp_primal": lambda g, k: lp_primal(principal_sequence(g), k),
    "lagrangean_value": lambda g, k: lagrangean_value(principal_sequence(g), k),
    "lp_dual": lambda g, k: lp_dual(principal_sequence(g), k),
    "ravi_sinha_cut": lambda g, k: ravi_sinha_cut(principal_sequence(g), k),
    "min_kcut-exact": lambda g, k: min_kcut(principal_sequence(g), k),
    "min_kcut-approx": lambda g, k: min_kcut(principal_sequence(g), k, eps=Fraction(1, 2 * k)),
    "enumerate_approx_kcuts": lambda g, k: enumerate_approx_kcuts(principal_sequence(g), k, 1),
    "oracle_min_kcut": lambda g, k: oracle_min_kcut(g, k),
    "oracle_lp_value": lambda g, k: oracle_lp_value(g, k),
}


@pytest.mark.parametrize("k", [1, 6], ids=["k=1", "k=n+1"])
@pytest.mark.parametrize("entry", sorted(K_ENTRY_POINTS))
def test_k_out_of_range_message(c5, entry, k):
    # the CLI prints this text, so every entry point that takes k shares it
    with pytest.raises(ValueError) as exc:
        K_ENTRY_POINTS[entry](c5, k)
    assert str(exc.value) == f"k={k} out of range 2..5"


CONNECTED_ENTRY_POINTS = {
    "strength": (strength, "strength"),
    "oracle_strength": (oracle_strength, "strength"),
    "global_mincut": (global_mincut, "mincut"),
}


@pytest.mark.parametrize(
    "text, message",
    [
        ("p kcut 1 0\n", "{} needs at least two vertices"),
        ("p kcut 3 1\ne 1 2 1\n", "{} is defined for connected graphs"),
    ],
    ids=["n=1", "disconnected"],
)
@pytest.mark.parametrize("entry", sorted(CONNECTED_ENTRY_POINTS))
def test_connected_graph_message(entry, text, message):
    # the CLI prints this text; ``graph.check_connected`` owns it
    fn, what = CONNECTED_ENTRY_POINTS[entry]
    with pytest.raises(ValueError) as exc:
        fn(parse_graph(text))
    assert str(exc.value) == message.format(what)
