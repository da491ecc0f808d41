import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcut.oracle as oracle_mod
from kcut import (
    Edge,
    Graph,
    OracleLimitError,
    OracleLimits,
    enum_partitions,
    min_kcut,
    oracle_lp_value,
    oracle_min_kcut,
    oracle_strength,
    oracle_treepack,
    principal_sequence,
    spanning_forests,
    strength,
)
from kcut.graph import component_blocks
from kcut.oracle import MAX_TIES, ForestLP, partition_sort_key, partition_table
from kcut.simplex import solve_lp

from conftest import _random_connected, full_suite
from test_cuts import bell_number

F = Fraction
BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877}


@pytest.mark.parametrize("n,count", [(1, 1), (3, 5), (4, 15)])
def test_enum_partition_counts(n, count):
    g = Graph(n, ())
    assert sum(1 for _ in enum_partitions(g)) == count


def test_enum_partitions_unique(c5):
    seen = {p.parts for p in enum_partitions(c5)}
    assert len(seen) == BELL[5]


def test_enum_limit():
    g = Graph(13, ())
    with pytest.raises(OracleLimitError):
        list(enum_partitions(g))


def test_oracle_strength_fixtures(tt, c5, k4):
    s, p = oracle_strength(tt)
    assert s == 1 and p.parts == ((0, 1, 2), (3, 4, 5))
    s, p = oracle_strength(c5)
    assert s == F(5, 4) and p.part_count == 5
    s, p = oracle_strength(k4)
    assert s == 2 and p.part_count == 4


def test_oracle_min_kcut_fixtures(tt, c5):
    cut, argmins = oracle_min_kcut(tt, 2)
    assert cut.crossing_value == 1 and len(argmins) == 1
    assert argmins[0].parts == ((0, 1, 2), (3, 4, 5))
    cut, _ = oracle_min_kcut(tt, 4)
    assert cut.crossing_value == 4
    cut, argmins = oracle_min_kcut(c5, 3)
    assert cut.crossing_value == 3 and len(argmins) == 10


def test_oracle_treepack_fixtures(e1, c5, k4, tt):
    assert oracle_treepack(e1) == 5
    assert oracle_treepack(c5) == F(5, 4)
    assert oracle_treepack(k4) == 2
    assert oracle_treepack(tt) == 1


def test_oracle_lp_fixtures(tt, c5, k4):
    assert [oracle_lp_value(c5, k) for k in range(2, 6)] == [F(5, 4), F(5, 2), F(15, 4), 5]
    assert [oracle_lp_value(tt, k) for k in range(2, 7)] == [1, F(5, 2), 4, F(11, 2), 7]
    assert oracle_lp_value(k4, 3) == 4


def test_spanning_forest_counts(c5, k4, tt):
    assert len(spanning_forests(c5)) == 5
    assert len(spanning_forests(k4)) == 16
    assert len(spanning_forests(tt)) == 9  # 3 * 3 through the forced bridge


def test_spanning_forests_are_maximal(tt):
    for f in spanning_forests(tt):
        assert len(f) == tt.n - 1


def test_spanning_forest_limit(k4):
    with pytest.raises(OracleLimitError):
        spanning_forests(k4, limit=10)


def _random_multigraph(rng):
    """Up to 7 vertices and 12 edges: parallels, zero capacities, isolated
    vertices and several components all occur."""
    n = rng.randint(1, 7)
    edges = []
    for _ in range(rng.randint(0, 12)):
        u, v = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if u != v:
            edges.append(Edge(u, v, F(rng.randint(0, 3))))
    return Graph(n, tuple(edges))


def _is_forest(g, eids):
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for eid in eids:
        ru, rv = find(g.edges[eid].u), find(g.edges[eid].v)
        if ru == rv:
            return False
        parent[rv] = ru
    return True


def test_forest_count_and_order_on_random_multigraphs():
    """The matrix-tree count equals the enumeration's length, and the
    enumeration lists every (n - h)-edge forest once, in the lexicographic
    order of ``combinations``."""
    rng = random.Random(5)
    for _ in range(300):
        g = _random_multigraph(rng)
        blocks = component_blocks(g)
        target = g.n - len(blocks)
        forests = spanning_forests(g)
        assert forests == [f for f in combinations(range(g.m), target) if _is_forest(g, f)]
        assert oracle_mod._forest_count(g, blocks) == len(forests)


def test_forest_limit_refuses_by_count_without_enumerating(monkeypatch, k4):
    """Past the limit only the count runs; at the limit the forests are
    enumerated.  K4 has 16 spanning trees among C(6, 3) = 20 triples."""

    def refuse(g, target):
        raise AssertionError("forests enumerated")

    monkeypatch.setattr(oracle_mod, "_forests", refuse)
    with pytest.raises(OracleLimitError, match="more than 15 spanning forests"):
        spanning_forests(k4, limit=15)
    g = _random_connected(random.Random(10), 10, 15)
    with pytest.raises(OracleLimitError, match="more than 20000 spanning forests"):
        spanning_forests(g, OracleLimits().max_spanning_trees)
    monkeypatch.undo()
    assert len(spanning_forests(k4, limit=16)) == 16


def test_tutte_nash_williams_on_suite():
    for name, g in full_suite():
        if g.n > 7 or g.m == 0:
            continue
        assert oracle_treepack(g) == oracle_strength(g)[0], name


def test_treepack_vs_mincut_bound():
    # packing value is at least n/(2(n-1)) times the global mincut, exactly
    for name, g in full_suite()[:25]:
        if g.n < 2:
            continue
        tp = oracle_treepack(g)
        cut, _ = oracle_min_kcut(g, 2)
        assert tp >= F(g.n, 2 * (g.n - 1)) * cut.crossing_value, name


def test_monotone_in_k_and_sandwich():
    for name, g in full_suite()[:20]:
        prev_cut = prev_lp = None
        for k in range(2, g.n + 1):
            cut, _ = oracle_min_kcut(g, k)
            lp = oracle_lp_value(g, k)
            if prev_cut is not None:
                assert cut.crossing_value >= prev_cut and lp >= prev_lp, name
            assert lp <= cut.crossing_value <= 2 * (1 - F(1, g.n)) * lp, name
            prev_cut, prev_lp = cut.crossing_value, lp


def test_oracle_attack_matches_definition(tt):
    v, coarse, fine = partition_table(tt).attack(F(1))
    assert v == 0 and coarse.part_count == 1 and fine.parts == ((0, 1, 2), (3, 4, 5))


def test_strength_tiebreak_prefers_more_parts(p3):
    # {1|23}, {12|3} and {1|2|3} all attain strength 1 on the unit path
    s, p = oracle_strength(p3)
    assert s == 1 and p.part_count == 3
    assert strength(p3) == (s, p)


@st.composite
def _small_multigraphs(draw):
    """n <= 7 with rational and zero capacities and parallel edges; about
    half get a spanning path first, the rest are often disconnected."""
    n = draw(st.integers(1, 7))
    cap = st.sampled_from([F(0), F(1, 2), F(1), F(3, 2), F(2, 3), F(3)])
    edges = []
    if n > 1 and draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        edges += [(min(u, v), max(u, v), draw(cap)) for u, v in zip(order, order[1:])]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges += [(u, v, draw(cap)) for u, v in draw(st.lists(st.sampled_from(pairs), max_size=8))]
    return Graph(n, tuple(Edge(*e) for e in edges))


def _scan_min_kcut(parts, k):
    wide = [p for p in parts if p.part_count >= k]
    least = min(p.crossing_value for p in wide)
    return sorted((p for p in wide if p.crossing_value == least), key=partition_sort_key)


def _scan_strength(parts):
    def ratio(p):
        return p.crossing_value / (p.part_count - 1)

    multi = [p for p in parts if p.part_count >= 2]
    sigma = min(map(ratio, multi))
    return sigma, min((p for p in multi if ratio(p) == sigma), key=partition_sort_key)


def _scan_attack(parts, b):
    def value(p):
        return p.crossing_value - b * (p.part_count - 1)

    least = min(map(value, parts))
    tied = [p for p in parts if value(p) == least]
    # min and max return the first extreme element, in enumeration order
    return (
        least,
        min(tied, key=lambda p: p.part_count),
        max(tied, key=lambda p: p.part_count),
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_small_multigraphs())
def test_partition_table_matches_partition_scan(g):
    parts = list(enum_partitions(g))
    table = partition_table(g)
    for k in range(2, g.n + 1):
        cut, argmins = table.min_kcut(k)
        expected = _scan_min_kcut(parts, k)
        assert argmins == tuple(expected), k
        assert cut == expected[0]
    if g.n >= 2 and g.is_connected():
        assert table.strength() == _scan_strength(parts)
    lams = [level.lam for level in principal_sequence(g).levels]
    for b in {F(0)} | {lam + d for lam in lams for d in (F(-1, 7), F(0), F(1, 7))}:
        assert table.attack(b) == _scan_attack(parts, b), b


def test_partition_table_limit():
    with pytest.raises(OracleLimitError, match="n=13 exceeds max_n_partitions=12"):
        partition_table(Graph(13, ()))
    with pytest.raises(OracleLimitError):
        oracle_min_kcut(Graph(4, ()), 2, OracleLimits(max_n_partitions=3))


def test_tie_budget_admits_every_partition_of_ten_vertices():
    assert bell_number(10) == 115_975 <= MAX_TIES < bell_number(11)


def test_partition_table_parity_at_n12():
    g = _random_connected(random.Random(12), 12, 20)
    table = partition_table(g)
    for k in (2, 3):
        ocut, oall = table.min_kcut(k)
        cut, report = min_kcut(principal_sequence(g), k)
        assert cut.crossing_value == ocut.crossing_value, k
        assert {c.parts for c in report.cuts} == {p.parts for p in oall}, k


def test_oracle_strength_at_n11():
    g = _random_connected(random.Random(11), 11, 17)
    assert oracle_strength(g) == strength(g)


def _cold_forest_lps(g):
    """The forest LPs solved from the slack basis, one ``solve_lp`` each, on
    the column layout of the one-shot oracle: the packing value and the LP
    value of every k, y per forest, then z per edge, right-hand side k - h."""
    forests = spanning_forests(g)
    h = len(component_blocks(g))
    loads = [[1 if eid in f else 0 for f in forests] for eid in range(g.m)]
    caps = [e.cap for e in g.edges]
    treepack = solve_lp([1] * len(forests), loads, caps).value
    values = {}
    for k in range(2, g.n + 1):
        if k <= h:
            values[k] = F(0)
            continue
        obj = [k - h] * len(forests) + [-1] * g.m
        rows = [load + [-1 if e == eid else 0 for e in range(g.m)] for eid, load in enumerate(loads)]
        values[k] = solve_lp(obj, rows, caps).value
    return treepack, values


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_small_multigraphs().filter(lambda g: 2 <= g.n <= 6 and g.m > 0), st.randoms(use_true_random=False))
def test_forest_lp_matches_cold_solves(g, rnd):
    """One warm tableau per graph gives the values of the cold solves, with
    the k asked in ascending and in shuffled order."""
    treepack, values = _cold_forest_lps(g)
    ks = sorted(values)
    shuffled = ks[:]
    rnd.shuffle(shuffled)
    for order in (ks, shuffled):
        lp = ForestLP(g)
        assert [lp.lp_value(k) for k in order] == [values[k] for k in order], order
        assert lp.treepack() == treepack
        # asked again, after every other k, the warm tableau gives the same values
        assert [lp.lp_value(k) for k in reversed(order)] == [values[k] for k in reversed(order)]
    assert oracle_treepack(g) == treepack
    assert [oracle_lp_value(g, k) for k in ks] == [values[k] for k in ks]


def test_forest_lp_checks_k_before_enumerating(monkeypatch):
    """k is range-checked first, and k <= h answers 0 without enumerating, so
    a disconnected graph never reaches the forest limit there."""

    def refuse(g, limit=None):
        raise AssertionError("spanning_forests called")

    monkeypatch.setattr(oracle_mod, "spanning_forests", refuse)
    g = Graph(4, (Edge(0, 1, F(1)),))
    with pytest.raises(ValueError, match="k=5 out of range 2..4"):
        ForestLP(g).lp_value(5)
    assert [ForestLP(g).lp_value(k) for k in (2, 3)] == [0, 0]
    assert oracle_lp_value(g, 3, OracleLimits(max_spanning_trees=0)) == 0
    with pytest.raises(ValueError, match="edgeless"):
        oracle_treepack(Graph(3, ()))


@pytest.mark.parametrize("field", ["max_n_partitions", "max_spanning_trees"])
def test_negative_oracle_limits_rejected(field):
    with pytest.raises(ValueError, match=f"{field} must be >= 0, got -1"):
        OracleLimits(**{field: -1})
    assert getattr(OracleLimits(**{field: 0}), field) == 0
