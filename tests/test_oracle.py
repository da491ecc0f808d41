from fractions import Fraction

import pytest

from kcut import (
    Graph,
    OracleLimitError,
    OracleLimits,
    enum_partitions,
    oracle_lp_value,
    oracle_min_kcut,
    oracle_strength,
    oracle_treepack,
    spanning_forests,
    strength,
)
from kcut.oracle import oracle_attack_value

from conftest import full_suite

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
    assert cut.value == 1 and len(argmins) == 1
    assert argmins[0].parts == ((0, 1, 2), (3, 4, 5))
    cut, _ = oracle_min_kcut(tt, 4)
    assert cut.value == 4
    cut, argmins = oracle_min_kcut(c5, 3)
    assert cut.value == 3 and len(argmins) == 10


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
        assert tp >= F(g.n, 2 * (g.n - 1)) * cut.value, name


def test_monotone_in_k_and_sandwich():
    for name, g in full_suite()[:20]:
        prev_cut = prev_lp = None
        for k in range(2, g.n + 1):
            cut, _ = oracle_min_kcut(g, k)
            lp = oracle_lp_value(g, k)
            if prev_cut is not None:
                assert cut.value >= prev_cut and lp >= prev_lp, name
            assert lp <= cut.value <= 2 * (1 - F(1, g.n)) * lp, name
            prev_cut, prev_lp = cut.value, lp


def test_oracle_attack_matches_definition(tt):
    v, coarse, fine = oracle_attack_value(tt, F(1))
    assert v == 0 and coarse.part_count == 1 and fine.parts == ((0, 1, 2), (3, 4, 5))


def test_strength_tiebreak_prefers_more_parts(p3):
    # {1|23}, {12|3} and {1|2|3} all attain strength 1 on the unit path
    s, p = oracle_strength(p3)
    assert s == 1 and p.part_count == 3
    assert strength(p3) == (s, p)
