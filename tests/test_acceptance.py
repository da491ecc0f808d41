"""Acceptance criteria, one test per criterion, exact tolerances.

Every check is an exact rational identity or inequality; runtime budgets are
asserted where stated.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see the per-criterion pass lines.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from kcut import (
    PackConfig,
    breakpoints,
    check_complementary_slackness,
    dual_packing,
    enum_partitions,
    enumerate_approx_kcuts,
    exact_pack,
    global_mincut,
    lagrangean_value,
    lp_dual,
    lp_primal,
    min_kcut,
    mwu_pack,
    oracle_lp_value,
    oracle_min_kcut,
    oracle_treepack,
    parse_graph,
    principal_sequence,
    ravi_sinha_cut,
    respect_stats,
    round_lp,
    strength,
    verify_dual,
    verify_primal,
)
from kcut.cli import _packing_json
from kcut.cuts import dual_respect_bound
from kcut.oracle import partition_table

from conftest import TT_TEXT, edge_ids_of_partition, full_suite

F = Fraction

_DUAL_CACHE = {}


def explicit_dual(name, g, k):
    key = (name, k)
    if key not in _DUAL_CACHE:
        _DUAL_CACHE[key] = dual_packing(g, lp_dual(principal_sequence(g), k))
    return _DUAL_CACHE[key]


@contextmanager
def criterion(num, label, budget_s=None):
    start = time.monotonic()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.monotonic() - start
        print(f"ACCEPTANCE {num:02d} {label}: {status} ({elapsed:.1f}s)")
    if budget_s is not None:
        assert elapsed <= budget_s, f"criterion {num} exceeded {budget_s}s budget"


def test_criterion_01_treepack_minmax_equality():
    with criterion(1, "tree-packing minmax equality", 60):
        for name, g in full_suite():
            sigma, _ = strength(g)
            packed = exact_pack(principal_sequence(g)).total_value
            brute = oracle_treepack(g)
            assert sigma == packed == brute, name


def test_criterion_02_psp_correctness():
    with criterion(2, "principal sequence correctness", 60):
        tt = parse_graph(TT_TEXT)
        psp_tt = principal_sequence(tt)
        assert psp_tt.lambdas() == (F(1), F(3, 2))
        assert psp_tt.kappas() == (2, 6)
        for name, g in full_suite():
            psp = principal_sequence(g)
            bps = breakpoints(psp)
            assert psp.lambdas() == tuple(bp.b for bp in bps), name
            for level, bp in zip(psp.levels, bps):
                assert level.partition == bp.after, name
            for level in psp.levels:
                for b in (level.lam - F(1, 7), level.lam, level.lam + F(1, 7)):
                    if b < 0:
                        continue
                    brute, _, fine = partition_table(g).attack(b)
                    line = level.partition.crossing_value - b * (level.kappa - 1)
                    assert line >= brute, name
                    if b == level.lam:
                        assert line == brute, name
                        assert fine == level.partition, name


def test_criterion_03_lp_triple_equality(tt, c5, k4):
    with criterion(3, "LP primal = dual = Lagrangean (= oracle)", 120):
        assert lp_primal(principal_sequence(tt), 3).objective == F(5, 2)
        assert lp_primal(principal_sequence(c5), 2).objective == F(5, 4)
        assert lp_primal(principal_sequence(k4), 3).objective == F(4)
        for name, g in full_suite():
            psp = principal_sequence(g)
            for k in range(2, g.n + 1):
                primal = lp_primal(psp, k)
                dual = lp_dual(psp, k)
                lag, _ = lagrangean_value(psp, k)
                assert primal.objective == dual.objective == lag, (name, k)
                if g.n <= 6:
                    assert primal.objective == oracle_lp_value(g, k), (name, k)


def test_criterion_04_certificates():
    with criterion(4, "primal/dual/complementary-slackness certificates"):
        for name, g in full_suite():
            psp = principal_sequence(g)
            for k in range(2, g.n + 1):
                primal = lp_primal(psp, k)
                dual = explicit_dual(name, g, k)
                assert verify_primal(g, primal.x, k).ok, (name, k)
                assert verify_dual(g, dual).ok, (name, k)
                assert check_complementary_slackness(g, primal.x, dual).ok, (name, k)


def test_criterion_05_integrality_gap(c5, k4):
    with criterion(5, "integrality gap at most 2(1-1/n), tight on C5 and K4"):
        ratio_c5 = oracle_min_kcut(c5, 2)[0].crossing_value / lp_primal(
            principal_sequence(c5), 2
        ).objective
        assert ratio_c5 == F(8, 5) == 2 * (1 - F(1, 5))
        ratio_k4 = oracle_min_kcut(k4, 2)[0].crossing_value / lp_primal(
            principal_sequence(k4), 2
        ).objective
        assert ratio_k4 == F(3, 2) == 2 * (1 - F(1, 4))
        for name, g in full_suite():
            psp = principal_sequence(g)
            for k in range(2, g.n + 1):
                cut, _ = oracle_min_kcut(g, k)
                lp = lp_primal(psp, k).objective
                assert cut.crossing_value <= 2 * (1 - F(1, g.n)) * lp, (name, k)


def test_criterion_06_rounding_and_smallest_shores():
    with criterion(6, "LP rounding and smallest-shores cuts within 2(1-1/n)"):
        for name, g in full_suite():
            psp = principal_sequence(g)
            for k in range(2, g.n + 1):
                primal = lp_primal(psp, k)
                bound = 2 * (1 - F(1, g.n)) * primal.objective
                rounded = round_lp(psp, primal)
                assert rounded.certified, (name, k)
                assert rounded.cut.part_count >= k, (name, k)
                assert rounded.cut.crossing_value <= bound, (name, k)
                rs = ravi_sinha_cut(psp, k)
                assert rs.part_count >= k, (name, k)
                assert rs.crossing_value <= bound, (name, k)


def test_criterion_07_min_kcut_optimality_and_enumeration():
    with criterion(7, "k-cut optimality, full enumeration, respect witnesses", 600):
        for name, g in full_suite():
            psp = principal_sequence(g)
            for k in range(2, min(g.n, 5) + 1):
                cut, report = min_kcut(psp, k)
                ocut, oall = oracle_min_kcut(g, k)
                assert cut.crossing_value == ocut.crossing_value, (name, k)
                assert {c.parts for c in report.cuts} == {
                    p.parts for p in oall
                }, (name, k)
                approx_cut, _ = min_kcut(psp, k, eps=F(1, 2 * k))
                assert approx_cut.crossing_value == ocut.crossing_value, (name, k)
                # every oracle-optimal k-cut crosses a support tree <= 2k-3 times
                dual = explicit_dual(name, g, k)
                h = max(2 * k - 3, 1)
                for p in oall:
                    cut_edges = set(edge_ids_of_partition(g, p))
                    assert any(
                        len(cut_edges.intersection(t)) <= h
                        for t in dual.packing.trees
                    ), (name, k)


def test_criterion_08_mincut_and_respect_fractions():
    with criterion(8, "global mincut and respect-fraction bounds"):
        for name, g in full_suite():
            cut, argmins = oracle_min_kcut(g, 2)
            assert global_mincut(g).crossing_value == cut.crossing_value, name
            packing = exact_pack(principal_sequence(g))
            for p in argmins:
                stats = respect_stats(packing, edge_ids_of_partition(g, p), 2)
                assert stats.q_h >= F(1, 2) + F(1, g.n), name
            for k in range(2, min(g.n, 5) + 1):
                dual = explicit_dual(name, g, k)
                if dual.packing is None or not dual.packing.trees:
                    continue
                _, oall = oracle_min_kcut(g, k)
                for h in range(k - 1, 2 * k):
                    bound = dual_respect_bound(1, k, h, g.n)
                    for p in oall:
                        stats = respect_stats(
                            dual.packing, edge_ids_of_partition(g, p), h
                        )
                        assert stats.q_h >= bound, (name, k, h)


def test_criterion_09_approximate_cut_completeness():
    with criterion(9, "alpha-approximate cut enumeration is complete"):
        for name, g in full_suite():
            for k in (2, 3):
                if k > g.n:
                    continue
                lam_k = oracle_min_kcut(g, k)[0].crossing_value
                for alpha in (F(1), F(4, 3), F(3, 2)):
                    report = enumerate_approx_kcuts(principal_sequence(g), k, alpha)
                    threshold = alpha * lam_k
                    assert report.threshold == threshold, (name, k, alpha)
                    expected = {
                        p.parts
                        for p in enum_partitions(g)
                        if p.part_count >= k and p.crossing_value <= threshold
                    }
                    got = {c.parts for c in report.cuts}
                    assert got == expected, (name, k, alpha)


def test_criterion_10_mwu_contract_and_determinism():
    with criterion(10, "MWU (1-eps) contract, bitwise-deterministic output"):
        for name, g in full_suite():
            sigma, _ = strength(g)
            for eps in (F(1, 5), F(1, 10), F(1, 20)):
                packing = mwu_pack(g, config=PackConfig(epsilon=eps))
                assert packing.total_value >= (1 - eps) * sigma, (name, eps)
        # repeated runs on freshly parsed graphs serialize identically
        text = TT_TEXT
        blobs = []
        for _ in range(2):
            g = parse_graph(text)
            packing = mwu_pack(g, config=PackConfig(epsilon=F(1, 10)))
            blobs.append(json.dumps(_packing_json(packing)).encode())
        assert blobs[0] == blobs[1]
