import hashlib
import json
import random

import kcut.lp as lp_mod
import kcut.oracle as oracle_mod
import kcut.packing as packing_mod
from kcut.oracle import OracleLimits
from kcut.verify import run_verification

from conftest import _random_connected


def _count_certified_packs(monkeypatch):
    """Count the certified exact_pack column generations; the uncertified
    ones inside saturating_pack (the psp-ideal-packing row) are left out."""
    calls = []
    real = packing_mod.exact_pack

    def counting(g, caps=None, certify=True):
        if certify:
            calls.append(caps)
        return real(g, caps, certify)

    monkeypatch.setattr(packing_mod, "exact_pack", counting)
    monkeypatch.setattr(lp_mod, "exact_pack", counting)
    return calls


def test_verify_solves_one_dual_per_k(tt, monkeypatch):
    calls = _count_certified_packs(monkeypatch)
    rows = run_verification(tt, ks=[2, 3])
    assert all(r.status == "pass" for r in rows)
    assert len(calls) == 2
    calls.clear()
    rows = run_verification(tt)
    assert all(r.status == "pass" for r in rows)
    assert len(calls) == 5  # k = 2..5 from min_kcut, k = 6 = n from lp_dual


def test_verify_rows_pin():
    # SHA-256 of the rows recorded before the partition table replaced the
    # per-k partition scans; every row, oracle rows included, is unchanged.
    g = _random_connected(random.Random(8), 8, 10)
    blob = json.dumps([r.to_json() for r in run_verification(g)], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "44ab824dc1f7ad6c27a9e7c912bd9bc04f8af8e52e81ea99f58a24d602580aae"
    )


def test_verify_enumerates_forests_once_past_the_limit(tt, monkeypatch):
    calls = []
    real = oracle_mod.spanning_forests

    def counting(g, limit=None):
        calls.append(limit)
        return real(g, limit)

    monkeypatch.setattr(oracle_mod, "spanning_forests", counting)
    rows = run_verification(tt, limits=OracleLimits(max_spanning_trees=3))
    assert calls == [3]
    forest_rows = [r for r in rows if r.name.startswith(("oracle-treepack", "oracle-lp-value"))]
    assert len(forest_rows) == 1 + (tt.n - 1)
    assert {(r.status, r.detail) for r in forest_rows} == {("skip", "more than 3 spanning forests")}
    assert all(r.status == "pass" for r in rows if r not in forest_rows)


def test_verify_skips_partition_rows_past_the_limit(tt):
    rows = run_verification(tt, limits=OracleLimits(max_n_partitions=5))
    skipped = [r for r in rows if r.status == "skip"]
    assert [r.name for r in skipped] == ["oracle-strength"] + [
        f"oracle-min-kcut[k={k}]" for k in range(2, tt.n + 1)
    ]
    assert {r.detail for r in skipped} == {"n=6 exceeds max_n_partitions=5"}
