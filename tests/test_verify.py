import ast
import hashlib
import io
import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest

import kcut.lp as lp_mod
import kcut.oracle as oracle_mod
import kcut.verify as verify_mod
from kcut.cli import main
from kcut.graph import component_blocks, parse_graph
from kcut.oracle import OracleLimits
from kcut.strength import principal_sequence
from kcut.verify import run_verification

from conftest import C5_TEXT, K4_TEXT, TT_TEXT, _planted, _random_connected, tableau_of
from test_psp_pin import _text


def _count_certified_packs(monkeypatch):
    """Count ``dual_packing``'s column generations in c+z, patched as
    ``kcut.lp`` binds the kernel; the ones inside saturating_pack (the
    ideal packing's levels) are left out."""
    calls = []
    real = lp_mod._column_generation

    def counting(g, caps=None):
        calls.append(caps)
        return real(g, caps)

    monkeypatch.setattr(lp_mod, "_column_generation", counting)
    return calls


def _count_ideal_packings(monkeypatch):
    calls = []
    real = verify_mod.ideal_packing

    def counting(psp):
        calls.append(psp)
        return real(psp)

    monkeypatch.setattr(verify_mod, "ideal_packing", counting)
    return calls


def test_verify_builds_one_ideal_packing_and_no_dual_column_generation(tt, monkeypatch):
    """The coupled ideal packing, scaled by lambda_j, is the explicit dual
    of every k: verify builds it once per job and runs no column
    generation in c+z, on TT's two levels and on a graph with more."""
    calls = _count_certified_packs(monkeypatch)
    ideals = _count_ideal_packings(monkeypatch)
    for g, ks in ((tt, [2, 3]), (tt, None), (_random_connected(random.Random(7), 7, 9), None)):
        ideals.clear()
        rows = run_verification(g, ks=ks)
        assert all(r.status == "pass" for r in rows)
        assert calls == []
        assert len(ideals) == 1
    assert len(principal_sequence(g).levels) > 2


def test_verify_couples_the_ideal_packing_once(monkeypatch):
    """``ideal_dual`` scales the coupling the ideal packing holds: one per
    job, however many k read it."""
    calls = []
    real = lp_mod._coupling

    def counting(levels):
        calls.append(levels)
        return real(levels)

    monkeypatch.setattr(lp_mod, "_coupling", counting)
    g = _random_connected(random.Random(7), 7, 9)
    rows = run_verification(g)
    assert all(r.status == "pass" for r in rows)
    assert len(calls) == 1


def test_treepack_minmax_needs_a_feasible_packing(c5, monkeypatch):
    """The k = 2 dual has value sigma by construction, so the min-max row
    also needs it feasible: C5's value 5/4 put on one tree loads its edges
    past capacity 1, and the row fails with its detail unchanged."""
    real = verify_mod.ideal_dual

    def one_tree(ideal, dual):
        dual = real(ideal, dual)
        packing = dual.packing._replace(trees=dual.packing.trees[:1], weights=(dual.total_y,))
        return dual._replace(packing=packing)

    monkeypatch.setattr(verify_mod, "ideal_dual", one_tree)
    row = run_verification(c5, ks=[2])[0]
    assert (row.name, row.status) == ("treepack-minmax", "fail")
    assert row.detail == "strength 5/4, packing value 5/4"


def _raise_the_second_critical_value(monkeypatch):
    """verify's sequence with lambda_2 raised by one, so the second level's
    quotients no longer saturate and the ideal packing fails."""
    real = verify_mod.principal_sequence

    def lying(g):
        psp = real(g)
        levels = list(psp.levels)
        levels[1] = levels[1]._replace(lam=levels[1].lam + 1)
        return psp._replace(levels=tuple(levels))

    monkeypatch.setattr(verify_mod, "principal_sequence", lying)


def test_verify_skips_the_dual_rows_when_the_ideal_packing_fails(tt, monkeypatch):
    # every row that reads the dual or its scan is skipped with the
    # ideal packing's failure as the reason, and the rest still run
    _raise_the_second_critical_value(monkeypatch)
    rows = {r.name: r for r in run_verification(tt, ks=[2])}
    failure = rows["psp-ideal-packing"]
    assert failure.status == "fail" and failure.detail.startswith("level 2: saturating value")
    skipped = {name for name, r in rows.items() if r.status == "skip"}
    assert skipped == {
        "treepack-minmax",
        *(f"{name}[k=2]" for name in (
            "lp-dual-feasible", "lp-complementary-slackness", "dual-packing-bound", "integrality-gap",
            "optimal-cut-respect", "respect-fraction-bound", "oracle-min-kcut",
        )),
        "global-mincut",
        "mincut-2respect-fraction",
    }
    assert {rows[name].detail for name in skipped} == {failure.detail}
    assert {r.status for name, r in rows.items() if name not in skipped and r is not failure} == {"pass"}


def _code_literals(path):
    """The string constants of a module, docstrings left out; an f-string
    gives its literal parts."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)) and ast.get_docstring(node) is not None
    }
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings
    ]


def test_each_row_name_is_written_once(tt):
    """Every row is one ``check`` with the reason it may be skipped: its
    name, or the literal head of a per-k name (``lp-dual-feasible[``,
    ``k=``), is one literal in verify.py."""
    literals = Counter(_code_literals(Path(verify_mod.__file__)))
    zero = VERIFY_EDGE_CASES["strength-0"][0]
    names = {r.name for g in (tt, zero) for r in run_verification(g)}
    heads = {re.match(r"[^\[=]*[\[=]?", name).group() for name in names}
    assert len(heads) == 19
    assert {head: literals[head] for head in heads} == dict.fromkeys(heads, 1)


def test_verify_rows_pin():
    # SHA-256 of the rows recorded before the partition table replaced the
    # per-k partition scans; every row, oracle rows included, is unchanged.
    g = _random_connected(random.Random(8), 8, 10)
    blob = json.dumps([r.to_json() for r in run_verification(g)], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "44ab824dc1f7ad6c27a9e7c912bd9bc04f8af8e52e81ea99f58a24d602580aae"
    )


def _rows_sha256(rows):
    blob = json.dumps([r.to_json() for r in rows], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# The rows on inputs the other pins leave out: ks unsorted, repeated, out of
# range or empty, both oracle limits at once, strength 0 with explicit ks
# (the zero-capacity edge 3-4 is a cut of capacity 0), and the ideal
# packing's failure at two k of the first level, which the falsified second
# critical value leaves consistent, also past both oracle limits, where
# ``oracle-min-kcut`` gives the partition limit as its reason.  (graph, ks,
# limits, falsified) -> SHA-256 of the rows, recorded before each k's dual
# and scan moved into one per-k memo; the last one before each row became
# one ``check`` with its skip reason.
_EDGE_CASE_GRAPH = _random_connected(random.Random(11), 6, 7)
VERIFY_EDGE_CASES = {
    "ks-unsorted-repeated-out-of-range": (_EDGE_CASE_GRAPH, [3, 2, 99, 0, 6, 3], OracleLimits(), False),
    "ks-empty": (_EDGE_CASE_GRAPH, [], OracleLimits(), False),
    "both-oracle-limits": (_EDGE_CASE_GRAPH, None, OracleLimits(max_n_partitions=5, max_spanning_trees=3), False),
    "strength-0": (
        parse_graph("p kcut 4 4\ne 1 2 1\ne 2 3 1\ne 1 3 1\ne 3 4 0\n"), [4, 2, 9, 3], OracleLimits(), False,
    ),
    "ideal-packing-fails": (_planted(3, 2), [2, 3], OracleLimits(), True),
    "ideal-packing-fails-past-both-limits": (
        _planted(3, 2), [2, 3], OracleLimits(max_n_partitions=5, max_spanning_trees=3), True,
    ),
}
VERIFY_EDGE_CASES_SHA256 = {
    "ks-unsorted-repeated-out-of-range": "994f90c044b86fb564353283405b57b9e1ed62b558c081513712b8a1b4b711e2",
    "ks-empty": "17220c3d6e0471f1faff26b96f76810ba39a36c448154d428fed749f9d5ca6d4",
    "both-oracle-limits": "9cc9a16a55fd878080ed479af97609e94d2ad388a6735c7bdf357db8c9f4b77a",
    "strength-0": "0e9ef8af1a13254e440e73b88d37c862a23b230bc463e123164f7ed5012b5da2",
    "ideal-packing-fails": "939e95c2a45ec4f97948534651fbe85182794f27641d6dac7b914563755ae298",
    "ideal-packing-fails-past-both-limits": "a24a838d6cc5fad296d8a9d9b556a5692b3d635f658cab0b350b346e93f6ca2a",
}


@pytest.mark.parametrize("name", list(VERIFY_EDGE_CASES))
def test_verify_edge_case_rows_pin(name, monkeypatch):
    g, ks, limits, falsified = VERIFY_EDGE_CASES[name]
    if falsified:
        _raise_the_second_critical_value(monkeypatch)
    rows = run_verification(g, ks=ks, limits=limits)
    assert _rows_sha256(rows) == VERIFY_EDGE_CASES_SHA256[name]


# The graphs of the benchmark's verify-oracle workload, built from the suite's
# fixtures and recipes, each with its verify flags.
VERIFY_ORACLE_GRAPHS = {
    "TT": (TT_TEXT, []),
    "C5": (C5_TEXT, []),
    "K4": (K4_TEXT, []),
    "planted-k2-s3": (_text(_planted(2, 3)), []),
    "rand-n5-x5": (_text(_random_connected(random.Random(5), 5, 5)), []),
    "rand-n6-x6": (_text(_random_connected(random.Random(6), 6, 6)), ["--kmax", "3"]),
}

# SHA-256 of the full ``verify`` JSON on each graph, recorded before the
# certificate checks moved onto integer-scaled vectors.
VERIFY_JSON_SHA256 = {
    "TT": "5102c21f0af8b452b27fc30dede6a4c179312a411d9c91b093ceff4b745b3cf4",
    "C5": "f31441e3a81126889d0a72753f636fadee2922b5d845c7b70beb20e161a3bace",
    "K4": "a8a136ee8023eb6d7220b9a1a05094e5d47a0f8d9f5e0c1b7bae53fd67067aa0",
    "planted-k2-s3": "c619b0772cfac02fd65fe742bb7f5e62aa37123d6467bece947c7c61d1ce4ef2",
    "rand-n5-x5": "b52bfd5787cf5be6e605041165b9e1977f8902a440f2d3a24a37ee013a4d2775",
    "rand-n6-x6": "9c7ea74c688a0ba6ff0b9c2438aa8eb39699a9e47facc9e8557b0d3f473ff040",
}


@pytest.mark.parametrize("name", list(VERIFY_ORACLE_GRAPHS))
def test_verify_json_pin(name, capsys, monkeypatch):
    text, flags = VERIFY_ORACLE_GRAPHS[name]
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(["verify", *flags])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_JSON_SHA256[name]


def _count_forest_enumerations(monkeypatch):
    calls = []
    real = oracle_mod.spanning_forests

    def counting(g, limit=None):
        calls.append(limit)
        return real(g, limit)

    monkeypatch.setattr(oracle_mod, "spanning_forests", counting)
    return calls


def _cold_pivots(lps, caps):
    """Pivots of one solve from the slack basis per (objective, rows)."""
    total = 0
    for c, rows in lps:
        t = tableau_of(rows, caps)
        t.set_objective(c)
        t.solve()
        total += t.pivots
    return total


def test_verify_enumerates_forests_once_and_warm_starts_each_k(monkeypatch):
    """Under the forest limit, verify enumerates the forests once and
    re-optimises one tableau across k, in fewer pivots than a cold solve of
    the packing LP and of each k."""
    calls = _count_forest_enumerations(monkeypatch)
    built = []

    class Recording(oracle_mod.ForestLP):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(verify_mod, "ForestLP", Recording)
    g = _random_connected(random.Random(8), 8, 10)
    rows = run_verification(g)
    assert calls == [OracleLimits().max_spanning_trees]
    assert len(built) == 1
    assert all(r.status == "pass" for r in rows if r.name.startswith(("oracle-treepack", "oracle-lp-value")))
    # the warm tableau's columns: y per forest, then z per edge
    forests = oracle_mod.spanning_forests(g)
    nt, h = len(forests), len(component_blocks(g))
    loads = [[1 if eid in f else 0 for f in forests] for eid in range(g.m)]
    with_z = [load + [-1 if e == eid else 0 for e in range(g.m)] for eid, load in enumerate(loads)]
    lps = [([1] * nt, loads)] + [([k - h] * nt + [-1] * g.m, with_z) for k in range(2, g.n + 1)]
    assert built[0].tableau.pivots < _cold_pivots(lps, [e.cap for e in g.edges])


def test_verify_enumerates_forests_once_past_the_limit(tt, monkeypatch):
    calls = _count_forest_enumerations(monkeypatch)
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
