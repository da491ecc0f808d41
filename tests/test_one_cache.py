"""The library memoizes in one place: ``strength.principal_sequence``, which
keeps the last graph's sequence only.  The bench clears only the caches it
names (``perfbench/harness.py::CACHED``), so a cache anywhere else would
carry results over from one bench job to the next.  Only the CLI commands
and ``verify.run_verification`` build that sequence, a CLI job at most
once, and every other reader takes it from its caller, so no job relies
on a cache hit."""

import ast
import io
from pathlib import Path

import kcut
import kcut.cli
import kcut.verify
from kcut.cli import main
from kcut.graph import parse_graph
from kcut.strength import principal_sequence

from conftest import C5_TEXT, K4_TEXT, full_suite
from test_psp_pin import _text

CACHES = {"lru_cache", "cache"}
ALLOWED = {("strength.py", "principal_sequence")}


def _cache_uses(path):
    """(module, decorated name or None, line) of each reference to
    ``functools.lru_cache`` or ``functools.cache`` in one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    modules, names = set(), set()  # local names of functools and of the caches
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in CACHES}
    decorated = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                for sub in ast.walk(dec):
                    decorated[id(sub)] = node.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ) or (isinstance(node, ast.Name) and node.id in names):
            yield path.name, decorated.get(id(node)), node.lineno


def test_only_principal_sequence_is_cached():
    modules = sorted(Path(kcut.__file__).parent.glob("*.py"))
    uses = [use for path in modules for use in _cache_uses(path)]
    assert [use for use in uses if use[:2] not in ALLOWED] == []
    assert {use[:2] for use in uses} == ALLOWED


def test_the_cache_keeps_one_sequence():
    principal_sequence.cache_clear()
    principal_sequence(parse_graph(C5_TEXT))
    principal_sequence(parse_graph(K4_TEXT))
    assert principal_sequence.cache_info().currsize == 1


# the only builders of the sequence: the CLI commands that read it, and verify
CALLERS = {
    ("cli.py", "_cmd_psp"),
    ("cli.py", "_cmd_pack"),
    ("cli.py", "_cmd_lp"),
    ("cli.py", "_cmd_solve"),
    ("cli.py", "_cmd_enumerate"),
    ("cli.py", "_cmd_round"),
    ("cli.py", "_cmd_approx"),
    ("verify.py", "run_verification"),
}
# the modules whose readers take the sequence; strength.py only defines it
TAKERS = {"cuts.py", "lp.py", "mincut.py", "packing.py", "strength.py"}


def test_principal_sequence_callers():
    """Each function of kcut that calls ``principal_sequence``; the modules
    of ``TAKERS`` name it nowhere, and strength.py defines it."""
    found = set()
    for path in sorted(Path(kcut.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
        if path.name in TAKERS:
            assert "principal_sequence" not in names, path.name
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "principal_sequence":
                        found.add((path.name, fn.name))
        if path.name == "strength.py":
            assert "principal_sequence" in {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    assert found == CALLERS


def _commands(n):
    """argv of every CLI command but ``oracle``, with k at 2, 3 and n."""
    yield ["strength"]
    yield ["psp"]
    yield ["pack"]
    yield ["pack", "--exact"]
    yield ["mincut"]
    yield ["verify", "--kmax", "3"]
    for k in sorted({2, min(3, n), n}):
        for argv in (["lp"], ["solve"], ["solve", "--eps", f"1/{2 * k}"], ["enumerate"], ["round"], ["approx"]):
            yield argv + ["--k", str(k)]


# one component, of strength 0: only the zero-capacity edge 2-3 joins {1, 2} to {3, 4}
ZERO_STRENGTH = "p kcut 4 3\ne 1 2 1\ne 2 3 0\ne 3 4 2\n"


def test_each_cli_job_builds_one_principal_sequence(capsys, monkeypatch):
    """With the cache bypassed in both builders, each job calls the builder
    at most once, touches the cache not at all, and prints what it prints
    with the cache.  Strength-0 ``lp``, ``solve`` and ``enumerate``
    included: they read the tail of the input's sequence."""
    calls = []

    def counted(g):
        calls.append(g)
        return principal_sequence.__wrapped__(g)

    graphs = [(name, _text(g)) for name, g in full_suite()] + [("zero", ZERO_STRENGTH)]
    over = []
    for name, text in graphs:
        n = int(text.split()[2])
        for argv in _commands(n):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert main(argv) == 0, (name, argv)
            cached = capsys.readouterr().out
            principal_sequence.cache_clear()
            calls.clear()
            with monkeypatch.context() as bypass:
                bypass.setattr(kcut.cli, "principal_sequence", counted)
                bypass.setattr(kcut.verify, "principal_sequence", counted)
                bypass.setattr("sys.stdin", io.StringIO(text))
                assert main(argv) == 0, (name, argv)
            assert capsys.readouterr().out == cached, (name, argv)
            info = principal_sequence.cache_info()
            assert info.hits + info.misses == 0, (name, argv)
            if len(calls) > 1:
                over.append((name, " ".join(argv), len(calls)))
    assert over == []
