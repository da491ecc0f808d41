"""The library memoizes in one place: ``strength.principal_sequence``.  The
bench clears only the caches it names (``perfbench/harness.py::CACHED``), so
a cache anywhere else would carry results over from one bench job to the
next."""

import ast
from pathlib import Path

import kcut

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
