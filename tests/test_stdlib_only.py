"""The library imports only the standard library and its own modules;
networkx, Hypothesis and scipy are for the tests.  It does not import
``dataclasses`` either: its records are ``typing.NamedTuple`` classes,
which are several times cheaper than dataclasses to create at import time."""

import ast
import sys
from pathlib import Path

import kcut


def _imports(path):
    """(line, top-level module name) of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            yield node.lineno, name.split(".")[0]


def _modules():
    modules = sorted(Path(kcut.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    return modules


def test_library_imports_only_the_standard_library():
    assert [
        f"{path.name}:{line} imports {name}"
        for path in _modules()
        for line, name in _imports(path)
        if name not in sys.stdlib_module_names
    ] == []


def test_library_does_not_import_dataclasses():
    assert [
        f"{path.name}:{line}" for path in _modules() for line, name in _imports(path) if name == "dataclasses"
    ] == []
