"""The library imports only the standard library and its own modules;
networkx and Hypothesis are for the tests."""

import ast
import sys
from pathlib import Path

import kcut


def _foreign_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.split(".")[0] not in sys.stdlib_module_names:
                yield f"{path.name}:{node.lineno} imports {name}"


def test_library_imports_only_the_standard_library():
    modules = sorted(Path(kcut.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    assert [bad for path in modules for bad in _foreign_imports(path)] == []
