"""Every name a library module imports is read in that module, except the
re-exports that perfbench reads by name and nothing in the library uses.
``__init__.py`` imports to re-export, so it is not checked."""

import ast
from pathlib import Path

import kcut

# (module, name): why the import stays
PERFBENCH_SHIMS = {
    ("packing.py", "_strength"): "perfbench's self-test checks kcut.strength is packing._strength",
    ("packing.py", "solve_lp"): "perfbench's self-test checks packing.solve_lp is oracle.solve_lp",
    ("oracle.py", "solve_lp"): "perfbench's tracer wraps oracle.solve_lp",
}


def _unread_imports(path):
    """(module, local name, line) of every imported name that the module
    never loads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(path.name, name, line) for name, line in imported.items() if name not in read]


def test_only_the_perfbench_shims_are_unread_imports():
    modules = [p for p in sorted(Path(kcut.__file__).parent.glob("*.py")) if p.name != "__init__.py"]
    assert len(modules) > 1
    unread = [use for path in modules for use in _unread_imports(path)]
    assert [use for use in unread if use[:2] not in PERFBENCH_SHIMS] == []
    assert {use[:2] for use in unread} == set(PERFBENCH_SHIMS)
