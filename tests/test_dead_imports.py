"""Every name a library module imports is read in that module, except the
re-exports that perfbench reads by name and nothing in the library uses.
``__init__.py`` imports to re-export, so it is not checked.  Every
private helper the library defines is used by the library, not only by
tests.  And every public function or method is read by the library or a
demo, but for a short list of references and test seams, each with its
reason.  Every field of a settings record is set by some library or demo
call."""

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


def _private_helpers(tree):
    """(name, line) of each ``_``-prefixed function at module level or
    method of a module-level class, dunder methods aside."""
    for node in tree.body:
        defs = node.body if isinstance(node, ast.ClassDef) else [node]
        for d in defs:
            if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if d.name.startswith("_") and not d.name.endswith("__"):
                yield d.name, d.lineno


def test_every_private_helper_is_used_by_the_library():
    paths = Path(kcut.__file__).parent.glob("*.py")
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in paths}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    helpers = [(module, name, line) for module, tree in trees.items() for name, line in _private_helpers(tree)]
    assert len(helpers) > 10
    assert [helper for helper in helpers if helper[1] not in used] == []


# (module, qualified name): why a public function or method no library
# module or demo reads stays
UNREAD_PUBLIC = {
    ("simplex.py", "solve_lp"): "perfbench's tracer wraps it and its self-test checks the re-exports",
    ("oracle.py", "enum_partitions"): "brute-force reference the tests check the fast paths against",
    ("cuts.py", "cuts_from_tree"): "the per-tree stream the scan property test checks",
    ("graph.py", "induced_subgraph"): "test seam: the tests build blocks of a graph with it",
    ("cli.py", "_Parser.error"): "argparse calls it",
}


def _public_functions(tree):
    """(qualified name, line) of each public function at module level and
    each public method of a module-level class, dunder methods aside."""
    for node in tree.body:
        defs = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for d in defs:
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) and not d.name.startswith("_"):
                yield prefix + d.name, d.lineno


def _library_and_demos():
    """{file name: parsed module} of the library, and the parsed demos."""
    root = Path(kcut.__file__).parent
    library = {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in root.glob("*.py")}
    demos = [ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in (root.parent.parent / "demos").glob("*.py")]
    assert demos
    return library, demos


def test_every_public_function_is_read_by_the_library_or_a_demo():
    library, demos = _library_and_demos()
    read = set()
    for tree in [*library.values(), *demos]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    public = [
        (module, name, line) for module, tree in library.items() for name, line in _public_functions(tree)
    ]
    assert len(public) > 50
    unread = [(module, name, line) for module, name, line in public if name.rsplit(".", 1)[-1] not in read]
    assert [use for use in unread if use[:2] not in UNREAD_PUBLIC] == []
    assert {use[:2] for use in unread} == set(UNREAD_PUBLIC)


def test_every_settings_field_is_set_by_the_library_or_a_demo():
    """A field only tests set is a no-op setting: each field of
    ``PackConfig`` and ``OracleLimits`` is passed, by position or by
    keyword, in some call of the library or a demo."""
    library, demos = _library_and_demos()
    records = {cls.__name__: cls._fields for cls in (kcut.PackConfig, kcut.OracleLimits)}
    passed = {name: set() for name in records}
    for tree in [*library.values(), *demos]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in records:
                passed[name].update(records[name][: len(node.args)])
                passed[name].update(kw.arg for kw in node.keywords)
    unset = {name: sorted(set(fields) - passed[name]) for name, fields in records.items()}
    assert unset == {name: [] for name in records}
