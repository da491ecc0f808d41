"""Outside-in tracing of kcut's layers.

Each layer is one module of the package.  ``Tracer.install`` wraps every
public function the module defines, plus ``FlowNetwork.max_flow``, and
rebinds every module-level name in the package that refers to the original:
``packing._strength`` is ``strength.strength``, ``solve_lp`` is imported
into both ``packing`` and ``oracle``, and the package attribute
``kcut.strength`` is the function, not the submodule.  ``remove`` puts
every original back.

A wrapped call records one span ``[name, start, end, parent, nested]`` in
memory; ``nested`` marks a call made inside another call of the same name,
so inclusive times count only the outermost one.  Counters that need the
arguments or the result are computed by the hooks in ``HOOKS``, after the
span has ended.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from math import comb

from harness import PACKAGE

LAYERS = (
    "flow",
    "strength",
    "simplex",
    "packing",
    "lp",
    "cuts",
    "mincut",
    "oracle",
    "verify",
    "graph",
    "cli",
)


def _solve_lp_cells(bound, result, counts):
    counts["simplex.lp_cells"] += len(bound.arguments["rows"]) * len(bound.arguments["c"])


def _tree_pairs(bound, result, counts):
    counts["mincut.tree_pairs"] += comb(len(tuple(bound.arguments["tree"])), 2)


def _support_trees(bound, result, counts):
    counts["packing.support_trees"] += len(result.support())


def _kcut_report(report, counts):
    counts["cuts.candidates"] += report.candidates_examined
    counts["cuts.distinct"] += report.distinct_cuts


def _min_kcut(bound, result, counts):
    _kcut_report(result[1], counts)


def _enumerate(bound, result, counts):
    _kcut_report(result, counts)


def _forests(bound, result, counts):
    counts["oracle.spanning_forests.count"] += len(result)


HOOKS = {
    "simplex.solve_lp": _solve_lp_cells,
    "mincut.min_2respect": _tree_pairs,
    "packing.mwu_pack": _support_trees,
    "packing.exact_pack": _support_trees,
    "cuts.min_kcut": _min_kcut,
    "cuts.enumerate_approx_kcuts": _enumerate,
    "oracle.spanning_forests": _forests,
}


def public_functions(module):
    """(name, function) for each public function ``module`` defines,
    including ``functools.lru_cache`` wrappers.  Classes are skipped, and so
    are generator functions: a span around one would end before its body
    runs, so the time spent iterating it counts to the caller instead."""
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if inspect.isgeneratorfunction(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts
        clock = time.perf_counter
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, active[name] > 0]
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                active[name] -= 1
                stack.pop()
            if hook:
                hook(signature.bind(*args, **kwargs), result, counts)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for fname, fn in public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        network = sys.modules[f"{PACKAGE}.flow"].FlowNetwork
        self._patch(network, "max_flow", network.max_flow, self._wrap("flow.max_flow", network.max_flow))
        for module in modules:
            for attr, val in list(vars(module).items()):
                entry = wrappers.get(id(val))
                if entry is not None and entry[0] is val:
                    self._patch(module, attr, val, entry[1])
        originals = [fn for fn, _ in wrappers.values()]
        for module in modules:
            for attr, val in vars(module).items():
                if any(val is fn for fn in originals):
                    raise RuntimeError(f"{module.__name__}.{attr} escaped wrapping")

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s`` (outermost calls only) and
    ``self_s`` (duration minus the time covered by direct child spans)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, nested) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        if not nested:
            row["s"] += end - start
        row["self_s"] += end - start - child[i]
    return out
