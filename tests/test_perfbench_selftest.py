"""The benchmark's self-test, run as the benchmark runs it.

perfbench reads library bindings by name: ``kcut.strength is
packing._strength``, ``oracle.solve_lp``, the ``strength`` caches, the
``tree`` argument of ``mincut.min_2respect`` and ``TreePacking.support``.
A library edit that breaks one of them fails here, not only in the bench.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "selftest ok"
