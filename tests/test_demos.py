import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout.  The demos print exact, deterministic
# results, so any change to an answer, a certificate or the output format
# shows here; the digests do not depend on PYTHONHASHSEED.
STDOUT_SHA256 = {
    "01_strength_and_psp.py": "42dc6e138244a9a29fa74c21e488c412d5a383e88abc29039f0f581eec8ef15e",
    "02_tree_packings.py": "2b8ccf9fcfe886dd955c5d6d01719a1721e1570bd6ab486782feb882e96c6e25",
    "03_kcut_lp_certificates.py": "17f1b8a45c5f1221e47946bb3a31165faeea69dbef9b389918a830fc2eabced2",
    "04_minimum_kcuts.py": "dd12143676e6c8389f0f7879bb3453ba57d6c1959c15369f9947bccf303ffb31",
    "05_global_mincut.py": "4804a80572251db32ef536ca39f952985fe34a9c77be22b797ecb33fb7f1ebf9",
}


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
