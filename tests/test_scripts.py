"""Smoke tests for ``scripts/``: each runs in a fresh process and prints its known numbers.

The scripts import private names of the package (``casimir._block_order``,
closure run traces), so an API change shows here.  ``preset_reach.py`` is
left out: it runs for minutes and needs gigabytes.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    """stdout of ``scripts/name args``, with ``src`` on the path and one BLAS thread."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_three_qutrit_closure():
    out = run_script("three_qutrit_closure.py")
    assert re.search(r"^total dim:\s+163$", out, re.M)
    assert re.search(r"^subspace controllable: True$", out, re.M)


def test_qubit_ladder():
    out = run_script("qubit_ladder.py", "--max-n", "3")
    rows = [line.split()[:4] for line in out.splitlines()[1:]]
    assert rows == [["2", "9", "9", "True"], ["3", "19", "19", "True"]]


def test_casimir_degeneracy_scan():
    lines = run_script("casimir_degeneracy_scan.py", "--max-n", "8").splitlines()
    assert "d=3: C2 first tie at n=6: (4, 1, 1) / (3, 3, 0)" in lines
    assert "d=3: C2 and C3 separate all labels for n <= 8" in lines
