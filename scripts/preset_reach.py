#!/usr/bin/env python3
"""Reach of the preset, spectrum and decompose paths: the largest sizes, each in a fresh process.

Runs ``python -m qsymlie.cli closure --preset NAME --format json`` for a
fixed list of presets, then ``python -m qsymlie.cli spectrum --d D --n N
--format json`` and ``python -m qsymlie.cli decompose --d D --n N --format
json`` for fixed lists of sizes, one at a time, with one BLAS thread.  It
prints for each preset its exit code, ``total_dim``, verdict, the most
bracket ``rounds`` of any closure run, wall time and that child's own peak
resident memory, for each spectrum size its exit code, number of isotypic
blocks, wall time and peak memory, and for each decompose size its exit
code, number of labels, ``ok``, wall time and peak memory.  The peak is
read with ``os.wait4`` on the child; ``RUSAGE_CHILDREN`` would keep the
maximum over all children.  A run that fails prints its one ``error:`` line.  Takes no
flags; run it from anywhere, it puts the repository's ``src`` first on the
child's path:

    python scripts/preset_reach.py
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PRESETS = ("qubits:n=11", "qubits:n=12", "qubits:n=13", "qutrits:n=5:H", "qutrits:n=6:H")
SPECTRA = ((3, 8), (4, 8), (4, 10))
DECOMPOSITIONS = ((3, 300), (2, 2000), (40, 40))
SRC = Path(__file__).resolve().parents[1] / "src"


def run(*command: str):
    """(exit code, stdout, stderr, wall seconds, peak RSS in MB) of one CLI call."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "qsymlie.cli", *command, "--format", "json"]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        out.seek(0)
        err.seek(0)
        text, error = out.read().decode(), err.read().decode()
    return proc.returncode, text, error, seconds, usage.ru_maxrss / 1024  # ru_maxrss is in KiB


def presets():
    print(f"{'preset':<16} exit  total_dim  controllable  rounds  wall s  peak MB")
    for name in PRESETS:
        code, text, error, seconds, peak = run("closure", "--preset", name)
        total, verdict, rounds = "-", "-", "-"
        if code == 0:
            report = json.loads(text)
            total, verdict = report["total_dim"], report["subspace_controllable"]
            rounds = report["rounds"]
        print(f"{name:<16} {code:>4}  {total!s:>9}  {verdict!s:>12}  {rounds!s:>6}"
              f"  {seconds:>6.2f}  {peak:>7.0f}")
        if code != 0:
            print(f"  {error.strip()}")


def spectra():
    print(f"{'spectrum':<16} exit  blocks  wall s  peak MB")
    for d, n in SPECTRA:
        code, text, error, seconds, peak = run("spectrum", "--d", str(d), "--n", str(n))
        blocks = len(json.loads(text)["blocks"]) if code == 0 else "-"
        print(f"{f'd={d} n={n}':<16} {code:>4}  {blocks!s:>6}  {seconds:>6.2f}  {peak:>7.0f}")
        if code != 0:
            print(f"  {error.strip()}")


def decompositions():
    print(f"{'decompose':<16} exit  labels     ok  wall s  peak MB")
    for d, n in DECOMPOSITIONS:
        code, text, error, seconds, peak = run("decompose", "--d", str(d), "--n", str(n))
        labels, ok = "-", "-"
        if text:  # also on exit 3 when a sum check fails
            report = json.loads(text)
            labels, ok = len(report["irreps"]), report["ok"]
        print(f"{f'd={d} n={n}':<16} {code:>4}  {labels!s:>6}  {ok!s:>5}  {seconds:>6.2f}"
              f"  {peak:>7.0f}")
        if error:
            print(f"  {error.strip()}")


def main():
    presets()
    print()
    spectra()
    print()
    decompositions()


if __name__ == "__main__":
    main()
