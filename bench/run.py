"""The qsymlie benchmark: one workload, timed end to end, or traced per layer.

    python3 bench/run.py --workload flagship --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; it byte-compiles ``src/qsymlie``
and runs the package from there.  Workloads: flagship, spectrum, exact
(see bench/README.md).

A pass is one run of the workload's CLI calls in a fresh interpreter
(bench/worker.py).  Passes run while another one like the last still fits
in ``--seconds``, and at least three run.  Every call's output is checked
after the pass, outside the timed region.

On a shared virtual machine the speed of the host can drift by up to a
factor of two over tens of seconds (bench/README.md), so before each pass
and after the last the run also times a fixed reference job
(:func:`reference_job`).  With ``--trace 0`` the metrics are
``solve_s`` (median pass time) and ``setup_s`` (median time of fresh
interpreters to import qsymlie, two per pass), each time first scaled by
``REFERENCE_S`` / the time of the reference jobs beside it, and
``peak_rss_mb`` (median peak resident memory of a pass).  With
``--trace 1`` passes alternate untraced and traced, and the metrics are the
per-layer self times and counts of the traced passes (bench/spans.py) plus
``trace.overhead_s``, the median excess of a traced pass over the untraced
passes beside it; these are not scaled.  bench/out/run-*.json keeps every unscaled time of
the run.  The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread for the reference job, as in the workers (worker.py).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

import workloads
from spans import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_PASSES = 3
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# About the median time of reference_job() on the machine in
# bench/README.md.  Scaled times read as seconds on a host that runs the job
# in this time.
REFERENCE_S = 0.18
_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((400, 400)) / 20.0


def reference_job() -> float:
    """Seconds taken by a fixed job that loads the host as qsymlie does.

    A loop of integer arithmetic in the interpreter (as in reptheory and
    the lattice search) and a chain of dense matrix products (as in linalg
    and casimir).
    """
    start = time.perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i * i % 7
    block = _REFERENCE_MATRIX
    for _ in range(12):
        block = np.tanh(_REFERENCE_MATRIX @ block)
    return time.perf_counter() - start


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(env, *args: str) -> float:
    """Run worker.py; return the wall time from its start to qsymlie imported."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                          stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        try:
            proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(f"worker.py {' '.join(args)} failed with exit code {proc.returncode}")
    return ready


def run_pass(argvs, traced: bool, tag: str, env) -> tuple[dict, float]:
    """One pass in a fresh worker: its result and the worker's set-up time."""
    job = OUT / f"job-{tag}.json"
    result = OUT / (f"spans-{tag}.json" if traced else f"result-{tag}.json")
    job.write_text(json.dumps({"ops": argvs, "trace": traced, "result": str(result)}),
                   encoding="utf-8")
    ready = run_worker(env, str(job))
    with open(result, encoding="utf-8") as fh:
        return json.load(fh), ready


def check_call(call, check) -> str | None:
    if call["code"] != 0:
        return f"exit code {call['code']}" + (f" ({call['error']})" if call["error"] else "")
    try:
        return check(json.loads(call["stdout"]))
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qsymlie" / "cli.py").is_file():
        print(f"error: no qsymlie sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC / "qsymlie"), quiet=1):
        print("error: byte-compiling src/qsymlie failed", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = _worker_env()
    tag = f"{args.workload}-seed{args.seed}"
    ops = workloads.make_ops(args.workload, args.seed, OUT)
    argvs = [op_argv for op_argv, _ in ops]

    # The host's speed drifts over tens of seconds, so set-up is sampled all
    # through the run: by one import-only worker before each pass, and by
    # the pass's own worker.  The reference job, before each pass and after
    # the last, samples the host's speed at the same times; its first call
    # warms it up and is not kept.
    reference_job()
    reference: list[float] = []
    setup: list[float] = []
    solve: list[float] = []
    rss: list[float] = []
    layers: list[dict[str, float]] = []
    attempted = failed = wrong = 0
    start = time.monotonic()
    passes = 0
    while True:
        traced = bool(args.trace) and passes % 2 == 1
        pass_start = time.monotonic()
        reference.append(reference_job())
        setup.append(run_worker(env))
        result, ready = run_pass(argvs, traced, tag, env)
        setup.append(ready)
        for (op_argv, check), call in zip(ops, result["calls"]):
            attempted += 1
            problem = check_call(call, check)
            if problem is not None:
                failed += 1
                wrong += call["code"] == 0
                print(f"failed: qsymlie {' '.join(op_argv)}: {problem}", file=sys.stderr)
        solve.append(sum(call["seconds"] for call in result["calls"]))
        if traced:
            layers.append(layer_metrics(result["spans"]))
        else:
            rss.append(result["peak_rss_mb"])
        passes += 1
        now = time.monotonic()
        # Stop before a pass like the last one would overrun the run.
        if passes >= MIN_PASSES and now - start + (now - pass_start) > args.seconds:
            break
    reference.append(reference_job())

    summary = {"reference_s": reference, "setup_s": setup, "solve_s": solve}
    if args.trace:
        values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        # Each traced pass (odd index) against the untraced passes beside it,
        # so that a drift of the machine's speed cancels.
        values["trace.overhead_s"] = statistics.median(
            solve[k] - statistics.mean(solve[k - 1 : k + 2 : 2]) for k in range(1, passes, 2)
        )
        summary["layers"] = dict(values)
        # Time inside the CLI calls: the summary file keeps it, to show what
        # of a traced pass the layers' self times account for.
        values.pop("trace.attributed_s")
        metrics = {name: {"value": v, "unit": _unit(name)} for name, v in values.items()}
    else:
        # Each pass time against the mean of the reference jobs around it,
        # each set-up time against the reference job just before it.
        values = {
            "solve_s": statistics.median(
                REFERENCE_S * t / statistics.mean(reference[k : k + 2]) for k, t in enumerate(solve)
            ),
            "setup_s": statistics.median(
                REFERENCE_S * t / reference[k // 2] for k, t in enumerate(setup)
            ),
            "peak_rss_mb": statistics.median(rss),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    (OUT / f"run-{tag}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1),
                                                          encoding="utf-8")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
