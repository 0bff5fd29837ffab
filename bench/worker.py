"""One pass of a workload, in a fresh interpreter.

    python3 bench/worker.py            # import qsymlie, print "ready", exit
    python3 bench/worker.py JOB.json   # the same, then run the job's CLI calls

qsymlie is found through PYTHONPATH.  The job file holds ``ops`` (a list
of CLI argument lists), ``trace`` (wrap the public functions and record
spans) and ``result`` (where to write the outcome).
Each call runs through ``qsymlie.cli.main`` with stdout captured, after
every ``lru_cache`` in qsymlie has been cleared, so that each call pays
what a fresh CLI process pays.
"""

import os

# One BLAS thread, set before numpy loads: with two threads on two shared
# cores the first threaded LAPACK call of a process can stall for a second.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import importlib
import io
import json
import sys
import time


def _lru_caches():
    caches = []
    for name in ("reptheory", "generators", "linalg", "casimir", "closure", "cli"):
        module = importlib.import_module(f"qsymlie.{name}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", "") == module.__name__:
                caches.append(value)
    return caches


def _peak_rss_mb() -> float:
    """Peak resident memory of this process (VmHWM).

    Not ``ru_maxrss``: on Linux that also counts the parent's peak at the
    time of the fork, here the benchmark's own.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    from qsymlie import cli

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if len(sys.argv) == 1:
        return 0
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    caches = _lru_caches()
    tracer = None
    if job["trace"]:
        import spans  # beside this file, on sys.path as the script's directory

        tracer = spans.install()
    calls = []
    for argv in job["ops"]:
        for cache in caches:
            cache.cache_clear()
        buf = io.StringIO()
        error = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except Exception as exc:  # the CLI would die with a traceback: a failed call
                code, error = 1, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        calls.append({"code": code, "seconds": seconds, "stdout": buf.getvalue(), "error": error})
    result = {
        "calls": calls,
        "peak_rss_mb": _peak_rss_mb(),
        "spans": tracer.spans if tracer else None,
    }
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
