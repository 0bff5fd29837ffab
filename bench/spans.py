"""Spans around the calls into qsymlie's public functions, for the traced run.

:func:`install` replaces each function named in ``TARGETS`` by a wrapper
wherever it is looked up: in its own module, in every qsymlie module that
imported it by name, and on its class for methods.  A span is the list
``[name, start_ns, end_ns, parent_index, summary]``; spans stay in memory
and are written out when the pass ends.  A recursive call of a wrapped
function folds into its outer span.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

MODULES = ("reptheory", "generators", "linalg", "casimir", "closure", "cli")

# module -> public functions to wrap; "Class.method" names a method.
TARGETS = {
    "reptheory": ("cg_decompose", "irrep_dimension", "center_dimension"),
    "generators": ("hat_f",),
    "linalg": ("commutator", "orthonormal_extend", "real_span_dim", "hermitian_eig",
               "cluster_eigenvalues"),
    "casimir": ("isotypic_blocks", "build_C2", "build_C3", "center_basis_from_blocks",
                "degeneracy_search"),
    "closure": ("lie_closure", "subspace_controllability", "restrict_to_block",
                "GeneratorSet.validate"),
    "cli": ("main",),
}

# Small facts kept from a return value, for the per-layer counts.
SUMMARIES = {
    "closure.lie_closure": lambda r: {"dim": r.dim, "rounds": r.rounds},
    "casimir.isotypic_blocks": lambda blocks: {"c3_refined": sum(b.c3_refined for b in blocks)},
    "reptheory.cg_decompose": lambda dec: {"labels": len(dec)},
}

SELF_TIMES = (
    "closure.lie_closure", "closure.validate", "closure.subspace_controllability",
    "closure.restrict_to_block", "linalg.orthonormal_extend", "linalg.commutator",
    "linalg.real_span_dim", "linalg.hermitian_eig", "linalg.cluster_eigenvalues",
    "casimir.isotypic_blocks", "casimir.build_C2", "casimir.build_C3",
    "casimir.center_basis_from_blocks", "casimir.degeneracy_search", "generators.hat_f",
    "reptheory.cg_decompose", "reptheory.irrep_dimension", "reptheory.center_dimension",
)
CALLS = ("closure.validate", "closure.restrict_to_block", "linalg.commutator", "generators.hat_f")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str):
        spans, open_, clock = self.spans, self._open, time.perf_counter_ns
        summarize = SUMMARIES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_ and spans[open_[-1]][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0, open_[-1] if open_ else -1, None])
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = clock()
            if summarize is not None:
                spans[index][4] = summarize(result)
            return result

        return wrapper


def install() -> Tracer:
    """Wrap every target at every place it is looked up; return the recorder."""
    tracer = Tracer()
    modules = [importlib.import_module("qsymlie")]
    modules += [importlib.import_module(f"qsymlie.{m}") for m in MODULES]
    for home, names in TARGETS.items():
        module = importlib.import_module(f"qsymlie.{home}")
        for qualname in names:
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            wrapper = tracer.wrap(original, f"{home}.{attr}")
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
    return tracer


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer self times, counts and ratios of one traced pass.

    A span's self time is its duration minus that of its direct children.
    """
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    totals: dict[str, int] = defaultdict(int)
    offered = 0
    for name, start, end, parent, summary in spans:
        self_ns[name] += end - start
        calls[name] += 1
        if parent >= 0:
            self_ns[spans[parent][0]] -= end - start
            if name == "linalg.orthonormal_extend" and spans[parent][0] == "closure.lie_closure":
                offered += 1
        for key, value in (summary or {}).items():
            totals[key] += value
    out = {f"{name}_s": self_ns[name] / 1e9 for name in SELF_TIMES}
    out.update({f"{name}_calls": calls[name] for name in CALLS})
    out["closure.brackets_offered"] = offered
    out["closure.accept_ratio"] = totals["dim"] / offered if offered else 0.0
    out["closure.rounds"] = totals["rounds"]
    out["casimir.c3_refined_blocks"] = totals["c3_refined"]
    out["reptheory.labels"] = totals["labels"]
    out["cli.self_s"] = self_ns["cli.main"] / 1e9
    out["trace.attributed_s"] = sum(self_ns.values()) / 1e9
    return out
