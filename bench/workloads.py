"""The benchmark's workloads: CLI calls made from a seed, and checks of their output.

Every expected value is computed here from the mathematics, apart from
qsymlie: irrep dimensions by the hook-content formula, multiplicities by the
hook-length formula, label sets by enumerating partitions, and c2
degeneracies by solving the quadratic in q.  Nothing is compared against a
stored copy of an earlier output.
"""

from __future__ import annotations

import json
import random
from math import comb, factorial, isqrt, prod
from pathlib import Path

import numpy as np

WORKLOADS = ("flagship", "spectrum", "exact")

# (d, n) for `decompose`: large n, below the depth at which the
# multiplicity recursion overflows the interpreter stack (n = 496 at d = 2).
DECOMPOSE_SIZES = ((2, 450), (3, 120), (4, 48), (5, 30), (6, 24))
# (d, n) for `center` with d**n > 4096, so that only f(n, d) is computed.
CENTER_SIZES = ((5, 400), (10, 300), (20, 400))
# `degeneracy` seeds (p0, q0), with 2, 4 and 8 matches.  The search's work
# differs by a factor of two between seeds of one match count, so the seeds
# are fixed and the benchmark's seed only chooses the order of each pair.
# The search starts from (max, min) of the pair and the answer is symmetric,
# so the work of a pass does not depend on the benchmark's seed.
DEGENERACY_SEEDS = ((1007, 4), (1004, 1), (1008, 1))


# ---------------------------------------------------------------------------
# Partitions and the hook formulas
# ---------------------------------------------------------------------------

def partitions(n: int, rows: int, cap: int | None = None):
    """Partitions of n into at most ``rows`` parts, zero-padded to length ``rows``."""
    cap = n if cap is None else cap
    if rows == 0:
        return [()] if n == 0 else []
    out = []
    for first in range(min(n, cap), -1, -1):
        if first * rows < n:
            break
        out += [(first,) + rest for rest in partitions(n - first, rows - 1, first)]
    return out


def partition_count(n: int, rows: int) -> int:
    """Partitions of n into at most ``rows`` parts, i.e. into parts of size <= rows."""
    ways = [1] + [0] * n
    for part in range(1, rows + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def _boxes(lam):
    cols = [sum(1 for r in lam if r > j) for j in range(lam[0])] if lam and lam[0] else []
    for i, r in enumerate(lam):
        for j in range(r):
            yield i, j, (r - j - 1) + (cols[j] - i - 1) + 1


def hook_content_dim(lam, d: int) -> int:
    """Dimension of the GL(d) irrep with Young diagram ``lam``."""
    num = den = 1
    for i, j, hook in _boxes(lam):
        num *= d + j - i
        den *= hook
    return num // den


def syt_count(lam) -> int:
    """Standard Young tableaux of shape ``lam``: the multiplicity in (C^d)^(x)n."""
    return factorial(sum(lam)) // prod(h for _, _, h in _boxes(lam))


def content_sum(lam) -> int:
    return sum(j - i for i, r in enumerate(lam) for j in range(r))


def c2_value(p: int, q: int) -> int:
    return p * p + q * q + 3 * (p + q) + p * q


def c2_matches(p0: int, q0: int) -> list[list[int]]:
    """All (p, q) with c2(p, q) = c2(p0, q0): for each p, solve the quadratic in q."""
    target = c2_value(p0, q0)
    out = []
    p = 0
    while p * p + 3 * p <= target:
        disc = (p + 3) ** 2 - 4 * (p * p + 3 * p - target)
        root = isqrt(disc)
        if root * root == disc and (root - p - 3) % 2 == 0:
            out.append([p, (root - p - 3) // 2])
        p += 1
    return out


# ---------------------------------------------------------------------------
# Generator sets conjugated by a seed-drawn collective unitary
# ---------------------------------------------------------------------------

def haar_su(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q / np.linalg.det(q) ** (1.0 / d)


def _kron_all(mats) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def _collective(op: np.ndarray, n: int) -> np.ndarray:
    eye = np.eye(op.shape[0], dtype=complex)
    return sum(_kron_all([eye] * j + [op] + [eye] * (n - 1 - j)) for j in range(n))


def _gell_mann() -> list[np.ndarray]:
    mats = []
    for j, k in ((0, 1), (0, 2), (1, 2)):
        sym = np.zeros((3, 3), dtype=complex)
        sym[j, k] = sym[k, j] = 1.0
        anti = np.zeros((3, 3), dtype=complex)
        anti[j, k], anti[k, j] = -1j, 1j
        mats += [sym, anti]
    l3 = np.diag([1.0, -1.0, 0.0]).astype(complex)
    l8 = np.diag([1.0, 1.0, -2.0]).astype(complex) / np.sqrt(3.0)
    return [mats[0], mats[1], l3, mats[2], mats[3], mats[4], mats[5], l8]


def qutrit_hamiltonians(n: int) -> list[np.ndarray]:
    """The 8 collective Gell-Mann matrices and sum_{i<j} E3_i E3_j."""
    gm = _gell_mann()
    eye, e3 = np.eye(3, dtype=complex), gm[2]
    pairs = [
        _kron_all([e3 if k in (i, j) else eye for k in range(n)])
        for i in range(n) for j in range(i + 1, n)
    ]
    return [_collective(m, n) for m in gm] + [sum(pairs)]


def write_spec(path: Path, d: int, n: int, hams, u: np.ndarray) -> None:
    """Raw-matrix generator spec of U^(x)n H U^(x)n^dag for each H."""
    big = _kron_all([u] * n)
    mats = [big @ h @ big.conj().T for h in hams]
    spec = {
        "d": d,
        "n": n,
        "hamiltonians": [
            {"dim": d**n, "re": m.real.ravel().tolist(), "im": m.imag.ravel().tolist()}
            for m in mats
        ],
    }
    path.write_text(json.dumps(spec), encoding="utf-8")


# ---------------------------------------------------------------------------
# Checks: each returns None when the output is right, else what is wrong
# ---------------------------------------------------------------------------

def check_closure(d: int, n: int):
    want = {lam: hook_content_dim(lam, d) for lam in partitions(n, d)}

    def check(out):
        blocks = {tuple(b["label"]): b for b in out["blocks"]}
        if set(blocks) != set(want):
            return f"block labels {sorted(blocks)} != {sorted(want)}"
        for lam, dim in want.items():
            b = blocks[lam]
            got = (b["irrep_dim"], b["multiplicity"], b["restricted_dim"], b["ok"])
            if got != (dim, syt_count(lam), dim * dim - 1, True):
                return f"block {lam}: (irrep_dim, mult, restricted_dim, ok) = {got}"
        total = sum(dim * dim - 1 for dim in want.values()) + 1
        got = (out["total_dim"], out["center_dim"], out["subspace_controllable"], out["saturated"])
        if got != (total, 1, True, True):
            return f"(total_dim, center_dim, controllable, saturated) = {got}, want ({total}, 1, True, True)"
        return None

    return check


def check_spectrum(d: int, n: int):
    labels = partitions(n, d)
    sums = [content_sum(lam) for lam in labels]
    want = {
        lam: (syt_count(lam) * hook_content_dim(lam, d), hook_content_dim(lam, d),
              syt_count(lam), sums.count(content_sum(lam)) > 1)
        for lam in labels
    }

    def check(out):
        rows = {tuple(r["block_label"]): r for r in out["blocks"]}
        if set(rows) != set(want) or len(rows) != len(out["blocks"]):
            return f"block labels {sorted(rows)} != {sorted(want)}"
        for lam, expected in want.items():
            r = rows[lam]
            got = (r["block_dim"], r["irrep_dim"], r["multiplicity"], r["c3_refined"])
            if got != expected:
                return f"block {lam}: (block_dim, irrep_dim, mult, c3_refined) = {got}, want {expected}"
        if sum(r["block_dim"] for r in out["blocks"]) != d**n:
            return "block dimensions do not sum to d^n"
        return None

    return check


def check_decompose(d: int, n: int):
    def check(out):
        rows = out["irreps"]
        labels = [tuple(r["iweight"]) for r in rows]
        if len(labels) != partition_count(n, d) or set(labels) != set(partitions(n, d)):
            return f"{len(labels)} labels, want the {partition_count(n, d)} partitions of {n} into <= {d} parts"
        for lam, r in zip(labels, rows):
            if (r["dim"], r["multiplicity"]) != (hook_content_dim(lam, d), syt_count(lam)):
                return f"label {lam}: (dim, mult) = ({r['dim']}, {r['multiplicity']})"
        if sum(r["multiplicity"] * r["dim"] for r in rows) != d**n:
            return "sum k*dim != d^n"
        if sum(r["dim"] ** 2 for r in rows) != comb(n + d * d - 1, d * d - 1):
            return "sum dim^2 != C(n+d^2-1, d^2-1)"
        return None

    return check


def check_center(d: int, n: int):
    def check(out):
        if out["center_dim"] != partition_count(n, d):
            return f"center_dim {out['center_dim']} != {partition_count(n, d)}"
        return None

    return check


def check_degeneracy(p0: int, q0: int):
    def check(out):
        if out["c2"] != c2_value(p0, q0) or out["matches"] != c2_matches(p0, q0):
            return f"degeneracy {p0} {q0}: wrong value or matches"
        return None

    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def make_ops(workload: str, seed: int, outdir: Path):
    """The operations of one pass: a list of (CLI argv, check).

    Writes the generator specs that the argv name into ``outdir``.
    """
    if workload == "flagship":
        path = outdir / f"flagship-seed{seed}.json"
        write_spec(path, 3, 3, qutrit_hamiltonians(3), haar_su(3, np.random.default_rng(seed)))
        return [(["closure", "--spec", str(path), "--format", "json"], check_closure(3, 3))]
    if workload == "spectrum":
        return [(["spectrum", "--d", "3", "--n", "6", "--format", "json"], check_spectrum(3, 6))]
    if workload == "exact":
        draw = random.Random(seed)
        ops = [
            (["decompose", "--d", str(d), "--n", str(n), "--format", "json"], check_decompose(d, n))
            for d, n in DECOMPOSE_SIZES
        ]
        for pair in DEGENERACY_SEEDS:
            p0, q0 = pair if draw.random() < 0.5 else pair[::-1]
            ops.append((["degeneracy", str(p0), str(q0), "--format", "json"], check_degeneracy(p0, q0)))
        ops += [
            (["center", "--d", str(d), "--n", str(n), "--format", "json"], check_center(d, n))
            for d, n in CENTER_SIZES
        ]
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
