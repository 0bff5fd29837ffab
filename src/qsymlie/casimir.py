"""Casimir operators, isotypic blocks, and the center of the invariant algebra.

The quadratic Casimir C2 = sum_k (collective E_k)^2 acts as a scalar on each
isotypic block of the tensor-power decomposition, so clustering its spectrum
recovers the blocks.  Two non-isomorphic su(3) blocks can share a C2
eigenvalue (the quadratic eigenvalue c2(p,q) is symmetric in p,q); the cubic
Casimir C3 then refines the cluster.  Raw C2 eigenvalues are never compared
against c2(p,q) values, only their equality patterns are matched.

Both Casimirs are applied matrix-free to a block of columns.  C2 is a
constant plus a sum of tensor-factor transpositions, so it keeps every su(d)
weight space (the basis states with one set of occupation numbers) and is
diagonalized one weight space at a time; no d^n x d^n C2 is formed there.
C3 is a sum of collective applications
(:func:`~qsymlie.generators.collective_apply`), applied only to the columns
of a C2-degenerate cluster.  ``build_C2`` and ``build_C3`` are the actions
applied to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial, isqrt

import numpy as np

from .linalg import (
    CLUSTER_TOL,
    RANK_TOL,
    DimensionMismatchError,
    _as_square,
    cluster_eigenvalues,
    hermitian_eig,
)
from .generators import (
    adjacent_transpositions,
    collective_apply,
    gell_mann_basis,
    hat_f,
    permutation_operator,
    structure_constants,
    symmetric_sum,
)
from .reptheory import (
    cg_decompose,
    content_sum,
    irrep_dimension,
)


class UnresolvedDegeneracyError(RuntimeError):
    """Isotypic blocks could not be separated by the available Casimirs."""


@dataclass(frozen=True)
class CasimirSet:
    """The Casimir operators materialized on (C^d)^(x)n; C3 only for d = 3."""

    d: int
    n: int
    C2: np.ndarray
    C3: np.ndarray | None = None

    def check(self, tol: float = 1e-9) -> None:
        ops = [self.C2] + ([self.C3] if self.C3 is not None else [])
        swaps = [permutation_operator(p, self.d) for p in adjacent_transpositions(self.n)]
        collectives = [hat_f(k, self.d, self.n) for k in range(1, self.d**2)]
        for c in ops:
            assert np.linalg.norm(c - c.conj().T) <= tol * max(1.0, np.linalg.norm(c))
            for u in swaps + collectives:
                assert np.linalg.norm(c @ u - u @ c) <= tol * max(1.0, np.linalg.norm(c))


def casimir_set(d: int, n: int) -> CasimirSet:
    """C2 (and, for d = 3, C3) on the n-fold tensor power."""
    return CasimirSet(d, n, build_C2(d, n), build_C3(d, n) if d == 3 else None)


def _transpositions(d: int, n: int) -> list[np.ndarray]:
    """Row maps of the factor transpositions P_ij, i < j: (P_ij x)[r] = x[perm[r]].

    Each map is the axis swap (i, j) of the basis indices viewed as shape (d,)*n.
    """
    grid = np.arange(d**n).reshape((d,) * n)
    return [np.swapaxes(grid, i, j).ravel() for i, j in combinations(range(n), 2)]


def _c2_from_transpositions(x: np.ndarray, perms, d: int, n: int) -> np.ndarray:
    """C2 x = c0 x + 4 sum_{i<j} P_ij x with c0 = 2n(d^2-1)/d - 2n(n-1)/d.

    With Tr(F_a F_b) = 2 delta_ab, sum_k F_k (x) F_k = 2 P - (2/d) 1 on two
    factors, and each F_k^2 sums to 2(d^2-1)/d times 1 on one factor.
    ``perms`` are the row maps of the P_ij on the rows of x.
    """
    out = (2 * n * (d * d - 1) / d - 2 * n * (n - 1) / d) * x
    for perm in perms:
        out += 4 * x[perm]
    return out


def apply_C2(x, d: int, n: int) -> np.ndarray:
    """C2 @ x for x of shape (d^n, m) (or (d^n,)), as a sum of transpositions."""
    x = np.asarray(x, dtype=complex)
    if x.shape[0] != d**n:
        raise ValueError(f"operand has {x.shape[0]} rows, need d^n = {d**n}")
    return _c2_from_transpositions(x, _transpositions(d, n), d, n)


def apply_C3(x, d: int, n: int) -> np.ndarray:
    """C3 @ x = sum_l hat(F_l) sum_m hat(F_m) (sum_q d_{lm}^q hat(F_q) x) (d = 3 only).

    Costs 8 + 54 + 8 collective applications: the hat(F_q) x, one per pair
    (l, m) with a nonzero d_{lm}^q, and one per l after the sum over m.
    """
    if d != 3:
        raise ValueError("the cubic Casimir is implemented for d = 3 only")
    basis = gell_mann_basis(d)
    es = basis.elements[1:]
    dsym = structure_constants(basis).dsym
    fx = [collective_apply(e, x, n) for e in es]
    out = np.zeros(np.shape(x), dtype=complex)
    for l, el in enumerate(es):
        inner = np.zeros(np.shape(x), dtype=complex)
        for m, em in enumerate(es):
            coeffs = [(c, fx[q]) for q, c in enumerate(dsym[l, m]) if c != 0.0]
            if coeffs:
                inner += collective_apply(em, sum(c * y for c, y in coeffs), n)
        out += collective_apply(el, inner, n)
    return out


def build_C2(d: int, n: int) -> np.ndarray:
    """Quadratic Casimir sum over the d^2-1 traceless slots of hat(F_k)^2, as a matrix."""
    return apply_C2(np.eye(d**n, dtype=complex), d, n)


def build_C3(d: int, n: int) -> np.ndarray:
    """Cubic Casimir sum_{l,m,q} d_{lm}^q hat(F_l) hat(F_m) hat(F_q), as a matrix (d = 3 only)."""
    return apply_C3(np.eye(d**n, dtype=complex), d, n)


def c2_eigenvalue(p: int, q: int) -> int:
    """Quadratic Casimir eigenvalue of the su(3) irrep (p, q), fixed scaling.

    c2(p,q) = p^2 + q^2 + 3(p+q) + pq; symmetric under swapping p and q.
    """
    p, q = int(p), int(q)
    if p < 0 or q < 0:
        raise ValueError("quantum numbers must be nonnegative")
    return p * p + q * q + 3 * (p + q) + p * q


# ---------------------------------------------------------------------------
# Degenerate c2 search
# ---------------------------------------------------------------------------

def degeneracy_search(p0: int, q0: int) -> list[tuple[int, int]]:
    """All lattice pairs (p, q) >= 0 sharing the quadratic eigenvalue of (p0, q0), sorted.

    Exact and complete.  Let T = c2(p0, q0).  For q >= 0,
    c2(p, q) >= p^2 + 3p, so every solution has p^2 + 3p <= T, and only
    those p are scanned.  For fixed p, c2 is strictly increasing in q >= 0,
    so at most one q matches: the root of q^2 + (p+3)q + p^2 + 3p - T = 0,
    q = (s - p - 3)/2 with s^2 = 4T + 9 - 6p - 3p^2.  It is an integer
    solution exactly when that discriminant is a perfect square (checked
    with :func:`math.isqrt`), s - p - 3 is even and q >= 0.  All arithmetic
    is on integers.
    """
    target = c2_eigenvalue(p0, q0)
    hits = []
    p = 0
    while p * p + 3 * p <= target:
        disc = 4 * target + 9 - 6 * p - 3 * p * p
        s = isqrt(disc)
        if s * s == disc and s >= p + 3 and (s - p - 3) % 2 == 0:
            hits.append((p, (s - p - 3) // 2))
        p += 1
    return hits


# ---------------------------------------------------------------------------
# Isotypic blocks from Casimir spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsotypicBlock:
    """One isotypic component: all copies of one irrep, with an orthonormal basis.

    ``basis`` has shape (d^n, block_dim) with orthonormal columns spanning
    the block; ``block_dim = irrep_dim * multiplicity``.
    """

    label: tuple[int, ...]
    basis: np.ndarray
    block_dim: int
    irrep_dim: int
    multiplicity: int
    c2_cluster_index: int
    c3_refined: bool = False

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


def _weight_spaces(d: int, n: int) -> list[np.ndarray]:
    """Ascending basis indices of each su(d) weight space of (C^d)^(x)n.

    A weight space holds the basis states with one tuple of occupation
    numbers (n_0, ..., n_{d-1}).  Every transposition maps it onto itself,
    and so does C2.
    """
    # A state's digits, sorted, fix its occupation numbers.
    digits = np.sort(np.indices((d,) * n).reshape(n, -1), axis=0)
    _, space = np.unique(digits.T, axis=0, return_inverse=True)
    space = space.ravel()
    order = np.argsort(space, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(space[order])) + 1)


def isotypic_blocks(
    d: int, n: int, cluster_tol: float = CLUSTER_TOL, tol: float = RANK_TOL
) -> list[IsotypicBlock]:
    """Isotypic decomposition of (C^d)^(x)n from Casimir spectra.

    Diagonalizes C2 one weight space at a time, so the largest
    eigendecomposition has the size of the largest weight space, and each
    eigenvector is supported on one weight space.  Clusters the pooled C2
    eigenvalues, matches clusters to the expected labels by equality
    pattern and block dimension, and refines any cluster shared by two
    labels with C3 (d = 3).  C3 is applied only to the orthonormal
    eigenvectors V of such a C2-degenerate cluster, as V^dag (C3 V), so no
    d^n x d^n C3 is formed.  Blocks are returned by ascending C2 eigenvalue,
    sub-ordered by ascending C3 eigenvalue inside a refined cluster.

    Raises :class:`UnresolvedDegeneracyError` when labels cannot be
    separated or attached unambiguously.
    """
    labels = cg_decompose(n, d)
    # On label lambda, C2 = 2n(d^2-1)/d - 2n(n-1)/d + 4 content_sum(lambda):
    # the exact integer content sum has the spectrum's equality and order.
    groups: dict[int, list[tuple[int, ...]]] = {}
    for m in labels:
        groups.setdefault(content_sum(m), []).append(m)
    ordered_keys = sorted(groups)
    if any(len(groups[k]) > 1 for k in ordered_keys) and d != 3:
        raise UnresolvedDegeneracyError(
            f"labels share a C2 eigenvalue and no cubic Casimir is available for d={d}"
        )

    perms = _transpositions(d, n)
    pos = np.empty(d**n, dtype=np.intp)
    values, columns = [], []
    for states in _weight_spaces(d, n):
        # Each transposition maps this weight space onto itself, so only
        # the positions just written are read.
        pos[states] = np.arange(len(states))
        local = [pos[perm[states]] for perm in perms]
        w, v = hermitian_eig(_c2_from_transpositions(np.eye(len(states)), local, d, n), tol)
        values.append(w)
        columns += [(states, v[:, j]) for j in range(len(w))]
    evals = np.concatenate(values)
    order = np.argsort(evals, kind="stable")
    clustering = cluster_eigenvalues(evals[order], cluster_tol)
    clustering.check()
    if len(clustering.clusters) != len(ordered_keys):
        raise UnresolvedDegeneracyError(
            f"found {len(clustering.clusters)} C2 clusters, expected {len(ordered_keys)}"
        )

    blocks: list[IsotypicBlock] = []
    for ci, (key, idx) in enumerate(zip(ordered_keys, clustering.clusters)):
        members = groups[key]
        vecs = np.zeros((d**n, len(idx)), dtype=complex)
        for col, e in enumerate(order[list(idx)]):
            states, vec = columns[e]
            vecs[states, col] = vec
        expected = sum(labels[m] * irrep_dimension(m) for m in members)
        if len(idx) != expected:
            raise UnresolvedDegeneracyError(
                f"cluster {ci} has dimension {len(idx)}, labels {members} need {expected}"
            )
        if len(members) == 1:
            m = members[0]
            blocks.append(
                IsotypicBlock(m, vecs, len(idx), irrep_dimension(m), labels[m], ci)
            )
            continue
        # C2-degenerate: split the cluster along the C3 spectrum and attach
        # labels by block dimension.
        dims = {labels[m] * irrep_dimension(m): m for m in members}
        if len(dims) != len(members):
            raise UnresolvedDegeneracyError(
                f"labels {members} share both C2 value and block dimension"
            )
        sub = vecs.conj().T @ apply_C3(vecs, d, n)
        w3, u3 = hermitian_eig(sub, 1e-7)
        subcl = cluster_eigenvalues(w3, cluster_tol)
        if len(subcl.clusters) != len(members):
            raise UnresolvedDegeneracyError(
                f"C3 splits cluster {ci} into {len(subcl.clusters)} parts, expected {len(members)}"
            )
        for part in subcl.clusters:
            bd = len(part)
            if bd not in dims:
                raise UnresolvedDegeneracyError(
                    f"C3 sub-block of dimension {bd} matches no label in {members}"
                )
            m = dims[bd]
            blocks.append(
                IsotypicBlock(
                    m, vecs @ u3[:, list(part)], bd, irrep_dimension(m), labels[m], ci, True
                )
            )
    return blocks


# ---------------------------------------------------------------------------
# Center of the invariant algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CenterBasis:
    """Block-scalar operators: the orthogonal projector of each isotypic block.

    i times their real span is the center of the invariant Lie algebra; its
    dimension equals the number of non-isomorphic irreps.
    """

    labels: tuple[tuple[int, ...], ...]
    elements: tuple[np.ndarray, ...]
    block_dims: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.elements)


def center_basis_from_blocks(blocks) -> CenterBasis:
    return CenterBasis(
        tuple(b.label for b in blocks),
        tuple(b.projector() for b in blocks),
        tuple(b.block_dim for b in blocks),
    )


def center_basis(d: int, n: int, blocks=None) -> CenterBasis:
    """Projector basis of the center, built from the isotypic blocks."""
    if blocks is None:
        blocks = isotypic_blocks(d, n)
    return center_basis_from_blocks(blocks)


def center_coefficients(x, cb: CenterBasis) -> np.ndarray:
    """Complex block coefficients Tr(X P_j) / dim(P_j) of the center component."""
    x = _as_square(x)
    if cb.elements and x.shape != cb.elements[0].shape:
        raise DimensionMismatchError("operator and center basis dimensions differ")
    return np.array(
        [np.trace(x @ p) / bd for p, bd in zip(cb.elements, cb.block_dims)]
    )


def center_project(x, cb: CenterBasis) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal split X = C + S with C in the (complex) span of the projectors.

    The split is orthogonal under Re<.,.>_F; for X in the invariant algebra,
    C is the block-trace part and S is traceless on every block.
    """
    x = _as_square(x)
    coeffs = center_coefficients(x, cb)
    c = np.zeros_like(x)
    for coeff, p in zip(coeffs, cb.elements):
        c = c + coeff * p
    return c, x - c


def qubit_center_element(n: int, k: int) -> np.ndarray:
    """Closed-form center element of the n-qubit invariant algebra.

    sum_{a+b+c=k} (2a)!(2b)!(2c)!/(a!b!c!) F_(n-2k, 2a, 2b, 2c); k = 0 gives
    the identity, k = 1 gives twice the sum of the three two-body terms.
    """
    if not 0 <= k <= n // 2:
        raise ValueError(f"k must lie in 0..floor(n/2) = {n // 2}")
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for a in range(k + 1):
        for b in range(k - a + 1):
            c = k - a - b
            coeff = (
                factorial(2 * a) * factorial(2 * b) * factorial(2 * c)
                // (factorial(a) * factorial(b) * factorial(c))
            )
            out += coeff * symmetric_sum((n - 2 * k, 2 * a, 2 * b, 2 * c), 2, n)
    return out
