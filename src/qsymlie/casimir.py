"""Casimir operators, isotypic blocks, and the center of the invariant algebra.

The quadratic Casimir C2 = sum_k (collective E_k)^2 acts as a scalar on each
isotypic block of the tensor-power decomposition, so clustering its spectrum
recovers the blocks.  Two non-isomorphic su(3) blocks can share a C2
eigenvalue (the quadratic eigenvalue c2(p,q) is symmetric in p,q); the cubic
Casimir C3 then refines the cluster.  Raw C2 eigenvalues are never compared
against c2(p,q) values, only their equality patterns are matched.

Both Casimirs lie in the center of the image of the group algebra C[S_n],
so each is a combination of permutation class sums (coefficients in
:func:`_c2_coefficients` and :func:`_c3_coefficients`): C2 of the
identity and the transpositions, C3 also of the 3-cycles.  Factor
permutations keep every su(d) weight space (the basis states with one set
of occupation numbers), and each class sum there is a small count matrix,
so :func:`_casimir_on_space` is the one constructor of C2 and C3: their
matrix on one weight space.  A permutation of the d levels, applied on
every site, commutes with every factor permutation and maps each weight
space onto another, so the matrices of a level-permutation orbit of weight
spaces are one matrix with relabeled rows (``_WeightSpaces.orbits``): each
is built, and diagonalized, once per orbit, on its representative.
:func:`isotypic_blocks` diagonalizes C2 per orbit and refines a
C2-degenerate cluster by C3 per orbit, on the cluster's eigenvectors
there; a block keeps its basis as weight-space pieces and assembles the
dense d^n-row basis only when it is read.  ``apply_C2`` and ``apply_C3``
apply each orbit's matrix, relabeled, to the rows of each of its weight
spaces; both are real, so real input stays real.  ``build_C2`` and
``build_C3`` are the actions applied to the identity.
Every floating-point decision here reads its tolerance from
:mod:`qsymlie.tolerances`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, groupby
from math import factorial

import numpy as np

from .linalg import _real_or_complex, cluster_eigenvalues, hermitian_eig
from .generators import _factor_map, _WeightSpaces, perm_from_cycles, symmetric_sum
from .reptheory import (  # c2_eigenvalue and degeneracy_search are re-exported
    c2_eigenvalue,
    cg_decompose,
    content_sum,
    degeneracy_search,
    irrep_dimension,
)
from .tolerances import RANK_TOL


class UnresolvedDegeneracyError(RuntimeError):
    """Isotypic blocks could not be separated by the available Casimirs."""


def _transpositions(d: int, n: int) -> np.ndarray:
    """Row maps of the factor transpositions P_ij, i < j, stacked: (P_ij x)[r] = x[map[r]]."""
    maps = [_factor_map(perm_from_cycles(n, pair), d) for pair in combinations(range(1, n + 1), 2)]
    return np.array(maps, dtype=np.intp).reshape(-1, d**n)


def _three_cycles(d: int, n: int) -> np.ndarray:
    """Row maps of the factor 3-cycles, both directions on every triple i < j < k, stacked."""
    maps = [
        _factor_map(perm_from_cycles(n, cycle), d)
        for i, j, k in combinations(range(1, n + 1), 3)
        for cycle in ((i, k, j), (i, j, k))
    ]
    return np.array(maps, dtype=np.intp).reshape(-1, d**n)


def _c2_coefficients(d: int, n: int) -> tuple[float, int]:
    """(c0, c1) with C2 = c0 + c1 sum_{i<j} P_ij: c0 = 2n(d^2-1)/d - 2n(n-1)/d, c1 = 4.

    With Tr(F_a F_b) = 2 delta_ab, sum_k F_k (x) F_k = 2 P - (2/d) 1 on two
    factors, and each F_k^2 sums to 2(d^2-1)/d times 1 on one factor.
    """
    return 2 * n * (d * d - 1) / d - 2 * n * (n - 1) / d, 4


def _c3_coefficients(n: int) -> tuple[float, int, int]:
    """(alpha, beta, gamma) with C3 = alpha + beta sum_{i<j} P_ij + gamma sum_{3-cycles} P_sigma.

    C3 = sum_{l,m,q} D_lmq hat(F_l) hat(F_m) hat(F_q) (d = 3 only), where
    D = ``structure_constants(gell_mann_basis(d)).dsym``.  With
    Tr(F_a F_b) = 2 delta_ab, D_lmq = 1/2 Tr(F_q {F_l, F_m}) = 2 d_lmq, where
    d_lmq = 1/4 Tr(F_l {F_m, F_q}) is totally symmetric, sum_m d_lmm = 0 and
    sum_{m,q} d_lmq d_rmq = (d^2-4)/d delta_lr.  On one or two factors,
    sum_a F_a^2 = 2(d^2-1)/d 1 and sum_a F_a (x) F_a = 2P - (2/d) 1.

    Expand hat(F_l) hat(F_m) hat(F_q) = sum_{i,j,k} F_l^(i) F_m^(j) F_q^(k)
    by which sites coincide:

    * One site (i = j = k): sum d_lmq F_l F_m F_q = sum d_lmq F_l {F_m, F_q}/2
      = (d^2-4)/d sum_l F_l^2 = 2(d^2-4)(d^2-1)/d^2 per site.
    * Two sites s, t, with s twice (three placements of t): each placement
      gives sum d_lmq {F_l, F_m}/2 at s times F_q at t
      = (d^2-4)/d sum_a F_a^(s) F_a^(t).  Both choices of the repeated
      site give 6(d^2-4)/d (2 P_st - 2/d) per pair.
    * Three sites a < b < c (six orderings, equal since d_lmq is symmetric):
      6 sum d_lmq F_l (x) F_m (x) F_q.  Expanding the 3-cycle sigma on these
      factors in the orthonormal basis {1/sqrt(d), F_a/sqrt(2)} of the d x d
      matrices gives sum Tr(F_l F_m F_q) F_l (x) F_m (x) F_q
      = 8 (sigma - (P_ab + P_ac + P_bc)/d + 2/d^2), and its reverse gives
      sigma^-1.
      With d_lmq = (Tr(F_l F_m F_q) + Tr(F_l F_q F_m))/4 the triple is
      12 (sigma + sigma^-1) - (24/d)(P_ab + P_ac + P_bc) + 48/d^2.

    Each pair lies in n-2 triples.  Summing, and doubling for D = 2d:
    C3 = alpha 1 + beta sum_{i<j} P_ij + 24 sum_{3-cycles} P_sigma with
    alpha = [4(d^2-4)(d^2-1) n - 12(d^2-4) n(n-1) + 16 n(n-1)(n-2)] / d^2 and
    beta = 24(d^2-4)/d - 48(n-2)/d; at d = 3, alpha = 16n^3/9 - 12n^2 + 28n
    and beta = 72 - 16n.  C3 is real, and real input gives real output.
    """
    return 16 * n**3 / 9 - 12 * n * n + 28 * n, 72 - 16 * n, 24


def _class_sum(maps: np.ndarray, states: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The sum of the factor permutations with row maps ``maps`` on one weight space.

    Each permutation maps the weight space ``states`` onto itself, and
    ``pos`` gives each state's place in its space, so the sum there is a
    count matrix: entry (r, c) counts the maps that send local row r to c.
    """
    k = len(states)
    local = pos[maps[:, states]] + k * np.arange(k)
    return np.bincount(local.ravel(), minlength=k * k).reshape(k, k)


def _casimir_on_space(coefficients, classes, states: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """c0 1 + sum_k c_k (class sum k) on the weight space ``states``, as a real matrix.

    ``coefficients`` is (c0, c1, ...) and ``classes`` holds the stacked row
    maps of each class, in the order of c1, ...: C2 is
    (:func:`_c2_coefficients`, transpositions) and C3 is
    (:func:`_c3_coefficients`, transpositions and 3-cycles).
    """
    c0, *rest = coefficients
    out = c0 * np.eye(len(states))
    for c, maps in zip(rest, classes):
        out = out + c * _class_sum(maps, states, pos)
    return out


def _apply(x, d: int, n: int, coefficients, classes) -> np.ndarray:
    """The class-sum combination applied to x, one weight space of rows at a time.

    The matrix is built once per level-permutation orbit, on its
    representative nu, and each weight space mu of the orbit takes it with
    rows and columns relabeled by ``local`` (see ``_WeightSpaces.orbits``).
    """
    x = np.asarray(x, dtype=_real_or_complex(x))
    if x.shape[0] != d**n:
        raise ValueError(f"operand has {x.shape[0]} rows, need d^n = {d**n}")
    ws = _WeightSpaces(d, n)
    out = np.zeros_like(x)
    by_orbit = sorted(ws.orbits.items(), key=lambda item: item[1][0])
    for nu, members in groupby(by_orbit, key=lambda item: item[1][0]):
        on_rep = _casimir_on_space(coefficients, classes, ws.spaces[nu], ws.pos)
        for mu, (_, local) in members:
            states = ws.spaces[mu]
            out[states] = on_rep[np.ix_(local, local)] @ x[states]
    return out


def apply_C2(x, d: int, n: int) -> np.ndarray:
    """C2 @ x for x of shape (d^n, m) (or (d^n,)), one weight-space orbit at a time."""
    return _apply(x, d, n, _c2_coefficients(d, n), (_transpositions(d, n),))


def apply_C3(x, d: int, n: int) -> np.ndarray:
    """C3 @ x for x of shape (3^n, m) (or (3^n,)), one weight-space orbit at a time (d = 3 only)."""
    if d != 3:
        raise ValueError("the cubic Casimir is implemented for d = 3 only")
    return _apply(x, d, n, _c3_coefficients(n), (_transpositions(d, n), _three_cycles(d, n)))


def build_C2(d: int, n: int) -> np.ndarray:
    """Quadratic Casimir sum over the d^2-1 traceless slots of hat(F_k)^2, as a matrix."""
    return apply_C2(np.eye(d**n), d, n)


def build_C3(d: int, n: int) -> np.ndarray:
    """Cubic Casimir sum_{l,m,q} d_{lm}^q hat(F_l) hat(F_m) hat(F_q), as a matrix (d = 3 only)."""
    return apply_C3(np.eye(d**n), d, n)


# ---------------------------------------------------------------------------
# Isotypic blocks from Casimir spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BlockPiece:
    """The basis columns of an isotypic block that lie in one weight space.

    ``vectors`` (real, len(states) x k) holds the entries on the basis
    states ``states`` of the block's basis columns ``columns``; the other
    entries of those columns are zero.  Pieces compare by identity.
    """

    states: np.ndarray
    vectors: np.ndarray
    columns: np.ndarray


@dataclass(frozen=True, eq=False)
class IsotypicBlock:
    """One isotypic component: all copies of one irrep, with an orthonormal basis.

    The basis is kept as weight-space ``pieces``; ``basis`` assembles it,
    shape (ambient_dim = d^n, block_dim), with orthonormal columns spanning
    the block, on first read.  ``block_dim = irrep_dim * multiplicity``.
    Blocks compare by identity, since their arrays have no truth value.
    """

    label: tuple[int, ...]
    pieces: tuple[BlockPiece, ...]
    ambient_dim: int
    block_dim: int
    irrep_dim: int
    multiplicity: int
    c2_cluster_index: int
    c3_refined: bool = False

    @cached_property
    def basis(self) -> np.ndarray:
        out = np.zeros((self.ambient_dim, self.block_dim))
        for piece in self.pieces:
            out[piece.states[:, None], piece.columns] = piece.vectors
        return out

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


def _runs(entries, space_of, local_of):
    """The block columns ``entries``, in order, grouped by weight space.

    Entry e is column ``local_of[e]`` of the eigenvectors on weight space
    ``space_of[e]``.  Yields (space, its local columns, their block columns).
    """
    sid = space_of[entries]
    order = np.argsort(sid, kind="stable")
    for at in np.split(order, np.flatnonzero(np.diff(sid[order])) + 1):
        yield sid[at[0]], local_of[entries[at]], at


def _pieces(runs, ws: _WeightSpaces, spaces, eig) -> tuple[BlockPiece, ...]:
    """One piece per run (s, cols, at) of :func:`_runs`, on weight space ``spaces[s]``.

    ``eig`` maps each orbit representative nu to (values, vectors) there.
    The piece's vectors are columns ``cols`` of nu's vectors, with rows
    gathered by the space's ``local`` (``_WeightSpaces.orbits``).
    """
    out = []
    for s, cols, at in runs:
        nu, local = ws.orbits[spaces[s]]
        out.append(BlockPiece(ws.spaces[spaces[s]], eig[nu][1][local[:, None], cols], at))
    return tuple(out)


def _pooled_order(values: list[np.ndarray]):
    """The pooled ``values``, their stable ascending order, and each entry's list and place."""
    pooled = np.concatenate(values)
    space_of = np.repeat(np.arange(len(values)), [len(w) for w in values])
    local_of = np.concatenate([np.arange(len(w)) for w in values])
    return pooled, np.argsort(pooled, kind="stable"), space_of, local_of


def isotypic_blocks(d: int, n: int) -> list[IsotypicBlock]:
    """Isotypic decomposition of (C^d)^(x)n from Casimir spectra, one weight-space orbit at a time.

    On each weight space, C2 = c0 + c1 S2 with S2 the count matrix of the
    transpositions, and each eigenvector lies in one weight space.  C2 is
    diagonalized once per level-permutation orbit of weight spaces, on its
    representative nu, so the largest eigendecomposition has the size of
    the largest weight space; each space of the orbit takes the same
    eigenvalues and the eigenvectors with rows gathered by its ``local``
    (``_WeightSpaces.orbits``).  The pooled C2 eigenvalues are clustered,
    and clusters are matched to the expected labels by equality pattern and
    block dimension.  A cluster shared by two labels is refined with C3
    (d = 3).  C3 keeps every weight space too, so on the cluster's
    eigenvectors V it is block diagonal: per orbit,
    V_nu^T (alpha + beta S2 + gamma S3) V_nu is diagonalized, and the pooled
    C3 eigenvalues are clustered.  Every eigendecomposition checks
    Hermiticity at ``RANK_TOL``, and both clusterings split at
    ``CLUSTER_TOL``.  Blocks are returned by ascending C2 eigenvalue,
    sub-ordered by ascending C3 eigenvalue inside a refined cluster.  Each
    block holds its basis as weight-space pieces; the d^n-row ``basis`` is
    built only when read.  An unrefined block's columns are its
    eigenvectors in ascending C2 order.

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

    swaps = _transpositions(d, n)
    ws = _WeightSpaces(d, n)
    keys = list(ws.spaces)
    c2 = _c2_coefficients(d, n)
    eig = {}  # orbit representative -> (eigenvalues, eigenvectors) there
    for nu, _ in ws.orbits.values():
        if nu not in eig:
            eig[nu] = hermitian_eig(_casimir_on_space(c2, (swaps,), ws.spaces[nu], ws.pos))
    evals, order, space_of, local_of = _pooled_order([eig[ws.orbits[mu][0]][0] for mu in keys])
    clustering = cluster_eigenvalues(evals[order])
    clustering.check()
    if len(clustering.clusters) != len(ordered_keys):
        raise UnresolvedDegeneracyError(
            f"found {len(clustering.clusters)} C2 clusters, expected {len(ordered_keys)}"
        )

    blocks: list[IsotypicBlock] = []
    for ci, (key, idx) in enumerate(zip(ordered_keys, clustering.clusters)):
        members = groups[key]
        entries = order[list(idx)]
        expected = sum(labels[m] * irrep_dimension(m) for m in members)
        if len(idx) != expected:
            raise UnresolvedDegeneracyError(
                f"cluster {ci} has dimension {len(idx)}, labels {members} need {expected}"
            )
        if len(members) == 1:
            m = members[0]
            pieces = _pieces(_runs(entries, space_of, local_of), ws, keys, eig)
            blocks.append(
                IsotypicBlock(m, pieces, d**n, len(idx), irrep_dimension(m), labels[m], ci)
            )
            continue
        # C2-degenerate: split the cluster along the C3 spectrum and attach
        # labels by block dimension.
        dims = {labels[m] * irrep_dimension(m): m for m in members}
        if len(dims) != len(members):
            raise UnresolvedDegeneracyError(
                f"labels {members} share both C2 value and block dimension"
            )
        c3, classes = _c3_coefficients(n), (swaps, _three_cycles(d, n))
        # Orbit-mates have bitwise equal C2 eigenvalues, so the cluster takes
        # the same local columns from each, and V_nu^T C3 V_nu is theirs too.
        cluster = list(_runs(entries, space_of, local_of))
        cluster_keys = [keys[s] for s, _, _ in cluster]
        refined = {}  # orbit representative -> C3 eigenvalues, cluster vectors rotated
        for mu, (_, cols, _) in zip(cluster_keys, cluster):
            nu = ws.orbits[mu][0]
            if nu not in refined:
                v = eig[nu][1][:, cols]
                on_space = _casimir_on_space(c3, classes, ws.spaces[nu], ws.pos)
                w3, u3 = hermitian_eig(v.T @ on_space @ v)
                refined[nu] = w3, v @ u3
        c3vals, order3, space_of3, local_of3 = _pooled_order(
            [refined[ws.orbits[mu][0]][0] for mu in cluster_keys]
        )
        subcl = cluster_eigenvalues(c3vals[order3])
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
            runs = _runs(order3[list(part)], space_of3, local_of3)
            pieces = _pieces(runs, ws, cluster_keys, refined)
            blocks.append(
                IsotypicBlock(m, pieces, d**n, bd, irrep_dimension(m), labels[m], ci, True)
            )
    return blocks


# ---------------------------------------------------------------------------
# Highest-weight bases: one copy of each irrep, with no Casimir
# ---------------------------------------------------------------------------

class HighestWeightError(RuntimeError):
    """A highest-weight count or a lowered span disagrees with the exact counts."""


def _highest_weight_space(ws: _WeightSpaces, label) -> np.ndarray:
    """Orthonormal real columns spanning the kernel on weight space ``label`` of every E_{i,i+1}.

    The kernel is the eigenvectors of sum_i E_{i,i+1}^T E_{i,i+1} with
    eigenvalue at most ``RANK_TOL * max(1, largest eigenvalue)``.
    """
    steps = filter(None, (ws.ladder(label, i, i + 1) for i in range(ws.d - 1)))
    maps = [m for _, m in steps]
    if not maps:  # no raising map reaches a weight: the whole space is highest
        return np.eye(len(ws.spaces[label]))
    w, v = hermitian_eig(sum(m.T @ m for m in maps))
    return v[:, w <= RANK_TOL * max(1.0, w[-1])]


def highest_weight_counts(d: int, n: int) -> dict[tuple[int, ...], int]:
    """Number of highest-weight vectors of weight lambda, for every label lambda.

    Weight space lambda holds the basis states with occupation numbers
    lambda; the kernel there of the stacked collective raising maps
    E_{i,i+1} holds the highest-weight vectors, one per copy of the irrep,
    so each count should equal the CG multiplicity.  Works on one weight
    space at a time and forms no d^n x d^n matrix.
    """
    ws = _WeightSpaces(d, n)
    return {m: _highest_weight_space(ws, m).shape[1] for m in cg_decompose(n, d)}


@dataclass(frozen=True, eq=False)
class WeightBlock:
    """One copy of the irrep ``label`` inside (C^d)^(x)n.

    ``basis`` is real with orthonormal columns, shape (d^n, irrep_dim): the
    lowerings of one highest-weight vector.  An S_n-invariant X acts on the
    isotypic block of ``label`` as X_lambda (x) 1 over the ``multiplicity``
    copies, so X maps this span into itself, and X -> basis^T X basis,
    taken over every label, is faithful on the invariant algebra.  Blocks
    compare by identity.
    """

    label: tuple[int, ...]
    basis: np.ndarray
    irrep_dim: int
    multiplicity: int


def _lowered_span(ws: _WeightSpaces, label, top: np.ndarray) -> np.ndarray:
    """Orthonormal basis (d^n rows) of the span of all lowerings of ``top``.

    Each lowering E_{i+1,i} moves one box from row i to row i+1, so it raises
    sum_k k*mu_k by one; weights are visited one such level at a time, and
    the lowered vectors reaching a weight from all its parents are
    orthonormalized together: an SVD keeps the left singular vectors of
    singular value above ``RANK_TOL * max(1, largest)``.
    """
    parts = []
    level = {tuple(label): top[:, None]}
    while level:
        below: dict[tuple[int, ...], list[np.ndarray]] = {}
        for mu, vecs in level.items():
            parts.append((ws.spaces[mu], vecs))
            for i in range(ws.d - 1):
                step = ws.ladder(mu, i + 1, i)
                if step is not None:
                    below.setdefault(step[0], []).append(step[1] @ vecs)
        level = {}
        for mu, lowered in below.items():
            u, s, _ = np.linalg.svd(np.hstack(lowered), full_matrices=False)
            keep = s > RANK_TOL * max(1.0, s.max(initial=0.0))
            if keep.any():
                level[mu] = u[:, keep]
    dim = sum(vecs.shape[1] for _, vecs in parts)
    if dim != irrep_dimension(label):
        raise HighestWeightError(
            f"lowerings of the highest weight {label} span {dim} dimensions, "
            f"irrep dimension is {irrep_dimension(label)}"
        )
    out = np.zeros((ws.d**ws.n, dim))
    col = 0
    for states, vecs in parts:
        out[states, col : col + vecs.shape[1]] = vecs
        col += vecs.shape[1]
    return out


def highest_weight_blocks(d: int, n: int) -> list[WeightBlock]:
    """One copy of every irrep in (C^d)^(x)n, from highest-weight vectors.

    For each label lambda, the highest-weight vectors of weight lambda (see
    :func:`highest_weight_counts`) must number exactly the CG multiplicity,
    and the lowerings of one of them must span exactly ``irrep_dimension``
    columns; either mismatch raises :class:`HighestWeightError`.  No
    Casimir is needed: the vectors of weight lambda that every raising
    operator kills are exactly the highest-weight vectors of the copies of
    irrep lambda, whatever other labels share its C2 value.  Blocks come in
    the order of :func:`isotypic_blocks`:
    ascending content sum, which orders C2, and for d = 3 ties by ascending
    C3, which is a positive multiple of (p-q)(2p+q+3)(p+2q+3).
    """
    ws = _WeightSpaces(d, n)
    labels = cg_decompose(n, d)

    def order(m):
        if d != 3:
            return content_sum(m), 0
        p, q = m[0] - m[1], m[1] - m[2]
        return content_sum(m), (p - q) * (2 * p + q + 3) * (p + 2 * q + 3)

    blocks = []
    for m in sorted(labels, key=order):
        top = _highest_weight_space(ws, m)
        if top.shape[1] != labels[m]:
            raise HighestWeightError(
                f"weight {m} holds {top.shape[1]} highest-weight vectors, "
                f"CG multiplicity is {labels[m]}"
            )
        basis = _lowered_span(ws, m, top[:, 0])
        blocks.append(WeightBlock(m, basis, basis.shape[1], labels[m]))
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
    """Projector basis of the center, one projector per isotypic block."""
    return CenterBasis(
        tuple(b.label for b in blocks),
        tuple(b.projector() for b in blocks),
        tuple(b.block_dim for b in blocks),
    )


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
