"""Casimir operators, isotypic blocks, and the center of the invariant algebra.

The quadratic Casimir C2 = sum_k (collective E_k)^2 acts as a scalar on each
isotypic block of the tensor-power decomposition, so clustering its spectrum
recovers the blocks; where two blocks share a C2 eigenvalue, the cubic
Casimir C3 refines the cluster, for every d.  Raw eigenvalues are never
compared against exact values, only their equality patterns are matched.

Both Casimirs lie in the center of the image of the group algebra C[S_n],
so each is a combination of permutation class sums (coefficients in
:func:`_c2_coefficients` and :func:`_c3_coefficients`): C2 of the
identity and the transpositions, C3 also of the 3-cycles, which act on
block lambda as sum c and sum c^2 - n(n-1)/2 over its box contents c
(the Jucys-Murphy content rule).  Factor permutations keep every su(d)
weight space (the basis states with one set of occupation numbers), and
each class sum there is a small count matrix, so :func:`_casimir_on_space`
is the one constructor of C2 and C3: their matrix on one weight space.  A
class is held as the images of its permutations, and its count matrix is
read off the space's own states with their digits permuted
(:func:`_class_sum`), so no d^n-long row map is formed.  A permutation of
the d levels, applied on every site, commutes with every factor
permutation and maps each weight space onto another, so the matrices of a
level-permutation orbit of weight spaces are one matrix with relabeled
rows (``_WeightSpaces.orbits``): each is built, and diagonalized, once per
orbit, on its representative, the space with non-increasing occupations.
:func:`isotypic_blocks` visits the representatives only: it diagonalizes
C2 on each and clusters their eigenvalues, each once; it refines a
C2-degenerate cluster by C3 on each, on the cluster's eigenvectors there,
and checks each block's dimension from the orbit sizes.  Clusters and C3
sub-clusters are attached to labels in ascending :func:`_block_order`, the
one exact order of the blocks (sum c, then sum c^2).  A block keeps its
columns on the representatives and gathers them into its dense d^n-row
basis, in weight-space order, only when that is read.  These blocks are
the one isotypic decomposition: :func:`highest_weight_blocks` and
:func:`highest_weight_counts` read their columns on weight space lambda,
the highest-weight vectors.  :func:`isotypic_blocks` refuses sizes whose
digit table or largest matrix would pass ``ARRAY_BUDGET`` before any array
is allocated (:func:`_check_size`).  ``apply_C2``
and ``apply_C3`` build each weight space's matrix once and apply it to
that space's rows; both are real, so real input stays real.
``build_C2`` and ``build_C3`` are the actions applied to the identity.
Every floating-point decision here reads its tolerance from
:mod:`qsymlie.tolerances`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, groupby
from math import factorial, prod

import numpy as np

from .linalg import _real_or_complex, cluster_eigenvalues, hermitian_eig
from .generators import (
    _placement_sum,
    _WeightSpaces,
    gell_mann_basis,
    perm_from_cycles,
)
from .reptheory import (  # c2_eigenvalue and degeneracy_search are re-exported
    c2_eigenvalue,
    cg_table,
    degeneracy_search,
)
from .tolerances import RANK_TOL

ARRAY_BUDGET = 1 << 30
"""Bytes: the most :func:`isotypic_blocks` may ask of one array, checked before it allocates any."""


class UnresolvedDegeneracyError(RuntimeError):
    """Isotypic blocks could not be separated by the available Casimirs."""


def _transpositions(n: int) -> np.ndarray:
    """Images of the factor transpositions P_ij, i < j, one permutation per row."""
    pairs = [perm_from_cycles(n, pair) for pair in combinations(range(1, n + 1), 2)]
    return np.array(pairs, dtype=np.intp).reshape(-1, n)


def _three_cycles(n: int) -> np.ndarray:
    """Images of the factor 3-cycles, both directions on every triple i < j < k, one per row."""
    cycles = [
        perm_from_cycles(n, cycle)
        for i, j, k in combinations(range(1, n + 1), 3)
        for cycle in ((i, k, j), (i, j, k))
    ]
    return np.array(cycles, dtype=np.intp).reshape(-1, n)


def _c2_coefficients(d: int, n: int) -> tuple[float, int]:
    """(c0, c1) with C2 = c0 + c1 sum_{i<j} P_ij: c0 = 2n(d^2-1)/d - 2n(n-1)/d, c1 = 4.

    With Tr(F_a F_b) = 2 delta_ab, sum_k F_k (x) F_k = 2 P - (2/d) 1 on two
    factors, and each F_k^2 sums to 2(d^2-1)/d times 1 on one factor.
    """
    return 2 * n * (d * d - 1) / d - 2 * n * (n - 1) / d, 4


def _c3_coefficients(d: int, n: int) -> tuple[float, float, int]:
    """(alpha, beta, gamma) with C3 = alpha + beta sum_{i<j} P_ij + gamma sum_{3-cycles} P_sigma.

    C3 = sum_{l,m,q} D_lmq hat(F_l) hat(F_m) hat(F_q), where
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
    beta = [24(d^2-4) - 48(n-2)] / d, each one correctly rounded division of
    integers.  At d = 2, d_lmq = 0 and C3 = 0.  C3 is real, and real input
    gives real output.
    """
    d2 = d * d
    alpha = 4 * (d2 - 4) * (d2 - 1) * n - 12 * (d2 - 4) * n * (n - 1) + 16 * n * (n - 1) * (n - 2)
    return alpha / d2, (24 * (d2 - 4) - 48 * (n - 2)) / d, 24


def _class_sum(perms: np.ndarray, ws: _WeightSpaces, states: np.ndarray) -> np.ndarray:
    """The sum of the factor permutations ``perms`` (images, one per row) on one weight space.

    The operator of a permutation p gathers row r from the state whose
    digit on site i is r's digit on site p(i), so it sends the weight space
    ``states`` onto itself, and with ``ws.pos`` the sum there is a count
    matrix: entry (r, c) counts the permutations that send local row r to c.
    """
    k = len(states)
    rows = ws.place[np.argsort(perms, axis=1)] @ ws.digits[:, states]
    local = ws.pos[rows] + k * np.arange(k)
    return np.bincount(local.ravel(), minlength=k * k).reshape(k, k)


def _casimir_on_space(coefficients, classes, ws: _WeightSpaces, states: np.ndarray) -> np.ndarray:
    """c0 1 + sum_k c_k (class sum k) on the weight space ``states``, as a real matrix.

    ``coefficients`` is (c0, c1, ...) and ``classes`` holds the stacked
    permutation images of each class, in the order of c1, ...: C2 is
    (:func:`_c2_coefficients`, transpositions) and C3 is
    (:func:`_c3_coefficients`, transpositions and 3-cycles).
    """
    c0, *rest = coefficients
    k = len(states)
    out = np.zeros((k, k))
    out.flat[:: k + 1] = c0
    for c, perms in zip(rest, classes):
        out += c * _class_sum(perms, ws, states)
    return out


def _apply(x, d: int, n: int, coefficients, classes) -> np.ndarray:
    """The class-sum combination applied to x, one weight space of rows at a time."""
    x = np.asarray(x, dtype=_real_or_complex(x))
    if x.shape[0] != d**n:
        raise ValueError(f"operand has {x.shape[0]} rows, need d^n = {d**n}")
    ws = _WeightSpaces(d, n)
    out = np.zeros_like(x)
    for states in ws.spaces.values():
        out[states] = _casimir_on_space(coefficients, classes, ws, states) @ x[states]
    return out


def apply_C2(x, d: int, n: int) -> np.ndarray:
    """C2 @ x for x of shape (d^n, m) (or (d^n,)), one weight space at a time."""
    return _apply(x, d, n, _c2_coefficients(d, n), (_transpositions(n),))


def apply_C3(x, d: int, n: int) -> np.ndarray:
    """C3 @ x for x of shape (d^n, m) (or (d^n,)), one weight space at a time."""
    return _apply(x, d, n, _c3_coefficients(d, n), (_transpositions(n), _three_cycles(n)))


def build_C2(d: int, n: int) -> np.ndarray:
    """Quadratic Casimir sum over the d^2-1 traceless slots of hat(F_k)^2, as a matrix."""
    return apply_C2(np.eye(d**n), d, n)


def build_C3(d: int, n: int) -> np.ndarray:
    """Cubic Casimir sum_{l,m,q} D_lmq hat(F_l) hat(F_m) hat(F_q), as a matrix."""
    return apply_C3(np.eye(d**n), d, n)


# ---------------------------------------------------------------------------
# Isotypic blocks from Casimir spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class IsotypicBlock:
    """One isotypic component: all copies of one irrep, with an orthonormal basis.

    The block is held as its real columns on the level-permutation orbit
    representatives it meets: ``on_representatives`` maps each such nu to
    its columns on weight space nu of ``weight_spaces``.  ``basis``, shape
    (ambient_dim = d^n, block_dim), holds orthonormal columns spanning the
    block; it is built on first read.  ``block_dim = irrep_dim *
    multiplicity``.  Blocks compare by identity, since their arrays have no
    truth value.
    """

    label: tuple[int, ...]
    block_dim: int
    irrep_dim: int
    multiplicity: int
    c2_cluster_index: int
    c3_refined: bool
    weight_spaces: _WeightSpaces = field(repr=False)
    on_representatives: dict = field(repr=False)

    @property
    def ambient_dim(self) -> int:
        return self.weight_spaces.d ** self.weight_spaces.n

    @cached_property
    def basis(self) -> np.ndarray:
        """Each weight space mu the block meets, in ``weight_spaces`` order, takes
        the block's next columns: its representative's, rows relabeled by mu's
        ``local`` (``_WeightSpaces.orbits``)."""
        out = np.zeros((self.ambient_dim, self.block_dim))
        top = 0
        for mu, (nu, local) in self.weight_spaces.orbits.items():
            v = self.on_representatives.get(nu)
            if v is not None:
                out[self.weight_spaces.spaces[mu], top : top + v.shape[1]] = v[local]
                top += v.shape[1]
        return out

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


def _block_order(label) -> tuple[int, int]:
    """(sum c, sum c^2) over the box contents c of ``label``: the order of the blocks.

    On block lambda, C2 = c0 + 4 sum c and C3 = alpha + beta sum c +
    24 (sum c^2 - n(n-1)/2), so the key orders C2, and C3 within a C2 tie.
    """
    contents = [col - row for row, length in enumerate(label) for col in range(length)]
    return sum(contents), sum(c * c for c in contents)


def _clusters(eig: dict) -> list[dict]:
    """The clusters of the orbit representatives' pooled eigenvalues.

    ``eig`` maps each representative nu to (ascending eigenvalues,
    eigenvectors) there.  Each cluster, in ascending order, maps every nu
    it meets to its eigenvectors whose values lie between the cluster's
    first and last value, the same floats; one ``searchsorted`` per nu
    cuts all clusters at once.  Orbit-mates hold bitwise equal values, so
    leaving them out changes no gap and neither end.
    """
    clustering = cluster_eigenvalues(np.concatenate([w for w, _ in eig.values()]))
    clustering.check()
    ev = np.array(clustering.eigenvalues)
    lo = ev[[idx[0] for idx in clustering.clusters]]
    hi = ev[[idx[-1] for idx in clustering.clusters]]
    cuts = {nu: (np.searchsorted(w, lo), np.searchsorted(w, hi, "right"))
            for nu, (w, _) in eig.items()}
    return [
        {nu: eig[nu][1][:, a[c]:b[c]] for nu, (a, b) in cuts.items() if b[c] > a[c]}
        for c in range(len(lo))
    ]


def _orbit_size(nu) -> int:
    """The number of weight spaces in the orbit of nu: d!/prod_v (#{i: nu_i = v})!."""
    return factorial(len(nu)) // prod(factorial(len(list(run))) for _, run in groupby(nu))


def _block(label, ws: _WeightSpaces, vectors: dict, irrep_dim: int, multiplicity: int,
           ci: int, refined: bool) -> IsotypicBlock:
    """The block ``label`` with columns ``vectors`` (nu -> columns on representative
    nu), checked against its CG ``irrep_dim`` and ``multiplicity``: each
    representative's columns count once per weight space of its orbit.
    """
    dim = sum(v.shape[1] * _orbit_size(nu) for nu, v in vectors.items())
    want = multiplicity * irrep_dim
    if dim != want:
        raise UnresolvedDegeneracyError(
            f"the block of {label} has dimension {dim}, the CG decomposition needs {want}"
        )
    return IsotypicBlock(label, dim, irrep_dim, multiplicity, ci, refined, ws, vectors)


def _largest_arrays(d: int, n: int) -> tuple[int, int]:
    """Bytes of the n x d^n digit table and of a float matrix on the largest weight space.

    The largest weight space holds the most balanced occupations: with
    n = qd + r, r levels hold q + 1 sites and the rest q, so it has
    k = n!/((q+1)!^r q!^(d-r)) states, and its C2 matrix k^2 float64
    entries.
    """
    q, r = divmod(n, d)
    k = factorial(n) // (factorial(q + 1) ** r * factorial(q) ** (d - r))
    return 8 * n * d**n, 8 * k * k


def _check_size(d: int, n: int) -> None:
    """Raise ``ValueError`` when an array of :func:`_largest_arrays` would
    pass ``ARRAY_BUDGET``."""
    table, matrix = _largest_arrays(d, n)
    if max(table, matrix) > ARRAY_BUDGET:
        raise ValueError(
            f"d={d}, n={n} is too large: the digit table takes {table / 2**30:.3g} GiB and the "
            f"largest weight space's matrix {matrix / 2**30:.3g} GiB, over the "
            f"{ARRAY_BUDGET / 2**30:g} GiB budget"
        )


def isotypic_blocks(d: int, n: int) -> list[IsotypicBlock]:
    """Isotypic decomposition of (C^d)^(x)n from Casimir spectra, one weight-space orbit at a time.

    On each weight space, C2 = c0 + c1 S2 with S2 the count matrix of the
    transpositions, and each eigenvector lies in one weight space.  C2 is
    diagonalized once per level-permutation orbit of weight spaces, on its
    representative nu, the space whose occupations are non-increasing;
    every other space of the orbit holds the same eigenvalues and the
    eigenvectors with rows relabeled (``_WeightSpaces.orbits``), and is
    never visited.  Only the representatives' eigenvalues are clustered
    (:func:`_clusters`).  A cluster shared by labels of one content sum is
    split by C3, which keeps every weight space too: per representative,
    V_nu^T (alpha + beta S2 + gamma S3) V_nu on the cluster's eigenvectors
    V_nu is diagonalized, and its eigenvalues are clustered.  Clusters, and
    the sub-clusters of each, are attached to the labels in ascending
    :func:`_block_order`, which is the blocks' order; each block's
    dimension, its columns on each representative times the orbit's size,
    must be its CG multiplicity times its irrep dimension.  Every
    eigendecomposition checks Hermiticity at ``RANK_TOL``, and both
    clusterings split at ``CLUSTER_TOL``.  A block holds its columns on the
    representatives; its d^n-row ``basis`` is built only when read.

    Raises :class:`UnresolvedDegeneracyError` before any array is allocated
    when two labels share their :func:`_block_order` key, then
    ``ValueError`` when the n x d^n digit table or the largest
    representative's matrix would take more than ``ARRAY_BUDGET`` bytes
    (:func:`_check_size`); later, :class:`UnresolvedDegeneracyError`
    when a cluster count or a block dimension disagrees with the labels.
    """
    labels = {m: (dim, k) for m, dim, k in cg_table(n, d)}
    keys = {m: _block_order(m) for m in labels}
    order = sorted(labels, key=keys.get)
    for a, b in zip(order, order[1:]):
        if keys[a] == keys[b]:
            raise UnresolvedDegeneracyError(f"labels {a} and {b} share their C2 and C3 values")
    _check_size(d, n)
    groups = [list(g) for _, g in groupby(order, key=lambda m: keys[m][0])]

    swaps = _transpositions(n)
    ws = _WeightSpaces(d, n)
    c2 = _c2_coefficients(d, n)
    eig = {  # orbit representative -> (eigenvalues, eigenvectors) there
        nu: hermitian_eig(_casimir_on_space(c2, (swaps,), ws, states))
        for nu, states in ws.spaces.items()
        if list(nu) == sorted(nu, reverse=True)
    }
    clusters = _clusters(eig)
    if len(clusters) != len(groups):
        raise UnresolvedDegeneracyError(
            f"found {len(clusters)} C2 clusters, expected {len(groups)}"
        )

    blocks: list[IsotypicBlock] = []
    for ci, (members, vectors) in enumerate(zip(groups, clusters)):
        if len(members) == 1:
            blocks.append(_block(members[0], ws, vectors, *labels[members[0]], ci, False))
            continue
        # C2-degenerate: split the cluster along the C3 spectrum.
        c3, classes = _c3_coefficients(d, n), (swaps, _three_cycles(n))
        refined = {}  # orbit representative -> C3 eigenvalues, cluster vectors rotated
        for nu, v in vectors.items():
            on_space = _casimir_on_space(c3, classes, ws, ws.spaces[nu])
            w3, u3 = hermitian_eig(v.T @ on_space @ v)
            refined[nu] = w3, v @ u3
        parts = _clusters(refined)
        if len(parts) != len(members):
            raise UnresolvedDegeneracyError(
                f"C3 splits cluster {ci} into {len(parts)} parts, expected {len(members)}"
            )
        for m, part in zip(members, parts):
            blocks.append(_block(m, ws, part, *labels[m], ci, True))
    return blocks


# ---------------------------------------------------------------------------
# Highest-weight bases: one copy of each irrep, read off the isotypic blocks
# ---------------------------------------------------------------------------

class HighestWeightError(RuntimeError):
    """A highest-weight count or a lowered span disagrees with the exact counts."""


def highest_weight_counts(d: int, n: int) -> dict[tuple[int, ...], int]:
    """Number of highest-weight vectors of weight lambda, for every label lambda.

    Weight lambda occurs once in irrep lambda, as its highest weight, so
    the columns of block lambda of :func:`isotypic_blocks` on weight space
    lambda are exactly the highest-weight vectors of its copies, one per
    copy: each count should equal the CG multiplicity.  Forms no d^n x d^n
    matrix.
    """
    return {b.label: b.on_representatives[b.label].shape[1] for b in isotypic_blocks(d, n)}


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


def _lowered_span(ws: _WeightSpaces, label, irrep_dim: int, top: np.ndarray) -> np.ndarray:
    """Orthonormal basis (d^n rows) of the span of all lowerings of ``top``,
    checked to have ``irrep_dim`` columns.

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
    if dim != irrep_dim:
        raise HighestWeightError(
            f"lowerings of the highest weight {label} span {dim} dimensions, "
            f"irrep dimension is {irrep_dim}"
        )
    out = np.zeros((ws.d**ws.n, dim))
    col = 0
    for states, vecs in parts:
        out[states, col : col + vecs.shape[1]] = vecs
        col += vecs.shape[1]
    return out


def highest_weight_blocks(d: int, n: int) -> list[WeightBlock]:
    """One copy of every irrep in (C^d)^(x)n, from highest-weight vectors.

    For each block of :func:`isotypic_blocks`, in its order, its columns on
    weight space lambda (see :func:`highest_weight_counts`) must number
    exactly its CG multiplicity, and the lowerings of the first of them must
    span exactly its irrep dimension; either mismatch raises
    :class:`HighestWeightError`.  Raises ``ValueError`` first, before any
    array is allocated, when the digit table or the largest weight space's
    matrix would pass ``ARRAY_BUDGET`` (:func:`_check_size`).
    """
    _check_size(d, n)
    blocks = []
    for b in isotypic_blocks(d, n):
        top = b.on_representatives[b.label]
        if top.shape[1] != b.multiplicity:
            raise HighestWeightError(
                f"weight {b.label} holds {top.shape[1]} highest-weight vectors, "
                f"CG multiplicity is {b.multiplicity}"
            )
        basis = _lowered_span(b.weight_spaces, b.label, b.irrep_dim, top[:, 0])
        blocks.append(WeightBlock(b.label, basis, basis.shape[1], b.multiplicity))
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
    terms = []
    for a in range(k + 1):
        for b in range(k - a + 1):
            c = k - a - b
            coeff = (
                factorial(2 * a) * factorial(2 * b) * factorial(2 * c)
                // (factorial(a) * factorial(b) * factorial(c))
            )
            terms.append((coeff, (n - 2 * k, 2 * a, 2 * b, 2 * c)))
    return _placement_sum(gell_mann_basis(2).elements, terms, n)
