"""Numerical Lie closure and subspace-controllability verdicts.

The closure runs in Schur-Weyl block coordinates.  An S_n-invariant
operator X acts on the isotypic block of label lambda as X_lambda (x) 1
over the m_lambda copies, so it is fixed by the tuple of
X_lambda = Q_lambda^T X Q_lambda, where the real columns of Q_lambda span
one copy of the irrep (:func:`~qsymlie.casimir.highest_weight_blocks`).
Each X_lambda splits exactly into its trace part, a multiple of the
identity, and a traceless part.  The trace parts span the center; the
traceless parts of the generators generate the semisimple part, which is
closed by bracketing and accepted one round at a time.  The system is
subspace controllable when the traceless algebra acts as su(irrep_dim) on
every block.  A generator set is all matrices or all words (see
:class:`GeneratorSet`).

Every floating-point decision here reads its tolerance from
:mod:`qsymlie.tolerances`: ``RANK_TOL`` for the generator checks, the
block-leakage gate, the acceptance cut and membership; ``VERDICT_RANK_TOL``
for the rank of the center part; ``LINK_TOL`` for the linking test.  No
function takes a tolerance.
"""

from __future__ import annotations

import re
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import combinations
from math import sqrt

import numpy as np

from .linalg import (
    DimensionMismatchError,
    NonFiniteError,
    NonHermitianError,
    _as_square,
    is_skew_hermitian,
    real_span_dim,
)
from .generators import (
    _factor_map,
    collective_columns,
    gell_mann_basis,
    sn_generators,
)
from .casimir import WeightBlock, highest_weight_blocks
from .reptheory import ambient_commutant_dim
from .tolerances import LINK_TOL, RANK_TOL, VERDICT_RANK_TOL


class ClosureError(RuntimeError):
    pass


class UnsaturatedClosureError(ClosureError):
    """The bracket iteration hit its dimension cap before saturating."""


class BlockLeakageError(ClosureError):
    """An operator does not preserve an isotypic block within tolerance."""


@lru_cache(maxsize=8)
def _swap_maps(d: int, n: int) -> tuple[np.ndarray, ...]:
    """Gather indices of the factor permutations (1 2) and (1 2 ... n), read-only."""
    maps = tuple(_factor_map(perm, d) for perm in sn_generators(n))
    for p in maps:
        p.flags.writeable = False
    return maps


def _swap_defects(x: np.ndarray, d: int, n: int):
    """||U X U^dag - X||_F for U the factor permutations (1 2) and (1 2 ... n).

    U permutes basis states, so U X U^dag is X with rows and columns
    permuted: no d^n x d^n product is formed, and the difference is taken
    in place.
    """
    for p in _swap_maps(d, n):
        moved = x[p[:, None], p]
        moved -= x
        yield np.linalg.norm(moved)


def _as_operator(x, dim: int, name: str = "matrix") -> np.ndarray:
    """``x`` as a dim x dim complex array; raises :class:`DimensionMismatchError`
    for another shape, then :class:`NonFiniteError` for a NaN or inf entry."""
    x = _as_square(x, name)
    if x.shape[0] != dim:
        raise DimensionMismatchError(f"{name}: dimension {x.shape[0]} != {dim}")
    if not np.isfinite(x).all():
        raise NonFiniteError(f"{name} has non-finite entries")
    return x


@dataclass(frozen=True)
class GeneratorSet:
    """Named skew-Hermitian generators on (C^d)^(x)n: all d^n x d^n matrices
    or all words.

    A word maps ``rho``, taking each d x d ``a`` to its collective operator
    in some representation, to the generator there; ``word(lambda a:
    collective(a, n))`` is its matrix.  Words commute with all factor
    permutations; :meth:`validate` checks that matrices commute with (1 2)
    and (1 2 ... n), which suffices.  A set that mixes the two kinds raises
    ``ValueError``.
    """

    d: int
    n: int
    generators: tuple
    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.generators) != len(self.names):
            raise ValueError("generators and names must be parallel")
        kinds = {callable(g) for g in self.generators}
        if len(kinds) > 1:
            raise ValueError("a generator set holds only words or only matrices, not both")
        object.__setattr__(self, "_words", kinds == {True})

    def validate(self) -> None:
        """Check each matrix: d^n x d^n, finite, skew-Hermitian, and commuting
        with (1 2) and (1 2 ... n), the last two at ``RANK_TOL * max(1, ||X||_F)``.
        Words pass unchecked: :func:`levi_split` reads them.

        The matrices are checked one at a time, in the order listed, so of
        several failures the first generator's first check raises.  X + X^dag
        is written into one d^n x d^n buffer, shared by all of them.
        """
        if self._words:
            return
        dim = self.d**self.n
        herm = np.empty((dim, dim), dtype=complex)
        for g, name in zip(self.generators, self.names):
            g = _as_operator(g, dim, name)
            cut = RANK_TOL * max(1.0, np.linalg.norm(g))
            np.conjugate(g.T, out=herm)
            herm += g
            if np.linalg.norm(herm) > cut:
                raise NonHermitianError(f"{name} is not skew-Hermitian")
            if any(defect > cut for defect in _swap_defects(g, self.d, self.n)):
                raise ValueError(f"{name} does not commute with factor permutations")


def _restrict_stack(xs: np.ndarray, p: np.ndarray):
    """(P^dag X P, ||XP - P P^dag X P||_F) for each X of the (k, D, D) stack ``xs``."""
    xp = xs @ p
    parts = p.conj().T @ xp
    return parts, np.linalg.norm(xp - p @ parts, axis=(1, 2))


def restrict_to_block(x, block) -> np.ndarray:
    """P^dag X P in the block's orthonormal basis P = ``block.basis``.

    ``block`` is a :class:`~qsymlie.casimir.WeightBlock` (one irrep copy)
    or an :class:`~qsymlie.casimir.IsotypicBlock` (the whole block).  A
    matrix X that maps the block outside itself by more than ``RANK_TOL *
    max(1, ||X||_F)`` raises :class:`BlockLeakageError`, after the checks
    of :func:`_as_operator` against P's rows.  A word X is read with
    rho(a) = P^dag (A-hat P), cannot leak, and must be skew-Hermitian.
    """
    p = block.basis
    if callable(x):  # P spans one irrep copy, so rho is a representation
        m = x(lambda a: p.conj().T @ collective_columns(a, p, sum(block.label)))
        if not is_skew_hermitian(m):
            raise NonHermitianError(f"is not skew-Hermitian on block {block.label}")
        return m
    x = _as_operator(x, len(p))
    (m,), leak = _restrict_stack(x[None], p)
    _leakage_gate([block], leak, np.linalg.norm(x))
    return m


def _leakage_gate(blocks, leaks, norm: float) -> None:
    """Raise :class:`BlockLeakageError` for the first of ``blocks`` whose
    leakage exceeds ``RANK_TOL * max(1, norm)``."""
    over = np.flatnonzero(np.asarray(leaks) > RANK_TOL * max(1.0, norm))
    if len(over):
        raise BlockLeakageError(
            f"leakage {leaks[over[0]]:.3e} out of block {blocks[over[0]].label} exceeds tolerance"
        )


class BlockFrame:
    """Coordinates of skew-Hermitian invariant operators: one real row each.

    Block coordinates X -> (X_lambda), one copy per label, with no weight
    for the multiplicities.  A row holds, for each block in order, the
    traceless part A of X_lambda as d_lambda^2 reals: Im A_jj for each j,
    then sqrt(2) Re A_jk and sqrt(2) Im A_jk for j < k.  Then, one real per
    block, sqrt(d_lambda) Im c_lambda for the trace part c_lambda 1 with
    c_lambda = tr(X_lambda)/d_lambda.  The dot product of two rows is
    sum_lambda Re Tr(X_lambda Y_lambda^dag).  The first ``traceless_width``
    columns are the traceless part and the rest the center part.
    """

    def __init__(self, blocks):
        self.blocks: tuple[WeightBlock, ...] = tuple(blocks)
        dims = [b.irrep_dim for b in self.blocks]
        self.offsets = tuple(int(x) for x in np.cumsum([0] + [k * k for k in dims]))
        self.traceless_width = self.offsets[-1]
        self.width = self.traceless_width + len(self.blocks)
        self.bound = sum(k * k - 1 for k in dims)
        self._upper = tuple(np.triu_indices(k, 1) for k in dims)

    @classmethod
    def build(cls, d: int, n: int) -> BlockFrame:
        return cls(highest_weight_blocks(d, n))

    def matrices(self, rows: np.ndarray, i: int) -> np.ndarray:
        """Block i's traceless parts of ``rows``, as skew-Hermitian (m, d_i, d_i) matrices."""
        dim = self.blocks[i].irrep_dim
        x = rows[:, self.offsets[i] : self.offsets[i + 1]]
        upper = self._upper[i]
        half = len(upper[0])
        out = np.zeros((len(rows), dim, dim), dtype=complex)
        out[:, range(dim), range(dim)] = 1j * x[:, :dim]
        entries = (x[:, dim : dim + half] + 1j * x[:, dim + half :]) / sqrt(2.0)
        out[:, upper[0], upper[1]] = entries
        out[:, upper[1], upper[0]] = -entries.conj()
        return out

    def _store(self, rows: np.ndarray, i: int, mats: np.ndarray, scale: float = 1.0) -> None:
        """Write scale times the skew-Hermitian parts of ``mats`` as block i of ``rows``.

        ``mats`` is (..., d_i, d_i) and ``rows`` (..., width) with the same
        leading shape.
        """
        dim = self.blocks[i].irrep_dim
        x = rows[..., self.offsets[i] : self.offsets[i + 1]]
        upper = self._upper[i]
        half = len(upper[0])
        x[..., :dim] = scale * mats[..., range(dim), range(dim)].imag
        entries = (scale / sqrt(2.0)) * (
            mats[..., upper[0], upper[1]] - mats[..., upper[1], upper[0]].conj()
        )
        x[..., dim : dim + half] = entries.real
        x[..., dim + half :] = entries.imag

    def _rows(self, parts) -> np.ndarray:
        """The rows of k operators from ``parts``, their (k, d_i, d_i) matrices on each block i."""
        rows = np.zeros((len(parts[0]), self.width))
        for i, (b, m) in enumerate(zip(self.blocks, parts)):
            c = np.trace(m, axis1=1, axis2=2) / b.irrep_dim
            self._store(rows, i, m - c[:, None, None] * np.eye(b.irrep_dim))
            rows[:, self.traceless_width + i] = sqrt(b.irrep_dim) * c.imag
        return rows

    def trace_part(self, rows: np.ndarray) -> float:
        """||rows T||_F for the traceless-width ``rows``, T the blocks' unit
        trace directions: on block i, 1/sqrt(d_i) at each Im A_jj column."""
        sums = [rows[:, o : o + b.irrep_dim].sum(axis=1) / sqrt(b.irrep_dim)
                for o, b in zip(self.offsets, self.blocks)]
        return float(np.linalg.norm(sums))

    def brackets(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Traceless rows of [a, b] for every row a of ``left`` and b of ``right``, a-major.

        For skew-Hermitian A and B, [A, B] = AB - (AB)^dag, twice the
        skew-Hermitian part of AB.  Trace parts commute with everything and
        are not read.  Each block takes every product A_a B_b in one matrix
        product: the stacked rows of the A_a times the B_b side by side.
        """
        out = np.zeros((len(left), len(right), self.traceless_width))
        for i, b in enumerate(self.blocks):
            dim = b.irrep_dim
            a = self.matrices(left, i).reshape(-1, dim)
            c = self.matrices(right, i).transpose(1, 0, 2).reshape(dim, -1)
            products = (a @ c).reshape(len(left), dim, len(right), dim).swapaxes(1, 2)
            self._store(out, i, products, 2.0)
        return out.reshape(-1, self.traceless_width)


def _accept(basis: np.ndarray, cand: np.ndarray, room: int):
    """One batch of candidate rows against the orthonormal rows ``basis``.

    Projects out the basis twice and accepts the right singular vectors of
    singular value > RANK_TOL (at most ``room`` of them, largest first),
    re-projected and orthonormalized by QR.  Candidates enter at their own
    size: a closure run offers unit partner rows and their brackets with
    orthonormal rows, so a bracket that nearly cancels keeps its small norm
    and its rounding noise is not scaled up.  Returns (new rows, smallest
    accepted singular value, largest rejected one); a missing value is
    None.  ``cand`` is overwritten.
    """
    if not len(cand):
        return np.zeros((0, cand.shape[1])), None, None
    if len(cand) > cand.shape[1]:
        # A tall batch has the right singular vectors and values of its
        # triangular factor, which is projected in its place.
        cand = np.linalg.qr(cand, mode="r")
    for _ in range(2):
        cand -= (cand @ basis.T) @ basis
    _, s, vt = np.linalg.svd(cand, full_matrices=False)
    keep = int(np.sum(s > RANK_TOL))
    taken = min(keep, room)
    new = np.zeros((0, cand.shape[1]))
    if taken:
        new = vt[:taken] - (vt[:taken] @ basis.T) @ basis
        new = np.ascontiguousarray(np.linalg.qr(new.T)[0].T)
    smallest = float(s[taken - 1]) if taken else None
    largest = float(s[keep]) if keep < len(s) else None
    return new, smallest, largest


@dataclass(frozen=True)
class RoundTrace:
    """One acceptance batch of a closure run: the seeds, then each round.

    ``dim`` is the traceless dimension after the batch, whose ``offered``
    rows are the k' partners or k' brackets per row the last batch added;
    ``smallest_accepted`` and ``largest_rejected`` are singular values of
    the projected candidates (None when there is none), whose distance to
    ``RANK_TOL`` is the batch's margin.  ``seconds`` is wall time and takes
    no part in comparisons.
    """

    dim: int
    offered: int
    accepted: int
    smallest_accepted: float | None
    largest_rejected: float | None
    seconds: float = field(compare=False)


@dataclass(frozen=True)
class ClosureRun:
    """One run of the round loop: on the block of ``label``, or on the whole
    frame when ``label`` is None.

    ``dim`` is the traceless dimension reached, ``rounds`` the bracket
    rounds after the seeds, ``offered`` the candidate rows (the k' partners
    as seeds, then every bracket) and ``trace`` one entry for the seeds and
    one per round.  ``trace_part`` is ||basis T||_F for a run that stopped
    at its bound (see :meth:`BlockFrame.trace_part`), whose distance below
    ``RANK_TOL`` is the margin of that stop, and None for a run that ended
    on an empty batch or at a cap below its bound.
    """

    label: tuple[int, ...] | None
    dim: int
    rounds: int
    offered: int
    trace: tuple[RoundTrace, ...]
    trace_part: float | None


@dataclass(frozen=True)
class LinkTest:
    """Whether two full blocks of equal dimension move together.

    ``plain`` and ``conjugate`` are the smallest singular values, relative to
    the largest, of the stacked equations X s_i = t_i X and X conj(s_i) =
    t_i X over the parts s_i and t_i on the two blocks of the generators'
    traceless rows, scaled to unit norm.  The blocks are linked when either
    falls below ``LINK_TOL``; the distance of both to it is the margin.
    """

    labels: tuple[tuple[int, ...], tuple[int, ...]]
    plain: float
    conjugate: float
    linked: bool


@dataclass(frozen=True)
class LieClosureResult:
    """The generated Lie algebra L in block coordinates, plus provenance.

    ``traceless`` holds orthonormal rows of L', the algebra generated by the
    generators' traceless parts (see :class:`BlockFrame`).  For a saturated
    closure ``basis`` holds orthonormal rows of L itself and ``dim`` is its
    dimension; otherwise ``basis`` is ``traceless`` and ``dim`` the
    traceless dimension reached.  ``center_dim`` is the rank of the
    generators' trace parts.  ``runs`` has one entry per closed block, in
    frame order, then one for the joint closure if it ran; ``links`` the
    linking tests; ``path`` is ``"blocks"`` or ``"joint"`` (see
    :func:`lie_closure`).
    """

    d: int
    n: int
    frame: BlockFrame
    traceless: np.ndarray
    basis: np.ndarray
    dim: int
    center_dim: int
    saturated: bool
    runs: tuple[ClosureRun, ...]
    links: tuple[LinkTest, ...]
    path: str

    @property
    def rounds(self) -> int:
        """The most rounds any run took."""
        return max((run.rounds for run in self.runs), default=0)

    @property
    def offered(self) -> int:
        """Candidate rows offered over all runs."""
        return sum(run.offered for run in self.runs)


def levi_split(gens: GeneratorSet, frame: BlockFrame):
    """Split each generator into its center and block-traceless parts.

    Returns (center rows, traceless rows, center_dim): the last columns and
    the first ``frame.traceless_width`` columns of each generator's row, and
    the rank of the center rows scaled by 1/||X||, so that a center
    direction counts only if it carries a non-negligible fraction of its
    generator.  Words are read on each block by :func:`restrict_to_block`,
    in generator order; the first that is not skew-Hermitian raises,
    naming it.  Matrices are restricted as one stack, one product per
    block; the first in generator order that leaks out of a block raises
    :class:`BlockLeakageError`, at its first leaky block.
    """
    if gens._words:
        parts = [[] for _ in frame.blocks]
        for g, name in zip(gens.generators, gens.names):
            try:
                for part, b in zip(parts, frame.blocks):
                    part.append(restrict_to_block(g, b))
            except NonHermitianError as exc:
                raise NonHermitianError(f"{name} {exc}") from None
        rows = frame._rows([np.array(part) for part in parts])
    else:
        dim = gens.d**gens.n  # an empty set still makes a (0, dim, dim) stack
        stack = np.array(gens.generators, dtype=complex).reshape(len(gens.generators), dim, dim)
        parts, leaks = zip(*(_restrict_stack(stack, b.basis) for b in frame.blocks))
        rows = frame._rows(parts)
        for leak, norm in zip(np.array(leaks).T, np.linalg.norm(stack, axis=(1, 2))):
            _leakage_gate(frame.blocks, leak, norm)
    centers = rows[:, frame.traceless_width :]
    scale = np.maximum(np.linalg.norm(rows, axis=1), 1e-300)[:, None]
    return centers, rows[:, : frame.traceless_width], real_span_dim(centers / scale)


def _unit_rows(rows: np.ndarray, gen_norms: np.ndarray) -> np.ndarray:
    """The rows of norm above ``RANK_TOL * max(1, gen_norms)``, scaled to unit
    norm; ``gen_norms`` holds the norm of each row's whole generator."""
    norms = np.linalg.norm(rows, axis=1)
    live = norms > RANK_TOL * np.maximum(1.0, gen_norms)
    return rows[live] / norms[live, None]


def _close(frame: BlockFrame, partners: np.ndarray, max_dim: int,
           label, span: np.ndarray | None = None) -> tuple[np.ndarray, ClosureRun]:
    """The round loop: orthonormal rows of the algebra the unit rows
    ``partners`` generate, and its :class:`ClosureRun`.

    The partners are the seeds, accepted as one batch; then each round
    brackets the rows the previous batch added with every partner and
    accepts the whole round as one batch (see :func:`_accept`), projected
    first onto the orthonormal rows ``span``, if given, that contain the
    algebra.  The bound is ``frame.bound``, or the count of ``span``.  Stops
    when a batch adds nothing, after k'(1 + D) candidates for k' partners
    and dimension D; at the bound, after k'(1 + D - a) candidates for a last
    batch of a rows; or at ``max_dim``.  A dimension above the bound raises
    :class:`ClosureError`, and so does a run at the bound whose rows carry a
    trace part above ``RANK_TOL``: the rows then miss a direction of the
    bound's space, and the round the stop skips could have added it.
    Otherwise that round adds nothing: a bracket has no trace part.
    """
    basis = np.zeros((0, frame.traceless_width))
    trace = []
    offered, rounds, trace_part = 0, 0, None
    bound = frame.bound if span is None else len(span)
    where = "" if label is None else f" on block {label}"
    cand = partners.copy()
    while True:
        start = time.perf_counter()
        offered += len(cand)
        cand = cand if span is None else (cand @ span.T) @ span
        new, smallest, largest = _accept(basis, cand, max(0, max_dim - len(basis)))
        basis = np.vstack([basis, new])
        trace.append(RoundTrace(len(basis), len(cand), len(new), smallest, largest,
                                time.perf_counter() - start))
        if len(basis) > bound:
            raise ClosureError(
                f"closure dimension {len(basis)}{where} exceeds the traceless bound "
                f"sum(irrep_dim^2 - 1) = {bound}: noise was accepted"
            )
        if len(basis) == bound:
            trace_part = frame.trace_part(basis)
            if trace_part > RANK_TOL:
                raise ClosureError(
                    f"closure rows{where} at the traceless bound {bound} carry a "
                    f"trace part {trace_part:.3e} above {RANK_TOL:g}: noise was accepted"
                )
            break
        if len(basis) >= max_dim or not len(new):
            break
        rounds += 1
        cand = frame.brackets(new, partners)
    return basis, ClosureRun(label, len(basis), rounds, offered, tuple(trace), trace_part)


def _link_test(labels, s: np.ndarray, t: np.ndarray) -> LinkTest:
    """The :class:`LinkTest` of two blocks, from the (k, d, d) parts ``s`` and ``t``."""
    eye = np.eye(s.shape[1])
    sigmas = []
    for left in (s, s.conj()):
        # Row-major vec: vec(X A) = (1 kron A^T) vec(X), vec(B X) = (B kron 1) vec(X).
        eqs = np.vstack([np.kron(eye, a.T) - np.kron(b, eye) for a, b in zip(left, t)])
        sv = np.linalg.svd(eqs, compute_uv=False)
        sigmas.append(float(sv[-1] / sv[0]))
    return LinkTest(labels, sigmas[0], sigmas[1], min(sigmas) < LINK_TOL)


def lie_closure(gens: GeneratorSet, max_dim: int | None = None) -> LieClosureResult:
    """Compute the Lie algebra generated by skew-Hermitian matrices or words.

    Works in :class:`BlockFrame` coordinates.  Each generator X_i = c_i +
    s_i splits exactly into its center part c_i and traceless part s_i.
    Only the traceless parts are closed: [X_i, X_j] = [s_i, s_j], so the
    brackets of L are those of L', the algebra the s_i generate.

    Each block lambda of irrep_dim >= 2 is closed on its own, in a
    one-block frame (see :func:`_close`).  The projection of L' on a block
    is the algebra the projections s_i^lambda generate, so a block's run
    gives its verdict exactly, whatever the other blocks do.  A run's one
    set of rows is its partners, the k' nonzero s_i^lambda scaled to unit
    norm: it seeds the span with them, then each round brackets the
    elements the previous one added with every partner.

    Brackets with the generators suffice.  The final span W lies in the
    algebra, contains the generators, and satisfies [s, W] within W for
    every generator s: a run stops when a round adds nothing, or at the
    bound, where W is the whole space the run closes in (its trace part is
    gated, see :func:`_close`).  By the Jacobi identity the x with [x, W] within W
    form a Lie subalgebra; it contains the generators, hence the whole
    algebra, so W is all of it.  A run that stops because a round added
    nothing at dimension D offers k'(1 + D) candidates: its k' partners as
    seeds, and one bracket per basis element and partner.  A run that
    stops at its bound offers k'(1 + D - a), since the a rows of its last
    batch are not bracketed.

    When every block is full, L' is semisimple and, by Goursat's lemma, the
    sum of one diagonal su(d) per class of linked blocks: blocks of equal
    dimension between which an automorphism, X s X^-1 or X conj(s) X^-1,
    takes every s_i^lambda to s_i^mu (see :class:`LinkTest`).  With no
    linked pair, L' is all of sum su(irrep_dim) and no joint closure runs:
    ``path`` is ``"blocks"`` and ``traceless`` holds the blocks' rows side
    by side.  Otherwise (``path`` is ``"joint"``) the same loop closes L'
    once for the total dimension, with the nonzero s_j scaled to unit norm
    as partners, inside the span of the blocks' rows: L' lies in the sum of
    its projections on the blocks, and that sum's dimension is the run's
    bound.  A frame with one block of irrep_dim >= 2 reuses that block's run.

    Then dim L = dim D + rank{c_i + z_i}, where D = [L', L'] and z_i is the
    component of s_i in the center of L' (orthogonal to D).  D is spanned
    by the brackets of L' with the s_j; when dim L' reaches the traceless
    bound sum(irrep_dim^2 - 1), L' is all of the semisimple part, D = L'
    and every z_i = 0.

    Terminates when every run stops adding (``saturated=True``) or when the
    total traceless dimension reaches ``max_dim`` (default: the ambient
    invariant algebra dimension C(n+d^2-1, d^2-1)); a batch is cut at the
    cap, so ``dim`` never exceeds ``max_dim``, and blocks after the cap are
    not closed; a negative ``max_dim`` raises ``ValueError``.  A dimension
    above a run's bound, irrep_dim^2 - 1 on a block, is noise taken for new
    directions and raises :class:`ClosureError`; so is a trace part above
    ``RANK_TOL`` in the rows of a run at its bound.
    """
    if not gens.generators:
        raise ValueError("need a non-empty generator set")
    if max_dim is None:
        max_dim = ambient_commutant_dim(gens.n, gens.d)
    elif max_dim < 0:
        raise ValueError(f"max_dim must be >= 0, got {max_dim}")
    gens.validate()
    frame = BlockFrame.build(gens.d, gens.n)
    centers, traceless, center_dim = levi_split(gens, frame)
    return _closure_of_split(gens.d, gens.n, frame, centers, traceless, center_dim, max_dim)


def _closure_of_split(d: int, n: int, frame: BlockFrame, centers: np.ndarray,
                      traceless: np.ndarray, center_dim: int, max_dim: int) -> LieClosureResult:
    """:func:`lie_closure` of the generators' rows in ``frame`` (see :func:`levi_split`)."""
    gen_norms = np.linalg.norm(np.hstack([traceless, centers]), axis=1)

    runs, pieces, reached = [], [], 0
    for i, b in enumerate(frame.blocks):
        if b.irrep_dim < 2:
            continue  # su(1) = 0
        if reached >= max_dim:
            break
        cols = slice(frame.offsets[i], frame.offsets[i + 1])
        rows, run = _close(BlockFrame([b]), _unit_rows(traceless[:, cols], gen_norms),
                           max_dim - reached, b.label)
        runs.append(run)
        pieces.append((reached, cols, rows))
        reached += len(rows)
    blockwise = np.zeros((reached, frame.traceless_width))
    for top, cols, rows in pieces:
        blockwise[top : top + len(rows), cols] = rows
    if reached >= max_dim:  # the cap stopped the run
        blockwise.flags.writeable = False
        rows = np.pad(blockwise, ((0, 0), (0, len(frame.blocks))))
        return LieClosureResult(d, n, frame, blockwise, rows, reached, center_dim, False,
                                tuple(runs), (), "blocks")

    dims = {run.label: run.dim for run in runs}
    full = [i for i, b in enumerate(frame.blocks)
            if b.irrep_dim >= 2 and dims[b.label] == b.irrep_dim**2 - 1]
    unit = _unit_rows(traceless, gen_norms)
    links = tuple(
        _link_test((frame.blocks[i].label, frame.blocks[j].label),
                   frame.matrices(unit, i), frame.matrices(unit, j))
        for i, j in combinations(full, 2)
        if frame.blocks[i].irrep_dim == frame.blocks[j].irrep_dim
    )
    basis, path = blockwise, "blocks"
    if len(full) < len(runs) or any(link.linked for link in links):
        path = "joint"
        if len(runs) > 1:
            basis, run = _close(frame, unit, max_dim, None, blockwise)
            runs.append(run)
    basis.flags.writeable = False
    rows = _rows_of_l(frame, basis, traceless, centers, unit)
    return LieClosureResult(d, n, frame, basis, rows, len(rows), center_dim, True,
                            tuple(runs), links, path)


def _rows_of_l(frame: BlockFrame, basis: np.ndarray, traceless: np.ndarray,
               centers: np.ndarray, partners: np.ndarray) -> np.ndarray:
    """Orthonormal rows of L, from orthonormal rows ``basis`` of L', the
    generators' split (see :func:`lie_closure`) and the closure's unit
    ``partners`` (see :func:`_unit_rows`)."""
    gen_norms = np.linalg.norm(np.hstack([traceless, centers]), axis=1)
    # Orthonormal coefficients, in the rows of L', of D = [L', L'] and of
    # the z_i; the rank of the c_i + z_i is taken at the verdict tolerance.
    # A full L' is its own D, with every z_i = 0: no coefficients.
    d_rows, scoef = basis, np.zeros((len(traceless), 0))
    if len(basis) < frame.bound:
        brackets = frame.brackets(basis, partners)
        dcoef, _, _ = _accept(np.zeros((0, len(basis))), brackets @ basis.T, len(basis))
        scoef = traceless @ basis.T
        scoef -= (scoef @ dcoef.T) @ dcoef
        d_rows = dcoef @ basis
    rest = np.hstack([scoef, centers]) / np.maximum(gen_norms, 1e-300)[:, None]
    _, s, vt = np.linalg.svd(rest, full_matrices=False)
    extra = vt[: int(np.sum(s > VERDICT_RANK_TOL * max(1.0, s[0])))]
    k = scoef.shape[1]
    rows = np.vstack([
        np.pad(d_rows, ((0, 0), (0, len(frame.blocks)))),
        np.hstack([extra[:, :k] @ basis[:k], extra[:, k:]]),
    ])
    rows.flags.writeable = False
    return rows


def membership(x, closure: LieClosureResult) -> tuple[bool, float]:
    """Whether x lies in the closure; returns (member, relative residual).

    Restricts x to the blocks first: the residual is the distance of its
    row from the span, relative to max(1, ||row||).  Rows hold only
    skew-Hermitian invariant operators, so the residual is at least the
    Hermitian part of x and the largest ||U x U^dag - x|| over the factor
    permutations U = (1 2) and (1 2 ... n), relative to max(1, ||x||): a
    non-invariant x is not a member, even if its restrictions are.
    Membership is a residual of at most ``RANK_TOL``.  An x that is not
    d^n x d^n or not finite raises as in :func:`_as_operator`.
    """
    x = _as_operator(x, closure.d**closure.n)
    defect = max([np.linalg.norm(x + x.conj().T) / 2, *_swap_defects(x, closure.d, closure.n)])
    frame = closure.frame
    row = frame._rows([_restrict_stack(x[None], b.basis)[0] for b in frame.blocks])[0]
    nrm = max(1.0, float(np.linalg.norm(row)))
    rows = closure.basis
    for _ in range(2):
        row = row - rows.T @ (rows @ row)
    residual = max(float(np.linalg.norm(row)) / nrm,
                   float(defect) / max(1.0, float(np.linalg.norm(x))))
    return residual <= RANK_TOL, residual


@dataclass(frozen=True)
class BlockVerdict:
    label: tuple[int, ...]
    irrep_dim: int
    multiplicity: int
    restricted_dim: int
    ok: bool


@dataclass(frozen=True)
class ControllabilityReport:
    """Per-block verdicts plus the center component of the generated algebra.

    ``subspace_controllable`` is true iff every block's restricted traceless
    span has dimension irrep_dim^2 - 1 (restrictions act diagonally across
    multiplicity copies, so the target is never block_dim^2 - 1), in which
    case total_dim = sum(irrep_dim^2 - 1) + center_component_dim, less
    irrep_dim^2 - 1 for each block linked to an earlier one.  ``path`` is
    the closure's (see :func:`lie_closure`).
    """

    per_block: tuple[BlockVerdict, ...]
    center_component_dim: int
    total_dim: int
    subspace_controllable: bool
    saturated: bool
    rounds: int
    path: str

    def to_json_dict(self) -> dict:
        return {
            "blocks": [asdict(b) for b in self.per_block],
            "center_dim": self.center_component_dim,
            "total_dim": self.total_dim,
            "subspace_controllable": self.subspace_controllable,
            "saturated": self.saturated,
            "rounds": self.rounds,
            "path": self.path,
        }


def subspace_controllability(closure: LieClosureResult) -> ControllabilityReport:
    """Verdict per block for a saturated closure.

    A block's restricted dimension is the dimension its own closure
    reached, compared against irrep_dim^2 - 1.  The center component
    dimension is the closure's ``center_dim``.  When every block is full,
    the total must split exactly: one su(irrep_dim) per class of linked
    blocks, plus the center component.
    """
    if not closure.saturated:
        raise UnsaturatedClosureError("refusing verdicts for an unsaturated closure")
    frame = closure.frame
    dims = {run.label: run.dim for run in closure.runs}
    verdicts = []
    for b in frame.blocks:
        r = dims.get(b.label, 0)
        verdicts.append(
            BlockVerdict(b.label, b.irrep_dim, b.multiplicity, r, r == b.irrep_dim**2 - 1)
        )
    controllable = all(v.ok for v in verdicts)
    total = closure.dim
    if controllable:
        expected = frame.bound + closure.center_dim
        irrep = {b.label: b.irrep_dim for b in frame.blocks}
        classes = {b.label: {b.label} for b in frame.blocks}  # each union drops one su(d)
        for link in closure.links:
            first, second = (classes[label] for label in link.labels)
            if link.linked and first is not second:
                expected -= irrep[link.labels[1]] ** 2 - 1
                first |= second
                classes.update(dict.fromkeys(second, first))
        if total != expected:
            raise ClosureError(
                f"dimension split violated: closure dim {total} != "
                f"sum(irrep_dim^2-1) + center, less linked blocks = {expected}"
            )
    return ControllabilityReport(
        tuple(verdicts), closure.center_dim, total, controllable, closure.saturated,
        closure.rounds, closure.path,
    )


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

_QUBITS_RE = re.compile(r"^qubits:n=(\d+)$")
_QUTRITS_RE = re.compile(r"^qutrits:n=(\d+):(H|Sz2)$")
_LEMMA2_RE = re.compile(r"^lemma2:(\d+),(\d+),\((\d+),(\d+)\)$")


def preset(name: str) -> GeneratorSet:
    """Named generator sets.

    * ``qubits:n=K``: the words i*Sx, i*Sy, i*Sz plus i*Sz^2, S = rho(sigma).
    * ``qutrits:n=K:H``: the 8 local words i*rho(E_k) plus the symmetric
      two-body coupling i*H = (i/2)(rho(E3)^2 - rho(E3^2)).
    * ``qutrits:n=K:Sz2``: locals plus i*rho(E3)^2.
    * ``lemma2:n1,n2,(j,m)``: matrices on one site: a basis of block-diagonal
      su(n1) (+) su(n2) plus the single off-diagonal matrix with i at (j, m),
      1-based, with 1 <= j <= n1 < m <= n1+n2.
    """
    m = _QUBITS_RE.match(name)
    if m:
        n = int(m.group(1))
        if n < 2:
            raise ValueError("qubits preset needs n >= 2")
        sx, sy, sz = gell_mann_basis(2).elements[1:]
        words = (_local(sx), _local(sy), _local(sz), lambda rho: 1j * rho(sz) @ rho(sz))
        return GeneratorSet(2, n, words, ("i*Sx", "i*Sy", "i*Sz", "i*Sz^2"))
    m = _QUTRITS_RE.match(name)
    if m:
        n, kind = int(m.group(1)), m.group(2)
        if n < 2:
            raise ValueError("qutrits preset needs n >= 2")
        e3 = gell_mann_basis(3).elements[3]  # Z = diag(1, -1, 0)
        words = [_local(a) for a in gell_mann_basis(3).elements[1:]]
        names = [f"i*E{k}_hat" for k in range(1, 9)]
        if kind == "H":  # sum_{i<j} Z_i Z_j = (rho(Z)^2 - rho(Z^2)) / 2
            words.append(lambda rho: 0.5j * (rho(e3) @ rho(e3) - rho(e3 @ e3)))
            names.append("i*H2body")
        else:
            words.append(lambda rho: 1j * rho(e3) @ rho(e3))
            names.append("i*E3_hat^2")
        return GeneratorSet(3, n, tuple(words), tuple(names))
    m = _LEMMA2_RE.match(name)
    if m:
        n1, n2, j, mm = (int(m.group(i)) for i in range(1, 5))
        return _lemma2_set(n1, n2, j, mm)
    raise ValueError(f"unknown preset {name!r}")


def _local(a):
    """The word i rho(a)."""
    return lambda rho: 1j * rho(a)


def _lemma2_set(n1: int, n2: int, j: int, m: int) -> GeneratorSet:
    if n1 < 1 or n2 < 1 or n1 + n2 < 3:
        raise ValueError("need n1, n2 >= 1 with n1 + n2 >= 3")
    if not (1 <= j <= n1 and n1 + 1 <= m <= n1 + n2):
        raise ValueError(f"off-diagonal position ({j},{m}) outside the blocks")
    d = n1 + n2
    gens: list[np.ndarray] = []
    names: list[str] = []
    for offset, size, tag in ((0, n1, "A"), (n1, n2, "B")):
        if size == 1:
            continue  # su(1) = {0}
        for k, e in enumerate(gell_mann_basis(size).elements[1:], start=1):
            emb = np.zeros((d, d), dtype=complex)
            emb[offset : offset + size, offset : offset + size] = e
            gens.append(1j * emb)
            names.append(f"i*su({size}){tag}_{k}")
    x = np.zeros((d, d), dtype=complex)
    x[j - 1, m - 1] = 1j
    x[m - 1, j - 1] = 1j
    gens.append(x)
    names.append(f"X_{j}_{m}")
    # Single site: permutation-invariance is vacuous, blocks are the whole space.
    return GeneratorSet(d, 1, tuple(gens), tuple(names))
