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
every block.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .linalg import (
    DimensionMismatchError,
    NonHermitianError,
    _as_square,
    is_skew_hermitian,
    real_span_dim,
)
from .generators import (
    gell_mann_basis,
    hat_f,
    two_body_hamiltonian,
)
from .casimir import WeightBlock, highest_weight_blocks
from .reptheory import ambient_commutant_dim
from .tolerances import RANK_TOL, VERDICT_RANK_TOL


class ClosureError(RuntimeError):
    pass


class UnsaturatedClosureError(ClosureError):
    """The bracket iteration hit its dimension cap before saturating."""


class BlockLeakageError(ClosureError):
    """An operator does not preserve an isotypic block within tolerance."""


def _swap_defects(x: np.ndarray, d: int, n: int):
    """||U X U^dag - X||_F for each adjacent factor transposition U.

    U permutes basis states, so U X U^dag is X with rows and columns
    permuted: no d^n x d^n product is formed.
    """
    grid = np.arange(d**n).reshape((d,) * n)
    for i in range(n - 1):
        p = np.swapaxes(grid, i, i + 1).ravel()
        yield float(np.linalg.norm(x[np.ix_(p, p)] - x))


@dataclass(frozen=True)
class GeneratorSet:
    """Named skew-Hermitian generators on (C^d)^(x)n.

    Members must commute with all tensor-factor permutations; closure runs
    check this (commuting with adjacent transpositions suffices).
    """

    d: int
    n: int
    generators: tuple[np.ndarray, ...]
    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.generators) != len(self.names):
            raise ValueError("generators and names must be parallel")

    def validate(self, tol: float = RANK_TOL) -> None:
        dim = self.d**self.n
        for g, name in zip(self.generators, self.names):
            g = _as_square(g, name)
            if g.shape[0] != dim:
                raise DimensionMismatchError(f"{name}: dimension {g.shape[0]} != {dim}")
            if not is_skew_hermitian(g, tol):
                raise NonHermitianError(f"{name} is not skew-Hermitian")
            scale = max(1.0, float(np.linalg.norm(g)))
            if any(defect > tol * scale for defect in _swap_defects(g, self.d, self.n)):
                raise ValueError(f"{name} does not commute with factor permutations")


def restrict_to_block(x, block, tol: float = RANK_TOL) -> np.ndarray:
    """P^dag X P in the block's orthonormal basis P = ``block.basis``.

    ``block`` is a :class:`~qsymlie.casimir.WeightBlock` (one irrep copy)
    or an :class:`~qsymlie.casimir.IsotypicBlock` (the whole block).
    Raises :class:`BlockLeakageError` if X maps the block outside itself by
    more than ``tol * max(1, ||X||_F)``.
    """
    x = _as_square(x)
    p = block.basis
    xp = x @ p
    leak = np.linalg.norm(xp - p @ (p.conj().T @ xp))
    if leak > tol * max(1.0, np.linalg.norm(x)):
        raise BlockLeakageError(
            f"leakage {leak:.3e} out of block {block.label} exceeds tolerance"
        )
    return p.conj().T @ xp


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
        self.offsets = tuple(
            int(x) for x in np.cumsum([0] + [b.irrep_dim**2 for b in self.blocks])
        )
        self.traceless_width = self.offsets[-1]
        self.width = self.traceless_width + len(self.blocks)
        self.bound = sum(b.irrep_dim**2 - 1 for b in self.blocks)

    @classmethod
    def build(cls, d: int, n: int, tol: float = RANK_TOL) -> BlockFrame:
        return cls(highest_weight_blocks(d, n, tol))

    def matrices(self, rows: np.ndarray, i: int) -> np.ndarray:
        """Block i's traceless parts of ``rows``, as skew-Hermitian (m, d_i, d_i) matrices."""
        dim = self.blocks[i].irrep_dim
        x = rows[:, self.offsets[i] : self.offsets[i + 1]]
        upper = np.triu_indices(dim, 1)
        half = len(upper[0])
        out = np.zeros((len(rows), dim, dim), dtype=complex)
        out[:, range(dim), range(dim)] = 1j * x[:, :dim]
        entries = (x[:, dim : dim + half] + 1j * x[:, dim + half :]) / sqrt(2.0)
        out[:, upper[0], upper[1]] = entries
        out[:, upper[1], upper[0]] = -entries.conj()
        return out

    def _store(self, rows: np.ndarray, i: int, mats: np.ndarray, scale: float = 1.0) -> None:
        """Write scale times the skew-Hermitian parts of ``mats`` as block i of ``rows``."""
        dim = self.blocks[i].irrep_dim
        x = rows[:, self.offsets[i] : self.offsets[i + 1]]
        upper = np.triu_indices(dim, 1)
        half = len(upper[0])
        x[:, :dim] = scale * mats[:, range(dim), range(dim)].imag
        entries = (scale / sqrt(2.0)) * (
            mats[:, upper[0], upper[1]] - mats[:, upper[1], upper[0]].conj()
        )
        x[:, dim : dim + half] = entries.real
        x[:, dim + half :] = entries.imag

    def restrict(self, x, tol: float = RANK_TOL) -> np.ndarray:
        """The row of X; raises :class:`BlockLeakageError` (see :func:`restrict_to_block`)."""
        row = np.zeros((1, self.width))
        for i, b in enumerate(self.blocks):
            m = restrict_to_block(x, b, tol)
            c = np.trace(m) / b.irrep_dim
            self._store(row, i, (m - c * np.eye(b.irrep_dim))[None])
            row[0, self.traceless_width + i] = sqrt(b.irrep_dim) * c.imag
        return row[0]

    def brackets(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Traceless rows of [a, b] for every row a of ``left`` and b of ``right``, a-major.

        For skew-Hermitian A and B, [A, B] = AB - (AB)^dag, twice the
        skew-Hermitian part of AB.  Trace parts commute with everything and
        are not read.
        """
        out = np.zeros((len(left), len(right), self.traceless_width))
        for i in range(len(self.blocks)):
            a = self.matrices(left, i)
            for j, b in enumerate(self.matrices(right, i)):
                self._store(out[:, j], i, a @ b, 2.0)
        return out.reshape(-1, self.traceless_width)


def _accept(basis: np.ndarray, cand: np.ndarray, tol: float, room: int):
    """One batch of candidate rows against the orthonormal rows ``basis``.

    Drops rows of norm <= tol, normalizes the rest, projects out the basis
    twice, and accepts the right singular vectors of singular value > tol
    (at most ``room`` of them, largest first), re-projected and
    orthonormalized by QR.  Returns (new rows, smallest accepted singular
    value, largest rejected one); a missing value is None.  ``cand`` is
    overwritten.
    """
    norms = np.linalg.norm(cand, axis=1)
    live = norms > tol
    if not live.any():
        return np.zeros((0, cand.shape[1])), None, None
    cand[~live] = 0.0
    np.divide(cand, norms[:, None], out=cand, where=live[:, None])
    if len(cand) > cand.shape[1]:
        # A tall batch has the right singular vectors and values of its
        # triangular factor, which is projected in its place.
        cand = np.linalg.qr(cand, mode="r")
    for _ in range(2):
        cand -= (cand @ basis.T) @ basis
    _, s, vt = np.linalg.svd(cand, full_matrices=False)
    s = s[: int(live.sum())]  # zero rows add only zero singular values
    keep = int(np.sum(s > tol))
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
    """One acceptance batch of :func:`lie_closure`: the seeds, then each round.

    ``dim`` is the traceless dimension after the batch; ``smallest_accepted``
    and ``largest_rejected`` are singular values of the normalized,
    projected candidates (None when there is none), whose distance to the
    tolerance is the batch's margin.  ``seconds`` is wall time and takes no
    part in comparisons.
    """

    dim: int
    offered: int
    accepted: int
    smallest_accepted: float | None
    largest_rejected: float | None
    seconds: float = field(compare=False)


@dataclass(frozen=True)
class LieClosureResult:
    """The generated Lie algebra L in block coordinates, plus provenance.

    ``traceless`` holds orthonormal rows of L', the algebra generated by the
    generators' traceless parts (see :class:`BlockFrame`).  For a saturated
    closure ``basis`` holds orthonormal rows of L itself and ``dim`` is its
    dimension; otherwise ``basis`` is ``traceless`` and ``dim`` the
    traceless dimension reached.  ``center_dim`` is the rank of the
    generators' trace parts.  ``offered`` counts the candidate rows: one
    per generator, then every bracket.  ``trace`` has one entry for the
    seeds and one per round.
    """

    d: int
    n: int
    frame: BlockFrame
    traceless: np.ndarray
    basis: np.ndarray
    dim: int
    center_dim: int
    rounds: int
    saturated: bool
    offered: int
    trace: tuple[RoundTrace, ...]
    tol: float


def levi_split(gens: GeneratorSet, frame: BlockFrame, tol: float = RANK_TOL,
               rank_tol: float = VERDICT_RANK_TOL):
    """Split each generator into its center and block-traceless parts.

    Returns (center rows, traceless rows, center_dim): the last columns and
    the first ``frame.traceless_width`` columns of each generator's row, and
    the rank of the center rows scaled by 1/||X||, so that a center
    direction counts only if it carries a non-negligible fraction of its
    generator.
    """
    rows = np.array([frame.restrict(g, tol) for g in gens.generators])
    centers = rows[:, frame.traceless_width :]
    scale = np.maximum(np.linalg.norm(rows, axis=1), 1e-300)[:, None]
    return centers, rows[:, : frame.traceless_width], real_span_dim(
        centers / scale, rank_tol, scale=1.0
    )


def lie_closure(
    gens: GeneratorSet, tol: float = RANK_TOL, max_dim: int | None = None
) -> LieClosureResult:
    """Compute the Lie algebra generated by a set of skew-Hermitian matrices.

    Works in :class:`BlockFrame` coordinates.  Each generator X_i = c_i +
    s_i splits exactly into its center part c_i and traceless part s_i.
    Only the traceless parts are closed: [X_i, X_j] = [s_i, s_j], so the
    brackets of L are those of L', the algebra the s_i generate.  The span
    is seeded with the s_i, then each round brackets the elements the
    previous one added with every s_j scaled to unit norm, and accepts the
    whole round as one batch (see :func:`_accept`).

    Brackets with the generators suffice.  The final span W lies in L',
    contains the generators, and satisfies [s, W] within W for every
    generator s.  By the Jacobi identity the x with [x, W] within W form a
    Lie subalgebra; it contains the generators, hence all of L', so W = L'.
    A closure that stops because a round added nothing offers ``k`` seeds
    and one bracket per basis element and nonzero s_j.

    Then dim L = dim D + rank{c_i + z_i}, where D = [L', L'] and z_i is the
    component of s_i in the center of L' (orthogonal to D).  D is spanned
    by the brackets of L' with the s_j; when dim L' reaches the traceless
    bound sum(irrep_dim^2 - 1), L' is all of the semisimple part, D = L'
    and every z_i = 0.

    Terminates when a round adds nothing (``saturated=True``) or when the
    traceless dimension reaches ``max_dim`` (default: the ambient invariant
    algebra dimension C(n+d^2-1, d^2-1)); a batch is cut at the cap, so
    ``dim`` never exceeds ``max_dim``.  A traceless dimension above the
    bound is noise taken for new directions and raises
    :class:`ClosureError`.
    """
    if not gens.generators:
        raise ValueError("need a non-empty generator set")
    gens.validate(tol)
    frame = BlockFrame.build(gens.d, gens.n, tol)
    if max_dim is None:
        max_dim = ambient_commutant_dim(gens.n, gens.d)
    centers, traceless, center_dim = levi_split(gens, frame, tol)
    gen_norms = np.linalg.norm(np.hstack([traceless, centers]), axis=1)
    s_norms = np.linalg.norm(traceless, axis=1)
    live = s_norms > tol * np.maximum(1.0, gen_norms)
    partners = traceless[live] / s_norms[live, None]

    basis = np.zeros((0, frame.traceless_width))
    trace = []
    cand = traceless / np.maximum(1.0, gen_norms)[:, None]
    offered, rounds = 0, 0
    while True:
        start = time.perf_counter()
        offered += len(cand)
        new, smallest, largest = _accept(basis, cand, tol, max(0, max_dim - len(basis)))
        basis = np.vstack([basis, new])
        trace.append(RoundTrace(len(basis), len(cand), len(new), smallest, largest,
                                time.perf_counter() - start))
        if len(basis) > frame.bound:
            raise ClosureError(
                f"closure dimension {len(basis)} exceeds the traceless bound "
                f"sum(irrep_dim^2 - 1) = {frame.bound}: noise was accepted"
            )
        if len(basis) >= max_dim or not len(new):
            break
        rounds += 1
        cand = frame.brackets(new, partners)
    basis.flags.writeable = False
    saturated = len(basis) < max_dim  # else the cap stopped the run
    if not saturated:
        rows = np.pad(basis, ((0, 0), (0, len(frame.blocks))))
        return LieClosureResult(gens.d, gens.n, frame, basis, rows, len(basis), center_dim,
                                rounds, False, offered, tuple(trace), tol)

    # Orthonormal coefficients, in the rows of L', of D = [L', L'] and of
    # the z_i; the rank of the c_i + z_i is taken at the verdict tolerance.
    dcoef = np.eye(len(basis))
    if len(basis) < frame.bound:
        brackets = frame.brackets(basis, partners)
        dcoef, _, _ = _accept(np.zeros((0, len(basis))), brackets @ basis.T, tol, len(basis))
    scoef = traceless @ basis.T
    rest = np.hstack([scoef - (scoef @ dcoef.T) @ dcoef, centers])
    rest /= np.maximum(gen_norms, 1e-300)[:, None]
    rank = real_span_dim(rest, VERDICT_RANK_TOL, scale=1.0)
    extra = np.linalg.svd(rest, full_matrices=False)[2][:rank]
    rows = np.vstack([
        np.pad(dcoef @ basis, ((0, 0), (0, len(frame.blocks)))),
        np.hstack([extra[:, : len(basis)] @ basis, extra[:, len(basis) :]]),
    ])
    rows.flags.writeable = False
    return LieClosureResult(gens.d, gens.n, frame, basis, rows, len(rows), center_dim,
                            rounds, True, offered, tuple(trace), tol)


def membership(x, closure: LieClosureResult, tol: float | None = None) -> tuple[bool, float]:
    """Whether x lies in the closure; returns (member, relative residual).

    Restricts x to the blocks first: the residual is the distance of its
    row from the span, relative to max(1, ||row||).  Rows hold only
    skew-Hermitian invariant operators, so the residual is at least the
    Hermitian part of x and the largest ||U x U^dag - x|| over adjacent
    factor transpositions U, relative to max(1, ||x||): a non-invariant x
    is not a member, even if its restrictions are.
    """
    x = _as_square(x)
    defect = max([np.linalg.norm(x + x.conj().T) / 2, *_swap_defects(x, closure.d, closure.n)])
    row = closure.frame.restrict(x, np.inf)
    nrm = max(1.0, float(np.linalg.norm(row)))
    rows = closure.basis
    for _ in range(2):
        row = row - rows.T @ (rows @ row)
    residual = max(float(np.linalg.norm(row)) / nrm,
                   float(defect) / max(1.0, float(np.linalg.norm(x))))
    return residual <= (closure.tol if tol is None else tol), residual


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
    case total_dim = sum(irrep_dim^2 - 1) + center_component_dim.
    """

    per_block: tuple[BlockVerdict, ...]
    center_component_dim: int
    total_dim: int
    subspace_controllable: bool
    saturated: bool
    rounds: int

    def to_json_dict(self) -> dict:
        return {
            "blocks": [
                {
                    "label": list(b.label),
                    "irrep_dim": b.irrep_dim,
                    "multiplicity": b.multiplicity,
                    "restricted_dim": b.restricted_dim,
                    "ok": b.ok,
                }
                for b in self.per_block
            ],
            "center_dim": self.center_component_dim,
            "total_dim": self.total_dim,
            "subspace_controllable": self.subspace_controllable,
            "saturated": self.saturated,
            "rounds": self.rounds,
        }


def subspace_controllability(
    closure: LieClosureResult, rank_tol: float = VERDICT_RANK_TOL
) -> ControllabilityReport:
    """Verdict per block for a saturated closure.

    A block's restricted dimension is the rank of that block's slice of the
    traceless rows, compared against irrep_dim^2 - 1.  The center
    component dimension is the closure's ``center_dim``.
    """
    if not closure.saturated:
        raise UnsaturatedClosureError("refusing verdicts for an unsaturated closure")
    frame = closure.frame
    verdicts = []
    for i, b in enumerate(frame.blocks):
        r = real_span_dim(frame.matrices(closure.traceless, i), rank_tol, scale=1.0)
        verdicts.append(
            BlockVerdict(b.label, b.irrep_dim, b.multiplicity, r, r == b.irrep_dim**2 - 1)
        )
    controllable = all(v.ok for v in verdicts)
    total = closure.dim
    if controllable:
        expected = frame.bound + closure.center_dim
        if total != expected:
            raise ClosureError(
                f"dimension split violated: closure dim {total} != "
                f"sum(irrep_dim^2-1) + center = {expected}"
            )
    return ControllabilityReport(
        tuple(verdicts), closure.center_dim, total, controllable, closure.saturated,
        closure.rounds,
    )


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

_QUBITS_RE = re.compile(r"^qubits:n=(\d+)$")
_QUTRITS_RE = re.compile(r"^qutrits:n=(\d+):(H|Sz2)$")
_LEMMA2_RE = re.compile(r"^lemma2:(\d+),(\d+),\((\d+),(\d+)\)$")


def preset(name: str) -> GeneratorSet:
    """Named generator sets.

    * ``qubits:n=K``: collective Pauli ops i*Sx, i*Sy, i*Sz plus i*Sz^2.
    * ``qutrits:n=K:H``: the 8 local collective Gell-Mann generators plus
      the symmetric two-body coupling i*H.
    * ``qutrits:n=K:Sz2``: locals plus i*(collective E3)^2.
    * ``lemma2:n1,n2,(j,m)``: a basis of block-diagonal su(n1) (+) su(n2)
      plus the single off-diagonal matrix with i at (j, m), 1-based, with
      1 <= j <= n1 < m <= n1+n2.
    """
    m = _QUBITS_RE.match(name)
    if m:
        n = int(m.group(1))
        if n < 2:
            raise ValueError("qubits preset needs n >= 2")
        sx, sy, sz = (hat_f(k, 2, n) for k in (1, 2, 3))
        gens = (1j * sx, 1j * sy, 1j * sz, 1j * (sz @ sz))
        return GeneratorSet(2, n, gens, ("i*Sx", "i*Sy", "i*Sz", "i*Sz^2"))
    m = _QUTRITS_RE.match(name)
    if m:
        n, kind = int(m.group(1)), m.group(2)
        if n < 2:
            raise ValueError("qutrits preset needs n >= 2")
        gens = [1j * hat_f(k, 3, n) for k in range(1, 9)]
        names = [f"i*E{k}_hat" for k in range(1, 9)]
        if kind == "H":
            gens.append(1j * two_body_hamiltonian(3, n))
            names.append("i*H2body")
        else:
            f3 = hat_f(3, 3, n)
            gens.append(1j * (f3 @ f3))
            names.append("i*E3_hat^2")
        return GeneratorSet(3, n, tuple(gens), tuple(names))
    m = _LEMMA2_RE.match(name)
    if m:
        n1, n2, j, mm = (int(m.group(i)) for i in range(1, 5))
        return _lemma2_set(n1, n2, j, mm)
    raise ValueError(f"unknown preset {name!r}")


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
