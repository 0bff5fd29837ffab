"""Numerical Lie closure and subspace-controllability verdicts.

The dynamical Lie algebra of a set of permutation-invariant Hamiltonians is
computed by bracketing and orthonormalizing until saturation.  Against the
isotypic decomposition this splits as (center components of the generators)
(+) (a subalgebra of the block-traceless part); the system is subspace
controllable when the restriction to every isotypic block spans the full
traceless algebra of one irrep copy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .linalg import (
    RANK_TOL,
    DimensionMismatchError,
    NonHermitianError,
    OrthonormalSpan,
    _as_square,
    commutator,
    is_skew_hermitian,
    orthonormal_extend,
    real_span_dim,
)
from .generators import (
    adjacent_transpositions,
    gell_mann_basis,
    hat_f,
    permutation_operator,
    two_body_hamiltonian,
)
from .casimir import CenterBasis, IsotypicBlock, center_coefficients, center_project
from .reptheory import ambient_commutant_dim

# Rank decisions on restricted blocks compound restriction error on top of
# the closure tolerance, hence the looser default.
VERDICT_RANK_TOL = 1e-7


class ClosureError(RuntimeError):
    pass


class UnsaturatedClosureError(ClosureError):
    """The bracket iteration hit its dimension cap before saturating."""


class BlockLeakageError(ClosureError):
    """An operator does not preserve an isotypic block within tolerance."""


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
        swaps = [permutation_operator(p, self.d) for p in adjacent_transpositions(self.n)]
        for g, name in zip(self.generators, self.names):
            g = _as_square(g, name)
            if g.shape[0] != dim:
                raise DimensionMismatchError(f"{name}: dimension {g.shape[0]} != {dim}")
            if not is_skew_hermitian(g, tol):
                raise NonHermitianError(f"{name} is not skew-Hermitian")
            scale = max(1.0, float(np.linalg.norm(g)))
            for u in swaps:
                if np.linalg.norm(g @ u - u @ g) > tol * scale:
                    raise ValueError(f"{name} does not commute with factor permutations")


@dataclass(frozen=True)
class LieClosureResult:
    """Orthonormal basis of the generated Lie algebra plus provenance.

    ``offered`` counts the candidates given to
    :func:`~qsymlie.linalg.orthonormal_extend`: the generators and every
    bracket, accepted or not.
    """

    d: int
    n: int
    span: OrthonormalSpan
    dim: int
    rounds: int
    saturated: bool
    offered: int


def lie_closure(
    gens: GeneratorSet, tol: float = RANK_TOL, max_dim: int | None = None
) -> LieClosureResult:
    """Compute the Lie algebra generated by a set of skew-Hermitian matrices.

    Seeds the span with the k generators, then breadth-first by discovery
    index brackets every basis element with each generator, in generator
    order, offering each bracket to
    :func:`~qsymlie.linalg.orthonormal_extend`.  A round brackets the
    elements found in the round before it.

    Brackets with the generators suffice.  The final span W lies in the
    generated algebra L, contains the generators, and satisfies [s, W]
    within W for every generator s.  By the Jacobi identity the x with
    [x, W] within W form a Lie subalgebra; it contains the generators,
    hence all of L, so [W, W] lies within [L, W], within W.  So W is a Lie
    algebra containing the generators, and W = L.  A closure that stops
    because a round added nothing offers exactly ``k * (1 + dim)``
    candidates (``offered``).

    Terminates when a full round adds nothing (``saturated=True``) or when
    the dimension reaches ``max_dim`` (default: the ambient invariant
    algebra dimension C(n+d^2-1, d^2-1)).  Seeding stops at the cap too, so
    ``dim`` never exceeds ``max_dim``.  A run that reaches the ambient
    dimension, with no smaller cap, is saturated: the validated span is then
    the whole invariant algebra.
    """
    if not gens.generators:
        raise ValueError("need a non-empty generator set")
    gens.validate(tol)
    ambient = ambient_commutant_dim(gens.n, gens.d)
    if max_dim is None:
        max_dim = ambient
    span = OrthonormalSpan(gens.d**gens.n, tol=tol)
    offered = 0
    for g in gens.generators:
        if span.dim >= max_dim:
            break
        offered += 1
        _, span = orthonormal_extend(span, g)
    rounds = 0
    saturated = False
    start = 0
    capped = span.dim >= max_dim
    while not capped:
        end = span.dim
        if start == end:
            saturated = True
            break
        rounds += 1
        for i in range(start, end):
            left = span.basis[i]
            for g in gens.generators:
                offered += 1
                added, span = orthonormal_extend(span, commutator(left, g))
                if added and span.dim >= max_dim:
                    capped = True
                    break
            if capped:
                break
        start = end
    # A validated span of the ambient dimension is the whole invariant
    # algebra, which is closed under brackets; a cap below it stays a cap.
    saturated = saturated or (span.dim >= ambient and max_dim >= ambient)
    return LieClosureResult(gens.d, gens.n, span, span.dim, rounds, saturated, offered)


def membership(x, closure: LieClosureResult, tol: float | None = None) -> tuple[bool, float]:
    """Whether x lies in the closure span; returns (member, relative residual)."""
    residual = closure.span.residual(x)
    return residual <= (closure.span.tol if tol is None else tol), residual


def levi_split(gens: GeneratorSet, cb: CenterBasis, rank_tol: float = VERDICT_RANK_TOL):
    """Split each generator into center + block-traceless parts.

    Returns (center_components, traceless_components, center_component_dim)
    where the dimension is that of the real span of the center components.
    """
    centers = []
    traceless = []
    rows = []
    for g in gens.generators:
        c, s = center_project(g, cb)
        centers.append(c)
        traceless.append(s)
        coeffs = center_coefficients(g, cb)
        # Scale-free row: a center direction counts only if it carries a
        # non-negligible fraction of the generator's size.
        rows.append(np.concatenate([coeffs.real, coeffs.imag]) / max(1e-300, np.linalg.norm(g)))
    return centers, traceless, _coeff_rank(rows, rank_tol)


def _coeff_rank(rows, tol: float) -> int:
    mat = np.vstack(rows)
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0:
        return 0
    # Rows come from unit-size operators, so 1 is the reference scale; an
    # all-noise stack must rank as zero.
    return int(np.sum(s > tol * max(1.0, s[0])))


def restrict_to_block(x, block: IsotypicBlock, tol: float = RANK_TOL) -> np.ndarray:
    """P^dag X P in the block's orthonormal basis.

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
    closure: LieClosureResult,
    blocks,
    cb: CenterBasis,
    rank_tol: float = VERDICT_RANK_TOL,
) -> ControllabilityReport:
    """Verdict per isotypic block for a saturated closure.

    Restricts every closure basis element to each block, removes the trace
    part, and compares the real span dimension against irrep_dim^2 - 1.  The
    center component dimension is the rank of the center coefficients of the
    closure basis (brackets are block-traceless, so this equals the span of
    the generators' center components).
    """
    if not closure.saturated:
        raise UnsaturatedClosureError("refusing verdicts for an unsaturated closure")
    verdicts = []
    for b in blocks:
        eye = np.eye(b.block_dim)
        restricted = []
        for x in closure.span.basis:
            m = restrict_to_block(x, b, rank_tol)
            restricted.append(m - (np.trace(m) / b.block_dim) * eye)
        r = real_span_dim(restricted, rank_tol, scale=1.0)
        verdicts.append(
            BlockVerdict(b.label, b.irrep_dim, b.multiplicity, r, r == b.irrep_dim**2 - 1)
        )
    rows = []
    for x in closure.span.basis:
        coeffs = center_coefficients(x, cb)
        rows.append(np.concatenate([coeffs.real, coeffs.imag]))
    center_dim = _coeff_rank(rows, rank_tol)
    controllable = all(v.ok for v in verdicts)
    total = closure.dim
    if controllable:
        expected = sum(v.irrep_dim**2 - 1 for v in verdicts) + center_dim
        if total != expected:
            raise ClosureError(
                f"dimension split violated: closure dim {total} != "
                f"sum(irrep_dim^2-1) + center = {expected}"
            )
    return ControllabilityReport(
        tuple(verdicts), center_dim, total, controllable, closure.saturated, closure.rounds
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
