"""Dense complex linear algebra primitives.

Everything in this package lives on the real vector space of complex square
matrices equipped with the real part of the Frobenius inner product
Re<A,B> = Re Tr(A B^dag).  The closure holds its spans as rows of
:class:`qsymlie.closure.BlockFrame` coordinates; :class:`OrthonormalSpan`,
grown by :func:`orthonormal_extend` into a fresh span, is the dense
reference span that checks the closure.

The Hermiticity checks, :func:`hermitian_eig`, :func:`cluster_eigenvalues`
and :func:`real_span_dim` read their cuts from :mod:`qsymlie.tolerances`
and take no tolerance argument.  Only :class:`OrthonormalSpan` carries its
own ``tol``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import index

import numpy as np

from .tolerances import CLUSTER_TOL, RANK_TOL, VERDICT_RANK_TOL


class DimensionMismatchError(ValueError):
    """Operands do not share the required square shape."""


class NonHermitianError(ValueError):
    """A Hermitian (or skew-Hermitian) matrix was required."""


class NonFiniteError(ValueError):
    """Matrix contains NaN or infinite entries."""


def _as_square(a, name: str = "matrix", dtype=complex) -> np.ndarray:
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    return a


def _as_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = _as_square(a, "first operand")
    b = _as_square(b, "second operand")
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a, b


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    a, b = _as_pair(a, b)
    return a @ b - b @ a


def frobenius_inner(a, b) -> complex:
    """Tr(A B^dag)."""
    a, b = _as_pair(a, b)
    return complex(np.vdot(b, a))  # vdot conjugates its first argument


def kron(a, b) -> np.ndarray:
    """Kronecker product; result dimension is the product of the factors'."""
    return np.kron(_as_square(a), _as_square(b))


def _real_or_complex(a) -> type:
    return complex if np.iscomplexobj(a) else float


def is_hermitian(a) -> bool:
    a = _as_square(a, dtype=_real_or_complex(a))
    return np.linalg.norm(a - a.conj().T) <= RANK_TOL * max(1.0, np.linalg.norm(a))


def is_skew_hermitian(a) -> bool:
    a = _as_square(a)
    return np.linalg.norm(a + a.conj().T) <= RANK_TOL * max(1.0, np.linalg.norm(a))


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, orthonormal eigenvectors as columns).
    Real input stays real (a real symmetric eigh, real eigenvectors).
    Raises :class:`NonHermitianError` if the input fails the Hermiticity
    check (relative tolerance ``RANK_TOL``).
    """
    h = _as_square(h, dtype=_real_or_complex(h))
    if not is_hermitian(h):
        raise NonHermitianError("hermitian_eig requires a Hermitian matrix")
    w, v = np.linalg.eigh(h)
    return w, v


# ---------------------------------------------------------------------------
# Eigenvalue clustering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenClustering:
    """Sorted eigenvalues partitioned into groups of near-equal values.

    ``clusters`` holds index tuples into ``eigenvalues`` (which is ascending).
    ``min_gap`` and ``max_spread``, and both divided by ``bound``, measure
    how far the clustering is from its tolerance.
    """

    eigenvalues: tuple[float, ...]
    clusters: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.clusters)

    @property
    def bound(self) -> float:
        """The clustering threshold, ``CLUSTER_TOL * max(1, spectral radius)``."""
        return _cluster_bound(self.eigenvalues)

    @property
    def min_gap(self) -> float:
        """Smallest gap between adjacent clusters; inf with fewer than two clusters."""
        ev = self.eigenvalues
        pairs = zip(self.clusters, self.clusters[1:])
        return min((ev[right[0]] - ev[left[-1]] for left, right in pairs), default=float("inf"))

    @property
    def max_spread(self) -> float:
        """Largest max - min inside one cluster; 0 for an empty clustering."""
        ev = self.eigenvalues
        return max((ev[c[-1]] - ev[c[0]] for c in self.clusters), default=0.0)

    @property
    def relative_gap(self) -> float:
        """``min_gap / bound``: the clustering is valid only above 1."""
        return self.min_gap / self.bound

    @property
    def relative_spread(self) -> float:
        """``max_spread / bound``: the clustering is valid only up to 1."""
        return self.max_spread / self.bound

    def check(self) -> None:
        """Validate the within-spread and between-gap invariants."""
        bound, spread, gap = self.bound, self.max_spread, self.min_gap
        if spread > bound:
            raise ValueError(f"cluster spread {spread:g} exceeds {bound:g}")
        if gap <= bound:
            raise ValueError(f"adjacent clusters separated by only {gap:g}")


def _cluster_bound(ascending) -> float:
    """``CLUSTER_TOL * max(1, spectral radius)`` of sorted values, read at their ends."""
    return CLUSTER_TOL * max([1.0, *(abs(x) for x in ascending[:1] + ascending[-1:])])


def cluster_eigenvalues(values) -> EigenClustering:
    """Partition real values into maximal groups split at relative gaps.

    Values are sorted ascending first; a new cluster starts wherever the gap
    to the previous value exceeds ``CLUSTER_TOL * max(1, spectral radius)``.
    Empty input yields an empty clustering.
    """
    vals = sorted(float(x) for x in np.asarray(values, dtype=float).ravel())
    if not vals:
        return EigenClustering((), ())
    bound = _cluster_bound(vals)
    clusters: list[list[int]] = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[i - 1] > bound:
            clusters.append([i])
        else:
            clusters[-1].append(i)
    return EigenClustering(tuple(vals), tuple(tuple(c) for c in clusters))


# ---------------------------------------------------------------------------
# Orthonormal spans under Re<.,.>_F
# ---------------------------------------------------------------------------

def _realvec(a: np.ndarray) -> np.ndarray:
    # Interleaved (re, im) entries of the row-major matrix: Re<A,B>_F equals
    # the Euclidean dot product of these vectors, and a contiguous vector
    # reads back as the matrix through a complex view.
    return np.ascontiguousarray(a, dtype=complex).view(np.float64).ravel()


def _mat_from_realvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.ascontiguousarray(v).view(complex).reshape(dim, dim)


class OrthonormalSpan:
    """Orthonormal basis of a real span of complex ``dim x dim`` matrices.

    Basis elements are pairwise orthonormal under Re<A,B>_F.  Instances are
    immutable; :func:`orthonormal_extend` returns a new span.  The basis is
    stored as the rows of a float64 array (see :func:`_realvec`).
    """

    __slots__ = ("ambient_dim", "tol", "_rows")

    def __init__(self, ambient_dim: int, tol: float = RANK_TOL):
        self.ambient_dim = int(ambient_dim)
        self.tol = float(tol)
        self._rows = np.empty((0, 2 * self.ambient_dim**2))

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def basis(self) -> np.ndarray:
        """Read-only ``(dim, ambient_dim, ambient_dim)`` view of the basis."""
        d = self.ambient_dim
        view = self._rows.view(complex).reshape(self.dim, d, d)
        view.flags.writeable = False
        return view

    def _validate(self, x) -> np.ndarray:
        x = _as_square(x, "candidate")
        if x.shape[0] != self.ambient_dim:
            raise DimensionMismatchError(
                f"candidate dimension {x.shape[0]} != ambient {self.ambient_dim}"
            )
        if not np.all(np.isfinite(x)):
            raise NonFiniteError("candidate has non-finite entries")
        return x

    def project(self, x) -> np.ndarray:
        """Orthogonal projection of ``x`` onto the span."""
        x = self._validate(x)
        if not self.dim:
            return np.zeros_like(x)
        v = self._rows.T @ (self._rows @ _realvec(x))
        return _mat_from_realvec(v, self.ambient_dim)

    def residual(self, x) -> float:
        """Relative distance of ``x`` from the span: ||x - Px|| / max(1, ||x||)."""
        x = self._validate(x)
        v = _realvec(x)
        nrm = np.linalg.norm(v)
        rows = self._rows
        if self.dim:
            v = v - rows.T @ (rows @ v)
            v = v - rows.T @ (rows @ v)
        return float(np.linalg.norm(v) / max(1.0, nrm))

    def contains(self, x) -> bool:
        return self.residual(x) <= self.tol

    def check(self) -> None:
        """Validate pairwise orthonormality at the span's tolerance."""
        g = self._rows @ self._rows.T
        if self.dim and np.max(np.abs(g - np.eye(self.dim))) > self.tol:
            raise ValueError("basis is not orthonormal at the span tolerance")


def orthonormal_extend(span: OrthonormalSpan, candidate) -> tuple[bool, OrthonormalSpan]:
    """Try to grow a span by one direction.

    Subtracts the projection onto the existing basis (one modified
    Gram-Schmidt pass plus one re-orthogonalization pass).  If the residual
    norm exceeds ``tol * max(1, ||candidate||_F)`` the normalized residual is
    appended and ``(True, new_span)`` is returned; otherwise the span is
    returned unchanged with ``False``.
    """
    x = span._validate(candidate)
    v = _realvec(x)
    norm_x = np.linalg.norm(v)
    rows = span._rows
    if span.dim:
        v = v - rows.T @ (rows @ v)
        v = v - rows.T @ (rows @ v)
    r = np.linalg.norm(v)
    if r <= span.tol * max(1.0, norm_x):
        return False, span
    out = OrthonormalSpan(span.ambient_dim, span.tol)
    out._rows = np.vstack([rows, v / r])
    return True, out


def span_of(matrices, ambient_dim: int | None = None, tol: float = RANK_TOL) -> OrthonormalSpan:
    """Orthonormal span of a sequence of matrices (order-dependent basis)."""
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    if ambient_dim is None:
        if not mats:
            raise DimensionMismatchError("ambient_dim required for an empty span")
        ambient_dim = mats[0].shape[0]
    span = OrthonormalSpan(ambient_dim, tol=tol)
    for m in mats:
        _, span = orthonormal_extend(span, m)
    return span


def real_span_dim(matrices) -> int:
    """Dimension of the real span of matrices under Re<.,.>_F.

    Rank of the stacked real vectors, counting singular values above
    ``VERDICT_RANK_TOL * max(1, s_max)``.  The inputs are taken to be of
    unit reference size (e.g. restrictions of unit-norm matrices), so a
    stack that is all numerically zero has rank zero.
    """
    mats = list(matrices)
    if not mats:
        return 0
    rows = np.vstack([_realvec(np.asarray(m, dtype=complex)) for m in mats])
    s = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(s > VERDICT_RANK_TOL * max(1.0, s.max(initial=0.0))))


# ---------------------------------------------------------------------------
# Matrix exchange format
# ---------------------------------------------------------------------------

def matrix_to_json(a) -> dict:
    """Encode a square complex matrix as {"dim", "re", "im"}, row-major."""
    a = _as_square(a)
    return {
        "dim": int(a.shape[0]),
        "re": [float(x) for x in a.real.ravel()],
        "im": [float(x) for x in a.imag.ravel()],
    }


def _json_int(x) -> int:
    """``x`` by ``operator.index``; a float, string or bool raises TypeError."""
    if isinstance(x, bool):
        raise TypeError(f"expected an integer, got {x!r}")
    return index(x)


def matrix_from_json(obj) -> np.ndarray:
    """Decode the {"dim", "re", "im"} exchange format; ``dim`` converts by
    :func:`_json_int`, so a float, string or bool raises TypeError."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    dim = _json_int(obj["dim"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.size != dim * dim or im.size != dim * dim:
        raise DimensionMismatchError("re/im length must equal dim^2")
    return (re + 1j * im).reshape(dim, dim)
