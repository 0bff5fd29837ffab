from math import sqrt
from typing import NamedTuple

import numpy as np
import pytest

from qsymlie import casimir, closure, generators, linalg


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def qutrit_blocks():
    return casimir.isotypic_blocks(3, 3)


@pytest.fixture(scope="session")
def qutrit_center(qutrit_blocks):
    return casimir.center_basis_from_blocks(qutrit_blocks)


@pytest.fixture(scope="session")
def qutrit_closure_h():
    """Closure of the three-qutrit preset with the two-body interaction."""
    return closure.lie_closure(closure.preset("qutrits:n=3:H"))


@pytest.fixture
def total_within_blocks(monkeypatch):
    """Check every report ``closure.subspace_controllability`` makes during a
    test: total_dim <= sum of restricted_dim + center_dim.  L' lies in the sum
    of its projections on the blocks, so its dimension is at most the sum of
    the blocks' run dimensions, and L adds at most center_dim to it.  Yields
    the reports checked."""
    report_of = closure.subspace_controllability
    checked = []

    def checking(result):
        report = report_of(result)
        blocks = sum(v.restricted_dim for v in report.per_block)
        assert report.total_dim <= blocks + report.center_component_dim, report
        checked.append(report)
        return report

    monkeypatch.setattr(closure, "subspace_controllability", checking)
    yield checked


def dense(gens):
    """``gens`` with each word replaced by its d^n x d^n matrix,
    word(lambda a: collective(a, n)); matrices are kept as they are."""
    def rho(a):
        return generators.collective(a, gens.n)

    mats = tuple(g(rho) if callable(g) else g for g in gens.generators)
    return closure.GeneratorSet(gens.d, gens.n, mats, gens.names)


def frame_rows(frame, d, n, xs):
    """The rows in ``frame`` of the matrices or words ``xs`` on (C^d)^(x)n,
    read by ``levi_split``: matrices that leak out of a block raise."""
    gens = closure.GeneratorSet(d, n, tuple(xs), tuple(f"x{k}" for k in range(len(xs))))
    centers, traceless, _ = closure.levi_split(gens, frame)
    return np.hstack([traceless, centers])


def random_complex(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_hermitian(rng, dim):
    a = random_complex(rng, dim)
    return (a + a.conj().T) / 2


def random_skew(rng, dim):
    return 1j * random_hermitian(rng, dim)


def young_projector_21(d):
    """Young symmetrizer 1 + (12) - (13) - (213) on (C^d)^(x)3.

    Belongs to the standard tableau with rows {1,2},{3} of the two-row
    diagram; its image on each weight space selects mixed-symmetry vectors.
    """
    terms = [
        (1.0, generators.perm_from_cycles(3)),
        (1.0, generators.perm_from_cycles(3, (1, 2))),
        (-1.0, generators.perm_from_cycles(3, (1, 3))),
        (-1.0, generators.perm_from_cycles(3, (2, 1, 3))),
    ]
    return sum(c * generators.permutation_operator(p, d) for c, p in terms)


def center_coefficients(x, cb):
    """Complex block coefficients Tr(X P_j) / dim(P_j) of the center component,
    for a ``casimir.CenterBasis`` ``cb``."""
    x = linalg._as_square(x)
    if cb.elements and x.shape != cb.elements[0].shape:
        raise linalg.DimensionMismatchError("operator and center basis dimensions differ")
    return np.array([np.trace(x @ p) / bd for p, bd in zip(cb.elements, cb.block_dims)])


def center_project(x, cb):
    """Orthogonal split X = C + S with C in the (complex) span of the projectors.

    The split is orthogonal under Re<.,.>_F; for X in the invariant algebra,
    C is the block-trace part and S is traceless on every block.
    """
    x = linalg._as_square(x)
    c = np.zeros_like(x)
    for coeff, p in zip(center_coefficients(x, cb), cb.elements):
        c = c + coeff * p
    return c, x - c


# ---------------------------------------------------------------------------
# Reference constructions of symmetric operators
# ---------------------------------------------------------------------------

def kron_all(mats):
    """Left-to-right Kronecker chain of a non-empty sequence."""
    mats = list(mats)
    out = linalg._as_square(mats[0])
    for m in mats[1:]:
        out = np.kron(out, linalg._as_square(m))
    return out


def multiset_permutations(word):
    """Distinct permutations of a sorted multiset, lexicographic order."""
    word = sorted(word)

    def rec(remaining):
        if not remaining:
            yield ()
            return
        seen = None
        for i, x in enumerate(remaining):
            if x == seen:
                continue
            seen = x
            for tail in rec(remaining[:i] + remaining[i + 1 :]):
                yield (x,) + tail

    yield from rec(word)


def placement_sum(counts, d, n):
    """F_(j0,j1,...) placement by placement: one Kronecker chain for each of
    the n!/(j0! j1! ...) distinct placements of the multiset."""
    basis = generators.gell_mann_basis(d).elements
    word = [a for a, c in enumerate(counts) for _ in range(c)]
    out = np.zeros((d**n, d**n), dtype=complex)
    for arrangement in multiset_permutations(word):
        out += kron_all(basis[a] for a in arrangement)
    return out


def site_collective(op, n, x=None):
    """collective(op, n) @ x, with op applied one site at a time.

    ``x`` (default the identity) has shape (d^n, m) or (d^n,).  For each site
    j its rows are viewed as (d^j, d, rest) and op acts on the middle index
    by one batched d x d matmul, starting from zeros.
    """
    op = linalg._as_square(op)
    d = op.shape[0]
    x = np.eye(d**n, dtype=complex) if x is None else np.ascontiguousarray(x, dtype=complex)
    out = np.zeros(x.shape, dtype=complex)
    for j in range(n):
        out.reshape(d**j, d, -1)[...] += op @ x.reshape(d**j, d, -1)
    return out


# ---------------------------------------------------------------------------
# Ladder operators and Dicke states
# ---------------------------------------------------------------------------

class SpinOps(NamedTuple):
    z: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    x: np.ndarray
    y: np.ndarray


def standard_spin_ops(d, l):
    """Single-site ladder triple acting on levels l-1 and l of C^d.

    S_z = (|l-1><l-1| - |l><l|)/2, S_+ = |l-1><l|, S_- = S_+^T,
    S_x = S_+ + S_-, S_y = i(S_+ - S_-).  Note the unnormalized x/y
    convention: for d=3, l=1 this gives S_x = E_1, S_y = -E_2 and
    S_z = E_3 / 2.
    """
    if not 1 <= l <= d - 1:
        raise ValueError(f"l must lie in 1..{d - 1}")
    sz = np.zeros((d, d), dtype=complex)
    sz[l - 1, l - 1] = 0.5
    sz[l, l] = -0.5
    sp = np.zeros((d, d), dtype=complex)
    sp[l - 1, l] = 1.0
    sm = sp.T.copy()
    return SpinOps(sz, sp, sm, sp + sm, 1j * (sp - sm))


def dicke_basis(d, n):
    """Occupations and the matrix whose columns are the Dicke states.

    Each column is the normalized indicator of one weight space, in the
    order of ``generators.occupation_vectors``.  The columns span the
    symmetric sector, the module of the i-weight (n, 0, ..., 0).
    """
    ws = generators._WeightSpaces(d, n)
    occs = generators.occupation_vectors(d, n)
    cols = np.zeros((d**n, len(occs)), dtype=complex)
    for c, w in enumerate(occs):
        cols[ws.spaces[w], c] = 1.0 / sqrt(len(ws.spaces[w]))
    return occs, cols


def dicke_state(w, d):
    """Normalized symmetric sum of product states with occupation counts w."""
    w = tuple(int(x) for x in w)
    occs, cols = dicke_basis(d, sum(w))
    if w not in occs:
        raise ValueError(f"not an occupation vector of {d} levels: {w}")
    return cols[:, occs.index(w)]
