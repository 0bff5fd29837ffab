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
