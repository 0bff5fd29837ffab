import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymlie import linalg as la
from qsymlie.generators import gell_mann_basis, pauli_matrices

from conftest import random_complex, random_hermitian

SX, SY, SZ = pauli_matrices()
E = gell_mann_basis(3).elements


class TestBrackets:
    def test_pauli_commutator(self):
        assert np.allclose(la.commutator(SX, SY), 2j * SZ)

    def test_self_commutator_vanishes(self):
        assert np.allclose(la.commutator(SX, SX), 0)

    def test_gellmann_f123(self):
        # [E1, E2] = 2i E3
        assert np.allclose(la.commutator(E[1], E[2]), 2j * E[3])

    def test_dimension_mismatch(self):
        with pytest.raises(la.DimensionMismatchError):
            la.commutator(SX, E[1])

    def test_anticommutator_d118(self):
        # {E1, E1} = (4/3) 1 + (2/sqrt 3) E8
        want = (4 / 3) * np.eye(3) + (2 / math.sqrt(3)) * E[8]
        assert np.allclose(2 * E[1] @ E[1], want)

    def test_pauli_anticommutator_vanishes(self):
        assert np.allclose(SX @ SY + SY @ SX, 0)

    def test_identity_anticommutator(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.allclose(np.eye(2) @ a + a @ np.eye(2), 2 * a)

    def test_bracket_bilinearity_antisymmetry(self, rng):
        a, b, c = (random_complex(rng, 4) for _ in range(3))
        assert np.allclose(la.commutator(a, b), -la.commutator(b, a))
        assert np.allclose(
            la.commutator(2.0 * a + 1j * b, c),
            2.0 * la.commutator(a, c) + 1j * la.commutator(b, c),
        )

    def test_jacobi_identity(self, rng):
        for _ in range(5):
            a, b, c = (random_complex(rng, 5) for _ in range(3))
            total = (
                la.commutator(a, la.commutator(b, c))
                + la.commutator(b, la.commutator(c, a))
                + la.commutator(c, la.commutator(a, b))
            )
            assert np.linalg.norm(total) <= 1e-9 * max(
                1.0, np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c)
            )

    def test_ad_adjointness(self, rng):
        # <[A,B], C> = <B, [A^dag, C]> for arbitrary matrices
        for _ in range(5):
            a, b, c = (random_complex(rng, 4) for _ in range(3))
            lhs = la.frobenius_inner(la.commutator(a, b), c)
            rhs = la.frobenius_inner(b, la.commutator(a.conj().T, c))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))

    def test_ad_invariance_skew(self, rng):
        # <[A,B], C> + <B, [A, C]> = 0 once A is skew-Hermitian
        for _ in range(5):
            a = 1j * random_hermitian(rng, 4)
            b, c = (random_complex(rng, 4) for _ in range(2))
            lhs = la.frobenius_inner(la.commutator(a, b), c)
            rhs = la.frobenius_inner(b, la.commutator(a, c))
            assert abs(lhs + rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


class TestInnerAndKron:
    def test_frobenius_pauli(self):
        assert la.frobenius_inner(SX, SX) == pytest.approx(2)
        assert la.frobenius_inner(SX, SZ) == pytest.approx(0)

    def test_frobenius_e8(self):
        assert la.frobenius_inner(E[8], E[8]) == pytest.approx(2)

    def test_kron_identity(self):
        assert np.allclose(la.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_kron_sigma_z(self):
        assert np.allclose(np.diag(la.kron(SZ, SZ)), [1, -1, -1, 1])

    def test_kron_traceless(self):
        assert abs(np.trace(la.kron(E[3], np.eye(3)))) <= 1e-14


class TestOrthonormalSpan:
    def test_extend_from_empty(self):
        span = la.OrthonormalSpan(2)
        added, span = la.orthonormal_extend(span, 1j * SX)
        assert added and span.dim == 1
        span.check()

    def test_reject_linear_dependence(self):
        span = la.span_of([1j * SX])
        added, same = la.orthonormal_extend(span, 5j * SX)
        assert not added and same is span

    def test_su2_is_three_dimensional(self):
        span = la.span_of([1j * SX, 1j * SY, 1j * SZ])
        assert span.dim == 3
        # any su(2) element is a real combination of the three directions
        added, _ = la.orthonormal_extend(span, 1j * (0.3 * SX - 1.7 * SY + 0.5 * SZ))
        assert not added

    def test_idempotent_on_basis(self):
        span = la.span_of([1j * SX, 1j * SY])
        for b in span.basis:
            added, _ = la.orthonormal_extend(span, b)
            assert not added

    def test_branching_leaves_earlier_spans_unchanged(self):
        a = la.span_of([1j * SX])
        _, b = la.orthonormal_extend(a, 1j * SY)
        before = b.basis.copy()
        # a is no longer the latest span over its rows: c must not overwrite b's
        _, c = la.orthonormal_extend(a, 1j * SZ)
        assert a.dim == 1 and b.dim == 2 and c.dim == 2
        assert np.array_equal(b.basis, before)
        b.check()
        c.check()
        assert b.contains(1j * SY) and not b.contains(1j * SZ)
        assert c.contains(1j * SZ) and not c.contains(1j * SY)
        # b is still the latest span over its own rows and grows in place
        _, b3 = la.orthonormal_extend(b, 1j * SZ)
        assert b3.dim == 3 and np.array_equal(b3.basis[:2], before)
        b3.check()

    def test_basis_is_a_read_only_view(self):
        span = la.span_of([1j * SX, 1j * SZ])
        assert span.basis.shape == (2, 2, 2)
        assert np.allclose(span.basis[0], 1j * SX / np.sqrt(2))
        with pytest.raises(ValueError):
            span.basis[0, 0, 0] = 1.0

    def test_nonfinite_rejected(self):
        span = la.OrthonormalSpan(2)
        bad = np.array([[np.nan, 0], [0, 0]], dtype=complex)
        with pytest.raises(la.NonFiniteError):
            la.orthonormal_extend(span, bad)

    def test_dim_mismatch_rejected(self):
        span = la.OrthonormalSpan(2)
        with pytest.raises(la.DimensionMismatchError):
            la.orthonormal_extend(span, np.eye(3))

    def test_projection_and_residual(self, rng):
        span = la.span_of([1j * SX, 1j * SZ])
        x = 1j * (2.0 * SX - 0.5 * SZ)
        assert span.residual(x) <= 1e-12
        assert np.allclose(span.project(x), x)
        y = 1j * SY
        assert span.residual(y) == pytest.approx(1.0, abs=1e-9)

    def test_real_span_dim_scale_guard(self):
        # the cut is VERDICT_RANK_TOL * max(1, s_max): a stack of
        # numerically-zero matrices ranks as zero
        noise = [1e-15 * np.eye(3, dtype=complex) for _ in range(4)]
        assert la.real_span_dim(noise) == 0
        assert la.real_span_dim([]) == 0
        assert la.real_span_dim([SX, SZ, 1e-6 * SY]) == 3
        assert la.real_span_dim([SX, SZ, 1e-9 * SY]) == 2


class TestHermitianEig:
    def test_sigma_z(self):
        w, v = la.hermitian_eig(SZ)
        assert np.allclose(w, [-1, 1])
        assert np.allclose(SZ @ v, v @ np.diag(w))

    def test_identity(self):
        w, _ = la.hermitian_eig(np.eye(5))
        assert np.allclose(w, np.ones(5))

    def test_rejects_non_hermitian(self):
        with pytest.raises(la.NonHermitianError):
            la.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_reconstruction(self, rng):
        h = random_hermitian(rng, 8)
        w, v = la.hermitian_eig(h)
        assert np.linalg.norm(h - v @ np.diag(w) @ v.conj().T) <= 1e-9 * np.linalg.norm(h)

    def test_real_input_stays_real(self, rng):
        a = rng.standard_normal((6, 6))
        h = a + a.T
        w, v = la.hermitian_eig(h)
        assert w.dtype == float and v.dtype == float
        assert np.linalg.norm(v @ np.diag(w) @ v.T - h) <= 1e-10
        wc, vc = la.hermitian_eig(h.astype(complex))
        assert vc.dtype == complex and np.allclose(w, wc)

    def test_real_gate_rejects_non_symmetric(self):
        with pytest.raises(la.NonHermitianError):
            la.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestClustering:
    def test_basic_split(self):
        cl = la.cluster_eigenvalues([1.0, 1.0 + 1e-12, 5.0])
        assert cl.clusters == ((0, 1), (2,))
        cl.check()

    def test_all_equal(self):
        cl = la.cluster_eigenvalues([2.0] * 6)
        assert cl.sizes == (6,)
        cl.check()

    def test_empty(self):
        cl = la.cluster_eigenvalues([])
        assert cl.clusters == ()
        assert (cl.min_gap, cl.max_spread) == (math.inf, 0.0)

    def test_margins(self):
        values = [-9.0, 1.0, 1.0 + 1e-12, 5.0]
        cl = la.cluster_eigenvalues(values)
        assert cl.clusters == ((0,), (1, 2), (3,))
        assert cl.bound == la.CLUSTER_TOL * 9.0  # CLUSTER_TOL * max(1, spectral radius)
        assert cl.min_gap == 5.0 - values[2]
        assert cl.max_spread == values[2] - 1.0
        assert cl.relative_gap == cl.min_gap / cl.bound
        assert cl.relative_spread == pytest.approx(1e-12 / (la.CLUSTER_TOL * 9.0), rel=1e-3)

    def test_one_cluster_has_no_gap(self):
        cl = la.cluster_eigenvalues([2.0, 2.0])
        assert cl.min_gap == cl.relative_gap == math.inf and cl.max_spread == 0.0

    @pytest.mark.parametrize(
        "values,clusters,message",
        [
            ((1.0, 1.0 + 5e-9), ((0,), (1,)), "separated by only 5e-09"),
            ((1.0, 3.0), ((0, 1),), "cluster spread 2 exceeds 3e-08"),
        ],
    )
    def test_check_fails_where_a_margin_crosses_the_bound(self, values, clusters, message):
        cl = la.EigenClustering(values, clusters)
        assert cl.relative_gap <= 1.0 or cl.relative_spread > 1.0
        with pytest.raises(ValueError, match=message):
            cl.check()

    @given(
        centers=st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=6, unique=True),
        reps=st.lists(st.integers(min_value=1, max_value=4), min_size=6, max_size=6),
        jitter=st.lists(st.floats(-1e-11, 1e-11), min_size=24, max_size=24),
    )
    @settings(max_examples=50, deadline=None)
    def test_well_separated_spectra(self, centers, reps, jitter):
        values = []
        for i, c in enumerate(sorted(centers)):
            for k in range(reps[i % len(reps)]):
                values.append(float(c) + jitter[(i * 4 + k) % len(jitter)])
        cl = la.cluster_eigenvalues(values)
        assert len(cl.clusters) == len(centers)
        cl.check()


class TestMatrixJson:
    def test_round_trip(self, rng):
        a = random_complex(rng, 3)
        obj = la.matrix_to_json(a)
        assert set(obj) == {"dim", "re", "im"}
        assert np.allclose(la.matrix_from_json(obj), a)
        assert np.allclose(la.matrix_from_json(json.dumps(obj)), a)

    def test_bad_length(self):
        with pytest.raises(la.DimensionMismatchError):
            la.matrix_from_json({"dim": 2, "re": [1.0], "im": [0.0]})

    @pytest.mark.parametrize("dim", [2.5, 2.0, "2"])
    def test_dim_must_be_an_integer(self, dim):
        with pytest.raises(TypeError):
            la.matrix_from_json({"dim": dim, "re": [1.0, 0, 0, 1], "im": [0.0] * 4})
