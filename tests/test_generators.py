import itertools
import math
import re
from math import comb, factorial, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymlie import casimir as cas
from qsymlie import closure as cl
from qsymlie import generators as g
from qsymlie import linalg as la
from qsymlie import reptheory as rt

from conftest import (
    dicke_basis,
    dicke_state,
    frame_rows,
    kron_all,
    multiset_permutations,
    placement_sum,
    site_collective,
    standard_spin_ops,
    young_projector_21,
)

S3 = sqrt(3.0)

# Nonvanishing f_{jk}^l and d_{jk}^l for the unnormalized Gell-Mann basis
# (1-based indices); every other nonzero entry follows by (anti)symmetry.
F_TABLE = {
    (1, 2, 3): 2.0,
    (1, 4, 7): 1.0,
    (1, 5, 6): -1.0,
    (2, 4, 6): 1.0,
    (2, 5, 7): 1.0,
    (3, 4, 5): 1.0,
    (3, 6, 7): -1.0,
    (4, 5, 8): S3,
    (6, 7, 8): S3,
}
D_TABLE = {
    (1, 1, 8): 2 / S3,
    (1, 4, 6): 1.0,
    (1, 5, 7): 1.0,
    (2, 2, 8): 2 / S3,
    (2, 4, 7): -1.0,
    (2, 5, 6): 1.0,
    (3, 3, 8): 2 / S3,
    (3, 4, 4): 1.0,
    (3, 5, 5): 1.0,
    (3, 6, 6): -1.0,
    (3, 7, 7): -1.0,
    (4, 4, 8): -1 / S3,
    (5, 5, 8): -1 / S3,
    (6, 6, 8): -1 / S3,
    (7, 7, 8): -1 / S3,
    (8, 8, 8): -2 / S3,
}


def full_f_tensor():
    f = np.zeros((8, 8, 8))
    for (j, k, l), v in F_TABLE.items():
        for (a, b, c), sign in zip(
            itertools.permutations((j, k, l)), (1, -1, -1, 1, 1, -1)
        ):
            f[a - 1, b - 1, c - 1] = sign * v
    return f


def full_d_tensor():
    d = np.zeros((8, 8, 8))
    for (j, k, l), v in D_TABLE.items():
        for a, b, c in itertools.permutations((j, k, l)):
            d[a - 1, b - 1, c - 1] = v
    return d


class TestGellMannBasis:
    def test_qubit_basis_is_pauli(self):
        b = g.gell_mann_basis(2).elements
        assert np.array_equal(b[0], np.eye(2))
        assert np.array_equal(b[1], [[0, 1], [1, 0]])
        assert np.array_equal(b[2], [[0, -1j], [1j, 0]])
        assert np.array_equal(b[3], [[1, 0], [0, -1]])

    def test_e8(self):
        e8 = g.gell_mann_basis(3).elements[8]
        assert np.allclose(e8, np.diag([1, 1, -2]) / S3)

    def test_qutrit_basis_matches_printed_matrices(self):
        b = g.gell_mann_basis(3).elements
        assert np.array_equal(b[3], np.diag([1.0, -1.0, 0.0]))
        assert np.array_equal(b[4], [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
        assert np.array_equal(b[5], [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]])
        assert np.array_equal(b[6], [[0, 0, 0], [0, 0, 1], [0, 1, 0]])
        assert np.array_equal(b[7], [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]])

    @given(st.integers(min_value=2, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_orthogonality_any_d(self, d):
        basis = g.gell_mann_basis(d)
        assert len(basis.elements) == d * d
        basis.check()

    def test_rejects_d1(self):
        with pytest.raises(ValueError):
            g.gell_mann_basis(1)


@pytest.fixture(scope="module")
def sc():
    return g.structure_constants(g.gell_mann_basis(3))


@pytest.fixture(scope="module")
def restricted():
    occs, v = dicke_basis(3, 3)
    ops = standard_spin_ops(3, 1)
    out = {}
    for name, op in [("x", ops.x), ("y", ops.y), ("z", ops.z)]:
        out[name] = v.conj().T @ g.collective(op, 3) @ v
    return occs, out


class TestStructureConstants:
    def test_f_tables_entrywise(self, sc):
        assert np.allclose(sc.f, full_f_tensor(), atol=1e-12)

    def test_d_tables_entrywise(self, sc):
        assert np.allclose(sc.dsym, full_d_tensor(), atol=1e-12)

    def test_spot_values(self, sc):
        assert sc.f_entry(4, 5, 8) == pytest.approx(S3, abs=1e-12)
        assert sc.f_entry(1, 2, 3) == pytest.approx(2.0, abs=1e-12)
        assert sc.d_entry(8, 8, 8) == pytest.approx(-2 / S3, abs=1e-12)
        assert sc.d_entry(1, 1, 8) == pytest.approx(2 / S3, abs=1e-12)
        assert sc.gamma == pytest.approx(4 / 3)

    def test_total_antisymmetry_and_symmetry(self, sc):
        f, d = sc.f, sc.dsym
        assert np.allclose(f, -np.transpose(f, (1, 0, 2)), atol=1e-12)
        assert np.allclose(f, -np.transpose(f, (0, 2, 1)), atol=1e-12)
        assert np.allclose(d, np.transpose(d, (1, 0, 2)), atol=1e-12)
        assert np.allclose(d, np.transpose(d, (0, 2, 1)), atol=1e-12)

    def test_trace_sum_vanishes(self, sc):
        # sum_k d_{kk}^l = 0 for every l
        assert np.allclose(np.einsum("kkl->l", sc.dsym), 0, atol=1e-12)

    def test_diagonal_product_sums(self, sc):
        # sum_j d_jj^{l1} ... d_jj^{lm} = 0 unless all indices are 3 or 8
        # with an even number of 3's
        diag = np.einsum("jjl->jl", sc.dsym)  # (j, l)
        for m in (2, 3):
            for idx in itertools.product(range(1, 9), repeat=m):
                total = np.sum(np.prod([diag[:, l - 1] for l in idx], axis=0))
                allowed = set(idx) <= {3, 8} and idx.count(3) % 2 == 0
                if not allowed:
                    assert abs(total) <= 1e-12, idx
        assert np.sum(diag[:, 2] ** 2) == pytest.approx(4.0)
        assert np.sum(diag[:, 7] ** 2) == pytest.approx(20 / 3)

    def test_round_trip_commutators(self, sc):
        es = g.gell_mann_basis(3).elements[1:]
        for j in range(8):
            for k in range(8):
                rebuilt = sum(1j * sc.f[j, k, l] * es[l] for l in range(8))
                assert np.linalg.norm(la.commutator(es[j], es[k]) - rebuilt) <= 1e-12

    def test_round_trip_anticommutators(self, sc):
        es = g.gell_mann_basis(3).elements[1:]
        for j in range(8):
            for k in range(8):
                rebuilt = sc.gamma * (j == k) * np.eye(3) + sum(
                    sc.dsym[j, k, l] * es[l] for l in range(8)
                )
                anti = es[j] @ es[k] + es[k] @ es[j]
                assert np.linalg.norm(anti - rebuilt) <= 1e-12

    def test_qubit_constants(self):
        sc2 = g.structure_constants(g.gell_mann_basis(2))
        assert sc2.f_entry(1, 2, 3) == pytest.approx(2.0)
        assert np.allclose(sc2.dsym, 0, atol=1e-12)
        assert sc2.gamma == pytest.approx(2.0)


@st.composite
def multi_index_draws(draw):
    """(d, n, counts) with d in {2, 3, 4}, 1 <= n <= 4 and counts summing to n."""
    d = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(min_value=1, max_value=4))
    word = draw(st.lists(st.integers(0, d * d - 1), min_size=n, max_size=n))
    return d, n, tuple(word.count(a) for a in range(d * d))


class TestSymmetricSum:
    def test_all_identity(self):
        assert np.array_equal(g.symmetric_sum((3, 0, 0, 0), 2, 3), np.eye(8))

    def test_single_slot_is_collective(self):
        sx = g.gell_mann_basis(2).elements[1]
        assert np.allclose(g.symmetric_sum((2, 1, 0, 0), 2, 3), g.collective(sx, 3))
        e3 = g.gell_mann_basis(3).elements[3]
        counts = (2, 0, 0, 1, 0, 0, 0, 0, 0)
        assert np.allclose(g.symmetric_sum(counts, 3, 3), g.collective(e3, 3))

    def test_two_qubit_xx(self):
        sx = g.gell_mann_basis(2).elements[1]
        assert np.allclose(g.symmetric_sum((0, 2, 0, 0), 2, 2), np.kron(sx, sx))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            g.symmetric_sum((1, 1, 0, 0), 2, 3)
        with pytest.raises(ValueError):
            g.symmetric_sum((1, 1, 0), 2, 2)

    @pytest.mark.parametrize("counts", [(2.9, 1.2, 0, 0), (2.0, 1, 0, 0), ("2", 1, 0, 0)])
    def test_non_integer_counts_raise(self, counts):
        # 2.9 and 1.2 would truncate to (2, 1, 0, 0), a valid multi-index at n = 3
        with pytest.raises(TypeError):
            g.symmetric_sum(counts, 2, 3)

    @given(multi_index_draws())
    @settings(max_examples=60, deadline=None)
    def test_matches_placement_by_placement_sum(self, drawn):
        d, n, counts = drawn
        got, want = g.symmetric_sum(counts, d, n), placement_sum(counts, d, n)
        if d == 2:
            # Pauli entries are 0, +-1 and +-i: every sum and product is exact
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("counts", [(2, 1, 0, 0), (1, 1, 1, 0), (0, 2, 2, 0)])
    def test_term_counts(self, counts):
        word = [a for a, c in enumerate(counts) for _ in range(c)]
        n = sum(counts)
        want = factorial(n)
        for c in counts:
            want //= factorial(c)
        assert len(list(multiset_permutations(word))) == want

    def test_commutes_with_all_permutations(self):
        perms = [p for p in itertools.permutations(range(3))]
        us = [g.permutation_operator(p, 2) for p in perms]
        for counts in g.multi_indices(2, 3):
            f = g.symmetric_sum(counts, 2, 3)
            for u in us:
                assert np.linalg.norm(f @ u - u @ f) <= 1e-12

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_span_dimension(self, n, d):
        span = la.span_of(
            [1j * g.symmetric_sum(c, d, n) for c in g.multi_indices(d, n)],
            ambient_dim=d**n,
        )
        assert span.dim == rt.ambient_commutant_dim(n, d) == comb(n + d * d - 1, d * d - 1)


class TestCollective:
    def test_sigma_z_two_sites(self):
        sz = g.gell_mann_basis(2).elements[3]
        assert np.allclose(np.diag(g.collective(sz, 2)), [2, 0, 0, -2])

    def test_identity(self):
        assert np.allclose(g.collective(np.eye(3), 4), 4 * np.eye(81))

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 4), (3, 3), (4, 2)])
    def test_matches_kronecker_sum(self, d, n, rng):
        # a non-Hermitian op, so a transposed site action would show
        op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        eye = np.eye(d)
        want = sum(kron_all([eye] * j + [op] + [eye] * (n - 1 - j)) for j in range(n))
        assert np.abs(g.collective(op, n) - want).max() <= 1e-12

    @pytest.mark.parametrize("d,n,m", [(2, 5, 3), (3, 4, 7), (4, 3, 1)])
    def test_apply_matches_dense_product(self, d, n, m, rng):
        # the dense lift applied to x equals op applied to x one site at a time
        op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = rng.standard_normal((d**n, m)) + 1j * rng.standard_normal((d**n, m))
        dense = g.collective(op, n)
        assert np.abs(site_collective(op, n, x) - dense @ x).max() <= 1e-12
        assert np.abs(site_collective(op, n, x[:, 0]) - dense @ x[:, 0]).max() <= 1e-12
        assert np.abs(g.collective_columns(op, x, n) - dense @ x).max() <= 1e-12
        assert np.abs(g.collective_columns(op, x[:, 0], n) - dense @ x[:, 0]).max() <= 1e-12


class TestSpinOps:
    def test_qutrit_l1(self):
        ops = standard_spin_ops(3, 1)
        e = g.gell_mann_basis(3).elements
        assert np.allclose(ops.x, e[1])
        assert np.allclose(ops.y, -e[2])
        assert np.allclose(2 * ops.z, e[3])

    def test_qutrit_l2(self):
        ops = standard_spin_ops(3, 2)
        assert np.allclose(2 * ops.z, np.diag([0, 1, -1]))
        want_plus = np.zeros((3, 3))
        want_plus[1, 2] = 1.0
        assert np.allclose(ops.plus, want_plus)
        assert np.allclose(ops.minus, want_plus.T)

    def test_qubit(self):
        ops = standard_spin_ops(2, 1)
        sx, _, sz = g.pauli_matrices()
        assert np.allclose(ops.z, sz / 2)
        assert np.allclose(ops.x, sx)

    def test_ladder_algebra(self):
        # [S_z, S_+/-] = +/- S_+/- in every allowed slot
        for d in (2, 3, 4):
            for l in range(1, d):
                ops = standard_spin_ops(d, l)
                assert np.allclose(la.commutator(ops.z, ops.plus), ops.plus)
                assert np.allclose(la.commutator(ops.z, ops.minus), -ops.minus)

    def test_range(self):
        with pytest.raises(ValueError):
            standard_spin_ops(3, 3)
        with pytest.raises(ValueError):
            standard_spin_ops(3, 0)


class TestTwoBodyHamiltonian:
    def test_traceless(self):
        h = g.two_body_hamiltonian(3, 3)
        assert abs(np.trace(h)) <= 1e-12
        assert la.is_hermitian(h)

    def test_explicit_tensor_form(self):
        e3 = g.gell_mann_basis(3).elements[3]
        eye = np.eye(3)
        want = (
            kron_all([e3, e3, eye])
            + kron_all([e3, eye, e3])
            + kron_all([eye, e3, e3])
        )
        assert np.allclose(g.two_body_hamiltonian(3, 3), want)

    def test_collective_square_identity(self):
        # (collective E3)^2 = 2*1 + (1/sqrt 3) * collective E8 + 2 H at n = 3
        f3 = g.hat_f(3, 3, 3)
        f8 = g.hat_f(8, 3, 3)
        h = g.two_body_hamiltonian(3, 3)
        assert np.linalg.norm(f3 @ f3 - (2 * np.eye(27) + f8 / S3 + 2 * h)) <= 1e-12

    def test_commutes_with_permutations(self):
        h = g.two_body_hamiltonian(3, 3)
        for p in itertools.permutations(range(3)):
            u = g.permutation_operator(p, 3)
            assert np.linalg.norm(h @ u - u @ h) <= 1e-12

    def test_qubit_variant(self):
        assert np.allclose(
            g.two_body_hamiltonian(2, 4), g.symmetric_sum((2, 0, 0, 2), 2, 4)
        )

    @pytest.mark.parametrize("d,n", [(4, 2), (4, 3), (5, 3)])
    def test_any_d(self, d, n):
        # the pair sum of diag(1, -1, 0, ...), which is Gell-Mann element 13 at
        # d = 4 and 21 at d = 5
        h = g.two_body_hamiltonian(d, n)
        assert la.is_hermitian(h)
        for p in g.sn_generators(n):
            u = g.permutation_operator(p, d)
            assert np.linalg.norm(h @ u - u @ h) <= 1e-12
        z = np.diag([1, -1] + [0] * (d - 2))
        k = next(k for k, e in enumerate(g.gell_mann_basis(d).elements) if np.array_equal(e, z))
        counts = [n - 2] + [0] * (d * d - 1)
        counts[k] = 2
        assert np.abs(h - placement_sum(counts, d, n)).max() <= 1e-12

    def test_rejects_small_sizes(self):
        for d, n in [(1, 3), (3, 1)]:
            with pytest.raises(ValueError):
                g.two_body_hamiltonian(d, n)


def digit_permutation_operator(perm, d):
    """Reference U e_b = e_c with c_j = b_{perm^{-1}(j)}, by base-d digit arithmetic."""
    n = len(perm)
    u = np.zeros((d**n, d**n))
    for b in itertools.product(range(d), repeat=n):
        c = [0] * n
        for i, p in enumerate(perm):
            c[p] = b[i]
        row = sum(x * d ** (n - 1 - i) for i, x in enumerate(c))
        col = sum(x * d ** (n - 1 - i) for i, x in enumerate(b))
        u[row, col] = 1.0
    return u


class TestPermutations:
    @pytest.mark.parametrize("d,n", [(d, n) for d in (2, 3) for n in range(1, 5)])
    def test_matches_digit_reference(self, d, n):
        for p in itertools.permutations(range(n)):
            assert np.array_equal(g.permutation_operator(p, d), digit_permutation_operator(p, d))

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 3), (3, 4)])
    def test_row_maps_of_casimir_and_closure_match(self, d, n, rng):
        # C2/C3 sum over the transpositions and 3-cycles, the closure's
        # invariance check over (1 2) and the n-cycle
        perms = list(itertools.permutations(range(n)))

        def moving(k):
            return sorted(p for p in perms if sum(p[i] != i for i in range(n)) == k)

        assert sorted(tuple(p) for p in cas._transpositions(n)) == moving(2)
        assert sorted(tuple(p) for p in cas._three_cycles(n)) == moving(3)
        assert cas._transpositions(n).shape == (len(moving(2)), n)
        assert cas._three_cycles(n).shape == (len(moving(3)), n)
        x = rng.standard_normal((d**n, d**n))
        us = [g.permutation_operator(p, d) for p in g.sn_generators(n)]
        assert len(us) == 2
        want = [np.linalg.norm(u @ x @ u.conj().T - x) for u in us]
        assert np.allclose(list(cl._swap_defects(x, d, n)), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_sn_generators_generate_sn(self, n):
        # closing {(1 2), (1 2 ... n)} under composition reaches all n! permutations
        gens = g.sn_generators(n)
        assert len(gens) == min(n - 1, 2)
        group, frontier = {tuple(range(n))}, [tuple(range(n))]
        while frontier:
            p = frontier.pop()
            for s in gens:
                q = tuple(s[i] for i in p)
                if q not in group:
                    group.add(q)
                    frontier.append(q)
        assert len(group) == math.factorial(n)

    def test_identity(self):
        assert np.array_equal(g.permutation_operator((0, 1, 2), 2), np.eye(8))

    def test_swap(self):
        want = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        assert np.array_equal(g.permutation_operator((1, 0), 2), want)

    def test_invalid(self):
        with pytest.raises(ValueError):
            g.permutation_operator((0, 0, 1), 2)

    def test_cycles(self):
        assert g.perm_from_cycles(3, (1, 2)) == (1, 0, 2)
        assert g.perm_from_cycles(3, (2, 1, 3)) == (2, 0, 1)

    @given(st.permutations(list(range(3))), st.permutations(list(range(3))))
    @settings(max_examples=30, deadline=None)
    def test_homomorphism(self, a, b):
        composed = tuple(a[b[i]] for i in range(3))
        ua = g.permutation_operator(a, 2)
        ub = g.permutation_operator(b, 2)
        assert np.allclose(ua @ ub, g.permutation_operator(composed, 2))

    def test_young_projector_is_essentially_idempotent(self):
        pi = young_projector_21(3)
        assert np.allclose(pi @ pi, 3 * pi)

    def test_young_projector_fixes_mixed_symmetry_vector(self):
        # (2|001> - |100> - |010>)/sqrt 6 is an eigenvector with eigenvalue 3
        v = np.zeros(27, dtype=complex)
        v[1] = 2.0
        v[9] = -1.0
        v[3] = -1.0
        v /= math.sqrt(6)
        assert np.allclose(young_projector_21(3) @ v, 3 * v)


class TestDicke:
    def test_occupation_order(self):
        assert g.occupation_vectors(3, 3) == [
            (3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0),
            (2, 0, 1), (1, 1, 1), (0, 2, 1),
            (1, 0, 2), (0, 1, 2),
            (0, 0, 3),
        ]

    def test_states_orthonormal(self):
        _, v = dicke_basis(3, 3)
        assert v.shape == (27, 10)
        assert np.allclose(v.conj().T @ v, np.eye(10))

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 3), (4, 3)])
    def test_columns_are_weight_space_indicators(self, d, n):
        weights = [tuple(s.count(a) for a in range(d)) for s in itertools.product(range(d), repeat=n)]
        occs, v = dicke_basis(d, n)
        for w, col in zip(occs, v.T):
            members = [r for r, x in enumerate(weights) if x == w]
            want = np.zeros(d**n)
            want[members] = 1 / sqrt(len(members))
            assert np.allclose(col, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("w", [(2, 1), (2, 0, 1, 0), (2, -1, 2)])
    def test_rejects_non_occupation_vector(self, w):
        with pytest.raises(ValueError):
            dicke_state(w, 3)

    def test_example_state(self):
        # (|002> + |200> + |020>)/sqrt 3
        vec = dicke_state((2, 0, 1), 3)
        want = np.zeros(27)
        want[2] = want[18] = want[6] = 1 / math.sqrt(3)
        assert np.allclose(vec, want)

    def test_raising_operator_matrix_elements(self):
        # frozen matrix of collective S_+^2 in the ordered Dicke basis
        _, v = dicke_basis(3, 3)
        sp2 = g.collective(standard_spin_ops(3, 2).plus, 3)
        m = v.conj().T @ sp2 @ v
        want = np.zeros((10, 10))
        for (r, c), val in {
            (2, 5): 1.0, (3, 6): sqrt(2), (4, 7): sqrt(3),
            (6, 8): sqrt(2), (7, 9): 2.0, (9, 10): sqrt(3),
        }.items():
            want[r - 1, c - 1] = val
        assert np.allclose(m, want)

    def test_raising_lowering_amplitudes(self):
        # S_+^l maps occupations (.., w_l, w_{l+1}, ..) with amplitude
        # sqrt((w_l + 1) w_{l+1})
        occs, v = dicke_basis(3, 3)
        index = {w: i for i, w in enumerate(occs)}
        sp1 = g.collective(standard_spin_ops(3, 1).plus, 3)
        m = v.conj().T @ sp1 @ v
        for w, i in index.items():
            if w[1] == 0:
                continue
            target = (w[0] + 1, w[1] - 1, w[2])
            assert m[index[target], i] == pytest.approx(sqrt((w[0] + 1) * w[1]))


class TestSectorStructure:
    """Block structure of the collective level-1 operators on the symmetric sector."""

    def test_block_diagonal_in_w3(self, restricted):
        occs, ops = restricted
        for m in ops.values():
            for i, wi in enumerate(occs):
                for j, wj in enumerate(occs):
                    if wi[2] != wj[2]:
                        assert abs(m[i, j]) <= 1e-12

    def test_blocks_realize_su2_irreps(self, restricted):
        occs, ops = restricted
        # commutators of the unnormalized triple: [Sx,Sy] = -4i Sz, etc.
        assert np.allclose(la.commutator(ops["x"], ops["y"]), -4j * ops["z"])
        assert np.allclose(la.commutator(ops["z"], ops["x"]), -1j * ops["y"])
        cas = (ops["x"] @ ops["x"] + ops["y"] @ ops["y"]) / 4 + ops["z"] @ ops["z"]
        for w3, dim in [(0, 4), (1, 3), (2, 2), (3, 1)]:
            idx = [i for i, w in enumerate(occs) if w[2] == w3]
            assert len(idx) == dim
            block = cas[np.ix_(idx, idx)]
            j = (dim - 1) / 2
            assert np.allclose(block, j * (j + 1) * np.eye(dim), atol=1e-12)


def site_by_site_preset(name):
    """The generators of ``preset(name)`` built without the placement recursion:
    collectives one site at a time, squares as products of d^n x d^n
    collectives, the two-body coupling placement by placement, then i * each."""
    kind, n, variant = re.fullmatch(r"(qubits|qutrits):n=(\d+)(?::(H|Sz2))?", name).groups()
    n = int(n)
    if kind == "qubits":
        sx, sy, sz = (site_collective(e, n) for e in g.pauli_matrices())
        return [1j * sx, 1j * sy, 1j * sz, 1j * (sz @ sz)]
    e = g.gell_mann_basis(3).elements
    gens = [1j * site_collective(e[k], n) for k in range(1, 9)]
    if variant == "H":
        return gens + [1j * placement_sum((n - 2, 0, 0, 2, 0, 0, 0, 0, 0), 3, n)]
    f3 = site_collective(e[3], n)
    return gens + [1j * (f3 @ f3)]


def block_rho(block):
    """rho(a) = P^T (A-hat P) on the irrep copy P = ``block.basis``, site by site."""
    n = sum(block.label)
    return lambda a: block.basis.T @ g.collective_columns(a, block.basis, n)


class TestPresetConstruction:
    @pytest.mark.parametrize(
        "name",
        [f"qubits:n={n}" for n in range(2, 9)]
        + [f"qutrits:n={n}:{v}" for n in (2, 3, 4) for v in ("H", "Sz2")],
    )
    def test_equal_to_the_site_by_site_construction(self, name):
        # each word's block rows match the oracle restricted to the blocks,
        # and its dense form matches the oracle, both relative to its size
        gens = cl.preset(name)
        want = site_by_site_preset(name)
        assert len(gens.generators) == len(want)
        frame = cl.BlockFrame.build(gens.d, gens.n)
        rows = frame_rows(frame, gens.d, gens.n, gens.generators)
        oracles = frame_rows(frame, gens.d, gens.n, want)
        for word, x, row, oracle in zip(gens.generators, want, rows, oracles):
            assert np.abs(row - oracle).max() <= 1e-13 * max(1.0, np.abs(oracle).max())
            matrix = word(lambda a: g.collective(a, gens.n))
            assert np.abs(matrix - x).max() <= 1e-12 * max(1.0, np.abs(x).max())

    @pytest.mark.parametrize("d,k,n", [(2, 3, 2), (2, 1, 5), (3, 3, 4), (3, 8, 3), (3, 5, 3)])
    def test_collective_square_on_every_block(self, d, k, n):
        # rho(A)^2 is the restriction of the dense square, on every irrep copy
        f = g.hat_f(k, d, n)
        for block in cas.highest_weight_blocks(d, n):
            r = block_rho(block)(g.gell_mann_basis(d).elements[k])
            assert np.abs(r @ r - cl.restrict_to_block(f @ f, block)).max() <= 1e-12


class TestGeneratorSpecTerms:
    def test_two_body_from_terms(self):
        terms = [{"multi_index": [1, 0, 0, 2, 0, 0, 0, 0, 0], "coeff_re": 1.0, "coeff_im": 0.0}]
        assert np.allclose(g.hamiltonian_from_terms(terms, 3, 3), g.two_body_hamiltonian(3, 3))

    def test_combination(self):
        terms = [
            {"multi_index": [2, 1, 0, 0], "coeff_re": 0.5},
            {"multi_index": [2, 0, 0, 1], "coeff_re": -1.0},
        ]
        sx = g.gell_mann_basis(2).elements[1]
        sz = g.gell_mann_basis(2).elements[3]
        want = 0.5 * g.collective(sx, 3) - g.collective(sz, 3)
        assert np.allclose(g.hamiltonian_from_terms(terms, 2, 3), want)

    def test_combination_matches_term_by_term_sum(self):
        terms = [
            {"multi_index": [1, 0, 0, 2, 0, 0, 0, 0, 0], "coeff_re": 0.25, "coeff_im": -1},
            {"multi_index": [0, 1, 0, 0, 1, 0, 0, 0, 1], "coeff_re": 3},
        ]
        want = (0.25 - 1j) * placement_sum(terms[0]["multi_index"], 3, 3) + 3 * placement_sum(
            terms[1]["multi_index"], 3, 3
        )
        assert np.abs(g.hamiltonian_from_terms(terms, 3, 3) - want).max() <= 1e-12

    @pytest.mark.parametrize(
        "term",
        [
            {"multi_index": [2, 1, 0, 0], "coeff_re": "1.5"},
            {"multi_index": [2, 1, 0, 0], "coeff_im": True},
            {"multi_index": [2, 1, 0, 0], "coeff_re": None},
        ],
        ids=["string-coefficient", "bool-coefficient", "null-coefficient"],
    )
    def test_malformed_terms_raise_type_error(self, term):
        with pytest.raises(TypeError):
            g.hamiltonian_from_terms([term], 2, 3)
