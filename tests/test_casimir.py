import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymlie import casimir as cas
from qsymlie import generators as g
from qsymlie import linalg as la
from qsymlie import reptheory as rt
from qsymlie.tolerances import RANK_TOL

from conftest import center_coefficients, center_project, dicke_basis, kron_all


def sum_of_two_body_squares(d, n):
    """A = sum over the d^2-1 traceless slots of F_(n-2, 2 at slot k)."""
    dim = d**n
    a = np.zeros((dim, dim), dtype=complex)
    for k in range(1, d * d):
        counts = [0] * (d * d)
        counts[0] = n - 2
        counts[k] = 2
        a += g.symmetric_sum(counts, d, n)
    return a


def assert_hermitian_and_invariant(c, d, n):
    """C is Hermitian and commutes with (1 2), the n-cycle and the collectives."""
    scale = max(1.0, np.linalg.norm(c))
    assert np.linalg.norm(c - c.conj().T) <= 1e-9 * scale
    ops = [g.permutation_operator(p, d) for p in g.sn_generators(n)]
    ops += [g.hat_f(k, d, n) for k in range(1, d * d)]
    for u in ops:
        assert np.linalg.norm(c @ u - u @ c) <= 1e-9 * scale


class TestC2Identities:
    @pytest.mark.parametrize("d,n", [(3, 2), (2, 3)])
    def test_hermitian_and_invariant(self, d, n):
        assert_hermitian_and_invariant(cas.build_C2(d, n), d, n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_qubit_affine_form(self, n):
        c2 = cas.build_C2(2, n)
        a = sum_of_two_body_squares(2, n)
        assert np.linalg.norm(c2 - 3 * n * np.eye(2**n) - 2 * a) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_qutrit_affine_form(self, n):
        c2 = cas.build_C2(3, n)
        a = sum_of_two_body_squares(3, n)
        assert np.linalg.norm(c2 - (16 * n / 3) * np.eye(3**n) - 2 * a) <= 1e-10

    def test_commutes_with_collectives_and_permutations(self):
        c2 = cas.build_C2(3, 3)
        for k in range(1, 9):
            f = g.hat_f(k, 3, 3)
            assert np.linalg.norm(c2 @ f - f @ c2) <= 1e-9
        for p in itertools.permutations(range(3)):
            u = g.permutation_operator(p, 3)
            assert np.linalg.norm(c2 @ u - u @ c2) <= 1e-9

    def test_qutrit_spectrum_clusters(self):
        w, _ = la.hermitian_eig(cas.build_C2(3, 3))
        cl = la.cluster_eigenvalues(w)
        assert sorted(cl.sizes) == [1, 10, 16]
        assert len(cl.clusters) == 3

    def test_four_qubit_spectrum_clusters(self):
        w, _ = la.hermitian_eig(cas.build_C2(2, 4))
        cl = la.cluster_eigenvalues(w)
        assert sorted(cl.sizes) == [2, 5, 9]


def kron_collective(op, n):
    """Collective lift as a sum of Kronecker products, apart from the package."""
    eye = np.eye(op.shape[0])
    return sum(kron_all([eye] * j + [op] + [eye] * (n - 1 - j)) for j in range(n))


def dense_C2(d, n):
    """The dense loop: sum_k hat(F_k) @ hat(F_k)."""
    hats = [kron_collective(e, n) for e in g.gell_mann_basis(d).elements[1:]]
    return sum(f @ f for f in hats)


def dense_C3(d, n):
    """The dense triple loop: sum_{l,m,q} d_lmq hat(F_l) @ hat(F_m) @ hat(F_q)."""
    dsym = g.structure_constants(g.gell_mann_basis(d)).dsym
    hats = [kron_collective(e, n) for e in g.gell_mann_basis(d).elements[1:]]
    out = np.zeros((d**n, d**n), dtype=complex)
    for l, fl in enumerate(hats):
        for m, fm in enumerate(hats):
            prod_lm = fl @ fm
            for q, fq in enumerate(hats):
                if dsym[l, m, q] != 0.0:
                    out += dsym[l, m, q] * (prod_lm @ fq)
    return out


def c3_on_label(label, d):
    """C3 on block ``label`` by the content rule, exact: alpha + beta sum c +
    24 (sum c^2 - C(n, 2)) over the box contents c of its Young diagram."""
    n = sum(label)
    contents = [j - i for i, row in enumerate(label) for j in range(row)]
    alpha = Fraction(
        4 * (d * d - 4) * (d * d - 1) * n - 12 * (d * d - 4) * n * (n - 1)
        + 16 * n * (n - 1) * (n - 2), d * d)
    beta = Fraction(24 * (d * d - 4) - 48 * (n - 2), d)
    return alpha + beta * sum(contents) + 24 * (sum(c * c for c in contents) - math.comb(n, 2))


class TestCasimirAction:
    @pytest.mark.parametrize(
        "d,n",
        [(2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3), (5, 2), (5, 3)],
    )
    def test_builds_match_dense_oracle(self, d, n):
        assert np.abs(cas.build_C2(d, n) - dense_C2(d, n)).max() <= 1e-10
        assert np.abs(cas.build_C3(d, n) - dense_C3(d, n)).max() <= 1e-10

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 3)])
    def test_apply_on_columns(self, d, n, rng):
        x = rng.standard_normal((d**n, 5)) + 1j * rng.standard_normal((d**n, 5))
        assert np.abs(cas.apply_C2(x, d, n) - dense_C2(d, n) @ x).max() <= 1e-10
        assert np.abs(cas.apply_C3(x, d, n) - dense_C3(d, n) @ x).max() <= 1e-10

    @pytest.mark.parametrize("d,n", [(2, 5), (3, 4), (4, 3)])
    def test_c2_keeps_each_weight_space(self, d, n):
        # occupation numbers of each basis state, read off its base-d digits
        weights = [tuple(s.count(a) for a in range(d)) for s in itertools.product(range(d), repeat=n)]
        c2 = cas.apply_C2(np.eye(d**n), d, n)
        for col, w in enumerate(weights):
            assert {weights[r] for r in np.flatnonzero(np.abs(c2[:, col]) > 1e-12)} == {w}

    @pytest.mark.parametrize("n", [3, 4])
    def test_c3_keeps_each_weight_space(self, n):
        weights = [tuple(s.count(a) for a in range(3)) for s in itertools.product(range(3), repeat=n)]
        c3 = cas.apply_C3(np.eye(3**n), 3, n)
        for col, w in enumerate(weights):
            assert {weights[r] for r in np.flatnonzero(np.abs(c3[:, col]) > 1e-12)} == {w}

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 3)])
    def test_real_input_gives_real_output(self, d, n, rng):
        x = rng.standard_normal((d**n, 4))
        c2 = cas.apply_C2(x, d, n)
        assert c2.dtype == np.float64
        assert np.abs(c2 - dense_C2(d, n) @ x).max() <= 1e-10
        c3 = cas.apply_C3(x, d, n)
        assert c3.dtype == np.float64
        assert np.abs(c3 - dense_C3(d, n) @ x).max() <= 1e-10

    @pytest.mark.parametrize("d,n", [(2, 5), (3, 4), (3, 5), (4, 4)])
    def test_orbit_relabeling_carries_the_count_matrices(self, d, n):
        # a level permutation on every site commutes with the factor
        # permutations, so each weight space's count matrices are its
        # representative's with rows and columns gathered by local; each is
        # also the sum of the permutation operators, restricted to the space,
        # on every space, representative or not
        ws = g._WeightSpaces(d, n)
        classes = (cas._transpositions(n), cas._three_cycles(n))
        dense = [sum(g.permutation_operator(p, d).real for p in perms) for perms in classes]
        for mu, (nu, local) in ws.orbits.items():
            assert list(nu) == sorted(mu, reverse=True)
            assert sorted(local) == list(range(len(ws.spaces[mu])))
            states = ws.spaces[mu]
            for perms, want in zip(classes, dense):
                on_mu = cas._class_sum(perms, ws, states)
                on_nu = cas._class_sum(perms, ws, ws.spaces[nu])
                assert on_mu.dtype.kind == "i"
                assert np.array_equal(on_mu, want[np.ix_(states, states)])
                assert np.array_equal(on_mu, on_nu[np.ix_(local, local)])

    def test_apply_c2_rejects_wrong_row_count(self):
        with pytest.raises(ValueError):
            cas.apply_C2(np.eye(8), 3, 2)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_apply_c3_is_zero_at_two_levels(self, n, rng):
        # d_lmq = 0 for su(2); the integer class-sum coefficients cancel exactly
        x = rng.standard_normal((2**n, 3))
        assert not cas.apply_C3(x, 2, n).any()
        assert np.abs(dense_C3(2, n)).max() == 0.0


@pytest.fixture(scope="module")
def c3():
    return cas.build_C3(3, 3)


class TestC3:
    def test_hermitian(self, c3):
        assert la.is_hermitian(c3)

    def test_commutes_with_collectives(self, c3):
        for k in range(1, 9):
            f = g.hat_f(k, 3, 3)
            assert np.linalg.norm(c3 @ f - f @ c3) <= 1e-9

    def test_commutes_with_permutations_and_c2(self, c3):
        c2 = cas.build_C2(3, 3)
        assert np.linalg.norm(c2 @ c3 - c3 @ c2) <= 1e-9
        for p in itertools.permutations(range(3)):
            u = g.permutation_operator(p, 3)
            assert np.linalg.norm(c3 @ u - u @ c3) <= 1e-9

    def test_scalar_on_each_block(self, c3, qutrit_blocks):
        for b in qutrit_blocks:
            sub = b.basis.conj().T @ c3 @ b.basis
            lam = np.trace(sub) / b.block_dim
            assert np.linalg.norm(sub - lam * np.eye(b.block_dim)) <= 1e-9

    @pytest.mark.parametrize("d,n", [(4, 3), (5, 2)])
    def test_hermitian_and_invariant_at_other_d(self, d, n):
        assert_hermitian_and_invariant(cas.build_C3(d, n), d, n)

    def test_hermitian_and_invariant_at_two_qutrits(self):
        assert_hermitian_and_invariant(cas.build_C3(3, 2), 3, 2)

    @pytest.mark.parametrize(
        "d,n",
        [pytest.param(3, n, id=str(n)) for n in range(1, 8)]
        + [pytest.param(4, n, id=f"d4-{n}") for n in range(1, 6)],
    )
    def test_closed_form_on_each_irrep_copy(self, d, n):
        # C3 = alpha + beta sum c + 24 (sum c^2 - C(n, 2)) on the copy of
        # lambda, and highest_weight_blocks orders C2 ties by ascending C3
        keys = []
        for b in cas.highest_weight_blocks(d, n):
            want = float(c3_on_label(b.label, d))
            err = np.abs(cas.apply_C3(b.basis, d, n) - want * b.basis).max()
            assert err <= 1e-9 * max(1.0, abs(want))
            keys.append((rt.content_sum(b.label), want))
        assert keys == sorted(keys)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_block_order_matches_su3_polynomial(self, n):
        # Oracle: at d = 3, C3 = (8/9)(p-q)(2p+q+3)(p+2q+3) on (p, q); the
        # content rule gives the same value exactly, and (sum c, sum c^2)
        # orders the labels as (content sum, polynomial) does
        labels = list(rt.cg_decompose(n, 3))
        poly = {}
        for m in labels:
            p, q = rt.quantum_numbers(m)
            poly[m] = (p - q) * (2 * p + q + 3) * (p + 2 * q + 3)
            assert c3_on_label(m, 3) == Fraction(8, 9) * poly[m]
        for a, b in itertools.combinations(labels, 2):
            old = (rt.content_sum(a), poly[a]), (rt.content_sum(b), poly[b])
            new = cas._block_order(a), cas._block_order(b)
            assert (old[0] < old[1], old[0] == old[1]) == (new[0] < new[1], new[0] == new[1])


class Testc2Formula:
    def test_degenerate_pair(self):
        assert cas.c2_eigenvalue(5, 2) == 60
        assert cas.c2_eigenvalue(2, 5) == 60

    def test_trivial(self):
        assert cas.c2_eigenvalue(0, 0) == 0

    @given(st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, p, q):
        assert cas.c2_eigenvalue(p, q) == cas.c2_eigenvalue(q, p)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            cas.c2_eigenvalue(-1, 0)

    @pytest.mark.parametrize("p,q", [(2.7, 1), (2, 1.0), ("2", 1)])
    def test_rejects_non_integers(self, p, q):
        # int() would truncate c2(2.7, 1) to c2(2, 1) = 16
        with pytest.raises(TypeError):
            cas.c2_eigenvalue(p, q)


def brute_force_equal_c2(p0, q0, box=40):
    target = cas.c2_eigenvalue(p0, q0)
    return sorted(
        (p, q)
        for p in range(box)
        for q in range(box)
        if cas.c2_eigenvalue(p, q) == target
    )


class TestDegeneracySearch:
    def test_example_pair(self):
        assert cas.degeneracy_search(5, 2) == [(2, 5), (5, 2)]
        assert cas.degeneracy_search(2, 5) == [(2, 5), (5, 2)]

    def test_origin(self):
        assert cas.degeneracy_search(0, 0) == [(0, 0)]

    @given(st.integers(0, 12), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, p0, q0):
        assert cas.degeneracy_search(p0, q0) == brute_force_equal_c2(p0, q0)

    def test_large_seed_matches_brute_force(self):
        # c2 >= p^2 and c2 >= q^2, so no match lies past isqrt(target)
        target = cas.c2_eigenvalue(3000, 5)
        q = np.arange(math.isqrt(target) + 1, dtype=np.int64)
        want = []
        for p in range(math.isqrt(target) + 1):
            c2 = p * p + q * q + 3 * (p + q) + p * q
            want += [(p, int(x)) for x in q[c2 == target]]
        got = cas.degeneracy_search(3000, 5)
        assert got == want and (3000, 5) in got and (5, 3000) in got

    def test_n12_degeneracy_is_admissible(self):
        # both (5,2) and (2,5) occur among the 12-qutrit labels, so C2 alone
        # cannot separate them there
        labels = [rt.quantum_numbers(m) for m in rt.cg_decompose(12, 3)]
        assert (5, 2) in labels and (2, 5) in labels
        assert cas.c2_eigenvalue(5, 2) == cas.c2_eigenvalue(2, 5)


@pytest.fixture(scope="module")
def six_qutrit_blocks():
    return cas.isotypic_blocks(3, 6)


class TestIsotypicBlocks:
    def test_three_qubits(self):
        blocks = cas.isotypic_blocks(2, 3)
        got = {b.label: (b.block_dim, b.irrep_dim, b.multiplicity) for b in blocks}
        assert got == {(2, 1): (4, 2, 2), (3, 0): (4, 4, 1)}

    def test_three_qutrits(self, qutrit_blocks):
        got = {b.label: (b.block_dim, b.irrep_dim, b.multiplicity) for b in qutrit_blocks}
        assert got == {
            (1, 1, 1): (1, 1, 1),
            (2, 1, 0): (16, 8, 2),
            (3, 0, 0): (10, 10, 1),
        }
        assert sum(b.block_dim for b in qutrit_blocks) == 27

    def test_bases_orthonormal_and_disjoint(self, qutrit_blocks):
        stacked = np.hstack([b.basis for b in qutrit_blocks])
        assert np.allclose(stacked.conj().T @ stacked, np.eye(27))

    def test_c2_scalar_per_block(self, qutrit_blocks):
        c2 = cas.build_C2(3, 3)
        for b in qutrit_blocks:
            sub = b.basis.conj().T @ c2 @ b.basis
            lam = np.trace(sub) / b.block_dim
            assert np.linalg.norm(sub - lam * np.eye(b.block_dim)) <= 1e-8

    def test_symmetric_sector_matches_dicke_span(self, qutrit_blocks):
        sym = next(b for b in qutrit_blocks if b.label == (3, 0, 0))
        _, dicke = dicke_basis(3, 3)
        # same projector
        assert np.allclose(sym.projector(), dicke @ dicke.conj().T, atol=1e-9)

    def test_c3_refinement_at_six_qutrits(self, six_qutrit_blocks):
        # first C2-degenerate case: labels (4,1,1) and (3,3,0) share c2 = 18
        blocks = six_qutrit_blocks
        got = {b.label: (b.block_dim, b.c3_refined) for b in blocks}
        assert got[(4, 1, 1)] == (100, True)
        assert got[(3, 3, 0)] == (50, True)
        assert sum(b.block_dim for b in blocks) == 729
        refined = [b for b in blocks if b.c3_refined]
        assert {b.c2_cluster_index for b in refined} == {refined[0].c2_cluster_index}

    @pytest.mark.parametrize("d,n", [(2, 5), (3, 4), (4, 3)])
    def test_projectors_match_dense_eigh(self, d, n):
        w, v = np.linalg.eigh(dense_C2(d, n))
        clusters = la.cluster_eigenvalues(w).clusters
        blocks = cas.isotypic_blocks(d, n)
        assert len(clusters) == len({b.c2_cluster_index for b in blocks})
        for ci, idx in enumerate(clusters):
            want = v[:, list(idx)] @ v[:, list(idx)].conj().T
            got = sum(b.projector() for b in blocks if b.c2_cluster_index == ci)
            assert np.abs(got - want).max() <= 1e-9

    @pytest.mark.parametrize("d,n,largest", [(2, 6, 20), (3, 5, 30), (4, 4, 24)])
    def test_largest_eigh_is_one_weight_space(self, d, n, largest, monkeypatch):
        # no C3 refinement at these sizes, so every eigh is C2 on one orbit
        # representative: one per non-increasing occupation tuple, that is per
        # partition of n into at most d parts, of multinomial(n; occupations) states
        sizes = []

        def recording_eig(h):
            sizes.append(len(h))
            return la.hermitian_eig(h)

        monkeypatch.setattr(cas, "hermitian_eig", recording_eig)
        blocks = cas.isotypic_blocks(d, n)
        assert not any(b.c3_refined for b in blocks)
        assert len(sizes) == rt.center_dimension(n, d)
        reps = [nu for nu in g.occupation_vectors(d, n) if list(nu) == sorted(nu, reverse=True)]
        multinomials = [math.factorial(n) // math.prod(map(math.factorial, nu)) for nu in reps]
        assert sorted(sizes) == sorted(multinomials)
        assert max(sizes) == largest

    def test_six_qutrits_take_one_eigh_per_orbit(self, monkeypatch):
        # 7 C2 orbit representatives; the (4,1,1)/(3,3,0) cluster meets 4 of them
        sizes = []

        def recording_eig(h):
            sizes.append(len(h))
            return la.hermitian_eig(h)

        monkeypatch.setattr(cas, "hermitian_eig", recording_eig)
        cas.isotypic_blocks(3, 6)
        assert len(sizes) == 11

    @pytest.mark.parametrize(
        "change,match",
        [
            (lambda labels: labels.pop((4, 2, 0)), "found 6 C2 clusters, expected 5"),
            (lambda labels: labels.update({(4, 2, 0): 8}), r"\(4, 2, 0\) has dimension 243"),
            (lambda labels: labels.update({(3, 3, 0): 6}), r"\(3, 3, 0\) has dimension 50"),
            # (4,4,2) shares the content sum, not the sum of squares, of (4,2,0),
            # whose cluster C3 does not split
            (lambda labels: labels.update({(4, 4, 2): 1}), "C3 splits cluster 3 into 1 parts"),
        ],
        ids=["count", "c2-dimension", "c3-dimension", "c3-count"],
    )
    def test_mismatch_with_the_labels_raises(self, monkeypatch, change, match):
        def altered(n, d):
            labels = dict(rt.cg_decompose(n, d))
            change(labels)
            return [(m, rt.irrep_dimension(m), k) for m, k in labels.items()]

        monkeypatch.setattr(cas, "cg_table", altered)
        with pytest.raises(cas.UnresolvedDegeneracyError, match=match):
            cas.isotypic_blocks(3, 6)

    def test_labels_sharing_both_keys_raise_before_any_eigh(self, monkeypatch):
        # (4,1,0) and (4,2,0) have contents with equal sums and equal sums of
        # squares, so C2 and C3 take equal values on both
        assert cas._block_order((4, 1, 0)) == cas._block_order((4, 2, 0))
        real = cas.cg_table
        monkeypatch.setattr(cas, "cg_table", lambda n, d: [*real(n, d), ((4, 1, 0), 24, 1)])
        calls = []
        monkeypatch.setattr(cas, "hermitian_eig", lambda h: calls.append(h))
        with pytest.raises(cas.UnresolvedDegeneracyError,
                           match=r"\(4, 2, 0\) and \(4, 1, 0\) share their C2 and C3 values"):
            cas.isotypic_blocks(3, 6)
        assert calls == []

    @pytest.mark.parametrize("d,n,pair", [
        (4, 16, ((8, 5, 3, 0), (7, 7, 1, 1))),
        (5, 15, ((7, 4, 2, 2, 0), (6, 6, 1, 1, 1))),
    ])
    def test_first_labels_sharing_both_keys(self, d, n, pair):
        # below n no two labels share (sum c, sum c^2); at n the first pair
        # does, and isotypic_blocks refuses before it builds any matrix
        for m in range(1, n):
            keys = [cas._block_order(label) for label in rt.cg_decompose(m, d)]
            assert len(set(keys)) == len(keys)
        assert cas._block_order(pair[0]) == cas._block_order(pair[1])
        with pytest.raises(cas.UnresolvedDegeneracyError, match="share their C2 and C3 values"):
            cas.isotypic_blocks(d, n)

    @pytest.mark.parametrize("d,n", [(d, n) for d in range(2, 7) for n in range(1, 13)])
    def test_largest_arrays_count_the_largest_weight_space(self, d, n):
        k = max(
            math.factorial(n) // math.prod(math.factorial(c) for c in occ)
            for occ in g.occupation_vectors(d, n)
        )
        assert cas._largest_arrays(d, n) == (8 * n * d**n, 8 * k * k)

    @pytest.mark.parametrize("d,n,k", [(4, 10, 25200), (2, 16, 12870), (2, 40, 137846528820)])
    def test_refuses_sizes_over_the_budget_before_any_array(self, d, n, k, monkeypatch):
        def fail(*args):
            raise AssertionError("built the weight spaces")

        monkeypatch.setattr(cas, "_WeightSpaces", fail)
        assert cas._largest_arrays(d, n)[1] == 8 * k * k > cas.ARRAY_BUDGET == 2**30
        with pytest.raises(ValueError, match=f"d={d}, n={n} is too large"):
            cas.isotypic_blocks(d, n)

    @pytest.mark.parametrize("d,n", [(4, 8), (4, 9), (3, 11), (3, 8), (2, 15), (5, 6)])
    def test_budget_admits_the_sizes_that_run(self, d, n):
        assert max(cas._largest_arrays(d, n)) <= cas.ARRAY_BUDGET

    @pytest.mark.parametrize("d,n,table,matrix", [
        (3, 4, 8 * 4 * 81, 8 * 12**2),  # the digit table is the larger
        (2, 8, 8 * 8 * 256, 8 * 70**2),  # the matrix of weight space (4, 4) is
    ])
    def test_budget_bounds_both_arrays(self, d, n, table, matrix, monkeypatch):
        assert cas._largest_arrays(d, n) == (table, matrix)
        monkeypatch.setattr(cas, "ARRAY_BUDGET", max(table, matrix))
        assert sum(b.block_dim for b in cas.isotypic_blocks(d, n)) == d**n
        monkeypatch.setattr(cas, "ARRAY_BUDGET", max(table, matrix) - 1)
        with pytest.raises(ValueError, match="over the"):
            cas.isotypic_blocks(d, n)

    @pytest.mark.parametrize("d,n", [(4, 6), (5, 6)])
    def test_c3_refines_past_three_levels(self, d, n, monkeypatch):
        # the first sizes with content-sum ties at d = 4 and 5: two tied pairs
        # each, both split by C3, every clustering with wide margins
        seen = []

        def recording(values):
            seen.append(la.cluster_eigenvalues(values))
            return seen[-1]

        monkeypatch.setattr(cas, "cluster_eigenvalues", recording)
        blocks = cas.isotypic_blocks(d, n)
        sums = [rt.content_sum(b.label) for b in blocks]
        assert [b.c3_refined for b in blocks] == [sums.count(s) > 1 for s in sums]
        assert sum(b.c3_refined for b in blocks) == 4 and len(seen) == 3
        assert sum(b.block_dim for b in blocks) == d**n
        for cl in seen:
            assert cl.relative_gap > 1e6 and cl.relative_spread < 1e-5
        for b in blocks:  # C3 on the columns of one weight space of each refined block
            if b.c3_refined:
                nu, v = next(iter(b.on_representatives.items()))
                x = np.zeros((d**n, v.shape[1]))
                x[b.weight_spaces.spaces[nu]] = v
                want = float(c3_on_label(b.label, d))
                assert np.abs(cas.apply_C3(x, d, n) - want * x).max() <= 1e-9 * max(1.0, abs(want))

    def test_blocks_compare_by_identity(self):
        # value equality would compare arrays, which have no truth value
        for build in (cas.isotypic_blocks, cas.highest_weight_blocks):
            first, again = build(2, 3)[0], build(2, 3)[0]
            assert (first == first) is True and (first == again) is False
            assert len({first, again, first}) == 2

    def test_single_site_any_d(self):
        blocks = cas.isotypic_blocks(5, 1)
        assert len(blocks) == 1 and blocks[0].label == (1, 0, 0, 0, 0)
        assert blocks[0].block_dim == 5
        # a block's columns come in weight-space order, one state per space here
        assert np.array_equal(np.abs(blocks[0].basis), np.eye(5))

    @pytest.mark.parametrize("d,n", [(2, 5), (3, 4), (3, 6), (4, 3)])
    def test_pieces_lie_in_one_weight_space_each(self, d, n, six_qutrit_blocks):
        # a block's basis comes in pieces, one per weight space it meets: each
        # column is supported on one weight space, and the spaces, in
        # weight-space order, take the columns 0..block_dim-1 in turn
        blocks = six_qutrit_blocks if (d, n) == (3, 6) else cas.isotypic_blocks(d, n)
        ws = g._WeightSpaces(d, n)
        for states in ws.spaces.values():
            digits = np.array(np.unravel_index(states, (d,) * n))
            occupations = np.stack([(digits == a).sum(axis=0) for a in range(d)])
            assert (occupations == occupations[:, :1]).all()
        for b in blocks:
            assert b.basis.dtype == float and b.basis.shape == (d**n, b.block_dim)
            columns = []
            for states in ws.spaces.values():
                inside = np.zeros(d**n, dtype=bool)
                inside[states] = True
                cols = np.flatnonzero(b.basis[inside].any(axis=0))
                assert not b.basis[~inside][:, cols].any()
                columns += list(cols)
            assert columns == list(range(b.block_dim))
        assert sum(b.block_dim for b in blocks) == d**n

    @pytest.mark.parametrize("d,n", [(2, 5), (3, 4), (3, 6), (4, 3)])
    def test_pieces_and_basis_match_an_eager_gather(self, d, n):
        # a block holds its representatives' columns; basis, read afterwards,
        # is those columns gathered onto every weight space of each orbit,
        # piece by piece, as an eager build would have stored them
        ws = g._WeightSpaces(d, n)
        for b in cas.isotypic_blocks(d, n):
            assert "basis" not in vars(b)
            assert all(list(nu) == sorted(nu, reverse=True) for nu in b.on_representatives)
            assert all(v.dtype == float for v in b.on_representatives.values())
            basis, top = np.zeros((d**n, b.block_dim)), 0
            for mu, (nu, local) in ws.orbits.items():
                if nu in b.on_representatives:
                    v = b.on_representatives[nu][local]
                    basis[ws.spaces[mu][:, None], np.arange(top, top + v.shape[1])] = v
                    top += v.shape[1]
            assert np.array_equal(b.basis, basis) and b.block_dim == top
            assert "basis" in vars(b)

    @pytest.mark.parametrize("n", [6, 7])
    def test_per_space_c3_split_matches_dense_c3(self, n, six_qutrit_blocks):
        # Oracle: split each C2 cluster's columns by the dense C3 (build_C3),
        # as V^T C3 V over the whole cluster.  (3,6) holds the first
        # C2-degenerate pair; at (3,7) no cluster needs C3, and the dense
        # split must agree that none splits.
        blocks = six_qutrit_blocks if n == 6 else cas.isotypic_blocks(3, n)
        c3 = cas.build_C3(3, n)
        for ci in sorted({b.c2_cluster_index for b in blocks}):
            members = [b for b in blocks if b.c2_cluster_index == ci]
            v = np.hstack([b.basis for b in members])
            w, u = la.hermitian_eig(v.T @ c3 @ v)
            parts = la.cluster_eigenvalues(w).clusters
            assert len(parts) == len(members)
            assert all(b.c3_refined == (len(members) > 1) for b in members)
            if len(members) == 1:  # one part: its projector is v v^T, the block's
                continue
            for part, b in zip(parts, members):  # both ascending in C3
                q = v @ u[:, list(part)]
                assert np.abs(q @ q.T - b.projector()).max() <= 1e-9
        assert any(b.c3_refined for b in blocks) == (n == 6)

    def test_clustering_margins_at_six_qutrits(self, monkeypatch):
        seen = []

        def recording(values):
            seen.append(la.cluster_eigenvalues(values))
            return seen[-1]

        monkeypatch.setattr(cas, "cluster_eigenvalues", recording)
        cas.isotypic_blocks(3, 6)
        c2, c3 = seen
        # only the orbit representatives' values: 222 of C2 on the 7 of them
        # (729 states), 45 of V^T C3 V on the 4 that the (4,1,1)/(3,3,0)
        # cluster meets (its 150 columns)
        assert (len(c2.eigenvalues), len(c3.eigenvalues)) == (222, 45)
        # C2 values differ by 4 x (content sums); C3 is +-144 on (4,1,1)/(3,3,0)
        assert c2.min_gap == pytest.approx(8.0) and c3.min_gap == pytest.approx(288.0)
        for cl in (c2, c3):
            assert cl.relative_gap > 1e6 and cl.relative_spread < 1e-5

    @pytest.mark.parametrize(
        "d,n", [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 7)] + [(4, 2), (4, 3)]
    )
    def test_c2_value_per_block(self, d, n, six_qutrit_blocks):
        # C2 = 2n(d^2-1)/d - 2n(n-1)/d + 4 content_sum(lambda) on block lambda
        blocks = six_qutrit_blocks if (d, n) == (3, 6) else cas.isotypic_blocks(d, n)
        for b in blocks:
            sub = b.basis.conj().T @ cas.apply_C2(b.basis, d, n)
            want = 2 * n * (d * d - 1) / d - 2 * n * (n - 1) / d + 4 * rt.content_sum(b.label)
            assert np.abs(sub - want * np.eye(b.block_dim)).max() <= 1e-9

    def test_c3_scalar_and_distinct_on_refined_blocks(self, six_qutrit_blocks):
        values = {}
        for b in six_qutrit_blocks:
            if b.c3_refined:
                sub = b.basis.conj().T @ cas.apply_C3(b.basis, 3, 6)
                lam = np.trace(sub).real / b.block_dim
                assert np.abs(sub - lam * np.eye(b.block_dim)).max() <= 1e-9
                values[b.label] = lam
        assert set(values) == {(3, 3, 0), (4, 1, 1)}
        # ascending C3 is ascending _block_order, by which labels are attached
        assert values[(3, 3, 0)] + 1.0 < values[(4, 1, 1)]
        assert cas._block_order((3, 3, 0)) < cas._block_order((4, 1, 1))

    @pytest.mark.parametrize("n", range(1, 16))
    def test_content_sum_orders_like_qutrit_c2(self, n):
        # the block key: same ties and order as c2(p, q) for every qutrit label
        labels = sorted(rt.cg_decompose(n, 3))
        for a, b in itertools.combinations(labels, 2):
            ka, kb = rt.content_sum(a), rt.content_sum(b)
            ca = cas.c2_eigenvalue(*rt.quantum_numbers(a))
            cb = cas.c2_eigenvalue(*rt.quantum_numbers(b))
            assert (ka > kb) - (ka < kb) == (ca > cb) - (ca < cb)


class TestHighestWeightBlocks:
    def test_refuses_sizes_over_the_budget_before_any_array(self, monkeypatch):
        # the guard of isotypic_blocks, first: (2, 16)'s 12,870-state weight
        # space would need a 1.23 GiB C2 matrix; (2, 15)'s 6,435 states
        # need 0.31 GiB and are admitted
        def fail(*args):
            raise AssertionError("started building the blocks")

        monkeypatch.setattr(cas, "_WeightSpaces", fail)
        monkeypatch.setattr(cas, "cg_table", fail)
        assert cas._largest_arrays(2, 16)[1] == 8 * 12870**2 > cas.ARRAY_BUDGET
        with pytest.raises(ValueError, match="d=2, n=16 is too large"):
            cas.highest_weight_blocks(2, 16)
        assert cas._check_size(2, 15) is None

    @pytest.mark.parametrize("d,n", [(2, 12), (3, 7), (4, 6), (8, 4), (5, 3)])
    def test_counts_match_cg_multiplicities(self, d, n):
        assert cas.highest_weight_counts(d, n) == rt.cg_decompose(n, d)

    @pytest.mark.parametrize("d,n", [(2, 5), (3, 4), (4, 3), (3, 6), (4, 6)])
    def test_c2_value_on_each_copy(self, d, n):
        # real orthonormal columns, one irrep copy each, on which C2 is
        # 2n(d^2-1)/d - 2n(n-1)/d + 4 content_sum(lambda)
        c0 = 2 * n * (d * d - 1) / d - 2 * n * (n - 1) / d
        blocks = cas.highest_weight_blocks(d, n)
        for b in blocks:
            q = b.basis
            assert q.dtype == float and q.shape == (d**n, rt.irrep_dimension(b.label))
            assert np.abs(q.T @ q - np.eye(b.irrep_dim)).max() <= 1e-12
            want = c0 + 4 * rt.content_sum(b.label)
            assert np.abs(cas.apply_C2(q, d, n) - want * q).max() <= 1e-9

    @pytest.mark.parametrize("d,n", [(2, 6), (4, 4), (3, 6)])
    def test_order_matches_isotypic_blocks(self, d, n, six_qutrit_blocks):
        # at (3, 6), (4,1,1) and (3,3,0) share C2 and are ordered by C3
        blocks = six_qutrit_blocks if (d, n) == (3, 6) else cas.isotypic_blocks(d, n)
        want = sorted(rt.cg_decompose(n, d), key=cas._block_order)
        assert [b.label for b in cas.highest_weight_blocks(d, n)] == want
        assert [b.label for b in blocks] == want

    def test_copies_invariant_under_symmetric_basis(self):
        for b in cas.highest_weight_blocks(3, 3):
            for counts in g.multi_indices(3, 3):
                fq = g.symmetric_sum(counts, 3, 3) @ b.basis
                leak = np.linalg.norm(fq - b.basis @ (b.basis.T @ fq))
                assert leak <= 1e-9 * max(1.0, np.linalg.norm(fq))

    @staticmethod
    def _altered_blocks(monkeypatch, **change):
        real = cas.isotypic_blocks
        monkeypatch.setattr(cas, "isotypic_blocks", lambda d, n: [
            dataclasses.replace(b, **{k: f(b) for k, f in change.items()}) for b in real(d, n)
        ])

    def test_count_gate(self, monkeypatch):
        self._altered_blocks(monkeypatch, multiplicity=lambda b: b.multiplicity + 1)
        with pytest.raises(cas.HighestWeightError,
                           match=r"weight \(2, 1\) holds 2 highest-weight vectors, "
                                 "CG multiplicity is 3"):
            cas.highest_weight_blocks(2, 3)

    def test_dimension_gate(self, monkeypatch):
        self._altered_blocks(monkeypatch, irrep_dim=lambda b: b.irrep_dim + 1)
        with pytest.raises(cas.HighestWeightError,
                           match=r"highest weight \(1, 1, 0\) span 3 dimensions, "
                                 "irrep dimension is 4"):
            cas.highest_weight_blocks(3, 2)

    @pytest.mark.parametrize("d,n", [(2, 8), (3, 6), (4, 4), (5, 3)])
    def test_rank_cuts_have_margin(self, d, n, monkeypatch):
        # The lowered span at each weight (singular values, _lowered_span) is
        # cut at RANK_TOL * max(1, largest value): every kept value must lie
        # 1e3 above its cut and every dropped one 1e3 below.  The highest-
        # weight vectors come from isotypic_blocks, whose C2 clustering and
        # C3 refinements (at (3, 6)) must split with wide margins too.
        svds, clusterings = [], []
        real_svd = np.linalg.svd

        def recording_svd(a, **kwargs):
            u, s, vt = real_svd(a, **kwargs)
            svds.append((s, s.max(initial=0.0)))
            return u, s, vt

        def recording_clusters(values):
            clusterings.append(la.cluster_eigenvalues(values))
            return clusterings[-1]

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(cas, "cluster_eigenvalues", recording_clusters)
        blocks = cas.highest_weight_blocks(d, n)
        monkeypatch.undo()
        dropped_any = False
        for values, largest in svds:
            cut = RANK_TOL * max(1.0, largest)
            kept, dropped = values[values > cut], np.abs(values[values <= cut])
            assert kept.size == 0 or kept.min() >= 1e3 * cut
            assert dropped.size == 0 or dropped.max() <= cut / 1e3
            dropped_any |= dropped.size > 0
        assert dropped_any  # the cut dropped something, so both sides are measured
        ties = len(blocks) - len({rt.content_sum(b.label) for b in blocks})
        assert len(clusterings) == 1 + ties and (ties > 0) == ((d, n) == (3, 6))
        for cl in clusterings:
            assert cl.relative_gap > 1e6 and cl.relative_spread < 1e-5

    @pytest.mark.parametrize("d,n", [(2, 8), (3, 6), (4, 4), (5, 3)])
    def test_copy_lies_in_its_isotypic_block(self, d, n):
        # each copy spans part of the block spectrum prints, and its first
        # column, the highest-weight vector, is killed by every raising map
        isotypic = {b.label: b.basis for b in cas.isotypic_blocks(d, n)}
        for b in cas.highest_weight_blocks(d, n):
            p, q = isotypic[b.label], b.basis
            assert np.abs(q - p @ (p.T @ q)).max() <= 1e-12
            for i in range(d - 1):
                raising = np.zeros((d, d))
                raising[i, i + 1] = 1.0
                assert np.abs(g.collective_columns(raising, q[:, :1], n)).max() <= 1e-12

    def test_single_site_is_the_identity(self):
        (b,) = cas.highest_weight_blocks(5, 1)
        assert b.label == (1, 0, 0, 0, 0) and b.multiplicity == 1
        assert np.array_equal(np.abs(b.basis), np.eye(5))


class TestCenterBasis:
    def test_dimensions(self, qutrit_center):
        assert qutrit_center.dim == 3 == rt.center_dimension(3, 3)
        cb2 = cas.center_basis_from_blocks(cas.isotypic_blocks(2, 3))
        assert cb2.dim == 2 == rt.center_dimension(3, 2)

    def test_projector_algebra(self, qutrit_center):
        for i, p in enumerate(qutrit_center.elements):
            assert np.linalg.norm(p @ p - p) <= 1e-9
            for j, q in enumerate(qutrit_center.elements):
                if i != j:
                    assert np.linalg.norm(p @ q) <= 1e-9

    def test_commutes_with_symmetric_basis_three_qubits(self):
        cb = cas.center_basis_from_blocks(cas.isotypic_blocks(2, 3))
        for counts in g.multi_indices(2, 3):
            f = g.symmetric_sum(counts, 2, 3)
            for p in cb.elements:
                assert np.linalg.norm(f @ p - p @ f) <= 1e-9

    def test_sum_to_identity(self, qutrit_center):
        assert np.allclose(sum(qutrit_center.elements), np.eye(27), atol=1e-9)


class TestQubitCenterElement:
    def test_k0_is_identity(self):
        assert np.allclose(cas.qubit_center_element(4, 0), np.eye(16))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_k1_is_twice_the_two_body_sum(self, n):
        want = 2 * sum_of_two_body_squares(2, n)
        assert np.linalg.norm(cas.qubit_center_element(n, 1) - want) <= 1e-10

    @pytest.mark.parametrize("n,k", [(4, 0), (4, 1), (4, 2), (5, 2)])
    def test_lies_in_center_span(self, n, k):
        cb = cas.center_basis_from_blocks(cas.isotypic_blocks(2, n))
        x = cas.qubit_center_element(n, k)
        c, s = center_project(x, cb)
        assert np.linalg.norm(s) <= 1e-9 * max(1.0, np.linalg.norm(x))

    def test_range_check(self):
        with pytest.raises(ValueError):
            cas.qubit_center_element(4, 3)


def two_body_diagonal_oracle(w):
    """Eigenvalue of the qutrit two-body coupling on a product state with
    occupation w: every pair of sites contributes via E3 (x) E3, summing to
    ((w1 - w2)^2 - (w1 + w2)) / 2."""
    return ((w[0] - w[1]) ** 2 - (w[0] + w[1])) // 2


class TestCenterProject:
    def test_identity_is_central(self, qutrit_center):
        c, s = center_project(np.eye(27), qutrit_center)
        assert np.allclose(c, np.eye(27), atol=1e-9)
        assert np.linalg.norm(s) <= 1e-9

    def test_collective_has_no_center_part(self, qutrit_center):
        c, s = center_project(g.hat_f(3, 3, 3), qutrit_center)
        assert np.linalg.norm(c) <= 1e-9

    def test_split_is_exact_and_orthogonal(self, qutrit_center, rng):
        x = rng.standard_normal((27, 27)) + 1j * rng.standard_normal((27, 27))
        c, s = center_project(x, qutrit_center)
        assert np.allclose(c + s, x)
        for p in qutrit_center.elements:
            # remainder orthogonal to every projector and to i*projector
            assert abs(np.trace(s @ p)) <= 1e-9 * np.linalg.norm(x)

    def test_two_body_block_traces(self, qutrit_blocks, qutrit_center):
        # independent oracle: H is diagonal in the computational basis with
        # entries given by occupation counts; sum them over each block's
        # basis states
        h = g.two_body_hamiltonian(3, 3)
        occs, dicke = dicke_basis(3, 3)
        sym_trace = sum(two_body_diagonal_oracle(w) for w in occs)
        assert sym_trace == 5
        full_trace = 0
        coeffs = center_coefficients(h, qutrit_center)
        by_label = dict(zip(qutrit_center.labels, coeffs))
        bd = dict(zip(qutrit_center.labels, qutrit_center.block_dims))
        assert by_label[(3, 0, 0)] * bd[(3, 0, 0)] == pytest.approx(5.0, abs=1e-9)
        assert by_label[(1, 1, 1)] * bd[(1, 1, 1)] == pytest.approx(-1.0, abs=1e-9)
        assert by_label[(2, 1, 0)] * bd[(2, 1, 0)] == pytest.approx(-4.0, abs=1e-9)
        assert sum(by_label[l] * bd[l] for l in by_label) == pytest.approx(
            full_trace, abs=1e-9
        )

    def test_two_body_center_component_is_one_dimensional(self, qutrit_center):
        h = g.two_body_hamiltonian(3, 3)
        c, _ = center_project(h, qutrit_center)
        assert np.linalg.norm(c) > 1.0
        assert la.real_span_dim([c]) == 1
