"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run plain (`pytest tests/test_acceptance.py`) or with `-s` to see the lines
as they happen.
"""

import time
from math import sqrt

import numpy as np
import pytest

from qsymlie import casimir as cas
from qsymlie import closure as cl
from qsymlie import generators as g
from qsymlie import linalg as la
from qsymlie import reptheory as rt

from conftest import young_projector_21

# every closure report made here keeps total_dim <= sum restricted_dim + center_dim
pytestmark = pytest.mark.usefixtures("total_within_blocks")


def _report(num, desc, body):
    try:
        body()
    except AssertionError:
        print(f"ACCEPTANCE {num:02d} [{desc}]: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} [{desc}]: PASS")


def test_criterion_01_decomposition_bookkeeping():
    def body():
        grid = [(n, d) for n in range(1, 6) for d in (2, 3)] + [(2, 4)]
        t0 = time.time()
        for n, d in grid:
            dec = rt.cg_decompose(n, d)
            assert sum(k * rt.irrep_dimension(m) for m, k in dec.items()) == d**n
            assert sum(rt.irrep_dimension(m) ** 2 for m in dec) == rt.ambient_commutant_dim(n, d)
            assert len(dec) == rt.center_dimension(n, d)
        assert time.time() - t0 < 1.0

    _report(1, "decomposition bookkeeping, exact", body)


def test_criterion_02_three_qutrit_headline():
    def body():
        t0 = time.time()
        gens = cl.preset("qutrits:n=3:H")
        result = cl.lie_closure(gens)
        assert result.saturated
        report = cl.subspace_controllability(result)
        by_label = {v.label: v for v in report.per_block}
        assert by_label[(3, 0, 0)].restricted_dim == 99
        assert by_label[(2, 1, 0)].restricted_dim == 63
        assert report.center_component_dim == 1
        assert report.total_dim == 163
        assert report.subspace_controllable
        assert time.time() - t0 < 600.0

    _report(2, "three-qutrit subspace controllability, dim 163", body)


def test_criterion_03_qubit_fixtures():
    def body():
        for n, want in [(2, 9), (3, 19), (4, 33)]:
            result = cl.lie_closure(cl.preset(f"qubits:n={n}"))
            assert result.saturated
            assert result.dim == want
            formula = sum(
                rt.irrep_dimension(m) ** 2 - 1 for m in rt.cg_decompose(n, 2)
            ) + 1
            assert result.dim == formula

    _report(3, "qubit closure dims 9/19/33", body)


def test_criterion_04_casimir_identities():
    def body():
        for n in (2, 3, 4):
            c2 = cas.build_C2(2, n)
            a = sum(
                g.symmetric_sum(
                    tuple([n - 2] + [2 if i == k else 0 for i in range(3)]), 2, n
                )
                for k in range(3)
            )
            assert np.linalg.norm(c2 - 3 * n * np.eye(2**n) - 2 * a) <= 1e-10
            if n >= 2:
                assert np.linalg.norm(cas.qubit_center_element(n, 1) - 2 * a) <= 1e-10
        for n in (2, 3):
            c2 = cas.build_C2(3, n)
            a = np.zeros((3**n, 3**n), dtype=complex)
            for k in range(1, 9):
                counts = [0] * 9
                counts[0] = n - 2
                counts[k] = 2
                a += g.symmetric_sum(counts, 3, n)
            assert np.linalg.norm(c2 - (16 * n / 3) * np.eye(3**n) - 2 * a) <= 1e-10

    _report(4, "Casimir affine identities, residual <= 1e-10", body)


def test_criterion_05_spectrum_shape():
    def body():
        w, _ = la.hermitian_eig(cas.build_C2(3, 3))
        clusters = la.cluster_eigenvalues(w)
        assert len(clusters.clusters) == 3
        assert sorted(clusters.sizes) == [1, 10, 16]
        w, _ = la.hermitian_eig(cas.build_C2(2, 4))
        clusters = la.cluster_eigenvalues(w)
        assert len(clusters.clusters) == 3
        assert sorted(clusters.sizes) == [2, 5, 9]

    _report(5, "C2 cluster sizes 10/16/1 and 5/9/2", body)


def test_criterion_06_structure_constants():
    def body():
        from test_generators import full_d_tensor, full_f_tensor

        sc = g.structure_constants(g.gell_mann_basis(3))
        assert np.max(np.abs(sc.f - full_f_tensor())) <= 1e-12
        assert np.max(np.abs(sc.dsym - full_d_tensor())) <= 1e-12
        assert np.max(np.abs(np.einsum("kkl->l", sc.dsym))) <= 1e-12

    _report(6, "structure-constant tables entrywise, 1e-12", body)


def test_criterion_07_degeneracy_search():
    def body():
        for p0 in range(13):
            for q0 in range(13):
                target = cas.c2_eigenvalue(p0, q0)
                assert target == cas.c2_eigenvalue(q0, p0)
                brute = sorted(
                    (p, q)
                    for p in range(40)
                    for q in range(40)
                    if cas.c2_eigenvalue(p, q) == target
                )
                assert cas.degeneracy_search(p0, q0) == brute
        assert cas.degeneracy_search(5, 2) == [(2, 5), (5, 2)]
        assert cas.c2_eigenvalue(5, 2) == 60

    _report(7, "degeneracy search vs brute force on 0..12 box", body)


def test_criterion_08_lemma2_sweep():
    def body():
        for n1, n2 in [(2, 1), (2, 2), (3, 2)]:
            want = (n1 + n2) ** 2 - 1
            for j in range(1, n1 + 1):
                for m in range(n1 + 1, n1 + n2 + 1):
                    result = cl.lie_closure(cl.preset(f"lemma2:{n1},{n2},({j},{m})"))
                    assert result.saturated and result.dim == want

    _report(8, "off-diagonal coupling closes to su(n1+n2)", body)


def test_criterion_09_block_invariance():
    def body():
        for n, d in [(3, 2), (3, 3)]:
            blocks = cas.isotypic_blocks(d, n)
            for counts in g.multi_indices(d, n):
                f = g.symmetric_sum(counts, d, n)
                for b in blocks:
                    fp = f @ b.basis
                    leak = np.linalg.norm(fp - b.basis @ (b.basis.conj().T @ fp))
                    assert leak <= 1e-9 * max(1.0, np.linalg.norm(f))

    _report(9, "isotypic blocks invariant under all F elements", body)


def _adjoint_block_vectors():
    def ket(s):
        v = np.zeros(27, dtype=complex)
        v[int(s, 3)] = 1.0
        return v

    s6, s12 = 1 / sqrt(6), 1 / sqrt(12)
    return [
        s6 * (2 * ket("001") - ket("100") - ket("010")),
        s6 * (-2 * ket("110") + ket("101") + ket("011")),
        s6 * (2 * ket("002") - ket("200") - ket("020")),
        s12 * (2 * ket("102") + 2 * ket("012") - ket("120") - ket("210")
               - ket("201") - ket("021")),
        s6 * (2 * ket("112") - ket("121") - ket("211")),
        0.5 * (ket("021") - ket("120") + ket("201") - ket("210")),
        s6 * (-2 * ket("220") + ket("022") + ket("202")),
        s6 * (ket("122") + ket("212") - 2 * ket("221")),
    ]


def test_criterion_10_young_symmetrizer_fixture():
    def body():
        pi = young_projector_21(3)
        blocks = cas.isotypic_blocks(3, 3)
        adjoint = next(b for b in blocks if b.label == (2, 1, 0))
        p = adjoint.basis
        for v in _adjoint_block_vectors():
            w = pi @ v
            assert np.linalg.norm(w) > 1.0  # nonzero multiple
            leak = np.linalg.norm(w - p @ (p.conj().T @ w))
            assert leak <= 1e-9
            # in fact an eigenvector with eigenvalue 3
            assert np.linalg.norm(w - 3 * v) <= 1e-9

    _report(10, "Young symmetrizer maps fixture into the (2,1,0) block", body)
