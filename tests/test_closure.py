
import json
import re
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymlie import casimir as cas
from qsymlie import cli
from qsymlie import closure as cl
from qsymlie import generators as g
from qsymlie import linalg as la
from qsymlie import reptheory as rt

from conftest import (
    center_coefficients,
    center_project,
    dense,
    frame_rows,
    kron_all,
    random_skew,
)

SX, SY, SZ = g.pauli_matrices()

# every closure report made here keeps total_dim <= sum restricted_dim + center_dim
pytestmark = pytest.mark.usefixtures("total_within_blocks")


def single_site_set(*mats, names=None):
    names = names or tuple(f"g{i}" for i in range(len(mats)))
    return cl.GeneratorSet(mats[0].shape[0], 1, tuple(mats), tuple(names))


def all_pairs_closure(gens, tol=la.RANK_TOL):
    """Reference closure: every new element bracketed with every generator
    and every earlier basis element, round by round until nothing is added."""
    span = la.span_of(gens.generators, gens.d**gens.n, tol)
    start = 0
    while start < span.dim:
        end = span.dim
        for i in range(start, end):
            left = span.basis[i]
            for partner in list(gens.generators) + list(span.basis[:i]):
                _, span = la.orthonormal_extend(span, la.commutator(left, partner))
        start = end
    return span


def haar_unitary(rng, dim):
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conjugated(gens, u):
    """``gens`` with every generator conjugated by the collective unitary u^(x)n."""
    un = kron_all([u] * gens.n)
    return cl.GeneratorSet(
        gens.d, gens.n, tuple(un @ x @ un.conj().T for x in gens.generators), gens.names
    )


def residuals(rows, basis):
    """||x - Px|| / max(1, ||x||) for each row x; P projects onto the orthonormal ``basis``."""
    rows = np.atleast_2d(rows)
    res = rows - (rows @ basis.T) @ basis
    return np.linalg.norm(res, axis=1) / np.maximum(1.0, np.linalg.norm(rows, axis=1))


def orthonormal_rows(rows, tol=1e-8):
    _, s, vt = np.linalg.svd(np.atleast_2d(rows), full_matrices=False)
    return vt[: int(np.sum(s > tol * max(1.0, s[0])))]


def assert_same_block_span(result, span, tol=1e-8):
    """The closure equals the dense span, restricted to the closure's blocks."""
    restricted = frame_rows(result.frame, result.d, result.n, span.basis)
    assert result.dim == span.dim == len(orthonormal_rows(restricted))
    assert residuals(restricted, result.basis).max() <= tol
    assert residuals(result.basis, orthonormal_rows(restricted)).max() <= tol


def dense_verdicts(span, d, n):
    """Per-block traceless ranks and center rank of a dense span, from the Casimir blocks."""
    blocks = cas.isotypic_blocks(d, n)
    cb = cas.center_basis_from_blocks(blocks)
    ranks = {}
    for b in blocks:
        restricted = []
        for x in span.basis:
            m = cl.restrict_to_block(x, b)
            restricted.append(m - (np.trace(m) / b.block_dim) * np.eye(b.block_dim))
        ranks[b.label] = la.real_span_dim(restricted)
    coeffs = [center_coefficients(x, cb) for x in span.basis]
    center = la.real_span_dim([np.concatenate([c.real, c.imag]) for c in coeffs])
    return ranks, center


def assert_offers(result, gens):
    """Each run offers its nonzero partners as seeds, then one bracket per
    (basis element, partner), less the a rows of its last batch: a = 0 for a
    run that stops because a round added nothing, and a run that stops at
    its bound brackets none of its last batch."""
    _, traceless, _ = cl.levi_split(gens, result.frame)
    cols = {b.label: slice(result.frame.offsets[i], result.frame.offsets[i + 1])
            for i, b in enumerate(result.frame.blocks)}
    for run in result.runs:
        part = traceless if run.label is None else traceless[:, cols[run.label]]
        partners = int(np.sum(np.linalg.norm(part, axis=1) > 1e-6))
        last = run.trace[-1].accepted
        assert (last == 0) == (run.trace_part is None), run.label
        assert run.offered == partners * (1 + run.dim - last), run.label


def joint_closure(gens):
    """The whole frame closed by one run of the round loop: (frame, rows of L',
    rows of L, center_dim), the reference for the per-block closures."""
    frame = cl.BlockFrame.build(gens.d, gens.n)
    centers, traceless, cdim = cl.levi_split(gens, frame)
    partners = cl._unit_rows(traceless, np.linalg.norm(np.hstack([traceless, centers]), axis=1))
    basis, run = cl._close(frame, partners, frame.bound + 1, None)
    assert run.trace[-1].accepted == 0 or run.dim == frame.bound  # saturated
    return frame, basis, cl._rows_of_l(frame, basis, traceless, centers, partners), cdim


def block_ranks(frame, rows):
    """The rank of each block's slice of ``rows``, in frame order."""
    return [la.real_span_dim(frame.matrices(rows, i)) for i in range(len(frame.blocks))]


def bracket_residuals(result, pairs):
    rows = result.traceless
    brackets = np.vstack(
        [result.frame.brackets(rows[i : i + 1], rows[j : j + 1]) for i, j in pairs]
    )
    return residuals(brackets, rows)


class TestLieClosure:
    def test_su2_from_two_directions(self):
        r = cl.lie_closure(single_site_set(1j * SX, 1j * SZ))
        assert r.dim == 3 and r.saturated

    def test_lemma2_smallest_instance(self):
        r = cl.lie_closure(cl.preset("lemma2:2,1,(1,3)"))
        assert r.dim == 8 and r.saturated

    @pytest.mark.parametrize(
        "n1,n2",
        [(2, 1), (2, 2), (3, 2)],
    )
    def test_lemma2_sweep(self, n1, n2):
        want = (n1 + n2) ** 2 - 1
        for j in range(1, n1 + 1):
            for m in range(n1 + 1, n1 + n2 + 1):
                r = cl.lie_closure(cl.preset(f"lemma2:{n1},{n2},({j},{m})"))
                assert r.dim == want, (n1, n2, j, m)
                assert r.saturated

    def test_monotone_in_generators(self):
        base = cl.lie_closure(single_site_set(1j * SZ))
        more = cl.lie_closure(single_site_set(1j * SZ, 1j * SX))
        assert more.dim >= base.dim
        assert base.dim == 1 and more.dim == 3

    def test_invariant_under_conjugation(self, rng):
        gens = dense(cl.preset("qubits:n=3"))
        base = cl.lie_closure(gens).dim
        u = g.permutation_operator((1, 2, 0), 2)
        rotated = cl.GeneratorSet(
            2, 3, tuple(u @ x @ u.conj().T for x in gens.generators), gens.names
        )
        assert cl.lie_closure(rotated).dim == base

    def test_rejects_non_skew_generator(self):
        with pytest.raises(la.NonHermitianError):
            cl.lie_closure(single_site_set(SX))

    def test_rejects_non_invariant_generator(self):
        # skew-Hermitian but not permutation invariant
        x = np.zeros((4, 4), dtype=complex)
        x[0, 1] = 1.0
        x[1, 0] = -1.0
        gens = cl.GeneratorSet(2, 2, (x,), ("bad",))
        with pytest.raises(ValueError):
            cl.lie_closure(gens)

    @pytest.mark.parametrize("commutes_with", ["swap", "cycle"])
    def test_rejects_generator_commuting_with_one_generator_of_s4(self, commutes_with):
        # i Z1 Z2 commutes with (1 2), not with (1 2 3 4); the cyclic sum
        # i (Z1 Z2 + Z2 Z3 + Z3 Z4 + Z4 Z1) with the 4-cycle, not with (1 2)
        z, eye = np.diag([1.0, -1.0]), np.eye(2)
        sites = [(0, 1)] if commutes_with == "swap" else [(0, 1), (1, 2), (2, 3), (3, 0)]
        x = 1j * sum(kron_all([z if k in pair else eye for k in range(4)]) for pair in sites)
        swap, cycle = cl._swap_defects(x, 2, 4)
        assert (swap == 0.0, cycle == 0.0) == ((True, False) if commutes_with == "swap" else (False, True))
        assert max(swap, cycle) > 1.0
        with pytest.raises(ValueError, match="does not commute with factor permutations"):
            cl.lie_closure(cl.GeneratorSet(2, 4, (x,), ("bad",)))
        r = cl.lie_closure(cl.preset("qubits:n=4"))
        member, residual = cl.membership(x, r)
        assert not member and residual > 1e-3

    def test_max_dim_cap_reports_unsaturated(self):
        gens = single_site_set(1j * SX, 1j * SZ)
        r = cl.lie_closure(gens, max_dim=2)
        assert not r.saturated and r.dim == 2

    def test_reaching_ambient_dimension_is_saturated(self):
        # u(2) is the whole invariant algebra at n = 1
        gens = single_site_set(1j * SX, 1j * SY, 1j * SZ, 1j * np.eye(2))
        r = cl.lie_closure(gens)
        assert r.saturated and r.dim == 4 == rt.ambient_commutant_dim(1, 2)
        assert not cl.lie_closure(gens, max_dim=3).saturated

    def test_cap_holds_while_seeding(self):
        # the cap falls inside the seed batch, which offers every nonzero
        # partner (i*1 has no traceless part) and is cut at the cap
        gens = single_site_set(1j * SX, 1j * SY, 1j * SZ, 1j * np.eye(2))
        r = cl.lie_closure(gens, max_dim=3)
        assert r.dim == 3 and r.offered == 3 and not r.saturated
        r = cl.lie_closure(gens, max_dim=2)
        assert r.dim == 2 and r.offered == 3 and not r.saturated
        assert r.runs[0].trace[0].accepted == 2 and r.rounds == 0
        r = cl.lie_closure(gens, max_dim=0)
        assert r.dim == 0 and not r.saturated

    def test_negative_cap_raises(self):
        gens = single_site_set(1j * SX, 1j * SZ)
        with pytest.raises(ValueError, match="max_dim must be >= 0, got -1"):
            cl.lie_closure(gens, max_dim=-1)

    def test_central_generators_offer_nothing(self):
        # i*1 and i*C2 have no traceless part on any block: every run gets
        # no partners, so its seed batch has no rows, and only the center counts
        gens = cl.GeneratorSet(2, 3, (1j * np.eye(8), 1j * cas.build_C2(2, 3)), ("i*1", "i*C2"))
        r = cl.lie_closure(gens)
        assert (r.dim, r.center_dim, r.saturated) == (2, 2, True)
        assert not cl.subspace_controllability(r).subspace_controllable
        assert [run.label for run in r.runs] == [b.label for b in r.frame.blocks] + [None]
        assert all((run.offered, run.dim) == (0, 0) for run in r.runs)

    def test_accept_empty_batch(self):
        new, smallest, largest = cl._accept(np.zeros((0, 4)), np.zeros((0, 4)), 3)
        assert new.shape == (0, 4) and smallest is None and largest is None

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            cl.lie_closure(cl.GeneratorSet(2, 1, (), ()))

    def test_saturated_span_closed_under_brackets(self):
        r = cl.lie_closure(cl.preset("lemma2:2,2,(1,3)"))
        n = len(r.traceless)
        pairs = [(i, j) for i in range(0, n, 3) for j in range(0, n, 4)]
        assert bracket_residuals(r, pairs).max() <= 1e-9

    def test_closure_stays_inside_invariant_algebra(self, qutrit_closure_h):
        # rows are coordinates of skew-Hermitian invariant operators:
        # orthonormal, within the traceless bound, each block in su(d)
        r = qutrit_closure_h
        assert r.dim <= rt.ambient_commutant_dim(3, 3)
        assert len(r.traceless) <= r.frame.bound
        assert np.abs(r.basis @ r.basis.T - np.eye(r.dim)).max() <= 1e-12
        for i, b in enumerate(r.frame.blocks):
            mats = r.frame.matrices(r.traceless[::40], i)
            assert np.abs(mats + mats.conj().swapaxes(1, 2)).max() == 0.0
            assert np.abs(np.trace(mats, axis1=1, axis2=2)).max() <= 1e-12


_ORACLE_CASES = (
    [(f"qubits:n={n}", 1e-7) for n in (2, 3, 4)]
    + [(f"qutrits:n={n}:{kind}", la.RANK_TOL) for n in (2, 3) for kind in ("H", "Sz2")]
    + [
        (f"lemma2:{n1},{n2},({j},{m})", la.RANK_TOL)
        for n1, n2 in ((2, 1), (2, 2), (3, 2))
        for j in range(1, n1 + 1)
        for m in range(n1 + 1, n1 + n2 + 1)
    ]
)


class TestGeneratorSchedule:
    @pytest.mark.parametrize("name,tol", _ORACLE_CASES)
    def test_matches_all_pairs_oracle(self, name, tol):
        gens = cl.preset(name)
        r = cl.lie_closure(gens)
        assert r.saturated
        assert_offers(r, gens)
        oracle = all_pairs_closure(dense(gens), tol)
        assert_same_block_span(r, oracle)
        # the verdicts of the dense oracle on the Casimir blocks
        ranks, center = dense_verdicts(oracle, gens.d, gens.n)
        report = cl.subspace_controllability(r)
        assert {v.label: v.restricted_dim for v in report.per_block} == ranks
        assert (report.center_component_dim, report.total_dim) == (center, oracle.dim)

    def test_haar_conjugated_flagship_matches_oracle(self, rng):
        rotated = conjugated(dense(cl.preset("qutrits:n=3:H")), haar_unitary(rng, 3))
        r = cl.lie_closure(rotated)
        assert r.saturated and r.dim == 163 and r.path == "blocks"
        # one closure per block of the adjoint (2,1,0) and the symmetric (3,0,0)
        # each stops at its bound, with last batches of 1 and 37 rows
        assert r.offered == 9 * (1 + 63 - 1) + 9 * (1 + 99 - 37)
        assert_offers(r, rotated)
        assert_same_block_span(r, all_pairs_closure(rotated))
        report = cl.subspace_controllability(r)
        assert report.subspace_controllable
        frame, traceless, rows, cdim = joint_closure(rotated)
        assert (len(rows), cdim) == (163, r.center_dim)
        assert [v.restricted_dim for v in report.per_block] == block_ranks(frame, traceless)

    def test_flagship_closed_under_brackets(self, qutrit_closure_h, rng):
        pairs = rng.integers(0, len(qutrit_closure_h.traceless), size=(200, 2))
        assert bracket_residuals(qutrit_closure_h, pairs).max() <= 1e-8

    def test_flagship_rounds_and_offers(self, qutrit_closure_h):
        r = qutrit_closure_h
        assert (r.dim, r.path, r.rounds, r.offered) == (163, "blocks", 4, 1134)
        assert [(run.label, run.dim, run.rounds, run.offered) for run in r.runs] == [
            ((2, 1, 0), 63, 4, 567), ((3, 0, 0), 99, 4, 567),
        ]


_PATH_CASES = (
    _ORACLE_CASES
    + [(f"qubits:n={n}", 1e-7) for n in range(5, 11)]
    + [(f"qutrits:n=4:{kind}", la.RANK_TOL) for kind in ("H", "Sz2")]
)


def synthetic_split(rng, kinds):
    """Generator rows in a frame of a block A of dimension 3, one more block
    Bj of dimension 3 per entry of ``kinds``, and a block C of dimension 2.

    Each generator is a random su(3) element a_k on A, a random su(2)
    element on C, and on each Bj either U a_k U^dag ("plain"), conj(a_k)
    ("conjugate") or another random su(3) element ("none").  The first
    generator also has a trace part on C.
    """
    labels = [("A",)] + [(f"B{j}",) for j in range(1, len(kinds) + 1)] + [("C",)]
    dims = [3] * (1 + len(kinds)) + [2]
    frame = cl.BlockFrame([SimpleNamespace(label=label, irrep_dim=dim, multiplicity=1)
                           for label, dim in zip(labels, dims)])

    def su3():
        x = np.array([random_skew(rng, 3) for _ in range(3)])
        return x - np.trace(x, axis1=1, axis2=2)[:, None, None] * np.eye(3) / 3

    a = su3()
    u = haar_unitary(rng, 3)
    parts = [a] + [{"plain": lambda: u @ a @ u.conj().T, "conjugate": a.conj,
                    "none": su3}[kind]() for kind in kinds]
    parts.append(np.array([1j * (x * SX + y * SY + z * SZ)
                           for x, y, z in rng.standard_normal((3, 3))]))
    traceless = np.zeros((3, frame.traceless_width))
    for i, mats in enumerate(parts):
        frame._store(traceless, i, mats)
    centers = np.zeros((3, len(labels)))
    centers[0, -1] = 0.5
    return frame, centers, traceless


class TestClosurePaths:
    @pytest.mark.parametrize("name,tol", _PATH_CASES)
    def test_blocks_match_joint(self, capsys, name, tol):
        # the command line closes block by block; one joint closure of the
        # whole frame must give the same dimensions and the same verdicts
        # (``tol`` is the dense oracle's, see _ORACLE_CASES, and is not read here)
        code = cli.main(["closure", "--preset", name, "--format", "json"])
        obj = json.loads(capsys.readouterr().out)
        frame, traceless, rows, cdim = joint_closure(cl.preset(name))
        assert (code, obj["path"]) == (0, "blocks")
        assert (obj["total_dim"], obj["center_dim"]) == (len(rows), cdim)
        assert [b["restricted_dim"] for b in obj["blocks"]] == block_ranks(frame, traceless)

    def test_equal_dimension_pair_is_unlinked(self):
        # (4,0,0) and (3,1,0) are both 15-dimensional; their margins are tenths
        r = cl.lie_closure(cl.preset("qutrits:n=4:H"))
        (link,) = r.links
        assert link.labels == ((3, 1, 0), (4, 0, 0)) and not link.linked
        assert min(link.plain, link.conjugate) > 0.1
        assert r.path == "blocks" and r.dim == 492

    @pytest.mark.parametrize("linked_by", ["plain", "conjugate"])
    def test_linked_blocks_take_the_joint_path(self, rng, linked_by):
        frame, centers, traceless = synthetic_split(rng, [linked_by])
        r = cl._closure_of_split(None, None, frame, centers, traceless, 1, 100)
        (ab,) = r.links
        assert ab.labels == (("A",), ("B1",)) and ab.linked
        sigma = ab.plain if linked_by == "plain" else ab.conjugate
        other = ab.conjugate if linked_by == "plain" else ab.plain
        assert sigma <= 1e-12 and other > 1e-3
        # A and B1 move together: one su(3) for both, plus su(2) and the center
        assert r.path == "joint"
        assert [run.label for run in r.runs] == [("A",), ("B1",), ("C",), None]
        assert len(r.traceless) == 8 + 3 and r.dim == frame.bound - 8 + 1 == 12
        report = cl.subspace_controllability(r)
        assert [v.restricted_dim for v in report.per_block] == [8, 8, 3]
        assert report.subspace_controllable and report.total_dim == 12

    def test_three_linked_blocks_make_one_class(self, rng):
        # every pair of A, B1 = U a U^dag and B2 = conj(a) is linked, and the
        # three form one class: one su(3), not three minus three links
        frame, centers, traceless = synthetic_split(rng, ["plain", "conjugate"])
        r = cl._closure_of_split(None, None, frame, centers, traceless, 1, 100)
        assert len(r.links) == 3 and all(link.linked for link in r.links)
        assert r.path == "joint" and r.dim == frame.bound - 2 * 8 + 1 == 12
        assert cl.subspace_controllability(r).total_dim == 12

    def test_unlinked_blocks_take_the_blocks_path(self, rng):
        frame, centers, traceless = synthetic_split(rng, ["none"])
        r = cl._closure_of_split(None, None, frame, centers, traceless, 1, 100)
        (ab,) = r.links
        assert not ab.linked and min(ab.plain, ab.conjugate) > 1e-3
        assert r.path == "blocks" and r.dim == frame.bound + 1 == 20
        assert [run.label for run in r.runs] == [("A",), ("B1",), ("C",)]
        assert cl.subspace_controllability(r).total_dim == 20

    def test_one_block_frame_runs_one_closure(self):
        # su(2) generated on C^6 from two of its directions: one block,
        # not full, so the joint path reuses the block's run
        mats = [np.zeros((6, 6), dtype=complex) for _ in range(2)]
        for m, p in zip(mats, (SX, SZ)):
            m[:2, :2] = 1j * p
        r = cl.lie_closure(single_site_set(*mats))
        assert r.path == "joint" and len(r.runs) == 1 and r.runs[0].label == (1, 0, 0, 0, 0, 0)
        assert r.dim == 3


_MARGIN_CASES = (
    [f"qubits:n={n}" for n in range(2, 9)]
    + [f"qutrits:n={n}:{kind}" for n in (2, 3, 4) for kind in ("H", "Sz2")]
    + [name for name, _ in _ORACLE_CASES if name.startswith("lemma2")]
    + [f"flagship:seed={seed}" for seed in (1, 2)]
)


def margin_set(name):
    """The preset ``name``, or for ``flagship:seed=K`` the flagship
    qutrits:n=3:H conjugated by a Haar-random su(3) drawn from seed K."""
    head, _, seed = name.partition(":seed=")
    if head != "flagship":
        return cl.preset(name)
    u = haar_unitary(np.random.default_rng(int(seed)), 3)
    return conjugated(dense(cl.preset("qutrits:n=3:H")), u)


class TestRoundTrace:
    @pytest.mark.parametrize("name", _MARGIN_CASES)
    def test_margins(self, name):
        gens = margin_set(name)
        r = cl.lie_closure(gens)
        assert r.saturated and r.path == "blocks"
        trace = [t for run in r.runs for t in run.trace]
        accepted = [t.smallest_accepted for t in trace if t.smallest_accepted is not None]
        rejected = [t.largest_rejected for t in trace if t.largest_rejected is not None]
        assert min(accepted) >= 1e6 * la.RANK_TOL
        assert max(rejected, default=0.0) <= la.RANK_TOL / 5
        # each run's trace adds up to the run, and the runs to the result
        for run in r.runs:
            assert len(run.trace) == run.rounds + 1
            assert [t.dim for t in run.trace] == list(np.cumsum([t.accepted for t in run.trace]))
            # a run stops on an empty batch, or at its bound with a trace
            # part far below the cut
            last = run.trace[-1].accepted
            assert run.trace[-1].dim == run.dim
            assert (last == 0) == (run.trace_part is None)
            if run.trace_part is not None:
                assert run.trace_part <= 1e-3 * la.RANK_TOL
            assert sum(t.offered for t in run.trace) == run.offered
            assert run.offered == run.trace[0].offered * (1 + run.dim - last)
        assert sum(run.dim for run in r.runs) == len(r.traceless)
        assert sum(run.offered for run in r.runs) == r.offered
        assert max(run.rounds for run in r.runs) == r.rounds

    @pytest.mark.parametrize("name", _MARGIN_CASES)
    def test_gate_residuals(self, name):
        # the generator checks and the leakage gate cut at RANK_TOL times
        # max(1, ||x||); every residual lies 1e3 below the cut
        gens = dense(margin_set(name))
        blocks = cl.BlockFrame.build(gens.d, gens.n).blocks
        for x in gens.generators:
            scale = max(1.0, np.linalg.norm(x))
            skew = np.linalg.norm(x + x.conj().T)
            swaps = max(cl._swap_defects(x, gens.d, gens.n), default=0.0)
            leaks = [np.linalg.norm(x @ b.basis - b.basis @ (b.basis.T @ x @ b.basis))
                     for b in blocks]
            assert max(skew, swaps, *leaks) <= 1e-3 * la.RANK_TOL * scale

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_noise_below_the_cut(self, seed):
        # complex noise of norm RANK_TOL / 100 times max(1, ||x||) on each
        # Haar-conjugated flagship matrix moves no decision: every batch
        # accepts as many rows, and no margin crosses the cut
        rng = np.random.default_rng(seed)
        gens = conjugated(dense(cl.preset("qutrits:n=3:H")), haar_unitary(rng, 3))
        noisy = []
        for x in gens.generators:
            e = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
            noisy.append(x + e * (1e-2 * la.RANK_TOL * max(1.0, np.linalg.norm(x))
                                  / np.linalg.norm(e)))
        clean, r = cl.lie_closure(gens), cl.lie_closure(replaced(gens, noisy))
        report, want = cl.subspace_controllability(r), cl.subspace_controllability(clean)
        assert report == want and (r.dim, r.path, r.rounds) == (163, "blocks", 4)
        for run, base in zip(r.runs, clean.runs, strict=True):
            batches = [(t.dim, t.offered, t.accepted) for t in run.trace]
            assert batches == [(t.dim, t.offered, t.accepted) for t in base.trace]
            assert run.trace_part <= 1e-3 * la.RANK_TOL
            assert min(t.smallest_accepted for t in run.trace) >= 1e6 * la.RANK_TOL
            assert max(t.largest_rejected or 0.0 for t in run.trace) <= la.RANK_TOL / 5

    def test_seconds_take_no_part_in_comparisons(self):
        first = cl.lie_closure(cl.preset("qubits:n=3")).runs
        second = cl.lie_closure(cl.preset("qubits:n=3")).runs
        assert first == second
        assert all(t.seconds >= 0.0 for run in first for t in run.trace)


def spin_frame(d):
    """A one-block frame of dimension d and the rows of the exact spin-j
    generators {iJx, iJy, iJz, i(Jz^2 - tr/d)}, j = (d - 1)/2."""
    j = (d - 1) / 2
    m = j - np.arange(d)
    jp = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1)
    jx, jy, jz = (jp + jp.T) / 2, (jp - jp.T) / 2j, np.diag(m)
    jz2 = jz @ jz - np.trace(jz @ jz) / d * np.eye(d)
    frame = cl.BlockFrame([cas.WeightBlock((d - 1, 0), np.eye(d), d, 1)])
    rows = np.zeros((4, frame.traceless_width))
    frame._store(rows, 0, 1j * np.array([jx, jy, jz, jz2]))
    return frame, rows


def diagonal_pair(s, eps):
    """{s a, s (a + eps b)} for a = i diag(1, -1, 0), b = i diag(1, 1, -2)."""
    a, b = 1j * np.diag([1.0, -1, 0]), 1j * np.diag([1.0, 1, -2])
    return single_site_set(s * a, s * (a + eps * b))


_SCALE_CASES = ("qubits:n=3", "qubits:n=4", "qutrits:n=3:H", "lemma2:2,2,(1,3)")


@lru_cache(maxsize=None)
def cached_preset(name):
    """The dense form of ``preset(name)``: generators for the raw-matrix path."""
    return dense(cl.preset(name))


def outcome(gens):
    """What a closure decides: dim, center_dim, per-block dims and path."""
    r = cl.lie_closure(gens)
    dims = tuple(v.restricted_dim for v in cl.subspace_controllability(r).per_block)
    return r.dim, r.center_dim, dims, r.path


@lru_cache(maxsize=None)
def preset_outcome(name):
    """The outcome of the preset itself, on the word path (lemma2 is matrices)."""
    return outcome(cl.preset(name))


def replaced(gens, mats):
    return cl.GeneratorSet(gens.d, gens.n, tuple(mats), tuple(f"g{i}" for i in range(len(mats))))


def preset_words(name):
    """The preset's generators as words; a one-site matrix g is the word rho(g)."""
    gens = cl.preset(name)
    return [g if callable(g) else (lambda rho, g=g: rho(g)) for g in gens.generators]


class TestCandidateScale:
    """A run offers unit rows and their brackets, so no decision depends on
    the generators' norms, order or repetition."""

    @pytest.mark.parametrize("d", [12, 13, 14])
    def test_spin_block_closes(self, d):
        # long bracket chains on one qubit-like block: the candidates'
        # rounding noise must stay below the cut up to d = 14
        frame, rows = spin_frame(d)
        r = cl._closure_of_split(None, None, frame, np.zeros((4, 1)), rows, 0, frame.bound + 1)
        assert (r.dim, r.saturated, r.path) == (d * d - 1, True, "blocks")

    @pytest.mark.parametrize("s", [1e-8, 1e-7, 1e-6, 1.0])
    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_small_nearly_parallel_pair(self, s, eps):
        r = cl.lie_closure(diagonal_pair(s, eps))
        assert r.dim == 2 and r.saturated

    @pytest.mark.parametrize("name", _SCALE_CASES)
    @settings(max_examples=12, deadline=None)
    @given(exponents=st.lists(st.floats(-8, 6), min_size=9, max_size=9))
    def test_rescaling(self, name, exponents):
        gens = cached_preset(name)
        mats = [10.0**u * x for u, x in zip(exponents, gens.generators)]
        assert outcome(replaced(gens, mats)) == preset_outcome(name)

    @pytest.mark.parametrize("name", _SCALE_CASES)
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_reordering(self, name, data):
        gens = cached_preset(name)
        mats = data.draw(st.permutations(gens.generators))
        assert outcome(replaced(gens, mats)) == preset_outcome(name)

    @pytest.mark.parametrize("name", _SCALE_CASES)
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_duplicating(self, name, data):
        gens = cached_preset(name)
        k = len(gens.generators)
        which, where = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k))
        mats = list(gens.generators)
        mats.insert(where, gens.generators[which])
        assert outcome(replaced(gens, mats)) == preset_outcome(name)

    @pytest.mark.parametrize("name", _SCALE_CASES)
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_appending_a_bracket(self, name, data):
        # the bracket of two generators lies in the algebra they generate,
        # appended as a word and, separately, as its dense matrix
        gens = cached_preset(name)
        k = len(gens.generators)
        i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
        words = preset_words(name)
        wi, wj = words[i], words[j]

        def word(rho):
            return wi(rho) @ wj(rho) - wj(rho) @ wi(rho)

        assert outcome(replaced(gens, words + [word])) == preset_outcome(name)
        x, y = gens.generators[i], gens.generators[j]
        assert outcome(replaced(gens, [*gens.generators, x @ y - y @ x])) == preset_outcome(name)

    @pytest.mark.parametrize("name", _SCALE_CASES)
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_collective_conjugation(self, name, seed):
        # U^(x)n X U^(x)n^dag for a Haar-random U: the word reads rho(U a U^dag)
        gens = cached_preset(name)
        u = haar_unitary(np.random.default_rng(seed), gens.d)
        words = [lambda rho, w=w: w(lambda a: rho(u @ a @ u.conj().T)) for w in preset_words(name)]
        assert outcome(replaced(gens, words)) == preset_outcome(name)
        assert outcome(conjugated(gens, u)) == preset_outcome(name)


class TestBlockCoordinates:
    def test_abelian_pair_keeps_center_apart(self):
        # i*Sz and i*Sz^2 commute: L is 2-dimensional, with one center
        # direction, and the traceless part of i*Sz^2 vanishes on spin 1/2
        sz = g.hat_f(3, 2, 3)
        gens = cl.GeneratorSet(2, 3, (1j * sz, 1j * sz @ sz), ("i*Sz", "i*Sz^2"))
        r = cl.lie_closure(gens)
        rep = cl.subspace_controllability(r)
        assert (rep.total_dim, rep.center_component_dim) == (2, 1)
        assert [v.restricted_dim for v in rep.per_block] == [1, 2]
        assert cl.membership(1j * sz @ sz, r)[0]

    def test_center_of_the_traceless_part(self):
        # su(2) on the first two levels of C^6 plus i*diag(1,1,1,0,0,0):
        # L' = su(2) + a central traceless direction z, D = [L', L'] = su(2),
        # and dim L = dim D + rank{c_i + z_i} = 3 + 1
        mats = []
        for p in (SX, SY, SZ):
            m = np.zeros((6, 6), dtype=complex)
            m[:2, :2] = p
            mats.append(1j * m)
        mats.append(1j * np.diag([1.0, 1, 1, 0, 0, 0]))
        gens = single_site_set(*mats)
        r = cl.lie_closure(gens)
        assert (len(r.traceless), r.dim, r.center_dim) == (4, 4, 1)
        assert r.dim == all_pairs_closure(gens).dim
        assert all(cl.membership(x, r)[0] for x in mats)
        assert not cl.membership(1j * np.diag([1.0, 0, 0, 0, 0, 0]), r)[0]

    def test_generators_restricted_once(self, monkeypatch):
        calls = []
        restrict = cl.restrict_to_block

        def counting(x, block):
            calls.append(block.label)
            return restrict(x, block)

        monkeypatch.setattr(cl, "restrict_to_block", counting)
        r = cl.lie_closure(cl.preset("qutrits:n=3:H"))
        assert len(calls) == 9 * len(r.frame.blocks) == 27

    def test_noise_above_the_bound_is_an_error(self, monkeypatch):
        # noise 1e-6 on every bracket is accepted as new directions until
        # a block's span passes irrep_dim^2 - 1; it must not pass as saturated
        brackets = cl.BlockFrame.brackets
        noise = np.random.default_rng(7)

        def noisy(self, left, right):
            out = brackets(self, left, right)
            return out + 1e-6 * noise.standard_normal(out.shape)

        monkeypatch.setattr(cl.BlockFrame, "brackets", noisy)
        with pytest.raises(cl.ClosureError, match="on block .* exceeds the traceless bound"):
            cl.lie_closure(cl.preset("qubits:n=3"))

    @staticmethod
    def two_level_run(*mats):
        """``_close`` on a one-block frame of dimension 2, bound 3, with the
        unit rows of ``mats`` as partners and no cap below the bound."""
        frame = cl.BlockFrame([SimpleNamespace(label=("A",), irrep_dim=2, multiplicity=1)])
        rows = np.zeros((len(mats), frame.traceless_width))
        frame._store(rows, 0, np.array(mats))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        return cl._close(frame, rows, frame.bound + 1, ("A",))

    def test_run_stops_at_its_bound(self):
        # seeds iSx, iSz; round 1 adds iSy and reaches the bound 3, so the
        # round after it is skipped: 2 seeds + 4 brackets = k'(1 + D - a)
        _, run = self.two_level_run(1j * SX, 1j * SZ)
        assert (run.dim, run.rounds, run.offered) == (3, 1, 2 * (1 + 3 - 1))
        assert [t.accepted for t in run.trace] == [2, 1]
        assert run.trace_part <= 1e-15
        # a run that ends on an empty batch below its bound has no trace part
        _, run = self.two_level_run(1j * SZ)
        assert (run.dim, run.rounds, run.trace[-1].accepted, run.trace_part) == (1, 1, 0, None)

    def test_trace_part_at_the_bound_is_an_error(self):
        # a partner with a trace part of 1e-6 spans, with its brackets, three
        # directions that miss one traceless direction by 1e-6: the round
        # skipped at the bound would accept it (dimension 4 > 3), so the
        # trace part must raise in its place
        with pytest.raises(cl.ClosureError, match="on block .*noise was accepted"):
            self.two_level_run(1j * SX + 1e-6j * np.eye(2), 1j * SZ)

    def test_membership_sees_other_copies(self, qutrit_closure_h, qutrit_blocks):
        # the projector onto the other copy of the adjoint irrep restricts to
        # zero on the closure's copy, but it is not invariant
        block = next(b for b in qutrit_closure_h.frame.blocks if b.label == (2, 1, 0))
        both = next(b for b in qutrit_blocks if b.label == (2, 1, 0)).basis
        other = orthonormal_rows((both - block.basis @ (block.basis.T @ both)).T).T
        assert other.shape == (27, 8)
        x = 1j * other @ other.conj().T
        assert np.abs(cl.restrict_to_block(x, block)).max() <= 1e-12
        member, res = cl.membership(x, qutrit_closure_h)
        assert not member and res > 0.1

    @pytest.mark.parametrize("order,error,match", [
        (("good", "moved", "hermitian"), ValueError, "moved does not commute"),
        (("good", "hermitian", "moved"), la.NonHermitianError, "hermitian is not skew-Hermitian"),
        (("good", "small", "hermitian"), la.DimensionMismatchError, "small: dimension 2 != 4"),
        (("hermitian", "small"), la.NonHermitianError, "hermitian is not skew-Hermitian"),
        (("good", "nan", "hermitian"), la.NonFiniteError, "^nan has non-finite entries"),
        (("good", "inf", "small"), la.NonFiniteError, "^inf has non-finite entries"),
        (("moved", "inf"), ValueError, "moved does not commute"),
    ])
    def test_first_failing_generator_raises(self, order, error, match):
        # the matrices are checked as one stack; the first generator that
        # fails raises, with its first failing check
        z = np.diag([1.0, -1.0])
        moved = np.zeros((4, 4), dtype=complex)
        moved[0, 1], moved[1, 0] = 1.0, -1.0  # skew-Hermitian, not invariant
        mats = {"good": 1j * g.collective(z, 2), "moved": moved,
                "hermitian": g.collective(z, 2), "small": 1j * z}
        for name, bad in (("nan", np.nan), ("inf", np.inf)):  # would stop _accept's SVD
            mats[name] = mats["good"].copy()
            mats[name][0, 0] = 1j * bad
        gens = cl.GeneratorSet(2, 2, tuple(mats[name] for name in order), order)
        with pytest.raises(error, match=match) as info:
            gens.validate()
        if error is ValueError:
            assert not isinstance(info.value, la.NonHermitianError)

    @pytest.mark.parametrize("first", ["sym-adj", "anti-sym"])
    def test_leakage_gate_names_the_first_generator(self, qutrit_blocks, first):
        # sym-adj leaks out of (2,1,0) and (3,0,0), anti-sym out of (1,1,1)
        # and (3,0,0); the first leaky generator raises, at its first block
        frame = cl.BlockFrame.build(3, 3)
        vec = {b.label: b.basis[:, 0] for b in qutrit_blocks}
        sym, adj, anti = vec[(3, 0, 0)], vec[(2, 1, 0)], vec[(1, 1, 1)]
        leaky = {"sym-adj": 1j * (np.outer(sym, adj) + np.outer(adj, sym)),
                 "anti-sym": 1j * (np.outer(anti, sym) + np.outer(sym, anti))}
        order = [first, *(name for name in leaky if name != first)]
        good = dense(cl.preset("qutrits:n=3:H")).generators[0]
        gens = cl.GeneratorSet(3, 3, (good, *(leaky[name] for name in order)), ("good", *order))
        label = (2, 1, 0) if first == "sym-adj" else (1, 1, 1)
        with pytest.raises(cl.BlockLeakageError, match=rf"out of block {re.escape(str(label))}"):
            cl.levi_split(gens, frame)
        with pytest.raises(cl.BlockLeakageError, match=rf"out of block {re.escape(str(label))}"):
            frame_rows(frame, 3, 3, [leaky[first]])

    def test_stacked_rows_match_each_block_product(self):
        # levi_split restricts the matrices as one stack: each row equals
        # P^T X P on every block, split into its traceless and trace parts
        gens = dense(margin_set("flagship:seed=1"))
        frame = cl.BlockFrame.build(3, 3)
        centers, traceless, _ = cl.levi_split(gens, frame)
        want = np.zeros((len(gens.generators), frame.width))
        for k, x in enumerate(gens.generators):
            for i, b in enumerate(frame.blocks):
                m = b.basis.T @ x @ b.basis
                c = np.trace(m) / b.irrep_dim
                frame._store(want[k : k + 1], i, (m - c * np.eye(b.irrep_dim))[None])
                want[k, frame.traceless_width + i] = np.sqrt(b.irrep_dim) * c.imag
        got = np.hstack([traceless, centers])
        assert np.abs(got - want).max() <= 1e-13

    def test_leaky_operator_raises(self, qutrit_blocks):
        frame = cl.BlockFrame.build(3, 3)
        sym = next(b for b in qutrit_blocks if b.label == (3, 0, 0)).basis[:, 0]
        adj = next(b for b in qutrit_blocks if b.label == (2, 1, 0)).basis[:, 0]
        leaky = 1j * (np.outer(sym, adj.conj()) + np.outer(adj, sym.conj()))
        with pytest.raises(cl.BlockLeakageError):
            frame_rows(frame, 3, 3, [leaky])
        # the symmetric block holds one copy, which contains sym
        symmetric = next(b for b in frame.blocks if b.label == (3, 0, 0))
        with pytest.raises(cl.BlockLeakageError, match=r"out of block \(3, 0, 0\)"):
            cl.restrict_to_block(leaky, symmetric)


class TestQubitPresets:
    @pytest.mark.parametrize(
        "n,want", [(2, 9), (3, 19), (4, 33), (5, 54), (6, 81), (7, 117), (8, 161)]
    )
    def test_closure_dimensions(self, n, want):
        r = cl.lie_closure(cl.preset(f"qubits:n={n}"))
        assert r.dim == want and r.saturated

    def test_report_three_qubits(self):
        r = cl.lie_closure(cl.preset("qubits:n=3"))
        rep = cl.subspace_controllability(r)
        assert rep.subspace_controllable
        assert rep.center_component_dim == 1
        assert rep.total_dim == 19
        by_label = {v.label: v for v in rep.per_block}
        assert by_label[(3, 0)].restricted_dim == 15
        assert by_label[(2, 1)].restricted_dim == 3

    def test_levi_dimension_split(self):
        # dim(closure) = dim(traceless part closure) + dim span(center parts);
        # the traceless parts come from the Casimir center projection
        gens = cl.preset("qubits:n=3")
        cb = cas.center_basis_from_blocks(cas.isotypic_blocks(2, 3))
        _, _, cdim = cl.levi_split(gens, cl.BlockFrame.build(2, 3))
        traceless = [center_project(x, cb)[1] for x in dense(gens).generators]
        tset = cl.GeneratorSet(2, 3, tuple(traceless), gens.names)
        t_dim = cl.lie_closure(tset).dim
        full_dim = cl.lie_closure(gens).dim
        assert full_dim == t_dim + cdim == 18 + 1


class TestLeviSplit:
    def test_qubit_preset_center_components(self):
        gens = cl.preset("qubits:n=3")
        cb = cas.center_basis_from_blocks(cas.isotypic_blocks(2, 3))
        frame = cl.BlockFrame.build(2, 3)
        centers, traceless, cdim = cl.levi_split(gens, frame)
        norms = [np.linalg.norm(c) for c in centers]
        # only i*Sz^2 carries a center component
        assert norms[0] <= 1e-9 and norms[1] <= 1e-9 and norms[2] <= 1e-9
        assert norms[3] > 1.0
        assert cdim == 1
        # the same split as the Casimir block projectors give
        split = [center_project(x, cb) for x in dense(gens).generators]
        rows_c = frame_rows(frame, 2, 3, [c for c, _ in split])
        rows_t = frame_rows(frame, 2, 3, [t for _, t in split])
        assert np.allclose(rows_c, np.hstack([0 * traceless, centers]))
        assert np.allclose(rows_t, np.hstack([traceless, 0 * centers]))

    def test_all_central_set(self):
        cb = cas.center_basis_from_blocks(cas.isotypic_blocks(2, 2))
        gens = cl.GeneratorSet(
            2, 2, tuple(1j * p for p in cb.elements), ("p0", "p1")
        )
        centers, traceless, cdim = cl.levi_split(gens, cl.BlockFrame.build(2, 2))
        assert cdim == 2
        for t in traceless:
            assert np.linalg.norm(t) <= 1e-9

    def test_empty_set_gives_empty_rows(self):
        frame = cl.BlockFrame.build(2, 2)
        centers, traceless, cdim = cl.levi_split(cl.GeneratorSet(2, 2, (), ()), frame)
        assert centers.shape == (0, len(frame.blocks))
        assert traceless.shape == (0, frame.traceless_width) and cdim == 0

    def test_traceless_set_has_zero_center_dim(self):
        gens = cl.preset("lemma2:2,2,(1,3)")
        _, _, cdim = cl.levi_split(gens, cl.BlockFrame.build(4, 1))
        assert cdim == 0


class TestRestrictToBlock:
    def test_identity(self, qutrit_blocks):
        for b in qutrit_blocks:
            assert np.allclose(cl.restrict_to_block(np.eye(27), b), np.eye(b.block_dim))

    def test_casimir_restricts_to_scalar(self, qutrit_blocks):
        c2 = cas.build_C2(3, 3)
        for b in qutrit_blocks:
            m = cl.restrict_to_block(c2, b)
            lam = np.trace(m) / b.block_dim
            assert np.linalg.norm(m - lam * np.eye(b.block_dim)) <= 1e-8

    def test_collective_on_symmetric_sector(self, qutrit_blocks):
        sym = next(b for b in qutrit_blocks if b.label == (3, 0, 0))
        m = cl.restrict_to_block(g.hat_f(3, 3, 3), sym)
        assert m.shape == (10, 10)
        assert abs(np.trace(m)) <= 1e-9
        assert la.is_hermitian(m)

    def test_leakage_detected(self, qutrit_blocks):
        sym = next(b for b in qutrit_blocks if b.label == (3, 0, 0))
        leaky = np.zeros((27, 27), dtype=complex)
        # couple a symmetric-sector state to an orthogonal one
        v = sym.basis[:, 0]
        w = np.zeros(27, dtype=complex)
        w[1] = 1.0
        w -= sym.basis @ (sym.basis.conj().T @ w)
        w /= np.linalg.norm(w)
        leaky += np.outer(w, v.conj()) + np.outer(v, w.conj())
        with pytest.raises(cl.BlockLeakageError):
            cl.restrict_to_block(leaky, sym)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises(self, qutrit_blocks, bad):
        # NaN > cut is False, so the leakage gate alone would pass it
        x = 1j * np.eye(27)
        x[0, 0] = bad
        for b in qutrit_blocks:
            with pytest.raises(la.NonFiniteError, match="^matrix has non-finite entries"):
                cl.restrict_to_block(x, b)

    def test_wrong_size_matrix_raises(self, qutrit_blocks):
        for b in qutrit_blocks:
            with pytest.raises(la.DimensionMismatchError, match="^matrix: dimension 9 != 27"):
                cl.restrict_to_block(np.eye(9), b)
            with pytest.raises(la.DimensionMismatchError, match="must be square"):
                cl.restrict_to_block(np.eye(27)[:9], b)


class TestMembership:
    def test_generators_are_members(self, qutrit_closure_h):
        gens = dense(cl.preset("qutrits:n=3:H"))
        for x in gens.generators:
            member, res = cl.membership(x, qutrit_closure_h)
            assert member and res <= 1e-9

    def test_block_supported_element_is_member(self):
        # an su(4) element supported on the spin-3/2 block belongs to the
        # three-qubit dynamical Lie algebra
        r = cl.lie_closure(cl.preset("qubits:n=3"))
        blocks = cas.isotypic_blocks(2, 3)
        spin32 = next(b for b in blocks if b.label == (3, 0))
        m = np.diag([1j, -1j, 2j, -2j])
        x = spin32.basis @ m @ spin32.basis.conj().T
        member, res = cl.membership(x, r)
        assert member, res

    def test_non_invariant_matrix_is_not_member(self, qutrit_closure_h, rng):
        x = random_skew(rng, 27)
        member, res = cl.membership(x, qutrit_closure_h)
        assert not member and res > 0.1

    def test_wrong_size_matrix_raises(self):
        # checked against d^n = 8 before the factor permutations index it
        r = cl.lie_closure(cl.preset("qubits:n=3"))
        with pytest.raises(la.DimensionMismatchError, match="^matrix: dimension 5 != 8"):
            cl.membership(np.eye(5), r)


class TestLemma1BlockAlgebras:
    def test_distinct_block_sizes_force_direct_sum(self):
        # weak subspace controllability with correlated blocks of sizes
        # (3,2,1): closure must still be su(3) (+) su(2) (+) su(1), dim 11
        su3 = [e for e in g.gell_mann_basis(3).elements[1:]]
        su2 = [SX, SY, SZ]
        gens = []
        for k, a in enumerate(su3):
            emb = np.zeros((6, 6), dtype=complex)
            emb[:3, :3] = a
            emb[3:5, 3:5] = su2[k % 3]  # correlated second block
            gens.append(1j * emb)
        r = cl.lie_closure(single_site_set(*gens))
        assert r.dim == (9 - 1) + (4 - 1) + 0 == 11
        assert r.saturated


class TestSubspaceControllability:
    def test_refuses_unsaturated(self):
        gens = cl.preset("qutrits:n=3:H")
        r = cl.lie_closure(gens, max_dim=20)
        assert not r.saturated
        with pytest.raises(cl.UnsaturatedClosureError):
            cl.subspace_controllability(r)

    def test_three_qutrit_report(self, qutrit_closure_h):
        rep = cl.subspace_controllability(qutrit_closure_h)
        by_label = {v.label: v for v in rep.per_block}
        assert by_label[(3, 0, 0)].restricted_dim == 99
        assert by_label[(2, 1, 0)].restricted_dim == 63
        assert by_label[(1, 1, 1)].restricted_dim == 0
        assert all(v.ok for v in rep.per_block)
        assert rep.center_component_dim == 1
        assert rep.total_dim == 163
        assert rep.subspace_controllable

    def test_json_schema(self, qutrit_closure_h):
        rep = cl.subspace_controllability(qutrit_closure_h)
        obj = rep.to_json_dict()
        assert set(obj) == {
            "blocks", "center_dim", "total_dim",
            "subspace_controllable", "saturated", "rounds", "path",
        }
        assert all(
            set(b) == {"label", "irrep_dim", "multiplicity", "restricted_dim", "ok"}
            for b in obj["blocks"]
        )

    def test_local_generators_alone_are_not_controllable(self):
        # the 8 collective Gell-Mann generators close on an su(3) image
        gens = cl.preset("qutrits:n=3:H")
        locals_only = cl.GeneratorSet(3, 3, gens.generators[:8], gens.names[:8])
        r = cl.lie_closure(locals_only)
        assert r.saturated and r.dim == 8
        rep = cl.subspace_controllability(r)
        assert not rep.subspace_controllable
        assert rep.center_component_dim == 0


class TestSz2Preset:
    def test_equivalent_to_two_body_up_to_center(self, qutrit_closure_h):
        r2 = cl.lie_closure(cl.preset("qutrits:n=3:Sz2"))
        assert r2.saturated and r2.dim == qutrit_closure_h.dim == 163
        # the block-traceless parts of the two closures span the same
        # 162-dimensional algebra
        sa, sb = qutrit_closure_h.traceless, r2.traceless
        assert len(sa) == len(sb) == 162
        assert residuals(sb, sa).max() <= 1e-8
        assert residuals(sa, sb).max() <= 1e-8


class TestWordPath:
    """Presets are words read on each block: no d^n x d^n matrix, no
    permutation check and no leakage gate on their path."""

    @pytest.mark.parametrize("name,want", [
        ("qubits:n=8", (161, 1, (0, 8, 24, 48, 80), "blocks")),
        ("qutrits:n=4:H", (492, 1, (8, 35, 224, 224), "blocks")),
        ("qutrits:n=4:Sz2", (492, 1, (8, 35, 224, 224), "blocks")),
    ])
    def test_no_dense_operator_is_formed(self, monkeypatch, name, want):
        def fail(*args, **kwargs):
            raise AssertionError("the word path formed or checked a dense operator")

        monkeypatch.setattr(g, "_placement_sum", fail)
        monkeypatch.setattr(g, "collective", fail)
        monkeypatch.setattr(cl, "_swap_defects", fail)
        monkeypatch.setattr(cl, "_restrict_stack", fail)
        assert outcome(cl.preset(name)) == want

    def test_thirteen_qubits_close(self):
        # sum(d_lambda^2 - 1) + 1 = 554; the dense preset would hold 4.3 GB
        report = cl.subspace_controllability(cl.lie_closure(cl.preset("qubits:n=13")))
        formula = sum(rt.irrep_dimension(m) ** 2 - 1 for m in rt.cg_decompose(13, 2)) + 1
        assert report.total_dim == formula == 554
        assert report.subspace_controllable and report.center_component_dim == 1

    def test_non_skew_word_raises_naming_it(self):
        gens = cl.preset("qubits:n=3")
        words = (*gens.generators, lambda rho: rho(SX))  # Hermitian, not skew
        bad = cl.GeneratorSet(2, 3, words, (*gens.names, "Sx"))
        with pytest.raises(la.NonHermitianError, match="^Sx is not skew-Hermitian on block"):
            cl.lie_closure(bad)

    def test_a_set_holds_one_kind(self):
        word, matrix = (lambda rho: 1j * rho(SZ)), 1j * g.collective(SZ, 2)
        for gens in [(word, matrix), (matrix, word)]:
            with pytest.raises(ValueError, match="only words or only matrices"):
                cl.GeneratorSet(2, 2, gens, ("a", "b"))
        for gens in [(word, word), (matrix, matrix), ()]:
            cl.GeneratorSet(2, 2, gens, tuple("ab"[: len(gens)]))


def flip_symmetric_words(n):
    """{i sum X_i, i sum_{i<j} Z_i Z_j} on n qubits, as words.  The global
    flip prod X_i commutes with both, so each spin block of dimension
    d_lambda reaches only s(u(a) + u(b)), a = ceil(d_lambda/2), b =
    floor(d_lambda/2), and the set is not controllable."""
    sx, _, sz = g.gell_mann_basis(2).elements[1:]
    words = (lambda rho: 1j * rho(sx), lambda rho: 0.5j * (rho(sz) @ rho(sz) - rho(sz @ sz)))
    return cl.GeneratorSet(2, n, words, ("i*X", "i*ZZ"))


def flip_symmetric_terms(n):
    """The same set from the term list of its Hamiltonians, as matrices."""
    terms = [[n - 1, 1, 0, 0], [n - 2, 0, 0, 2]]
    mats = [1j * g.hamiltonian_from_terms([{"multi_index": t, "coeff_re": 1.0}], 2, n)
            for t in terms]
    return cl.GeneratorSet(2, n, tuple(mats), ("H0", "H1"))


class TestJointGate:
    """The joint run closes inside the span of its blocks' rows: L' lies in
    the sum of its projections on the blocks, so the sum of the blocks' run
    dimensions is the joint run's bound, and noise cannot carry it past."""

    TOTALS = {2: 4, 3: 8, 4: 15, 5: 24, 6: 38, 7: 54, 8: 77}

    @staticmethod
    def check(build, n, total, checked):
        """Close ``build(n)``; check its total, its block dims and its one
        report; return the joint run, or None where a block's run is reused."""
        r = cl.lie_closure(build(n))
        report = cl.subspace_controllability(r)
        assert report.total_dim == total and r.path == "joint"
        assert not report.subspace_controllable and report.center_component_dim == 1
        for v in report.per_block:
            a, b = (v.irrep_dim + 1) // 2, v.irrep_dim // 2
            assert v.restricted_dim == a * a + b * b - 1, v.label
        joint = [run for run in r.runs if run.label is None]
        assert [run.dim for run in joint] == ([] if len(r.runs) == 1 else [len(r.traceless)])
        assert len(r.traceless) <= sum(run.dim for run in r.runs if run.label is not None)
        assert checked == [report]
        return joint[0] if joint else None

    @pytest.mark.parametrize("n", sorted(TOTALS))
    @pytest.mark.parametrize("build", [flip_symmetric_words, flip_symmetric_terms],
                             ids=["words", "terms"])
    def test_totals_up_to_eight_qubits(self, total_within_blocks, build, n):
        # n = 2 has one block of irrep_dim >= 2, whose run is reused
        run = self.check(build, n, self.TOTALS[n], total_within_blocks)
        assert (run is None) == (n == 2)

    @pytest.mark.parametrize("n,total,joint", [(9, 102, 101), (10, 136, 136)])
    @pytest.mark.parametrize("build", [flip_symmetric_words, flip_symmetric_terms],
                             ids=["words", "terms"])
    def test_nine_and_ten_qubits_close_in_the_blocks(self, total_within_blocks, build, n,
                                                     total, joint):
        # the joint run's margins lie far from RANK_TOL on both sides
        run = self.check(build, n, total, total_within_blocks)
        assert run.dim == joint
        smallest = min(t.smallest_accepted for t in run.trace if t.accepted)
        largest = max(t.largest_rejected for t in run.trace if t.largest_rejected is not None)
        assert smallest > 1e-2 and largest < 1e-9


class TestPresetParsing:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            cl.preset("nonsense:n=3")

    def test_bad_lemma2_position(self):
        with pytest.raises(ValueError):
            cl.preset("lemma2:2,1,(3,3)")

    def test_qubit_names(self):
        gens = cl.preset("qubits:n=2")
        assert gens.names == ("i*Sx", "i*Sy", "i*Sz", "i*Sz^2")
        gens.validate()

    def test_qutrit_generator_count(self):
        gens = cl.preset("qutrits:n=3:H")
        assert len(gens.generators) == 9
        gens.validate()
