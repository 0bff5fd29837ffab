
import numpy as np
import pytest

from qsymlie import casimir as cas
from qsymlie import closure as cl
from qsymlie import generators as g
from qsymlie import linalg as la
from qsymlie import reptheory as rt

from conftest import random_skew

SX, SY, SZ = g.pauli_matrices()


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
    restricted = np.array([result.frame.restrict(x) for x in span.basis])
    assert result.dim == span.dim == len(orthonormal_rows(restricted))
    assert residuals(restricted, result.basis).max() <= tol
    assert residuals(result.basis, orthonormal_rows(restricted)).max() <= tol


def dense_verdicts(span, d, n, rank_tol=cl.VERDICT_RANK_TOL):
    """Per-block traceless ranks and center rank of a dense span, from the Casimir blocks."""
    blocks = cas.isotypic_blocks(d, n)
    cb = cas.center_basis_from_blocks(blocks)
    ranks = {}
    for b in blocks:
        restricted = []
        for x in span.basis:
            m = cl.restrict_to_block(x, b, rank_tol)
            restricted.append(m - (np.trace(m) / b.block_dim) * np.eye(b.block_dim))
        ranks[b.label] = la.real_span_dim(restricted, rank_tol, scale=1.0)
    coeffs = [cas.center_coefficients(x, cb) for x in span.basis]
    center = la.real_span_dim([np.concatenate([c.real, c.imag]) for c in coeffs], rank_tol, 1.0)
    return ranks, center


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
        gens = cl.preset("qubits:n=3")
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
        # the cap falls inside the seed batch, which offers every generator
        # and is cut at the cap
        gens = single_site_set(1j * SX, 1j * SY, 1j * SZ, 1j * np.eye(2))
        r = cl.lie_closure(gens, max_dim=3)
        assert r.dim == 3 and r.offered == 4 and not r.saturated
        r = cl.lie_closure(gens, max_dim=2)
        assert r.dim == 2 and r.offered == 4 and not r.saturated
        assert r.trace[0].accepted == 2 and r.rounds == 0
        r = cl.lie_closure(gens, max_dim=0)
        assert r.dim == 0 and not r.saturated

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
        r = cl.lie_closure(gens, tol=tol)
        assert r.saturated
        # one offer per generator, then one per (traceless basis element,
        # generator): every preset generator has a nonzero traceless part
        assert r.offered == len(gens.generators) * (1 + len(r.traceless))
        oracle = all_pairs_closure(gens, tol)
        assert_same_block_span(r, oracle)
        # the verdicts of the dense oracle on the Casimir blocks
        ranks, center = dense_verdicts(oracle, gens.d, gens.n)
        report = cl.subspace_controllability(r)
        assert {v.label: v.restricted_dim for v in report.per_block} == ranks
        assert (report.center_component_dim, report.total_dim) == (center, oracle.dim)

    def test_haar_conjugated_flagship_matches_oracle(self, rng):
        gens = cl.preset("qutrits:n=3:H")
        u = haar_unitary(rng, 3)
        u3 = np.kron(np.kron(u, u), u)
        rotated = cl.GeneratorSet(
            3, 3, tuple(u3 @ x @ u3.conj().T for x in gens.generators), gens.names
        )
        r = cl.lie_closure(rotated)
        assert r.saturated and r.dim == 163 and r.offered == 9 * (1 + 162)
        assert_same_block_span(r, all_pairs_closure(rotated))
        assert cl.subspace_controllability(r).subspace_controllable

    def test_flagship_closed_under_brackets(self, qutrit_closure_h, rng):
        pairs = rng.integers(0, len(qutrit_closure_h.traceless), size=(200, 2))
        assert bracket_residuals(qutrit_closure_h, pairs).max() <= 1e-8

    def test_flagship_rounds_and_offers(self, qutrit_closure_h):
        assert (qutrit_closure_h.dim, qutrit_closure_h.rounds, qutrit_closure_h.offered) == (
            163, 6, 1467
        )


_MARGIN_CASES = (
    [f"qubits:n={n}" for n in range(2, 9)]
    + [f"qutrits:n={n}:{kind}" for n in (2, 3) for kind in ("H", "Sz2")]
    + [name for name, _ in _ORACLE_CASES if name.startswith("lemma2")]
)


class TestRoundTrace:
    @pytest.mark.parametrize("name", _MARGIN_CASES)
    def test_margins(self, name):
        gens = cl.preset(name)
        r = cl.lie_closure(gens)
        assert r.saturated and len(r.trace) == r.rounds + 1
        accepted = [t.smallest_accepted for t in r.trace if t.smallest_accepted is not None]
        rejected = [t.largest_rejected for t in r.trace if t.largest_rejected is not None]
        assert min(accepted) >= 1e-3
        assert max(rejected, default=0.0) <= r.tol / 5
        # the trace adds up to the result
        assert [t.dim for t in r.trace] == list(np.cumsum([t.accepted for t in r.trace]))
        assert r.trace[-1].dim == len(r.traceless) and r.trace[-1].accepted == 0
        assert sum(t.offered for t in r.trace) == r.offered
        assert r.trace[0].offered == len(gens.generators)

    def test_seconds_take_no_part_in_comparisons(self):
        first = cl.lie_closure(cl.preset("qubits:n=3")).trace
        second = cl.lie_closure(cl.preset("qubits:n=3")).trace
        assert first == second
        assert all(t.seconds >= 0.0 for t in first)


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

        def counting(x, block, tol=la.RANK_TOL):
            calls.append(block.label)
            return restrict(x, block, tol)

        monkeypatch.setattr(cl, "restrict_to_block", counting)
        r = cl.lie_closure(cl.preset("qutrits:n=3:H"))
        assert len(calls) == 9 * len(r.frame.blocks) == 27

    def test_noise_above_the_bound_is_an_error(self, monkeypatch):
        # noise 1e-6 on every bracket is accepted as new directions until
        # the span passes sum(irrep_dim^2 - 1); it must not pass as saturated
        brackets = cl.BlockFrame.brackets
        noise = np.random.default_rng(7)

        def noisy(self, left, right):
            out = brackets(self, left, right)
            return out + 1e-6 * noise.standard_normal(out.shape)

        monkeypatch.setattr(cl.BlockFrame, "brackets", noisy)
        with pytest.raises(cl.ClosureError, match="exceeds the traceless bound"):
            cl.lie_closure(cl.preset("qubits:n=3"))

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

    def test_leaky_operator_raises(self, qutrit_blocks):
        frame = cl.BlockFrame.build(3, 3)
        sym = next(b for b in qutrit_blocks if b.label == (3, 0, 0)).basis[:, 0]
        adj = next(b for b in qutrit_blocks if b.label == (2, 1, 0)).basis[:, 0]
        leaky = 1j * (np.outer(sym, adj.conj()) + np.outer(adj, sym.conj()))
        with pytest.raises(cl.BlockLeakageError):
            frame.restrict(leaky)


class TestQubitPresets:
    @pytest.mark.parametrize(
        "n,want", [(2, 9), (3, 19), (4, 33), (5, 54), (6, 81), (7, 117), (8, 161)]
    )
    def test_closure_dimensions(self, n, want):
        r = cl.lie_closure(cl.preset(f"qubits:n={n}"), tol=1e-7)
        assert r.dim == want and r.saturated

    def test_report_three_qubits(self):
        r = cl.lie_closure(cl.preset("qubits:n=3"), tol=1e-7)
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
        cb = cas.center_basis(2, 3)
        _, _, cdim = cl.levi_split(gens, cl.BlockFrame.build(2, 3))
        traceless = [cas.center_project(x, cb)[1] for x in gens.generators]
        tset = cl.GeneratorSet(2, 3, tuple(traceless), gens.names)
        t_dim = cl.lie_closure(tset, tol=1e-7).dim
        full_dim = cl.lie_closure(gens, tol=1e-7).dim
        assert full_dim == t_dim + cdim == 18 + 1


class TestLeviSplit:
    def test_qubit_preset_center_components(self):
        gens = cl.preset("qubits:n=3")
        cb = cas.center_basis(2, 3)
        frame = cl.BlockFrame.build(2, 3)
        centers, traceless, cdim = cl.levi_split(gens, frame)
        norms = [np.linalg.norm(c) for c in centers]
        # only i*Sz^2 carries a center component
        assert norms[0] <= 1e-9 and norms[1] <= 1e-9 and norms[2] <= 1e-9
        assert norms[3] > 1.0
        assert cdim == 1
        # the same split as the Casimir block projectors give
        for c, t, x in zip(centers, traceless, gens.generators):
            dense_c, dense_t = cas.center_project(x, cb)
            assert np.allclose(frame.restrict(dense_c), np.concatenate([0 * t, c]))
            assert np.allclose(frame.restrict(dense_t), np.concatenate([t, 0 * c]))

    def test_all_central_set(self):
        cb = cas.center_basis(2, 2)
        gens = cl.GeneratorSet(
            2, 2, tuple(1j * p for p in cb.elements), ("p0", "p1")
        )
        centers, traceless, cdim = cl.levi_split(gens, cl.BlockFrame.build(2, 2))
        assert cdim == 2
        for t in traceless:
            assert np.linalg.norm(t) <= 1e-9

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


class TestMembership:
    def test_generators_are_members(self, qutrit_closure_h):
        gens = cl.preset("qutrits:n=3:H")
        for x in gens.generators:
            member, res = cl.membership(x, qutrit_closure_h)
            assert member and res <= 1e-9

    def test_block_supported_element_is_member(self):
        # an su(4) element supported on the spin-3/2 block belongs to the
        # three-qubit dynamical Lie algebra
        r = cl.lie_closure(cl.preset("qubits:n=3"), tol=1e-7)
        blocks = cas.isotypic_blocks(2, 3)
        spin32 = next(b for b in blocks if b.label == (3, 0))
        m = np.diag([1j, -1j, 2j, -2j])
        x = spin32.basis @ m @ spin32.basis.conj().T
        member, res = cl.membership(x, r, tol=1e-7)
        assert member, res

    def test_non_invariant_matrix_is_not_member(self, qutrit_closure_h, rng):
        x = random_skew(rng, 27)
        member, res = cl.membership(x, qutrit_closure_h)
        assert not member and res > 0.1


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
            "subspace_controllable", "saturated", "rounds",
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
