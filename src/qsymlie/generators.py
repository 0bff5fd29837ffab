"""Concrete operators on (C^d)^(x)n.

Single-site Hermitian bases (Pauli, Gell-Mann, generalized Gell-Mann),
structure constants, symmetrized operator-basis elements F_(j0,...),
collective operators and permutation operators.

Every dense symmetric operator comes from ``_placement_sum``: F_(j0,...),
collective lifts, the two-body coupling, term-list Hamiltonians and the
qubit center elements of ``casimir``.  It adds one site at a time, keyed
by the counts used so far, so it enumerates no placement and forms no
d^n x d^n product.  Words need none: see ``collective_columns``.

This module is the one home of the basis-index bookkeeping that the other
layers share: ``_factor_map`` turns a factor permutation into the row
gather of its operator, and ``_WeightSpaces`` groups the basis states by
occupation numbers, with the ladder maps of the collective E_ij and, for
each weight space, its orbit under permutations of the d levels: the
orbit's representative and the relabeling of the states onto it.

Basis convention: unnormalized matrices with Tr(F_a F_b) = 2 delta_ab for
the traceless elements, and the plain identity at index 0.  All symmetric
multi-index semantics refer to this ordering, which is frozen:

* d = 2: [I, sigma_x, sigma_y, sigma_z]
* d = 3: [I, E_1, ..., E_8] in the standard Gell-Mann order
* d >= 4: identity, all symmetric off-diagonal pairs (row-major), all
  antisymmetric pairs (same order), diagonal matrices in increasing support
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import comb, sqrt

import numpy as np

from .linalg import _as_square, _json_int
from .tolerances import RANK_TOL


def _sym_pair(d: int, j: int, k: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    m[j, k] = m[k, j] = 1.0
    return m


def _antisym_pair(d: int, j: int, k: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    m[j, k] = -1.0j
    m[k, j] = 1.0j
    return m


def _diag_elem(d: int, k: int) -> np.ndarray:
    # diag(1,...,1,-k,0,...,0) with k ones, scaled to Tr = 2.
    v = np.zeros(d)
    v[:k] = 1.0
    v[k] = -k
    return np.diag(v).astype(complex) * sqrt(2.0 / (k * (k + 1)))


@dataclass(frozen=True)
class HermitianBasis:
    """Identity plus d^2 - 1 traceless Hermitian matrices, Tr(F_a F_b) = 2 delta_ab."""

    d: int
    elements: tuple[np.ndarray, ...]

    def check(self) -> None:
        assert len(self.elements) == self.d**2
        assert np.abs(self.elements[0] - np.eye(self.d)).max() <= RANK_TOL
        for a in range(1, self.d**2):
            assert abs(np.trace(self.elements[a])) <= RANK_TOL
            for b in range(a, self.d**2):
                got = np.trace(self.elements[a] @ self.elements[b].conj().T)
                want = 2.0 if a == b else 0.0
                assert abs(got - want) <= RANK_TOL


@lru_cache(maxsize=None)
def gell_mann_basis(d: int) -> HermitianBasis:
    """Hermitian single-site basis in the frozen ordering described above."""
    if d < 2:
        raise ValueError("need d >= 2")
    elems: list[np.ndarray] = [np.eye(d, dtype=complex)]
    if d == 3:
        # Standard Gell-Mann order E_1..E_8; the usual su(3) structure
        # constant tables are indexed against exactly this order.
        elems += [
            _sym_pair(3, 0, 1),
            _antisym_pair(3, 0, 1),
            _diag_elem(3, 1),
            _sym_pair(3, 0, 2),
            _antisym_pair(3, 0, 2),
            _sym_pair(3, 1, 2),
            _antisym_pair(3, 1, 2),
            _diag_elem(3, 2),
        ]
    else:
        pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
        elems += [_sym_pair(d, j, k) for j, k in pairs]
        elems += [_antisym_pair(d, j, k) for j, k in pairs]
        elems += [_diag_elem(d, k) for k in range(1, d)]
    for e in elems:
        e.flags.writeable = False
    basis = HermitianBasis(d, tuple(elems))
    basis.check()
    return basis


def pauli_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma_x, sigma_y, sigma_z)."""
    b = gell_mann_basis(2).elements
    return b[1], b[2], b[3]


# ---------------------------------------------------------------------------
# Structure constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureConstants:
    """Tensors from [E_j,E_k] = i sum_l f_{jk}^l E_l and
    {E_j,E_k} = gamma delta_jk 1 + sum_l d_{jk}^l E_l.

    ``f`` and ``dsym`` have shape (m, m, m) with m = d^2 - 1 and 0-based
    indices standing for E_1..E_m; ``gamma``= 4/d.
    """

    d: int
    f: np.ndarray
    dsym: np.ndarray
    gamma: float

    def f_entry(self, j: int, k: int, l: int) -> float:
        """1-based accessor matching the su(3) literature tables."""
        return float(self.f[j - 1, k - 1, l - 1])

    def d_entry(self, j: int, k: int, l: int) -> float:
        return float(self.dsym[j - 1, k - 1, l - 1])


def structure_constants(basis: HermitianBasis) -> StructureConstants:
    """Compute f and d tensors by Frobenius projection onto the basis."""
    d = basis.d
    m = d * d - 1
    es = basis.elements[1:]
    f = np.zeros((m, m, m))
    ds = np.zeros((m, m, m))
    for j in range(m):
        for k in range(j, m):
            comm = es[j] @ es[k] - es[k] @ es[j]
            anti = es[j] @ es[k] + es[k] @ es[j]
            for l in range(m):
                # Tr(E_l^2) = 2, so the projection coefficient is Tr(. E_l)/2.
                f[j, k, l] = (np.trace(comm @ es[l]) / 2j).real
                ds[j, k, l] = np.trace(anti @ es[l]).real / 2.0
            f[k, j, :] = -f[j, k, :]
            ds[k, j, :] = ds[j, k, :]
    return StructureConstants(d, f, ds, 4.0 / d)


# ---------------------------------------------------------------------------
# Symmetrized operator basis of the S_n-invariant algebra
# ---------------------------------------------------------------------------

def _compositions(n: int, parts: int):
    """Tuples of ``parts`` naturals summing to n, descending lexicographic."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def multi_indices(d: int, n: int) -> list[tuple[int, ...]]:
    """All d^2-tuples (j_0,...,j_{d^2-1}) of naturals summing to n.

    Deterministic order: descending lexicographic, so (n,0,...,0) comes
    first.  Count is C(n + d^2 - 1, d^2 - 1).
    """
    slots = d * d
    out = list(_compositions(n, slots))
    assert len(out) == comb(n + slots - 1, slots - 1)
    return out


def _add_kron(out: np.ndarray, p: np.ndarray, a: np.ndarray) -> None:
    """out += p (x) a in place: one strided block of ``out`` per nonzero entry of a."""
    d, m = a.shape[0], p.shape[0]
    blocks = out.reshape(m, d, m, d)
    for i, j in zip(*np.nonzero(a)):
        blocks[:, i, :, j] += p * a[i, j]


def _placement_sum(mats, terms, n: int) -> np.ndarray:
    """sum_t coeff_t F(c_t), F(c) the sum over the distinct placements on n
    sites of the multiset holding ``mats[a]`` c[a] times (sum(c) = n).

    The placements that put mats[a] on the last site are those of c - e_a
    on the first n - 1 sites, so F(c) = sum_a F(c - e_a) (x) mats[a].  The
    partial sums are built one site at a time and keyed by the counts used
    so far, prod_a (c_a + 1) of them, where a sum placement by placement
    takes n!/prod_a c_a! Kronecker chains.  The last site is added in place
    into the output.  With the identity first in ``mats``, each entry is
    summed over the sites in site order, as a site-by-site collective does.
    """
    d = mats[0].shape[0]
    out = np.zeros((d**n, d**n), dtype=complex)

    def add_last_site(target, sums, counts, factors):
        for a, c in enumerate(counts):
            if c:
                _add_kron(target, sums[counts[:a] + (c - 1,) + counts[a + 1 :]], factors[a])
        return target

    for coeff, counts in terms:
        sums = {(0,) * len(counts): np.ones((1, 1), dtype=complex)}
        for k in range(1, n):
            sums = {
                u: add_last_site(np.zeros((d**k, d**k), dtype=complex), sums, u, mats)
                for u in product(*(range(c + 1) for c in counts))
                if sum(u) == k
            }
        add_last_site(out, sums, counts, [coeff * m for m in mats])
    return out


def _multi_index(counts, d: int, n: int) -> tuple[int, ...]:
    """``counts`` as d^2 naturals summing to n; entries convert by ``linalg._json_int``."""
    counts = tuple(_json_int(c) for c in counts)
    if len(counts) != d * d:
        raise ValueError(f"need d^2 = {d * d} counts, got {len(counts)}")
    if any(c < 0 for c in counts) or sum(counts) != n:
        raise ValueError(f"counts must be naturals summing to n={n}: {counts}")
    return counts


def symmetric_sum(counts, d: int, n: int) -> np.ndarray:
    """F_(j0,j1,...): sum over all distinct placements of the indicated multiset.

    ``counts[a]`` is how many tensor factors carry basis element ``a`` (0 is
    the identity); a float or string count raises ``TypeError``.
    """
    return _placement_sum(gell_mann_basis(d).elements, [(1, _multi_index(counts, d, n))], n)


def collective(op, n: int) -> np.ndarray:
    """sum_j 1 (x) ... (x) op (x) ... (x) 1 over the n factor positions."""
    op = _as_square(op)
    return _placement_sum((np.eye(op.shape[0]), op), [(1, (n - 1, 1))], n)


def collective_columns(op, x: np.ndarray, n: int) -> np.ndarray:
    """collective(op, n) @ x for ``x`` of d^n rows, one site at a time: op acts
    on the middle index of the rows viewed as (d^j, d, rest) for site j."""
    op = _as_square(op)
    d = op.shape[0]
    out = np.zeros(x.shape, dtype=complex)
    for j in range(n):
        out.reshape(d**j, d, -1)[...] += op @ x.reshape(d**j, d, -1)
    return out


def hat_f(k: int, d: int, n: int) -> np.ndarray:
    """Collective lift of basis element k: F with one k and n-1 identities."""
    return collective(gell_mann_basis(d).elements[k], n)


class _WeightSpaces:
    """Basis states of (C^d)^(x)n grouped by occupation numbers, with ladder maps.

    ``spaces`` maps each occupation tuple (n_0, ..., n_{d-1}) to the
    ascending basis indices with those occupations, in the order of
    :func:`occupation_vectors`; ``pos`` is each state's position inside
    its weight space.  Factor permutations map every weight space onto
    itself.  The collective E_ij = sum over sites of |i><j| maps weight
    space mu to mu + e_i - e_j; restricted to one weight space it is a 0/1
    matrix.  ``orbits`` relates weight spaces that a permutation of the
    levels maps onto each other.
    """

    def __init__(self, d: int, n: int):
        self.d, self.n = d, n
        self.digits = np.indices((d,) * n).reshape(n, d**n)
        self.place = d ** np.arange(n - 1, -1, -1)
        occ = np.stack([(self.digits == k).sum(axis=0) for k in range(d)])
        key = (n + 1) ** np.arange(d) @ occ
        order = np.argsort(key, kind="stable")
        cuts = np.flatnonzero(np.diff(key[order])) + 1
        self.spaces = {
            tuple(int(x) for x in occ[:, states[0]]): states
            for states in np.split(order, cuts)
        }
        self.pos = np.empty(d**n, dtype=np.intp)
        for states in self.spaces.values():
            self.pos[states] = np.arange(len(states))

    @cached_property
    def orbits(self) -> dict[tuple[int, ...], tuple[tuple[int, ...], np.ndarray]]:
        """Each weight space's orbit representative and row relabeling: mu -> (nu, local).

        nu = sorted(mu, reverse=True).  The stable sort of the levels by
        descending occupation is a level permutation taking mu to nu; applied
        on every site, it sends state r of weight space mu to state
        ``local[r]`` of nu.  It commutes with every factor permutation, so
        the count matrix S of any set of factor permutations satisfies
        S_mu = S_nu[local][:, local] exactly, and (w, V) diagonalizing S_nu
        gives (w, V[local]) for S_mu.  Built on first read.
        """
        out = {}
        for mu, states in self.spaces.items():
            levels = sorted(range(self.d), key=lambda a: -mu[a])
            relabel = np.empty(self.d, dtype=np.intp)
            relabel[levels] = np.arange(self.d)
            nu = tuple(mu[a] for a in levels)
            out[mu] = nu, self.pos[self.place @ relabel[self.digits[:, states]]]
        return out

    def ladder(self, mu, i: int, j: int):
        """(target weight, matrix of E_ij from weight space mu), i != j, or None if it is zero."""
        if mu[j] == 0:
            return None
        target = list(mu)
        target[i] += 1
        target[j] -= 1
        target = tuple(target)
        src = self.spaces[mu]
        sites, cols = np.nonzero(self.digits[:, src] == j)
        rows = self.pos[src[cols] + (i - j) * self.place[sites]]
        out = np.zeros((len(self.spaces[target]), len(src)))
        out[rows, cols] = 1.0
        return target, out


# ---------------------------------------------------------------------------
# Named Hamiltonians
# ---------------------------------------------------------------------------

def two_body_hamiltonian(d: int = 3, n: int = 3) -> np.ndarray:
    """Symmetric two-body coupling of the z-type diagonal element.

    The sum over site pairs of Z (x) Z, Z = diag(1, -1, 0, ..., 0) (sigma_z
    for d=2, E_3 for d=3); for d=3, n=3 this is
    E3 x E3 x 1 + E3 x 1 x E3 + 1 x E3 x E3.
    """
    if d < 2 or n < 2:
        raise ValueError("need d >= 2 and n >= 2")
    z = np.diag([1, -1] + [0] * (d - 2)).astype(complex)
    return _placement_sum((np.eye(d, dtype=complex), z), [(1, (n - 2, 2))], n)


# ---------------------------------------------------------------------------
# Permutations of tensor factors
# ---------------------------------------------------------------------------

def _factor_map(perm, d: int) -> np.ndarray:
    """Gather index of :func:`permutation_operator`: (U x)[r] = x[map[r]].

    The basis indices, viewed as shape (d,)*n, have their axes permuted.
    """
    perm = tuple(int(x) for x in perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    return np.transpose(np.arange(d**n).reshape((d,) * n), np.argsort(perm)).ravel()


def permutation_operator(perm, d: int) -> np.ndarray:
    """Unitary permuting the tensor factors of (C^d)^(x)n.

    ``perm`` is a 0-based tuple of images: the state on factor i moves to
    factor perm[i].  Satisfies U_pi U_rho = U_{pi o rho}.
    """
    rows = _factor_map(perm, d)
    return np.eye(len(rows), dtype=complex)[rows]


def perm_from_cycles(n: int, *cycles) -> tuple[int, ...]:
    """Permutation from 1-based cycles: (2,1,3) maps 2->1, 1->3, 3->2."""
    images = list(range(n))
    for cycle in cycles:
        c = [x - 1 for x in cycle]
        if len(set(c)) != len(c) or any(not 0 <= x < n for x in c):
            raise ValueError(f"bad cycle {cycle} for n={n}")
        for i, x in enumerate(c):
            images[x] = c[(i + 1) % len(c)]
    return tuple(images)


def sn_generators(n: int) -> list[tuple[int, ...]]:
    """(1 2) and the n-cycle (1 2 ... n), once each: they generate S_n, so
    commuting with both means commuting with S_n."""
    if n < 2:
        return []
    return list(dict.fromkeys(perm_from_cycles(n, c) for c in ((1, 2), tuple(range(1, n + 1)))))


# ---------------------------------------------------------------------------
# Weight-space order
# ---------------------------------------------------------------------------

def occupation_vectors(d: int, n: int) -> list[tuple[int, ...]]:
    """All (w_1,...,w_d) with sum n, ordered ascending by (w_d,...,w_1).

    For d = 3, n = 3 this reproduces the usual grouping by the number of
    |2>'s, with w_1 descending inside each group.
    """
    return sorted(_compositions(n, d), key=lambda w: tuple(reversed(w)))


# ---------------------------------------------------------------------------
# Generator-spec input format
# ---------------------------------------------------------------------------

def _coefficient(term, key: str):
    """A term's ``coeff_re`` or ``coeff_im``: an int or float, 0 when absent."""
    x = term.get(key, 0.0)
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"{key} must be a number, got {type(x).__name__}")
    return x


def hamiltonian_from_terms(terms, d: int, n: int) -> np.ndarray:
    """Sum of coeff * F_(multi_index) from exchange-format term dicts.

    Each term is {"multi_index": [...], "coeff_re": x, "coeff_im": y}.
    Counts convert by ``linalg._json_int`` and coefficients must be int or
    float, so a fractional or bool count or a string or bool coefficient
    raises ``TypeError``.
    """
    terms = [
        (_coefficient(t, "coeff_re") + 1j * _coefficient(t, "coeff_im"),
         _multi_index(t["multi_index"], d, n))
        for t in terms
    ]
    return _placement_sum(gell_mann_basis(d).elements, terms, n)
