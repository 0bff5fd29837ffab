import functools
import itertools
import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymlie import reptheory as rt

# The eight Gelfand-Tsetlin patterns of (2,1,0), highest weight first, with
# their weight vectors and 0-based tableaux.
ADJOINT_PATTERNS = [
    (((2, 1, 0), (2, 1), (2,)), (2, 1, 0), ((0, 0), (1,))),
    (((2, 1, 0), (2, 1), (1,)), (1, 2, 0), ((0, 1), (1,))),
    (((2, 1, 0), (2, 0), (2,)), (2, 0, 1), ((0, 0), (2,))),
    (((2, 1, 0), (2, 0), (1,)), (1, 1, 1), ((0, 1), (2,))),
    (((2, 1, 0), (2, 0), (0,)), (0, 2, 1), ((1, 1), (2,))),
    (((2, 1, 0), (1, 1), (1,)), (1, 1, 1), ((0, 2), (1,))),
    (((2, 1, 0), (1, 0), (1,)), (1, 0, 2), ((0, 2), (2,))),
    (((2, 1, 0), (1, 0), (0,)), (0, 1, 2), ((1, 2), (2,))),
]


def small_iweights(max_d=4, max_entry=4):
    out = []
    for d in range(1, max_d + 1):
        for m in itertools.product(range(max_entry + 1), repeat=d):
            if all(m[i] >= m[i + 1] for i in range(d - 1)):
                out.append(m)
    return out


class TestIWeights:
    def test_normalize(self):
        assert rt.normalize_iweight((3, 2, 1)) == (2, 1, 0)
        assert rt.normalize_iweight((2, 1, 0)) == (2, 1, 0)

    def test_quantum_numbers(self):
        assert rt.quantum_numbers((4, 2, 0)) == (2, 2)
        assert rt.quantum_numbers((3, 0)) == (3,)

    def test_invalid(self):
        with pytest.raises(ValueError):
            rt.check_iweight((1, 2, 0))
        with pytest.raises(ValueError):
            rt.check_iweight((2, -1))

    @pytest.mark.parametrize("m", [(2.7, 1.2, 0), (2.0, 1, 0), ("3", "0"), "30", (), 3, (0, -1)])
    def test_non_integer_entries_rejected(self, m):
        # int() would truncate 2.7 to 2 and parse "3", giving a wrong dimension
        assert not rt.is_iweight(m)
        with pytest.raises(ValueError):
            rt.check_iweight(m)
        with pytest.raises(ValueError):
            rt.irrep_dimension(m)

    def test_numpy_and_bool_entries_accepted(self):
        m = rt.check_iweight(np.array([2, 1, 0]))
        assert m == (2, 1, 0) and all(type(x) is int for x in m)
        assert rt.irrep_dimension(np.array([2, 1, 0], dtype=np.int8)) == 8
        assert rt.check_iweight((True, False)) == (1, 0)
        assert rt.is_iweight([np.int64(1), 0])


class TestDimension:
    @pytest.mark.parametrize(
        "m,dim",
        [
            ((2, 1, 0), 8),
            ((3, 0, 0), 10),
            ((1, 1, 1), 1),
            ((4, 2, 0), 27),
            ((3, 3, 0), 10),
            ((4, 1, 1), 10),
            ((3, 2, 1), 8),
            ((1, 0), 2),
            ((5, 0), 6),
        ],
    )
    def test_examples(self, m, dim):
        assert rt.irrep_dimension(m) == dim

    def test_matches_hook_content_formula(self):
        # runs of equal entries followed by unequal ones, e.g. (3,3,1,1,0,0)
        for m in small_iweights(6, 3):
            lam = [x - m[-1] for x in m]
            cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
            hooks = math.prod(
                lam[i] - j + sum(1 for row in lam if row > j) - i - 1 for i, j in cells
            )
            assert rt.irrep_dimension(m) * hooks == math.prod(len(m) + j - i for i, j in cells)

    def test_large_d(self):
        assert rt.irrep_dimension((2,) + (0,) * 399) == 400 * 401 // 2
        assert rt.irrep_dimension((2,) + (0,) * 2999) == 3000 * 3001 // 2

    def test_shift_invariance(self):
        for m in small_iweights(3, 4):
            shifted = tuple(x + 2 for x in m)
            assert rt.irrep_dimension(m) == rt.irrep_dimension(shifted)


class TestGTPatterns:
    def test_adjoint_listing_matches_tables(self):
        pats = rt.enumerate_gt_patterns((2, 1, 0))
        assert [p.rows for p in pats] == [rows for rows, _, _ in ADJOINT_PATTERNS]

    def test_standard_rep(self):
        pats = rt.enumerate_gt_patterns((1, 0, 0))
        assert [p.rows for p in pats] == [
            ((1, 0, 0), (1, 0), (1,)),
            ((1, 0, 0), (1, 0), (0,)),
            ((1, 0, 0), (0, 0), (0,)),
        ]
        assert [rt.weight_vector(p) for p in pats] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_d1_single_pattern(self):
        assert len(rt.enumerate_gt_patterns((7,))) == 1

    def test_count_equals_dimension_sweep(self):
        for m in small_iweights(4, 4):
            assert len(rt.enumerate_gt_patterns(m)) == rt.irrep_dimension(m)

    def test_betweenness_enforced(self):
        with pytest.raises(ValueError):
            rt.GTPattern(((2, 1, 0), (2, 2), (2,)))

    @pytest.mark.parametrize("rows", [((2.9, 1.2), (2.1,)), ((2.0, 1), (2,)), (("2", "1"), ("2",))])
    def test_non_integer_entries_rejected(self, rows):
        # int() would truncate ((2.9, 1.2), (2.1,)) to the valid ((2, 1), (2,))
        with pytest.raises(TypeError):
            rt.GTPattern(rows)

    def test_numpy_entries_accepted(self):
        p = rt.GTPattern(tuple(tuple(np.int64(x) for x in r) for r in ((2, 1), (2,))))
        assert p.rows == ((2, 1), (2,)) and type(p.rows[0][0]) is int

    def test_weight_vectors_match_tables(self):
        for rows, w, _ in ADJOINT_PATTERNS:
            assert rt.weight_vector(rt.GTPattern(rows)) == w

    def test_highest_weight_equals_iweight(self):
        for m in [(2, 1, 0), (3, 0, 0), (4, 2, 1, 0)]:
            top = rt.enumerate_gt_patterns(m)[0]
            assert rt.weight_vector(top) == m


class TestSSYT:
    def test_tableaux_match_tables(self):
        for rows, _, tab in ADJOINT_PATTERNS:
            assert rt.gt_to_ssyt(rt.GTPattern(rows)).rows == tab

    def test_round_trip_adjoint(self):
        for p in rt.enumerate_gt_patterns((2, 1, 0)):
            assert rt.ssyt_to_gt(rt.gt_to_ssyt(p), 3) == p

    def test_round_trip_sweep(self):
        for m in small_iweights(3, 3):
            for p in rt.enumerate_gt_patterns(m):
                assert rt.ssyt_to_gt(rt.gt_to_ssyt(p), len(m)) == p

    def test_standard_rep_single_box(self):
        p = rt.GTPattern(((1, 0, 0), (1, 0), (1,)))
        assert rt.gt_to_ssyt(p).rows == ((0,),)

    def test_ssyt_validation(self):
        with pytest.raises(ValueError):
            rt.SSYT(((1, 0),))  # decreasing row
        with pytest.raises(ValueError):
            rt.SSYT(((0, 0), (0,)))  # column not strictly increasing
        with pytest.raises(TypeError):
            rt.SSYT(((0.5, 1.7), (1.2,)))  # int() would give the valid ((0, 1), (1,))


class TestImmutableRows:
    @pytest.mark.parametrize(
        "make,rows,other",
        [
            (rt.GTPattern, ((2, 1, 0), (2, 1), (2,)), ((2, 1, 0), (2, 1), (1,))),
            (rt.SSYT, ((0, 0), (1,)), ((0, 1), (1,))),
        ],
        ids=["GTPattern", "SSYT"],
    )
    def test_value_semantics(self, make, rows, other):
        a, b = make(rows), make(rows=[list(r) for r in rows])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != make(other)
        assert repr(a) == f"{make.__name__}(rows={rows!r})"
        assert pickle.loads(pickle.dumps(a)) == a
        with pytest.raises(AttributeError):
            a.rows = ((0,),)
        with pytest.raises(AttributeError):
            del a.rows
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a.rows == rows

    def test_kinds_do_not_compare_equal(self):
        assert rt.GTPattern(((0,),)) != rt.SSYT(((0,),))


class TestSzEigenvalue:
    def test_a1(self):
        p = rt.GTPattern(ADJOINT_PATTERNS[0][0])
        assert rt.sz_eigenvalue(p, 1) == Fraction(1, 2)

    def test_equal_weights_give_zero(self):
        p = rt.GTPattern(ADJOINT_PATTERNS[3][0])  # w = (1,1,1)
        assert rt.sz_eigenvalue(p, 1) == 0
        assert rt.sz_eigenvalue(p, 2) == 0

    @pytest.mark.parametrize("m", [(3, 1, 0), (4, 2, 0), (2, 2, 0)])
    def test_highest_weight_gives_half_p(self, m):
        top = rt.enumerate_gt_patterns(m)[0]
        p = rt.quantum_numbers(m)[0]
        assert rt.sz_eigenvalue(top, 1) == Fraction(p, 2)

    def test_range_check(self):
        p = rt.GTPattern(ADJOINT_PATTERNS[0][0])
        with pytest.raises(ValueError):
            rt.sz_eigenvalue(p, 3)


class TestTensorProducts:
    def test_standard_on_standard(self):
        assert rt.tensor_with_standard((1, 0, 0)) == [(2, 0, 0), (1, 1, 0)]

    def test_standard_on_adjoint(self):
        assert rt.tensor_with_standard((2, 1, 0)) == [(3, 1, 0), (2, 2, 0), (2, 1, 1)]

    def test_d1(self):
        assert rt.tensor_with_standard((5,)) == [(6,)]

    def test_b_pattern_of_highest_weight(self):
        p = rt.GTPattern(((2, 1, 0), (2, 1), (2,)))
        assert rt.b_pattern(p) == ((0, 0, 0), (0, 1), (2,))

    def test_worked_walk(self):
        # (3,2,0) against the B-pattern of the highest-weight state of (2,1,0)
        assert rt.b_pattern_walk((3, 2, 0), ((0, 0, 0), (0, 1), (2,))) == (5, 3, 0)

    def test_agrees_with_standard_rule(self):
        std = (1, 0, 0)
        for m in [(1, 0, 0), (2, 1, 0), (3, 1, 1), (2, 2, 0)]:
            dec = rt.algorithm1_decompose(m, std)
            assert dec == {w: 1 for w in rt.tensor_with_standard(m)}

    def test_adjoint_squared(self):
        dec = rt.algorithm1_decompose((2, 1, 0), (2, 1, 0))
        assert dec == {
            (4, 2, 0): 1,
            (4, 1, 1): 1,
            (3, 3, 0): 1,
            (3, 2, 1): 2,
            (2, 2, 2): 1,
        }
        total = sum(k * rt.irrep_dimension(m) for m, k in dec.items())
        assert total == rt.irrep_dimension((2, 1, 0)) ** 2 == 64

    def test_dimension_count_random_products(self):
        for s in [(2, 0, 0), (2, 1, 0), (3, 1, 0)]:
            for sp in [(1, 1, 0), (2, 2, 0), (2, 1, 0)]:
                dec = rt.algorithm1_decompose(s, sp)
                total = sum(k * rt.irrep_dimension(m) for m, k in dec.items())
                assert total == rt.irrep_dimension(s) * rt.irrep_dimension(sp)


def layered_cg_table(n, d):
    """Multiplicities of the n-fold power by adding one box at a time.

    k_m = sum_i k_{m - e_i} over the non-increasing m - e_i, built up from
    the standard rep (1, 0, ..., 0) one entry sum at a time.
    """
    layer = {(1,) + (0,) * (d - 1): 1}
    for _ in range(n - 1):
        nxt = {}
        for m, k in layer.items():
            for i in range(d):
                if i == 0 or m[i - 1] > m[i]:
                    parent = m[:i] + (m[i] + 1,) + m[i + 1 :]
                    nxt[parent] = nxt.get(parent, 0) + k
        layer = nxt
    return layer


@functools.lru_cache(maxsize=None)
def paper_center_dimension(n, d):
    """The paper's recursion f(n,1) = 1, f(n,d) = sum_j f(n - j*d, d-1)."""
    if d == 1:
        return 1
    return sum(paper_center_dimension(n - j * d, d - 1) for j in range(n // d + 1))


class TestCGDecompose:
    def test_three_qutrits(self):
        assert rt.cg_decompose(3, 3) == {(3, 0, 0): 1, (2, 1, 0): 2, (1, 1, 1): 1}

    def test_three_qubits(self):
        assert rt.cg_decompose(3, 2) == {(3, 0): 1, (2, 1): 2}

    @pytest.mark.parametrize(
        "n,d",
        [(n, d) for n in range(1, 6) for d in (2, 3)] + [(2, 4)],
    )
    def test_completeness_and_commutant(self, n, d):
        dec = rt.cg_decompose(n, d)
        assert sum(k * rt.irrep_dimension(m) for m, k in dec.items()) == d**n
        assert sum(rt.irrep_dimension(m) ** 2 for m in dec) == rt.ambient_commutant_dim(n, d)
        assert len(dec) == rt.center_dimension(n, d)

    def test_matches_layered_table(self):
        sizes = [(n, d) for n in range(1, 41) for d in range(1, 6)] + [(3, 8), (5, 12), (2, 9)]
        for n, d in sizes:
            assert rt.cg_decompose(n, d) == layered_cg_table(n, d), (n, d)

    def test_keys_follow_partition_order(self):
        assert list(rt.cg_decompose(4, 5)) == [
            (4, 0, 0, 0, 0), (3, 1, 0, 0, 0), (2, 2, 0, 0, 0), (2, 1, 1, 0, 0), (1, 1, 1, 1, 0),
        ]

    def test_matches_iterated_algorithm1(self):
        # build the 4-fold power by repeated Algorithm-1 products
        std = (1, 0, 0)
        acc = {std: 1}
        for _ in range(3):
            nxt: dict = {}
            for m, k in acc.items():
                for w, kk in rt.algorithm1_decompose(m, std).items():
                    nxt[w] = nxt.get(w, 0) + k * kk
            acc = nxt
        assert acc == rt.cg_decompose(4, 3)


def descending_partitions(n, d):
    """Partitions of n into at most d parts, zero-padded to length d, largest first."""
    out = []

    def extend(prefix, rest):
        if rest == 0:
            out.append(prefix + (0,) * (d - len(prefix)))
            return
        for first in range(min([rest, *prefix[-1:]]), 0, -1):
            if first * (d - len(prefix)) < rest:
                break
            extend(prefix + (first,), rest - first)

    extend((), n)
    return out


def hook_formulas(m, d):
    """(dimension, multiplicity) of the label m, box by box.

    Hook-content formula for the GL(d) dimension, hook-length formula for
    the number of standard Young tableaux.
    """
    rows = [x for x in m if x]
    columns = [sum(1 for row in rows if row > j) for j in range(rows[0])]
    hooks = math.prod(row - j + columns[j] - i - 1
                      for i, row in enumerate(rows) for j in range(row))
    contents = math.prod(d + j - i for i, row in enumerate(rows) for j in range(row))
    dim, rem = divmod(contents, hooks)
    mult, rem_mult = divmod(math.factorial(sum(rows)), hooks)
    assert rem == rem_mult == 0
    return dim, mult


class TestCGTable:
    GRID = [(n, d) for d in range(1, 9) for n in range(1, 25)]

    def check(self, n, d):
        table = rt.cg_table(n, d)
        assert [m for m, _, _ in table] == descending_partitions(n, d)
        for m, dim, mult in table:
            assert (dim, mult) == hook_formulas(m, d), m
        return table

    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_hook_formulas_on_the_grid(self, d):
        for n in range(1, 25):
            self.check(n, d)

    # the benchmark's decompose sizes, and (30, 12), whose labels mostly end
    # in a run of 1-rows
    @pytest.mark.parametrize("d,n", [(1200, 2), (2, 2000), (40, 40), (6, 24), (2, 450),
                                     (3, 120), (4, 48), (5, 30), (30, 12)])
    def test_matches_hook_formulas_at_large_sizes(self, d, n):
        table = self.check(n, d)
        assert len(table) == rt.center_dimension(n, d)
        assert sum(dim * mult for _, dim, mult in table) == d**n

    def test_fewer_calls_than_labels(self):
        # a run of 1-rows is one label in one step, not one call per row
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call" and frame.f_code.co_name == "extend"

        sys.setprofile(count)
        try:
            table = rt.cg_table(20, 20)
        finally:
            sys.setprofile(None)
        assert 0 < calls < len(table)

    def test_descending_order(self):
        for n, d in self.GRID:
            labels = [m for m, _, _ in rt.cg_table(n, d)]
            assert labels == sorted(set(labels), reverse=True)
            assert all(len(m) == d and sum(m) == n for m in labels)

    def test_cg_decompose_is_its_dict_view(self):
        for n, d in self.GRID:
            table = rt.cg_table(n, d)
            dec = rt.cg_decompose(n, d)
            assert list(dec.items()) == [(m, mult) for m, _, mult in table]

    def test_irrep_dimension_agrees_on_every_label(self):
        # the two Weyl-formula paths: per label, and carried along the rows
        for n, d in self.GRID:
            for m, dim, _ in rt.cg_table(n, d):
                assert rt.irrep_dimension(m) == dim, m

    def test_small_tables(self):
        assert rt.cg_table(3, 3) == [((3, 0, 0), 10, 1), ((2, 1, 0), 8, 2), ((1, 1, 1), 1, 1)]
        assert rt.cg_table(1, 4) == [((1, 0, 0, 0), 4, 1)]
        assert rt.cg_table(5, 1) == [((5,), 1, 1)]

    @pytest.mark.parametrize("n,d", [(0, 3), (3, 0), (-1, 2)])
    def test_rejects_empty_sizes(self, n, d):
        with pytest.raises(ValueError, match="need n >= 1 and d >= 1"):
            rt.cg_table(n, d)


class TestCenterDimension:
    @given(st.integers(min_value=0, max_value=60))
    @settings(max_examples=40, deadline=None)
    def test_qubit_closed_form(self, n):
        assert rt.center_dimension(n, 2) == n // 2 + 1

    def test_matches_paper_recursion(self):
        for n in range(81):
            for d in range(1, 9):
                assert rt.center_dimension(n, d) == paper_center_dimension(n, d), (n, d)

    def test_large_arguments(self):
        # p(200) from MacMahon's table; parts past n change nothing
        assert rt.center_dimension(200, 200) == rt.center_dimension(200, 5000) == 3972999029388

    @pytest.mark.parametrize("n,d", [(-1, 2), (3, 0)])
    def test_rejects_bad_arguments(self, n, d):
        with pytest.raises(ValueError):
            rt.center_dimension(n, d)

    def test_examples(self):
        assert rt.center_dimension(3, 3) == 3
        assert rt.center_dimension(7, 2) == 4
        assert rt.center_dimension(4, 4) == 5

    @given(st.integers(min_value=0, max_value=10), st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_counts_partitions(self, n, d):
        # independent oracle: brute-force enumeration of non-increasing tuples
        count = sum(
            1
            for m in itertools.product(range(n + 1), repeat=d)
            if sum(m) == n and all(m[i] >= m[i + 1] for i in range(d - 1))
        )
        assert rt.center_dimension(n, d) == count


def admissible_labels(n, d):
    """Quantum numbers of the irreps in the n-fold power, as cg_decompose lists them."""
    return [rt.quantum_numbers(m) for m in rt.cg_decompose(n, d)]


class TestAdmissibleReps:
    def test_qubits(self):
        assert admissible_labels(3, 2) == [(3,), (1,)]
        assert admissible_labels(4, 2) == [(4,), (2,), (0,)]

    def test_qutrits(self):
        assert admissible_labels(3, 3) == [(3, 0), (1, 1), (0, 0)]

    @pytest.mark.parametrize("d", [2, 3])
    def test_count_equals_center_dimension(self, d):
        for n in range(1, 21):
            assert len(admissible_labels(n, d)) == rt.center_dimension(n, d)

    def test_labels_match_cg_quantum_numbers(self):
        # closed form: (m - 2j, j) for m = n, n-3, ... and j = 0..floor(m/2)
        for n in range(1, 7):
            want = sorted(
                (m - 2 * j, j) for m in range(n, -1, -3) for j in range(m // 2 + 1)
            )
            assert sorted(admissible_labels(n, 3)) == want


class TestContentSum:
    def test_examples(self):
        assert rt.content_sum((3, 0, 0)) == 3
        assert rt.content_sum((2, 1, 0)) == 0
        assert rt.content_sum((1, 1, 1)) == -3

    def test_matches_c2_pattern_for_qutrits(self):
        # equality/order pattern must agree with c2(p,q) on every label set
        from qsymlie.casimir import c2_eigenvalue

        for n in range(1, 9):
            labels = list(rt.cg_decompose(n, 3))
            content = [rt.content_sum(m) for m in labels]
            c2 = [c2_eigenvalue(*rt.quantum_numbers(m)) for m in labels]
            for i in range(len(labels)):
                for j in range(len(labels)):
                    assert (content[i] == content[j]) == (c2[i] == c2[j])
                    assert (content[i] < content[j]) == (c2[i] < c2[j])
