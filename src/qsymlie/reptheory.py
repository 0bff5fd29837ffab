"""Exact combinatorics of su(d) irreducible representations.

Irreps are labeled by i-weights: non-increasing tuples of naturals.  Tuples
differing by a constant shift label the same irrep, so maps are keyed by
tuples of fixed entry sum (as produced by the tensor-power decomposition) or
by their normalized form (last entry zero).  Everything here is integer
arithmetic; no floating point.
"""

from __future__ import annotations

import itertools
from math import comb, isqrt, prod
from operator import index
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

IWeight = tuple[int, ...]


def _as_iweight(m) -> IWeight | None:
    """m as a tuple of ints if it is a nonempty, non-increasing sequence of
    nonnegative integers, else None.

    Entries convert by ``operator.index``, which takes ints, bools and numpy
    integers and refuses floats and strings.
    """
    try:
        t = tuple(map(index, m))
    except TypeError:
        return None
    if not t or t[-1] < 0 or sorted(t, reverse=True) != list(t):
        return None
    return t


def is_iweight(m) -> bool:
    """Non-increasing nonempty sequence of nonnegative integers."""
    return _as_iweight(m) is not None


def check_iweight(m) -> IWeight:
    t = _as_iweight(m)
    if t is None:
        raise ValueError(f"not a valid i-weight: {m!r}")
    return t


def normalize_iweight(m) -> IWeight:
    """Canonical representative with last entry zero."""
    m = check_iweight(m)
    return tuple(x - m[-1] for x in m)


def quantum_numbers(m) -> tuple[int, ...]:
    """Successive differences p_j = m_j - m_{j+1} (shift-invariant label)."""
    m = check_iweight(m)
    return tuple(m[i] - m[i + 1] for i in range(len(m) - 1))


def irrep_dimension(m) -> int:
    """Dimension of the irrep with i-weight m.

    prod_{r<s} (s - r + m_r - m_s) // prod_{r<s} (s - r), in integers; the
    Weyl dimension formula makes the division exact, and a remainder raises.
    A pair with m_r = m_s contributes (s - r)/(s - r) = 1 and is skipped, so
    the big integers hold one factor per pair of unequal entries, not d^2.
    :func:`cg_table` gives the same numbers for the labels of a tensor power
    without a call per label.
    """
    m = check_iweight(m)
    num = den = 1
    for r, s in itertools.combinations(range(len(m)), 2):
        if m[r] != m[s]:
            num *= s - r + m[r] - m[s]
            den *= s - r
    dim, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"Weyl dimension of {m} is not an integer: {num}/{den}")
    return dim


# ---------------------------------------------------------------------------
# Gelfand-Tsetlin patterns and semistandard Young tableaux
# ---------------------------------------------------------------------------

class _Rows:
    """Immutable integer ``rows``, compared, hashed and printed by value.

    Entries convert by ``operator.index`` and the subclass's ``_check``
    validates them; assigning or deleting an attribute raises
    AttributeError.  A plain class with ``__slots__``: a frozen dataclass
    would load ``dataclasses`` and ``inspect`` with the integer layer.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(map(index, r)) for r in rows)
        self._check(rows)
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def _check(rows) -> None:
        raise NotImplementedError

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(rows={self.rows!r})"

    def __reduce__(self):
        return type(self), (self.rows,)


class GTPattern(_Rows):
    """Triangular array; rows[0] has length d (the i-weight), last has length 1.

    Consecutive rows satisfy betweenness: upper[k] >= lower[k] >= upper[k+1].
    Entries convert by ``operator.index``: a float or string raises TypeError.
    """

    __slots__ = ()
    rows: tuple[tuple[int, ...], ...]

    @staticmethod
    def _check(rows) -> None:
        d = len(rows)
        if [len(r) for r in rows] != list(range(d, 0, -1)):
            raise ValueError("rows must have lengths d, d-1, ..., 1")
        for upper, lower in zip(rows, rows[1:]):
            for k in range(len(lower)):
                if not (upper[k] >= lower[k] >= upper[k + 1]):
                    raise ValueError(f"betweenness violated between {upper} and {lower}")
        if any(x < 0 for x in rows[0]):
            raise ValueError("entries must be nonnegative")

    @property
    def d(self) -> int:
        return len(self.rows)

    @property
    def top(self) -> IWeight:
        return self.rows[0]

    def entry(self, k: int, l: int) -> int:
        """m_{k,l}: the k-th entry (1-based) of the row of length l."""
        return self.rows[self.d - l][k - 1]


class SSYT(_Rows):
    """Semistandard Young tableau over symbols 0..d-1.

    Rows non-decreasing, columns strictly increasing.  Entries convert by
    ``operator.index``: a float or string raises TypeError.
    """

    __slots__ = ()
    rows: tuple[tuple[int, ...], ...]

    @staticmethod
    def _check(rows) -> None:
        for r in rows:
            if any(a > b for a, b in zip(r, r[1:])):
                raise ValueError("rows must be non-decreasing")
            if any(x < 0 for x in r):
                raise ValueError("symbols must be nonnegative")
        for upper, lower in zip(rows, rows[1:]):
            if len(lower) > len(upper):
                raise ValueError("row lengths must be non-increasing")
            if any(lower[j] <= upper[j] for j in range(len(lower))):
                raise ValueError("columns must be strictly increasing")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)


def enumerate_gt_patterns(m) -> list[GTPattern]:
    """All GT patterns with top row m, highest-weight pattern first.

    Ordered lexicographically descending on the concatenation of the rows
    below the top, matching the A_1..A_8 listing convention for (2,1,0).
    """
    m = check_iweight(m)

    def descend(row: tuple[int, ...]):
        if len(row) == 1:
            yield (row,)
            return
        spans = [range(row[k], row[k + 1] - 1, -1) for k in range(len(row) - 1)]
        for nxt in itertools.product(*spans):
            for tail in descend(nxt):
                yield (row,) + tail

    return [GTPattern(rows) for rows in descend(m)]


def gt_to_ssyt(p: GTPattern) -> SSYT:
    """Bijection: diagonals of the pattern become rows of the tableau.

    Row k of the tableau holds m_{k,l} - m_{k,l-1} copies of symbol l-1
    (0-based), with m_{k,k-1} taken as 0.
    """
    d = p.d
    rows = []
    for k in range(1, d + 1):
        row: list[int] = []
        prev = 0
        for l in range(k, d + 1):
            cur = p.entry(k, l)
            row.extend([l - 1] * (cur - prev))
            prev = cur
        if row:
            rows.append(tuple(row))
    return SSYT(tuple(rows))


def ssyt_to_gt(t: SSYT, d: int) -> GTPattern:
    """Inverse bijection: m_{k,l} counts symbols < l in tableau row k."""
    if len(t.rows) > d:
        raise ValueError(f"tableau has more than d={d} rows")
    if any(x > d - 1 for r in t.rows for x in r):
        raise ValueError(f"symbols must lie in 0..{d - 1}")
    rows = []
    for l in range(d, 0, -1):
        row = []
        for k in range(1, l + 1):
            fill = t.rows[k - 1] if k <= len(t.rows) else ()
            row.append(sum(1 for x in fill if x < l))
        rows.append(tuple(row))
    return GTPattern(tuple(rows))


def weight_vector(p: GTPattern) -> tuple[int, ...]:
    """w_l = sigma_l - sigma_{l-1} where sigma_l is the sum of the length-l row."""
    sums = [0] + [sum(p.rows[p.d - l]) for l in range(1, p.d + 1)]
    return tuple(sums[l] - sums[l - 1] for l in range(1, p.d + 1))


def sz_eigenvalue(p: GTPattern, l: int) -> Fraction:
    """Eigenvalue (w_l - w_{l+1})/2 of S_z^l on the pattern's state."""
    from fractions import Fraction  # its only user; importing it loads decimal

    if not 1 <= l <= p.d - 1:
        raise ValueError(f"l must lie in 1..{p.d - 1}")
    w = weight_vector(p)
    return Fraction(w[l - 1] - w[l], 2)


# ---------------------------------------------------------------------------
# Tensor products and the Clebsch-Gordan decomposition of the n-fold power
# ---------------------------------------------------------------------------

def tensor_with_standard(m, d: int | None = None) -> list[IWeight]:
    """Irreps of m (x) standard rep: add 1 to any entry keeping non-increase.

    Each result appears with multiplicity one.
    """
    m = check_iweight(m)
    if d is not None and len(m) != d:
        raise ValueError(f"i-weight length {len(m)} != d={d}")
    out = []
    for i in range(len(m)):
        if i == 0 or m[i - 1] >= m[i] + 1:
            out.append(m[:i] + (m[i] + 1,) + m[i + 1 :])
    return out


def b_pattern(p: GTPattern) -> tuple[tuple[int, ...], ...]:
    """B-pattern of a GT pattern: b_{k,l} = m_{k,l} - m_{k,l-1}, m_{k,l-1}:=0 for l-1<k.

    Same triangular layout as the pattern itself.  B-patterns need not
    satisfy betweenness.
    """
    d = p.d
    rows = []
    for l in range(d, 0, -1):
        row = []
        for k in range(1, l + 1):
            below = p.entry(k, l - 1) if l - 1 >= k else 0
            row.append(p.entry(k, l) - below)
        rows.append(tuple(row))
    return tuple(rows)


def b_pattern_walk(s, b_rows) -> IWeight | None:
    """Diagonal walk of one B-pattern over the i-weight ``s``.

    Follows each diagonal k = 1..d, adding b_{k,l} to entry l for
    l = d, d-1, ..., k, aborting (returns None) as soon as an intermediate
    tuple fails to be non-increasing.
    """
    cur = list(check_iweight(s))
    d = len(cur)
    for k in range(1, d + 1):
        for l in range(d, k - 1, -1):
            cur[l - 1] += b_rows[d - l][k - 1]
            if any(cur[i] < cur[i + 1] for i in range(d - 1)):
                return None
    return tuple(cur)


def algorithm1_decompose(s, sprime) -> dict[IWeight, int]:
    """Decompose the tensor product s (x) sprime into irreps with multiplicity.

    Enumerates the GT basis of the second factor, walks each associated
    B-pattern over s, and counts surviving walks per resulting i-weight.
    Keys are raw tuples with entry sum = sum(s) + sum(sprime).
    """
    s = check_iweight(s)
    sprime = check_iweight(sprime)
    if len(s) != len(sprime):
        raise ValueError("factors must be i-weights for the same d")
    out: dict[IWeight, int] = {}
    for p in enumerate_gt_patterns(sprime):
        res = b_pattern_walk(s, b_pattern(p))
        if res is not None:
            out[res] = out.get(res, 0) + 1
    return dict(sorted(out.items(), reverse=True))


def cg_table(n: int, d: int) -> list[tuple[IWeight, int, int]]:
    """Clebsch-Gordan table of the n-fold tensor power of the standard rep.

    One ``(i-weight, irrep dimension, multiplicity)`` per non-increasing
    d-tuple m summing to n, in descending lexicographic order of m;
    completeness means sum(mult * dim) = d**n.  By Schur-Weyl duality the
    multiplicity is the number of standard Young tableaux of shape m.  With
    j nonzero rows, counted from r = 0, the hook-length formula (Frobenius
    form) and the Weyl dimension formula read

        mult = V * n! / prod_r m_r! / Q,
        dim  = V * prod_r C(m_r + d - 1 - r, m_r) / Q,

    where V = prod_{r<s<j} (m_r - m_s + s - r) and
    Q = prod_{r<j} (m_r + j - 1 - r)! / m_r!.

    A recursion picks the nonzero rows one at a time, so its depth is at
    most min(n, d), and carries V, the multinomial, the binomial product and
    Q along the prefix.  Within one call the value m of row r falls from
    its largest, and each factor is updated by exact integer ratio steps: the
    multinomial's C(rest, m), the row's C(m + d - 1 - r, m) and, for the
    label whose row r + 1 takes the left = rest - m that is left,
    C(left + d - 2 - r, left).  Q gains prod_{s<r} (m_s + r + 1 - s) once
    per call and (m + 1) per step.  A trailing run of t rows equal to 1 is
    one label in one step, not one call per row: the prefix's rows are
    0..r-1 and a_s = m_s + r - s, and with the prefix's V, multinomial,
    binomial product B and Q (the multinomial and Q taken with t as row r),

        mult = V * multinomial * prod_s a_s (a_s - 1) / (Q * prod_s (a_s + t - 1)),
        dim  = V * B * C(d - r, t) * prod_s a_s (a_s - 1) / (Q * prod_s (a_s + t - 1)),

    the hook-length and hook-content formulas with the prefix's first-column
    hooks a_s - 1 grown by t.  So the calls number fewer than the labels
    (26,015 for 37,338 at n = d = 40).  Each label costs a few products of
    small integers and two exact divisions; a remainder raises
    ArithmeticError.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    zeros = (0,) * d
    table = [((n,) + zeros[1:], comb(n + d - 1, n), 1)]  # the symmetric power

    def emit(label, v, numerator_dim, numerator_mult, q):
        dim, rem = divmod(v * numerator_dim, q)
        mult, rem_mult = divmod(v * numerator_mult, q)
        if rem or rem_mult:
            raise ArithmeticError(f"dimension or multiplicity of {label} is not an integer")
        table.append((label, dim, mult))

    def extend(prefix, shifted, rest, v, multinomial, binomials, q):
        # Appends the labels prefix + (m, ...) with m < rest, in order.  The
        # prefix holds rows 0..r-1, shifted[s] = m_s + r - s, v and binomials
        # are its products, multinomial = n! / (prod m_s! * rest!), and q is
        # Q of the label prefix + (rest,).  Here 2 <= rest and m runs down to
        # 2; the run prefix + (1,) * rest comes last.
        r = len(prefix)
        free = d - r  # rows r..d-1 share rest
        grown = tuple([a + 1 for a in shifted])
        q_grown = q * prod(grown)
        pad = zeros[: free - 2]
        top = min(rest - 1, prefix[-1]) if prefix else rest - 1
        left = rest - top
        choose = comb(rest, top)  # C(rest, m)
        row_binomial = comb(top + free - 1, top)  # C(m + d - 1 - r, m)
        leaf_binomial = comb(left + free - 2, left)  # C(left + d - 2 - r, left)
        for m in range(top, max((rest + free - 1) // free, 2) - 1, -1):
            v_m = v
            for a in shifted:
                v_m *= a - m
            multinomial_m = multinomial * choose
            binomials_m = binomials * row_binomial
            q_m = q_grown * (m + 1)
            if left <= m:  # the label whose row r + 1 takes all that is left
                v_label = v_m * (m + 1 - left)
                for a in grown:
                    v_label *= a - left
                emit(prefix + (m, left) + pad, v_label, binomials_m * leaf_binomial,
                     multinomial_m, q_m)
                leaf_binomial = leaf_binomial * (left + free - 1) // (left + 1)
            # Row r + 1 can take less than left unless left is 1 or it is the
            # last row: m >= rest / free leaves room for the rows after it.
            if left > 1 and free > 2:
                extend(prefix + (m,), grown + (m + 1,), left, v_m, multinomial_m, binomials_m, q_m)
            choose = choose * m // (left + 1)
            row_binomial = row_binomial * m // (m + free - 1)
            left += 1
        if rest <= free:
            x = v
            den = q
            for a in shifted:
                x *= a * (a - 1)
                den *= a + rest - 1
            emit(prefix + (1,) * rest + zeros[: free - rest], x, binomials * comb(free, rest),
                 multinomial, den)

    if n > 1:
        extend((), (), n, 1, 1, 1, 1)
    return table


def cg_decompose(n: int, d: int) -> dict[IWeight, int]:
    """Clebsch-Gordan content of the n-fold tensor power of the standard rep.

    {i-weight (entry sum n): multiplicity}, the dict view of
    :func:`cg_table`, in the same order.
    """
    return {m: mult for m, _, mult in cg_table(n, d)}


def ambient_commutant_dim(n: int, d: int) -> int:
    """Dimension of the algebra of S_n-invariant operators: C(n+d^2-1, d^2-1)."""
    return comb(n + d * d - 1, d * d - 1)


def center_dimension(n: int, d: int) -> int:
    """Number of non-isomorphic irreps in the tensor-power decomposition.

    The paper's recursion f(n,1) = 1, f(n,d) = sum_{j=0}^{floor(n/d)}
    f(n - j*d, d-1) counts the partitions of n into at most d parts, which
    by conjugation are the partitions of n into parts of size at most d.
    Counted here with one list of n + 1 integers, one pass per part size
    up to min(n, d).
    """
    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    counts = [1] + [0] * n
    for part in range(1, min(n, d) + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


def content_sum(m) -> int:
    """Sum of box contents (column - row) of the Young diagram of m.

    Exact order/equality key for the quadratic Casimir spectrum at fixed
    (n, d): the built operator acts on the block of m as
    2n(d^2-1)/d - 2n(n-1)/d + 4 * content_sum(m).
    """
    m = check_iweight(m)
    total = 0
    for r, length in enumerate(m, start=1):
        total += length * (length + 1) // 2 - r * length
    return total


# ---------------------------------------------------------------------------
# su(3): the quadratic Casimir eigenvalue and its degeneracies
# ---------------------------------------------------------------------------

def c2_eigenvalue(p: int, q: int) -> int:
    """Quadratic Casimir eigenvalue of the su(3) irrep (p, q), fixed scaling.

    c2(p,q) = p^2 + q^2 + 3(p+q) + pq; symmetric under swapping p and q.
    p and q convert by ``operator.index``: a float or string raises TypeError.
    """
    p, q = index(p), index(q)
    if p < 0 or q < 0:
        raise ValueError("quantum numbers must be nonnegative")
    return p * p + q * q + 3 * (p + q) + p * q


def degeneracy_search(p0: int, q0: int) -> list[tuple[int, int]]:
    """All lattice pairs (p, q) >= 0 sharing the quadratic eigenvalue of (p0, q0), sorted.

    Exact and complete.  Let T = c2(p0, q0).  For q >= 0,
    c2(p, q) >= p^2 + 3p, so every solution has p^2 + 3p <= T, and only
    those p are scanned.  For fixed p, c2 is strictly increasing in q >= 0,
    so at most one q matches: the root of q^2 + (p+3)q + p^2 + 3p - T = 0,
    q = (s - p - 3)/2 with s^2 = 4T + 9 - 6p - 3p^2.  It is an integer
    solution exactly when that discriminant is a perfect square (checked
    with :func:`math.isqrt`), s - p - 3 is even and q >= 0.  All arithmetic
    is on integers.
    """
    target = c2_eigenvalue(p0, q0)
    hits = []
    p = 0
    while p * p + 3 * p <= target:
        disc = 4 * target + 9 - 6 * p - 3 * p * p
        s = isqrt(disc)
        if s * s == disc and s >= p + 3 and (s - p - 3) % 2 == 0:
            hits.append((p, (s - p - 3) // 2))
        p += 1
    return hits
