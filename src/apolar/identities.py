"""Exact verification of the combinatorial identities behind the counts.

Every check returns an IdentityResult carrying both sides as exact integers;
nothing is proved here, instances are evaluated.  The left sides of A1, A2,
A3 and the auxiliary sums are summed term by term from Pascal-triangle
entries, read from combinat's cached rows C(a, 0..a) and columns C(k+i, k);
their right sides read binom, never those tables, so a wrong table entry
shows as a failed check.  The A3 left-hand side is a sum over constrained compositions; it is
evaluated as one coefficient of a truncated integer power series (the
alternating composition sum is -B(u) D(u) / (1 + A(u)), see a3_lhs), which
is the same sum reorganized.  The series do not depend on m, so they are
kept per n and only extended as m grows.
"""
from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .combinat import binom, dim_forms, pascal_column, pascal_row, tangent_band_sum
from .tangent import relation_space_dim_formula


class IdentityResult(NamedTuple):
    identity_id: str
    params: tuple[int, ...]
    lhs: int
    rhs: int

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    def to_json_dict(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
        }


def delta(s: int, n: int) -> int:
    """s(s+1)/2 * C(n+s-1, s+2), zero whenever the binomial vanishes."""
    if s < 1 or n < 2:
        raise ValueError("need s >= 1 and n >= 2")
    return s * (s + 1) // 2 * binom(n + s - 1, s + 2)


def check_a1(p: int, r: int) -> IdentityResult:
    """Alternating binomial sum equal to 1 for all p, r >= 1."""
    if p < 1 or r < 1:
        raise ValueError("need p >= 1 and r >= 1")
    return IdentityResult("A1", (p, r), _a12_lhs(p, r, p - 1), 1)


def check_a2(p: int, r: int) -> IdentityResult:
    """Alternating binomial sum equal to C(p+r-1, p)."""
    if p < 1 or r < 1:
        raise ValueError("need p >= 1 and r >= 1")
    return IdentityResult("A2", (p, r), _a12_lhs(p, r, p), binom(p + r - 1, p))


def _a12_lhs(p: int, r: int, k: int) -> int:
    """sum_m (-1)^m C(k+1, m) C(pr-mr-p+k, k) over 0 <= m <= p(r-1)/r: the
    A1 left side at k = p-1, the A2 one at k = p.  Term m reads column k
    at p(r-1) - mr: every r-th entry from p(r-1) down to the last one >= 0."""
    col = pascal_column(k, p * r - p + k)
    return _alternating(list(map(mul, pascal_row(k + 1), col[p * (r - 1)::-r])))


def _alternating(terms: list[int]) -> int:
    """terms[0] - terms[1] + terms[2] - ..., as two slice sums."""
    return sum(terms[::2]) - sum(terms[1::2])


def a3_lhs(n: int, m: int) -> int:
    """delta(m-2, n) + sum_{l>=1} (-1)^l [u^{m-2}] A^{l-1} B D, that is
    delta(m-2, n) - [u^{m-2}] B D / (1 + A), where A = sum_{r>=1}
    C(n+r-1, n-1) u^r, B drops A's linear term and D = sum_{s>=1}
    delta(s, n) u^s.  [u^{m-2}] A^{l-1} B D sums prod C(n+r_i-1, n-1) *
    delta(s, n) over compositions r_1+..+r_l+s = m-2 with r_i >= 1,
    r_l >= 2, s >= 1; it is zero for l > m-4, since B D starts at u^3.
    The four series do not depend on m: they are extended to u^{m-2}, then
    one convolution gives the coefficient.
    """
    top = m - 2
    a, dd, inv, bd = _a3_series(n)
    # A reads column n-1; delta(s, n) = s(s+1)/2 C(n+s-1, n-3), column n-3.
    dims = pascal_column(n - 1, n - 1 + top)
    tail = pascal_column(n - 3, n - 1 + top)
    for i in range(len(a), top + 1):
        a.append(dims[i])
        dd.append(i * (i + 1) // 2 * tail[i + 2])
        # inv = 1 / (1 + A): inv_i = -sum_{j=1..i} a_j inv_{i-j}.
        inv.append(-sum(a[j] * inv[i - j] for j in range(1, i + 1)))
        bd.append(sum(a[j] * dd[i - j] for j in range(2, i)))
    return dd[top] - sum(bd[t] * inv[top - t] for t in range(3, top + 1))


@lru_cache(maxsize=2)
def _a3_series(n: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """The coefficients of A, D, 1/(1+A) and B D (see a3_lhs) computed so
    far for one n, from u^0; a3_lhs appends to all four together."""
    return [0], [0], [1], [0]


def check_a3(n: int, m: int) -> IdentityResult:
    """Composition-sum identity with RHS (-1)^m (m-1) C(n+1, m)."""
    if n < 5 or not 5 <= m <= n + 1:
        raise ValueError("need n >= 5 and 5 <= m <= n+1")
    rhs = (m - 1) * binom(n + 1, m)
    if m % 2:
        rhs = -rhs
    return IdentityResult("A3", (n, m), a3_lhs(n, m), rhs)


def check_aux(n: int, m: int) -> tuple[IdentityResult, IdentityResult]:
    """The two auxiliary sums; both vanish for m >= 2.

    The right sides for m <= 1 come from the same coefficient extraction
    ((1+t) for the first sum, -n t for the second), so the m = 1 case is an
    expected exception, not a failure.
    """
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    # Term p is C(n+1, m-p) C(n-1+p, n-1): row n+1 read backwards from m,
    # column n-1 forwards; the row runs out below p = first, so the terms
    # run over first <= p <= m and term p's sign is (-1)^p.
    row = pascal_row(n + 1)
    col = pascal_column(n - 1, n - 1 + m)
    first = max(0, m - n - 1)
    terms = list(map(mul, row[m - first :: -1], col[first:]))
    s_plain = _alternating(terms)
    s_weighted = _alternating(list(map(mul, range(first, m + 1), terms)))
    if first % 2:
        s_plain, s_weighted = -s_plain, -s_weighted
    rhs_plain = 1 if m <= 1 else 0
    rhs_weighted = -n if m == 1 else 0
    return (
        IdentityResult("AUX788", (n, m), s_plain, rhs_plain),
        IdentityResult("AUX778", (n, m), s_weighted, rhs_weighted),
    )


def check_dimt2_equals_n(n: int, d: int) -> IdentityResult:
    """Alternating-sum tangent count against the closed form Kn - n^2 + 1."""
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    rhs = dim_forms(n, d) * n - n * n + 1
    return IdentityResult("DIMT2_EQ_N", (n, d), tangent_band_sum(n, d, 0), rhs)


def check_delta_consistency(n: int, d: int) -> IdentityResult:
    """relation_space_dim_formula against the conormal count.

    For a regular sequence I/I^2 is free over S/I on the n generators
    (Bruns-Herzog, Cohen-Macaulay Rings, 1.1), so (I^2)_s has dimension
    dim S_s - N and the relations among the C(n+1, 2) shifted products
    number C(n+1, 2) dim S_{s-2d} - dim S_s + N, with s = n(d-1).
    """
    s = n * (d - 1)
    n_tangent = dim_forms(n, d) * n - n * n + 1
    rhs = binom(n + 1, 2) * dim_forms(n, s - 2 * d) - dim_forms(n, s) + n_tangent
    return IdentityResult("DELTA_CONSISTENCY", (n, d), relation_space_dim_formula(n, d), rhs)
