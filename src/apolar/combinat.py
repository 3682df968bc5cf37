"""Exact combinatorial helpers shared across the package.

Everything here is integer arithmetic; binomials follow the vanishing
convention C(a, b) = 0 for b < 0 or b > a.  Negative upper arguments are
rejected because no caller has a meaning for them.  Rows and columns of
Pascal's triangle are built by the exact one-step recurrences of Graham,
Knuth and Patashnik, Concrete Mathematics, ch. 5.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate


def binom(a: int, b: int) -> int:
    """Binomial coefficient with the vanishing convention."""
    if a < 0:
        raise ValueError(f"binomial upper argument must be nonnegative, got {a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


@lru_cache(maxsize=4)
def pascal_row(a: int) -> tuple[int, ...]:
    """C(a, b) for b = 0..a, by C(a, b) = C(a, b-1) (a-b+1) / b."""
    if a < 0:
        raise ValueError(f"binomial upper argument must be nonnegative, got {a}")
    row = [1]
    for b in range(1, a + 1):
        row.append(row[-1] * (a - b + 1) // b)
    return tuple(row)


@lru_cache(maxsize=4)
def _column_store(k: int) -> list[tuple[int, ...]]:
    """One slot holding the longest column k computed so far."""
    return [(1,)]


def pascal_column(k: int, top: int) -> tuple[int, ...]:
    """Entry i is C(k+i, k), for i = 0 .. top-k at least.

    The column is grown on demand by C(k+i, k) = C(k+i-1, k) (k+i) / i, at
    least doubling its length, and cached for a few k.  Growing builds a new
    tuple, so a tuple once returned never changes.
    """
    if k < 0:
        raise ValueError(f"binomial lower argument must be nonnegative, got {k}")
    store = _column_store(k)
    col = store[0]
    if top - k >= len(col):
        entries = list(col)
        for i in range(len(col), max(top - k + 1, 2 * len(col))):
            entries.append(entries[-1] * (k + i) // i)
        store[0] = col = tuple(entries)
    return col


def dim_forms(nvars: int, degree: int) -> int:
    """Dimension of the space of homogeneous forms of a given degree.

    Zero for negative degree, which lets callers sum over shifted degrees
    without special-casing.
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        return 0
    return math.comb(degree + nvars - 1, nvars - 1)


def multinomial(exponents: tuple[int, ...]) -> int:
    """Multinomial coefficient (sum a_i)! / prod(a_i!)."""
    if any(a < 0 for a in exponents):
        raise ValueError("exponents must be nonnegative")
    total = sum(exponents)
    out = math.factorial(total)
    for a in exponents:
        out //= math.factorial(a)
    return out


@lru_cache(maxsize=None)
def ci_hilbert(n: int, d: int) -> tuple[int, ...]:
    """Coefficients of (1 + u + ... + u^{d-1})^n, degrees 0 .. n(d-1).

    This is the Hilbert function of a quotient by a length-n regular
    sequence of degree-d forms in n variables; the entries sum to d^n.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    coeffs = [1]
    for _ in range(n):
        # Times 1 + u + ... + u^{d-1}: entry i is the sum of the window
        # coeffs[i-d+1 .. i], a difference of two prefix sums.
        run = [0, *accumulate(coeffs + [0] * (d - 1))]
        coeffs = [run[i + 1] - run[max(i + 1 - d, 0)] for i in range(len(run) - 1)]
    assert sum(coeffs) == d**n
    return tuple(coeffs)


def tangent_band_sum(n: int, d: int, first_m: int) -> int:
    """Sum of (-1)^{m-1} (m-1) C(n+1, m) C(nd-md-1, n-1) over the m-band
    first_m <= m <= n(d-1)/d.

    From m = 0 it is the tangent count N = Kn - n^2 + 1; from m = 3 it is
    the relation space dimension.
    """
    total = 0
    for m in range(first_m, n * (d - 1) // d + 1):
        term = (m - 1) * binom(n + 1, m) * binom(n * d - m * d - 1, n - 1)
        total += term if m % 2 else -term
    return total
