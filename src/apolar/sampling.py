"""Seeded random generation of forms and complete intersection tuples.

splitmix64 drives everything: tiny, stable across platforms, and good enough
for rejection sampling over a Zariski-open condition, which succeeds on
essentially every draw.  All sampling is deterministic in the seed.
"""
from __future__ import annotations

from .linalg import MatrixQ, determinant
from .poly import FormTuple, Polynomial, monomial_basis

_MASK64 = (1 << 64) - 1
# A random integer matrix is singular with probability at most about 1/2
# even at coeff_bound 1, so this many singular draws in a row means the
# determinant test is broken, not unlucky.
_INVERTIBLE_ATTEMPTS = 64
# Tuples that are not complete intersections lie on the resultant
# hypersurface.  At coeff_bound 1 about a third of the draws at (n, d) = (2, 2)
# land there, and fewer at larger n and d (0.17 at (3, 3), over 150 seeds), so
# this many in a row, odds below 1e-29, means the check is broken.
_CI_ATTEMPTS = 64


class SplitMix64:
    """The splitmix64 generator (Steele-Lea-Vigna constants)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, m: int) -> int:
        """Unbiased uniform integer in [0, m), by rejection; m is at most
        2^64, the span of one draw."""
        if m <= 0:
            raise ValueError("need a positive range")
        if m > 1 << 64:
            raise ValueError(f"range of {m} values exceeds one 64-bit draw")
        limit = (1 << 64) // m * m
        while True:
            u = self.next_u64()
            if u < limit:
                return u % m

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)


class SamplingError(RuntimeError):
    """Rejection sampling exhausted its attempt budget."""


def random_form(nvars: int, degree: int, stream: SplitMix64, coeff_bound: int) -> Polynomial:
    """Form with integer coefficients uniform in [-coeff_bound, coeff_bound]."""
    terms = {}
    for mono in monomial_basis(nvars, degree):
        c = stream.randint(-coeff_bound, coeff_bound)
        if c:
            terms[mono] = c
    return Polynomial(nvars, terms)


def random_ci_tuple(n: int, d: int, seed: int, coeff_bound: int = 5) -> FormTuple:
    """Rejection-sample a complete intersection tuple, deterministically.

    Every attempt draws all n coefficient vectors before testing, so the
    stream position, and hence the result, depends only on the seed.
    """
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be at least 1")
    stream = SplitMix64(seed)
    for _ in range(_CI_ATTEMPTS):
        forms = [random_form(n, d, stream, coeff_bound) for _ in range(n)]
        if any(f.is_zero for f in forms):
            continue
        candidate = FormTuple(n, d, tuple(forms))
        if candidate.quotient.is_complete_intersection():
            return candidate
    raise SamplingError(
        f"no complete intersection in {_CI_ATTEMPTS} attempts for n={n} d={d} "
        f"coeff_bound={coeff_bound}; raise --coeff-bound"
    )


def random_invertible_matrix(n: int, stream: SplitMix64, coeff_bound: int = 3) -> MatrixQ:
    """Integer matrix with nonzero determinant, entries in [-bound, bound]."""
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be at least 1")
    for _ in range(_INVERTIBLE_ATTEMPTS):
        rows = [[stream.randint(-coeff_bound, coeff_bound) for _ in range(n)] for _ in range(n)]
        if determinant(rows):
            return MatrixQ.from_rows(rows)
    raise SamplingError(
        f"no invertible {n}x{n} matrix in {_INVERTIBLE_ATTEMPTS} attempts "
        f"with coeff_bound={coeff_bound}"
    )
