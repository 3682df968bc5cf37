"""The certified modular route of linalg.rank and linalg.kernel_basis,
checked against the Bareiss core and against sympy, including the cases
where the certificate must fail and the exact fallback must answer."""
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import apolar.linalg as linalg
from apolar import SplitMix64, kernel_basis, random_ci_tuple, rank
from apolar.ci import _shift_rows
from apolar.linalg import (
    PRIMES,
    _exact_kernel_basis,
    _integer_rows,
    _modular_kernel,
    _triangularize,
    _verify_kernel,
)

P = PRIMES[0]

small_int = st.integers(-7, 7)
# Entries that vanish or coincide mod 2^31 - 1 make the first prime unlucky.
unlucky_int = st.one_of(small_int, st.sampled_from([P, -P, 2 * P, P + 1, P - 1]))
small_fraction = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))


@st.composite
def matrices(draw, entries, max_side=6):
    nrows = draw(st.integers(1, max_side))
    ncols = draw(st.integers(1, max_side))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows))


@st.composite
def low_rank_matrices(draw, max_side=7, max_entry=7):
    """B * C with an inner dimension below both sides, so the kernels on
    both sides are nonzero and the modular kernel route is exercised."""
    nrows = draw(st.integers(2, max_side))
    ncols = draw(st.integers(2, max_side))
    inner = draw(st.integers(1, min(nrows, ncols) - 1))
    entry = st.integers(-max_entry, max_entry)
    b = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner), min_size=nrows,
                      max_size=nrows))
    c = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=inner,
                      max_size=inner))
    return [[sum(x * y for x, y in zip(r, col)) for col in zip(*c)] for r in b]


def sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(Fraction(x)) for x in r] for r in rows])


def sympy_nullspace(rows) -> tuple:
    return tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in v) for v in sympy_matrix(rows).nullspace()
    )


def bareiss_rank(rows) -> int:
    return len(_triangularize(_integer_rows(rows), len(rows[0])))


def check_against_oracles(m):
    assert rank(m) == bareiss_rank(m) == sympy_matrix(m).rank()
    vectors = kernel_basis(m).vectors
    assert vectors == _exact_kernel_basis(m).vectors == sympy_nullspace(m)


@given(matrices(small_int))
@example([[P, 1], [0, 1]])
@example([[1, 1, 0], [0, P, 1]])
@settings(deadline=None)
def test_integer_matrices_match_bareiss_and_sympy(m):
    check_against_oracles(m)


@given(matrices(small_fraction, max_side=5))
@settings(deadline=None)
def test_rational_matrices_match_bareiss_and_sympy(m):
    check_against_oracles(m)


@given(low_rank_matrices())
@settings(deadline=None)
def test_rank_deficient_matrices_match_bareiss_and_sympy(m):
    check_against_oracles(m)


@given(low_rank_matrices(max_side=5, max_entry=2**24))
@settings(deadline=None, max_examples=50)
def test_wide_entries_match_bareiss_and_sympy(m):
    # Kernel entries of up to about a hundred bits: some need two or three
    # primes, some are out of reach and fall back.
    check_against_oracles(m)


@given(matrices(unlucky_int, max_side=5))
@settings(deadline=None)
def test_unlucky_prime_entries_match_bareiss_and_sympy(m):
    check_against_oracles(m)


@pytest.fixture
def paths(monkeypatch):
    """Records, in order, each modular kernel attempt (certified or not) and
    each Bareiss elimination made through the linalg module."""
    seen = []
    modular, bareiss = linalg._modular_kernel, linalg._triangularize

    def spy_modular(*args):
        vectors = modular(*args)
        seen.append("certified" if vectors is not None else "uncertified")
        return vectors

    def spy_bareiss(*args):
        seen.append("bareiss")
        return bareiss(*args)

    monkeypatch.setattr(linalg, "_modular_kernel", spy_modular)
    monkeypatch.setattr(linalg, "_triangularize", spy_bareiss)
    return seen


def test_full_rank_mod_p_needs_no_kernel(paths):
    assert rank([[1, 2, 3], [4, 5, 7]]) == 2
    assert paths == []


def test_rank_drop_mod_p_is_certified_by_a_later_prime(paths):
    # Mod 2^31 - 1 both rows end in the same residues, so that prime sees
    # rank 1; the next prime sees rank 2 and certifies an empty left kernel.
    assert rank([[P, 1], [0, 1]]) == 2
    assert paths == ["certified"]


def test_rank_drop_mod_p_with_unreconstructible_kernel_falls_back(paths):
    # The left kernel is spanned by (1/p, -1/p, 1): a denominator past what
    # every prime and the product of the last two can reconstruct.
    m = [[1, 0, 0], [1, P, 0], [0, 1, 0]]
    assert rank(m) == 2 == sympy_matrix(m).rank()
    assert paths == ["uncertified", "bareiss"]


def test_kernel_with_shifted_pivots_mod_p_falls_back(paths):
    # Mod 2^31 - 1 the pivot columns are 0 and 2; over the rationals they are
    # 0 and 1, and the kernel vector carries 1/(2^31 - 1).
    m = [[1, 1, 0], [0, P, 1]]
    vectors = kernel_basis(m).vectors
    assert vectors == ((Fraction(1, P), Fraction(-1, P), Fraction(1)),) == sympy_nullspace(m)
    assert paths == ["uncertified", "bareiss"]


def test_kernel_after_rank_drop_mod_p_is_certified(paths):
    m = [[1, 0, 1], [1, P, 1 + P]]
    assert kernel_basis(m).vectors == ((-1, -1, 1),) == sympy_nullspace(m)
    assert paths == ["certified"]


def test_prime_that_loses_pivots_is_skipped(paths):
    # Both rows agree mod the second prime, so it sees rank 1 and is left
    # out of the lift.  The kernel entry -(x + 1), about 2^20, is past what
    # one prime can reconstruct (about 2^15) and needs the first and third
    # primes together.
    q, x = PRIMES[1], 2**20 + 7
    m = [[1, 1, x], [1, 1 + q, x - q]]
    assert kernel_basis(m).vectors == ((-(x + 1), 1, 1),) == sympy_nullspace(m)
    assert paths == ["certified"]


def test_socle_kernel_is_too_wide_for_the_primes():
    # The (3,5) socle functional: about two hundred bits per entry.
    f = random_ci_tuple(3, 5, SplitMix64(11).next_u64())
    rows = _shift_rows(f.forms, f.socle_degree - f.degree)
    assert _modular_kernel(rows, len(rows[0])) is None
    exact = _exact_kernel_basis(rows)
    assert exact.dimension == 1
    assert max(abs(x.numerator).bit_length() for x in exact.vectors[0]) > 100
    assert kernel_basis(rows).vectors == exact.vectors


def test_verify_kernel_accepts_the_reduced_echelon_basis():
    rows = [[1, 1, 0]]
    assert _verify_kernel(rows, 3, [0], [(-1, 1, 0), (0, 0, 1)])


def test_verify_kernel_rejects_support_right_of_the_free_column():
    # A true kernel basis, but for the wrong pivot column: (1, -1, 0) has its
    # pivot entry right of its free column 0, so column 1 is not shown to
    # depend on earlier columns.
    rows = [[1, 1, 0]]
    assert not _verify_kernel(rows, 3, [1], [(1, -1, 0), (0, 0, 1)])


def test_verify_kernel_rejects_a_vector_outside_the_kernel():
    assert not _verify_kernel([[1, 2]], 2, [0], [(Fraction(-1), Fraction(1))])
    assert _verify_kernel([[1, 2]], 2, [0], [(Fraction(-2), Fraction(1))])


def test_verify_kernel_rejects_a_wrong_count():
    assert not _verify_kernel([[1, 2, 0]], 3, [0], [(-2, 1, 0)])
