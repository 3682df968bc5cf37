from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apolar import (
    MatrixQ,
    SubspaceBasis,
    block_solve,
    determinant,
    kernel_basis,
    linalg,
    matrix_inverse,
    rank,
    span_dim,
)
from apolar.linalg import EXACT_MAX_ENTRIES, PRIME, rank_mod_prime


def test_kernel_of_single_row():
    basis = kernel_basis([[2, 0, 2]])
    assert basis.vectors == ((0, 1, 0), (-1, 0, 1))


def test_kernel_of_full_rank_matrix_is_empty():
    basis = kernel_basis([[1, 0], [0, 1]])
    assert basis.dimension == 0
    assert basis.ambient_dim == 2


def test_kernel_vectors_are_reduced_echelon():
    # Two free columns; each kernel vector carries a unit in its own free
    # position and a zero in the other one.
    m = [[1, 2, 0, 1], [0, 0, 1, 3]]
    basis = kernel_basis(m)
    assert basis.vectors == ((-2, 1, 0, 0), (-1, 0, -3, 1))


def test_rank_values():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 2], [3, 4]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([]) == 0


def test_rank_handles_fractions():
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]]) == 2
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]) == 1


def test_block_solve_and_inverse():
    a = [[2, 0], [0, 4]]
    b = [[2], [4]]
    assert block_solve(a, b).entries == ((Fraction(-1),), (Fraction(-1),))
    inv = matrix_inverse(MatrixQ.from_rows([[2, 1], [1, 1]]))
    assert inv.entries == ((1, -1), (-1, 2))


def test_block_solve_rejects_singular():
    with pytest.raises(ValueError):
        block_solve([[1, 1], [1, 1]], [[1], [1]])


def test_determinant_values():
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert determinant([[1, 2], [2, 4]]) == 0


def test_subspace_from_spanning_is_canonical():
    a = SubspaceBasis.from_spanning([[2, 4, 0], [1, 2, 1]], 3)
    b = SubspaceBasis.from_spanning([[3, 6, 7], [0, 0, -2], [3, 6, 5]], 3)
    assert a.same_span(b)
    assert a.vectors == b.vectors
    assert a.dimension == 2


def test_subspace_contains():
    basis = SubspaceBasis.from_spanning([[1, 0, 1], [0, 1, 0]], 3)
    assert basis.contains([2, 3, 2])
    assert not basis.contains([1, 0, 0])


def test_zero_dimensional_subspace():
    empty = SubspaceBasis.from_spanning([], 3)
    assert empty.dimension == 0
    assert empty.contains([0, 0, 0])
    assert not empty.contains([0, Fraction(1, 2), 0])
    assert SubspaceBasis(0, ()).contains([])
    assert empty.same_span(SubspaceBasis.from_spanning([[0, 0, 0]], 3))
    assert not empty.same_span(SubspaceBasis.from_spanning([[1, 0, 0]], 3))


def test_span_dim_of_no_vectors_is_zero():
    assert span_dim([]) == 0


def test_from_spanning_rejects_a_short_row():
    with pytest.raises(ValueError, match="ambient dimension"):
        SubspaceBasis.from_spanning([[1, 0, 0], [0, 1]], 3)


@pytest.mark.parametrize(
    "call, args",
    [
        (rank, ([[1, 2], [3]],)),
        (rank, ([[], [1]],)),
        (kernel_basis, ([[1, 2], [3]],)),
        (span_dim, ([[1, 2], [3]],)),
        (block_solve, ([[1, 0], [0, 1]], [[1, 2], [3]])),
        (matrix_inverse, ([[1, 0], [0]],)),
    ],
)
def test_ragged_rows_are_rejected_where_they_enter(call, args):
    with pytest.raises(ValueError, match="rows have mismatched lengths"):
        call(*args)


small_int = st.integers(-7, 7)


@st.composite
def int_matrix(draw, max_side=5):
    nrows = draw(st.integers(1, max_side))
    ncols = draw(st.integers(1, max_side))
    rows = draw(
        st.lists(
            st.lists(small_int, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return rows


@given(int_matrix())
def test_rank_plus_nullity_is_column_count(m):
    basis = kernel_basis(m)
    assert rank(m) + basis.dimension == len(m[0])


@given(int_matrix())
def test_kernel_vectors_are_annihilated(m):
    basis = kernel_basis(m)
    for v in basis.vectors:
        for row in m:
            assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


@given(int_matrix())
def test_rank_equals_transpose_rank(m):
    mat = MatrixQ.from_rows(m)
    assert rank(mat) == rank(mat.transpose())


@given(int_matrix())
def test_span_dim_is_scaling_invariant(m):
    scaled = [[3 * v for v in row] for row in m]
    assert span_dim(m) == span_dim(scaled)


@given(int_matrix(max_side=4), int_matrix(max_side=4))
def test_determinant_is_multiplicative(a, b):
    n = min(len(a), len(a[0]), len(b), len(b[0]))
    sq_a = MatrixQ.from_rows([row[:n] for row in a[:n]])
    sq_b = MatrixQ.from_rows([row[:n] for row in b[:n]])
    lhs = determinant(sq_a.matmul(sq_b))
    assert lhs == determinant(sq_a) * determinant(sq_b)


@given(int_matrix(max_side=4))
@settings(deadline=None)
def test_inverse_multiplies_to_identity(m):
    n = min(len(m), len(m[0]))
    sq = MatrixQ.from_rows([row[:n] for row in m[:n]])
    if determinant(sq) == 0:
        with pytest.raises(ValueError):
            matrix_inverse(sq)
    else:
        assert matrix_inverse(sq).matmul(sq).entries == MatrixQ.identity(n).entries


@given(int_matrix())
def test_modular_rank_never_exceeds_exact_rank(m):
    assert rank_mod_prime(m) <= rank(m)


def test_modular_rank_sees_characteristic_drop():
    p = PRIME
    assert rank_mod_prime([[p]]) == 0
    assert rank([[p]]) == 1


small_fraction = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def square_fraction_matrix(draw, max_side=4):
    n = draw(st.integers(1, max_side))
    return draw(
        st.lists(
            st.lists(small_fraction, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])


def from_sympy(m) -> tuple:
    return tuple(
        tuple(Fraction(int(m[i, j].p), int(m[i, j].q)) for j in range(m.cols))
        for i in range(m.rows)
    )


@given(square_fraction_matrix())
@example([[0, 1], [1, 0]])
@example([[0, 0, 2], [0, 3, 1], [5, 1, 1]])
@settings(deadline=None)
def test_determinant_matches_sympy(m):
    ref = sympy_matrix(m).det()
    assert determinant(m) == Fraction(int(ref.p), int(ref.q))


@given(square_fraction_matrix())
@settings(deadline=None)
def test_inverse_matches_sympy(m):
    ref = sympy_matrix(m)
    if ref.det() == 0:
        with pytest.raises(ValueError):
            matrix_inverse(m)
    else:
        assert matrix_inverse(m).entries == from_sympy(ref.inv())


@given(square_fraction_matrix(), st.integers(0, 3), st.data())
@settings(deadline=None)
def test_block_solve_matches_sympy(a, width, data):
    b = [data.draw(st.lists(small_fraction, min_size=width, max_size=width)) for _ in a]
    ref = sympy_matrix(a)
    if ref.det() == 0:
        with pytest.raises(ValueError):
            block_solve(a, b)
    else:
        expected = -ref.inv() * sympy.Matrix(len(a), width, [
            sympy.Rational(x.numerator, x.denominator) for row in b for x in row
        ])
        assert block_solve(a, b).entries == from_sympy(expected)


@st.composite
def matrices_around_the_cutoff(draw, max_side=14):
    """Products B C of integer matrices of full or lower rank, up to 196
    entries: below the cutoff of 100 Bareiss reads them, above it the
    modular route."""
    side = st.integers(1, max_side)
    nrows, ncols = draw(side), draw(side)
    inner = draw(st.integers(1, min(nrows, ncols)))
    entry = st.integers(-9, 9)
    b = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner), min_size=nrows,
                      max_size=nrows))
    c = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=inner,
                      max_size=inner))
    return [[sum(x * y for x, y in zip(r, col)) for col in zip(*c)] for r in b]


@given(matrices_around_the_cutoff())
@example([[i + j for j in range(10)] for i in range(10)])
@example([list(range(1, EXACT_MAX_ENTRIES + 1))])
@example([list(range(1, EXACT_MAX_ENTRIES + 2))])
@settings(deadline=None, max_examples=60)
def test_rank_and_bases_match_sympy_at_the_default_cutoff(m):
    ref = sympy_matrix(m)
    assert rank(m) == ref.rank()
    nullspace = tuple(tuple(Fraction(int(x.p), int(x.q)) for x in v) for v in ref.nullspace())
    assert kernel_basis(m).vectors == nullspace
    reduced, pivots = ref.rref()
    assert SubspaceBasis.from_spanning(m, len(m[0])).vectors == from_sympy(
        reduced[: len(pivots), :]
    )


def test_mpz_names_the_only_big_integer_type():
    # bench/run.py:93 records the benchmark's `bigint` field from this name.
    assert linalg.mpz is int
