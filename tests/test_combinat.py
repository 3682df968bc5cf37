from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from apolar import binom, ci_hilbert, dim_forms, multinomial
from apolar.combinat import _column_store, pascal_column, pascal_row


def test_binom_small_values():
    assert binom(5, 2) == 10
    assert binom(7, 0) == 1
    assert binom(0, 0) == 1


def test_binom_vanishing_convention():
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0


def test_binom_rejects_negative_top():
    with pytest.raises(ValueError):
        binom(-1, 0)


@given(st.integers(0, 60), st.integers(-5, 65))
def test_binom_matches_math_comb(a, b):
    expected = comb(a, b) if 0 <= b <= a else 0
    assert binom(a, b) == expected


@given(st.integers(0, 80))
def test_pascal_row_matches_math_comb(a):
    assert pascal_row(a) == tuple(comb(a, b) for b in range(a + 1))


@given(st.integers(0, 40), st.integers(-5, 300))
@example(0, 0)
@example(0, 50)
@example(7, 3)
def test_pascal_column_matches_math_comb(k, top):
    # top < k asks for no entry; the column still starts at C(k, k) = 1.
    col = pascal_column(k, top)
    assert len(col) >= max(1, top - k + 1)
    assert col == tuple(comb(k + i, k) for i in range(len(col)))


def test_pascal_helpers_reject_negative_arguments():
    with pytest.raises(ValueError):
        pascal_row(-1)
    with pytest.raises(ValueError):
        pascal_column(-1, 5)


@given(st.integers(0, 30), st.lists(st.integers(0, 400), min_size=1, max_size=6))
def test_column_grown_in_steps_equals_one_grown_at_once(k, tops):
    _column_store.cache_clear()
    for top in tops:
        stepped = pascal_column(k, top)
    _column_store.cache_clear()
    at_once = pascal_column(k, max(tops))
    shared = min(len(stepped), len(at_once))
    assert shared >= max(tops) - k + 1
    assert stepped[:shared] == at_once[:shared]


def test_evicted_column_regrows_unchanged():
    before = pascal_column(5, 200)
    store = _column_store(5)
    for k in range(6, 7 + _column_store.cache_info().maxsize):
        pascal_column(k, 10)
    assert _column_store(5) is not store
    again = pascal_column(5, 200)
    assert again is not before
    assert again[:196] == before[:196]


def test_returned_rows_and_columns_never_change():
    row = pascal_row(6)
    short = pascal_column(3, 10)
    snapshot = tuple(short)
    with pytest.raises(TypeError):
        row[1] = 0
    with pytest.raises(TypeError):
        short[1] = 0
    longer = pascal_column(3, 10 + 4 * len(short))
    assert short == snapshot
    assert longer[: len(short)] == short
    assert pascal_row(6) == (1, 6, 15, 20, 15, 6, 1)


def test_dim_forms():
    assert dim_forms(2, 3) == 4
    assert dim_forms(3, 2) == 6
    assert dim_forms(4, 8) == 165
    assert dim_forms(3, 0) == 1
    assert dim_forms(3, -2) == 0


def test_multinomial():
    assert multinomial((2, 0, 0)) == 1
    assert multinomial((1, 1)) == 2
    assert multinomial((2, 1, 1)) == 12


def test_ci_hilbert_small_cases():
    assert ci_hilbert(2, 2) == (1, 2, 1)
    assert ci_hilbert(2, 3) == (1, 2, 3, 2, 1)
    assert ci_hilbert(3, 2) == (1, 3, 3, 1)
    assert ci_hilbert(3, 3) == (1, 3, 6, 7, 6, 3, 1)


@given(st.integers(2, 5), st.integers(2, 5))
def test_ci_hilbert_shape(n, d):
    hf = ci_hilbert(n, d)
    assert len(hf) == n * (d - 1) + 1
    assert hf[0] == 1 and hf[-1] == 1
    assert hf[1] == n
    assert hf == hf[::-1]
    assert sum(hf) == d**n


@given(st.integers(1, 8), st.integers(1, 8))
def test_ci_hilbert_is_the_inclusion_exclusion_count(n, d):
    # The coefficient of u^j in ((1 - u^d) / (1 - u))^n.
    def h(j):
        terms = (comb(n, k) * comb(j - k * d + n - 1, n - 1) for k in range(j // d + 1))
        return sum(-t if k % 2 else t for k, t in enumerate(terms))

    assert ci_hilbert(n, d) == tuple(h(j) for j in range(n * (d - 1) + 1))
