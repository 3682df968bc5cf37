"""poly's product kernel against the per-term oracle in poly_reference.

The kernel multiplies coefficient arrays in int64 when a bound proven per
call is below 2^63 and on Python ints otherwise; the random inputs draw
coefficients on both sides of that rule, and the examples sit on its edge.
Power products are read through the substitution routine, _substituted,
with one unit coefficient row per exponent, so that its bound is the one
under test; its power rows (_power_rows) are checked row by row against the
parent row that forms them.
"""
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar import Polynomial, monomial_basis
from apolar.poly import (
    _graded,
    _integer_det,
    _integer_products,
    _power_rows,
    _row_terms,
    _substituted,
    _terms,
    _times,
)
from poly_reference import add_product, integer_det, integer_power_products, nonzero

# Small coefficients keep a product in int64; 40-bit ones push most
# products, determinants and powers past 2^63, onto Python ints.
COEFFS = st.one_of(st.integers(-9, 9), st.integers(-(2**40), 2**40))


def power_products(bases, exponents, nvars):
    """prod_i bases[i]^e_i for each exponent tuple e: the unit row of x^e
    substituted at the bases, one coefficient row per exponent."""
    count = len(bases)
    rows = {
        t: [[int(b == e) for b in monomial_basis(count, t)] for e in exponents]
        for t in {sum(e) for e in exponents}
    }
    out = _substituted(rows, bases, nvars)
    return [_row_terms(out, j, nvars) for j in range(len(exponents))]


@st.composite
def integer_polys(draw, nvars, count, coeffs=COEFFS):
    """`count` integer polynomials of degree at most 6 in nvars variables,
    all homogeneous or all free to mix degrees."""
    homogeneous = draw(st.booleans())
    out = []
    for _ in range(count):
        top = draw(st.integers(0, 6))
        degrees = [top] if homogeneous else range(top + 1)
        monos = st.sampled_from([m for e in degrees for m in monomial_basis(nvars, e)])
        out.append(draw(st.dictionaries(monos, coeffs, max_size=6)))
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_integer_products_match_the_oracle(data):
    nvars = data.draw(st.integers(1, 4))
    count = data.draw(st.integers(1, 3))
    pairs = [tuple(data.draw(integer_polys(nvars, 2))) for _ in range(count)]
    got = _integer_products(pairs, nvars)
    assert [nonzero(p) for p in got] == [nonzero(add_product({}, p, q)) for p, q in pairs]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_polynomial_product_matches_the_oracle(data):
    nvars = data.draw(st.integers(1, 4))
    fractions = st.builds(Fraction, COEFFS, st.integers(1, 60))
    p, q = (Polynomial(nvars, t) for t in data.draw(integer_polys(nvars, 2, fractions)))
    pairs = [(tuple(map(add, m1, m2)), c1 * c2) for m1, c1 in p.terms() for m2, c2 in q.terms()]
    assert p * q == Polynomial(nvars, pairs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_det_matches_the_oracle(data):
    nvars = data.draw(st.integers(1, 4))
    size = data.draw(st.integers(1, 3))
    entries = data.draw(integer_polys(nvars, size * size))
    mat = [entries[r * size : (r + 1) * size] for r in range(size)]
    assert nonzero(_integer_det(mat, nvars)) == nonzero(integer_det(mat, nvars))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_power_products_match_the_oracle(data):
    nvars = data.draw(st.integers(1, 4))
    count = data.draw(st.integers(1, 3))
    bases = data.draw(integer_polys(nvars, count))
    exponent = st.tuples(*[st.integers(0, 3)] * count)
    exponents = data.draw(st.lists(exponent, min_size=1, max_size=4, unique=True))
    got = power_products(bases, exponents, nvars)
    want = integer_power_products(bases, exponents, nvars)
    assert [nonzero(p) for p in got] == [nonzero(p) for p in want]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_each_power_row_is_its_parent_row_times_its_image(data):
    """Row x^e of the degree-t power rows is the row of x^e / x_i times G_i,
    i the first variable of x^e, the parent read here from the grlex index
    and multiplied row by row on Python ints."""
    nvars = data.draw(st.integers(1, 3))
    count = data.draw(st.integers(1, 3))
    images = data.draw(integer_polys(nvars, count))
    top = data.draw(st.integers(0, 4))
    stacks = _power_rows(images, top, nvars, object)
    assert [_row_terms(stacks[0], 0, nvars)] == [{(0,) * nvars: 1}]
    for t in range(1, top + 1):
        parents = {m: j for j, m in enumerate(monomial_basis(count, t - 1))}
        for j, e in enumerate(monomial_basis(count, t)):
            i = next(k for k, x in enumerate(e) if x)
            parent = parents[e[:i] + (e[i] - 1,) + e[i + 1 :]]
            row = {k: a[parent] for k, a in stacks[t - 1].items()}
            want = _times(row, _graded(images[i], nvars, object), nvars)
            assert nonzero(_row_terms(stacks[t], j, nvars)) == nonzero(_terms(want, nvars))


# At a bound of 2^63 - 1 the kernel runs in int64, which holds it exactly;
# at 2^63 it must run on Python ints, and a bound read too low would wrap.
EDGE = 2**63


@pytest.mark.parametrize("nvars", [1, 2])
@pytest.mark.parametrize(
    "p, q",
    [
        ({1: EDGE - 1}, {0: 1}),
        ({1: -(EDGE - 1)}, {1: 1}),
        ({1: 2**32}, {1: 2**31}),
        ({1: -(2**32)}, {1: 2**31}),
        # The middle coefficient reaches 2^63 as a sum of two products.
        ({1: 2**31, 0: 2**31}, {1: 2**31, 0: 2**31}),
    ],
    ids=["max-int64", "min-int64", "2^63", "-2^63", "sum-2^63"],
)
def test_products_at_the_int64_edge(nvars, p, q):
    # Keys are the degree in the first variable.
    def in_nvars(terms):
        return {(e,) + (0,) * (nvars - 1): c for e, c in terms.items()}

    p, q = in_nvars(p), in_nvars(q)
    assert [nonzero(r) for r in _integer_products([(p, q)], nvars)] == [add_product({}, p, q)]


@pytest.mark.parametrize(
    "mat",
    [
        [[{(0, 1): EDGE - 1}]],
        [[{(2, 0): EDGE}]],
        [[{(1, 0): 2**32}, {}], [{}, {(0, 1): 2**31}]],
        [[{}, {(1, 0): 2**32}], [{(0, 1): 2**31}, {}]],
        [[{(1, 0): 3}, {(0, 1): 1}], [{}, {}]],
    ],
    ids=["max-int64", "2^63", "diagonal-2^63", "antidiagonal-minus-2^63", "zero-row"],
)
def test_integer_det_at_the_int64_edge(mat):
    assert nonzero(_integer_det(mat, 2)) == nonzero(integer_det(mat, 2))


@pytest.mark.parametrize(
    "bases, exponents",
    [
        ([{(1,): EDGE - 1}], [(1,)]),
        ([{(1,): 2**21}], [(3,), (2,)]),
        ([{(1,): -(2**21)}], [(3,)]),
        # A zero base costs no factor in the bound of the powers beside it.
        ([{}, {(1,): 2**21}], [(1, 0), (0, 3)]),
        ([{}, {(1,): 2**21}], [(1, 3), (0, 3)]),
        # A base no exponent uses need not fit in int64.
        ([{(1,): 2**80}, {(1,): 3}], [(0, 2)]),
    ],
    ids=["max-int64", "2^63", "-2^63", "zero-base", "zero-base-factor", "unused-base"],
)
def test_power_products_at_the_int64_edge(bases, exponents):
    got = power_products(bases, exponents, 1)
    want = integer_power_products(bases, exponents, 1)
    assert [nonzero(p) for p in got] == [nonzero(p) for p in want]


def test_one_variable_products_are_the_univariate_ones():
    # (1 + x)^2 (1 - x) = 1 + x - x^2 - x^3, through both entry points.
    one_plus, one_minus = {(0,): 1, (1,): 1}, {(0,): 1, (1,): -1}
    (square,) = power_products([one_plus], [(2,)], 1)
    assert nonzero(_integer_products([(square, one_minus)], 1)[0]) == {
        (0,): 1,
        (1,): 1,
        (2,): -1,
        (3,): -1,
    }


@pytest.mark.parametrize(
    "coeffs, image",
    [
        # ||c||_1 M = 2^63 - 1: int64 holds the sum exactly.
        ((2**62, 2**62 - 1), 1),
        # Each coefficient fits in int64, their sum does not: ||c||_1 M = 2^63.
        ((2**62 + 1, 2**62 - 1), 1),
        ((-(2**62) - 1, -(2**62)), 1),
        # The image norm M fits, and so does each coefficient; ||c||_1 M does not.
        ((1, 1), 2**62),
        ((2**31, 2**31 - 1), 2**32),
    ],
    ids=["max-int64", "2^63", "-2^63-1", "twice-image", "norm-times-image"],
)
def test_substitution_at_the_int64_edge(coeffs, image):
    # c1 x1 + c2 x2 with both variables sent to image * y.
    out = _substituted({1: [list(coeffs)]}, [{(1,): image}] * 2, 1)
    assert _row_terms(out, 0, 1) == {(1,): sum(coeffs) * image}
