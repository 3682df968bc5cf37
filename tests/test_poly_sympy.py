"""Polynomial arithmetic against sympy 1.14 as an independent engine.

Every operation that hands the Polynomial constructor raw (monomial,
coefficient) pairs is checked here on inputs with repeated monomials and
exact cancellations, by comparing the resulting terms with sympy's
Poly.as_dict().  partial is checked against sympy's diff.  The GL action act_gl is checked against sympy's own
matrix inverse and simultaneous substitution, on random draws and on inputs
that reach each dtype of its integer kernels, and jacobian_det against
sympy's Jacobian determinant on tuples that act_gl has moved.
"""
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar import (
    FormTuple,
    MatrixQ,
    Polynomial,
    act_gl,
    apply_polar,
    jacobian_det,
    monomial_basis,
    parse_polynomial,
    partial,
    poly,
    substitute,
)

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7)
nvars_st = st.integers(min_value=1, max_value=3)
# sympy is slow enough per example to trip hypothesis's default deadline.
oracle = settings(max_examples=60, deadline=None)


def gens(nvars):
    return sympy.symbols(f"x1:{nvars + 1}")


def monomials(nvars):
    return st.sampled_from([m for k in range(4) for m in monomial_basis(nvars, k)])


@st.composite
def pair_lists(draw, nvars):
    """Raw pairs of degree at most 3, some monomials repeated and some
    pairs followed somewhere by their exact negatives."""
    pairs = draw(st.lists(st.tuples(monomials(nvars), coeffs), max_size=6))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
        pairs += [(m, -c) for m, c in draw(st.lists(st.sampled_from(pairs), max_size=3))]
    return draw(st.permutations(pairs))


def sympy_expr(nvars, pairs):
    xs = gens(nvars)
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**e for x, e in zip(xs, m)))
            for m, c in pairs
        )
    )


def sympy_terms(expr, nvars):
    """Poly.as_dict() of expr with Fraction values."""
    as_dict = sympy.Poly(sympy.expand(expr), *gens(nvars)).as_dict()
    return {m: Fraction(int(c.p), int(c.q)) for m, c in as_dict.items()}


def terms(p):
    return dict(p.terms())


@oracle
@given(st.data())
def test_constructor_merges_like_terms_as_sympy_does(data):
    nvars = data.draw(nvars_st)
    pairs = data.draw(pair_lists(nvars))
    p = Polynomial(nvars, pairs)
    assert terms(p) == sympy_terms(sympy_expr(nvars, pairs), nvars)
    assert p == Polynomial(nvars, reversed(pairs))
    assert all(c != 0 for _, c in p.terms())


def test_constructor_drops_exactly_cancelling_terms():
    pairs = [((1, 0), Fraction(1, 2)), ((0, 1), 3), ((1, 0), Fraction(-1, 2)), ((0, 1), -3)]
    assert Polynomial(2, pairs).is_zero
    assert sympy_terms(sympy_expr(2, pairs), 2) == {}


@oracle
@given(st.data())
def test_sum_difference_and_product_match_sympy(data):
    nvars = data.draw(nvars_st)
    u, v = data.draw(pair_lists(nvars)), data.draw(pair_lists(nvars))
    p, q = Polynomial(nvars, u), Polynomial(nvars, v)
    eu, ev = sympy_expr(nvars, u), sympy_expr(nvars, v)
    assert terms(p + q) == sympy_terms(eu + ev, nvars)
    assert terms(p - q) == sympy_terms(eu - ev, nvars)
    assert terms(p * q) == sympy_terms(eu * ev, nvars)


@oracle
@given(st.data())
def test_apply_polar_matches_sympy_derivatives(data):
    """h(d/dy) F: each term c * x^a of h differentiates F a_i times in y_i."""
    nvars = data.draw(nvars_st)
    h_pairs, f_pairs = data.draw(pair_lists(nvars)), data.draw(pair_lists(nvars))
    f_expr = sympy_expr(nvars, f_pairs)
    expected = sympy.Integer(0)
    for a, c in Polynomial(nvars, h_pairs).terms():
        orders = [(y, e) for y, e in zip(gens(nvars), a) if e]
        derivative = sympy.diff(f_expr, *orders) if orders else f_expr
        expected += sympy.Rational(c.numerator, c.denominator) * derivative
    got = apply_polar(Polynomial(nvars, h_pairs), Polynomial(nvars, f_pairs))
    assert terms(got) == sympy_terms(expected, nvars)


@oracle
@given(st.data())
def test_substitute_matches_simultaneous_sympy_subs(data):
    nvars = data.draw(nvars_st)
    out_nvars = data.draw(nvars_st)
    p_pairs = data.draw(pair_lists(nvars))
    image_pairs = [data.draw(pair_lists(out_nvars)) for _ in range(nvars)]
    images = [Polynomial(out_nvars, pairs) for pairs in image_pairs]
    # Both rings name their variables x1, x2, ..., so only a simultaneous
    # substitution keeps x1 -> (image with x2) from being rewritten again.
    expected = sympy_expr(nvars, p_pairs).subs(
        {x: sympy_expr(out_nvars, pairs) for x, pairs in zip(gens(nvars), image_pairs)},
        simultaneous=True,
    )
    got = substitute(Polynomial(nvars, p_pairs), images)
    assert terms(got) == sympy_terms(expected, out_nvars)


def invertible_matrices(n):
    square = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    return square.filter(lambda g: sympy.Matrix(g).det() != 0)


def sympy_linear_change(expr, nvars, g):
    """expr at x . g^{-T}: x_j -> sum_i (g^{-1})_{ji} x_i, all at once, with
    sympy's own inverse."""
    xs, inv = gens(nvars), sympy.Matrix(g).inv()
    images = {xs[j]: sum(inv[j, i] * xs[i] for i in range(nvars)) for j in range(nvars)}
    return expr.subs(images, simultaneous=True)


@oracle
@given(st.data())
def test_act_gl_on_a_form_matches_sympy(data):
    n = data.draw(st.integers(2, 3))
    g = data.draw(invertible_matrices(n))
    pairs = data.draw(pair_lists(n))
    got = act_gl(MatrixQ.from_rows(g), None, Polynomial(n, pairs))
    assert terms(got) == sympy_terms(sympy_linear_change(sympy_expr(n, pairs), n, g), n)


def sympy_moved_tuple(n, forms, g1, g2):
    """Each form moved by g1 as a single form is; then form j of the result
    is sum_i f_i (g2^{-1})_{ij}."""
    moved = [sympy_linear_change(sympy_expr(n, pairs), n, g1) for pairs in forms]
    inv2 = sympy.Matrix(g2).inv()
    return [sum(moved[i] * inv2[i, j] for i in range(n)) for j in range(n)]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_act_gl_on_a_tuple_matches_sympy(data):
    n, d = data.draw(st.integers(2, 3)), data.draw(st.integers(2, 3))
    basis = monomial_basis(n, d)
    coefficient_rows = st.lists(
        st.lists(coeffs, min_size=len(basis), max_size=len(basis)), min_size=n, max_size=n
    )
    rows = data.draw(coefficient_rows.filter(lambda r: sympy.Matrix(r).rank() == n))
    g1, g2 = data.draw(invertible_matrices(n)), data.draw(invertible_matrices(n))
    forms = [list(zip(basis, row)) for row in rows]
    f = FormTuple(n, d, tuple(Polynomial(n, pairs) for pairs in forms))
    got = act_gl(MatrixQ.from_rows(g1), MatrixQ.from_rows(g2), f)
    expected = sympy_moved_tuple(n, forms, g1, g2)
    assert [terms(p) for p in got.forms] == [sympy_terms(e, n) for e in expected]


def chosen_dtypes(monkeypatch):
    """The dtypes poly's integer kernels choose from here on, in order."""
    chosen, choose = [], poly._dtype

    def spy(bound):
        chosen.append(choose(bound))
        return chosen[-1]

    monkeypatch.setattr(poly, "_dtype", spy)
    return chosen


def test_act_gl_past_the_int64_edge_matches_sympy(monkeypatch):
    """62-bit coefficients, the size `apolar tangent --coeff-bound
    4000000000000000000` draws, moved by matrices with entries +-3: the mix
    by g2^{-1} runs on Python ints, the power rows of g1^{-1} in int64, and
    their product with the mixed rows on Python ints."""
    rng = random.Random(62)
    n, d = 3, 2
    basis = monomial_basis(n, d)
    bound = 4 * 10**18
    forms = [[(m, Fraction(rng.randint(-bound, bound))) for m in basis] for _ in range(n)]
    g1 = [[3, 3, 3], [3, -3, 3], [3, 3, -3]]
    g2 = [[3, -3, 3], [3, 3, -3], [-3, 3, 3]]
    f = FormTuple(n, d, tuple(Polynomial(n, pairs) for pairs in forms))
    chosen = chosen_dtypes(monkeypatch)
    got = act_gl(MatrixQ.from_rows(g1), MatrixQ.from_rows(g2), f)
    assert chosen == [object, np.int64, object]
    expected = sympy_moved_tuple(n, forms, g1, g2)
    assert [terms(p) for p in got.forms] == [sympy_terms(e, n) for e in expected]


@pytest.mark.parametrize(
    "text, g",
    [
        ("0", [[0, 1], [1, 0]]),
        ("x1^3 - 2/3*x1*x2 + 5*x2 + 7/2", [[2, -3], [1, 3]]),
    ],
    ids=["zero", "non-homogeneous"],
)
def test_act_gl_on_graded_pieces_matches_sympy(monkeypatch, text, g):
    """A form is substituted degree piece by degree piece, each weighted to
    the top degree's denominator; the zero form has no piece.  The power
    rows and the product both run in int64."""
    form = parse_polynomial(text, 2)
    chosen = chosen_dtypes(monkeypatch)
    got = act_gl(MatrixQ.from_rows(g), None, form)
    assert chosen == [np.int64, np.int64]
    expected = sympy_linear_change(sympy_expr(2, form.terms()), 2, g)
    assert terms(got) == sympy_terms(expected, 2)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_jacobian_det_of_a_moved_tuple_matches_sympy(data):
    """The integer route scales each form to primitive integers and divides
    the determinant back; act_gl leaves rational coefficients with unequal
    denominators, so the division must be exact."""
    n, d = data.draw(st.integers(2, 3)), data.draw(st.integers(2, 3))
    basis = monomial_basis(n, d)
    coefficient_rows = st.lists(
        st.lists(coeffs, min_size=len(basis), max_size=len(basis)), min_size=n, max_size=n
    )
    # Independent rows keep every form nonzero after the mixing by g2.
    rows = data.draw(coefficient_rows.filter(lambda r: sympy.Matrix(r).rank() == n))
    g1, g2 = data.draw(invertible_matrices(n)), data.draw(invertible_matrices(n))
    f = FormTuple(n, d, tuple(Polynomial(n, zip(basis, row)) for row in rows))
    moved = act_gl(MatrixQ.from_rows(g1), MatrixQ.from_rows(g2), f)
    forms = sympy.Matrix([sympy_expr(n, list(p.terms())) for p in moved.forms])
    expected = forms.jacobian(gens(n)).det()
    assert terms(jacobian_det(moved)) == sympy_terms(expected, n)


def pair_text(pairs):
    """The parser's syntax for raw pairs, one written term per pair."""
    pieces = []
    for mono, c in pairs:
        body = f"{abs(c).numerator}/{abs(c).denominator}"
        body += "".join(f"*x{i + 1}^{e}" for i, e in enumerate(mono) if e)
        pieces.append(("-" if c < 0 else "+") + body)
    return " ".join(pieces) if pieces else "0"


@oracle
@given(st.data())
def test_parse_merges_repeated_terms_as_sympy_does(data):
    nvars = data.draw(nvars_st)
    text = pair_text(data.draw(pair_lists(nvars)))
    expected = sympy.parse_expr(
        text.replace("^", "**"), local_dict=dict(zip(map(str, gens(nvars)), gens(nvars)))
    )
    assert terms(parse_polynomial(text, nvars)) == sympy_terms(expected, nvars)


def test_parse_of_cancelling_terms_is_zero():
    assert parse_polynomial("x1 + x1 - 2*x1", 1).is_zero
    assert parse_polynomial("1/2*x1*x2 - x2*x1 + 1/2*x1^1*x2^1", 2).is_zero
    assert parse_polynomial("x1^2 - 3 + x1^2 + 3", 1) == parse_polynomial("2*x1^2", 1)


@oracle
@given(st.data())
def test_partial_matches_sympy_diff(data):
    nvars = data.draw(nvars_st)
    pairs = data.draw(pair_lists(nvars))
    p = Polynomial(nvars, pairs)
    for i, x in enumerate(gens(nvars), start=1):
        assert terms(partial(p, i)) == sympy_terms(sympy.diff(sympy_expr(nvars, pairs), x), nvars)
