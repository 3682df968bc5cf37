from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apolar import (
    FormTuple,
    MatrixQ,
    Polynomial,
    act_gl,
    apply_polar,
    format_polynomial,
    jacobian_det,
    monomial_basis,
    parse_polynomial,
    partial,
    polynomials_from_vectors,
    substitute,
)


def x(i, nvars):
    return Polynomial.variable(nvars, i)


def test_monomial_basis_grlex_descending():
    assert monomial_basis(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomial_basis(3, 2) == (
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    )


def test_arithmetic_square_of_binomial():
    p = x(1, 2) + x(2, 2)
    sq = p * p
    assert sq.coefficient((2, 0)) == 1
    assert sq.coefficient((1, 1)) == 2
    assert sq.coefficient((0, 2)) == 1
    assert sq.homogeneous_degree() == 2


def test_polynomial_is_immutable_and_hashable():
    p = x(1, 2)
    with pytest.raises(AttributeError):
        p.nvars = 3
    assert hash(p) == hash(x(1, 2))
    assert p != x(2, 2)


def test_coefficient_vector_roundtrip():
    p = parse_polynomial("2*x1^2 - 3*x1*x2 + 1/2*x2^2", 2)
    vec = p.coefficient_vector(2)
    assert vec == (Fraction(2), Fraction(-3), Fraction(1, 2))
    (back,) = polynomials_from_vectors(2, 2, [vec])
    assert back == p


def test_apply_polar_worked_example():
    h = parse_polynomial("x1*x2", 2)
    f = parse_polynomial("x1^2*x2^2", 2)
    assert apply_polar(h, f) == parse_polynomial("4*x1*x2", 2)


def test_apply_polar_kills_higher_exponents():
    h = parse_polynomial("x1^3", 2)
    f = parse_polynomial("x1^2*x2^2", 2)
    assert apply_polar(h, f).is_zero


def test_apply_polar_differentiates_constants_correctly():
    h = parse_polynomial("x1^2", 1)
    f = parse_polynomial("x1^2", 1)
    assert apply_polar(h, f) == Polynomial.constant(1, 2)


def test_partial():
    p = parse_polynomial("x1^3 + x1*x2^2", 2)
    assert partial(p, 1) == parse_polynomial("3*x1^2 + x2^2", 2)
    assert partial(p, 2) == parse_polynomial("2*x1*x2", 2)


def test_partial_rejects_a_variable_index_out_of_range():
    p = parse_polynomial("x1^3 + x1*x2^2", 2)
    for i in (0, 3):
        with pytest.raises(ValueError, match=f"^variable index {i} out of range$"):
            partial(p, i)


def test_constructor_rejects_a_monomial_of_the_wrong_length():
    with pytest.raises(ValueError, match=r"^exponent tuple \(1, 0, 0\) does not have 2 entries$"):
        Polynomial(2, [((1, 0), 1), ((1, 0, 0), 2)])


def test_constructor_rejects_a_negative_exponent():
    with pytest.raises(ValueError, match="^exponents must be nonnegative$"):
        Polynomial(2, {(1, -1): 3})


def test_constructor_rejects_a_negative_exponent_whose_terms_cancel():
    with pytest.raises(ValueError, match="^exponents must be nonnegative$"):
        Polynomial(2, [((2, 0), 1), ((-1, 3), Fraction(1, 2)), ((-1, 3), Fraction(-1, 2))])


def test_jacobian_det_of_power_tuple():
    f = FormTuple(2, 2, (parse_polynomial("x1^2", 2), parse_polynomial("x2^2", 2)))
    assert jacobian_det(f) == parse_polynomial("4*x1*x2", 2)


def test_jacobian_det_degree():
    forms = tuple(parse_polynomial(t, 3) for t in ("x1^2+x2*x3", "x2^2", "x3^2+x1*x2"))
    f = FormTuple(3, 2, forms)
    jac = jacobian_det(f)
    assert jac.homogeneous_degree() == 3


def test_form_tuple_validation():
    with pytest.raises(ValueError):
        FormTuple(2, 2, (parse_polynomial("x1^2", 2),))
    with pytest.raises(ValueError):
        FormTuple(2, 2, (parse_polynomial("x1^2", 2), Polynomial.zero(2)))
    with pytest.raises(ValueError):
        FormTuple(2, 2, (parse_polynomial("x1^2", 2), parse_polynomial("x2^3", 2)))


def test_substitute_linear_change():
    p = parse_polynomial("x1^2", 2)
    images = [x(1, 2) + x(2, 2), x(2, 2)]
    assert substitute(p, images) == parse_polynomial("x1^2 + 2*x1*x2 + x2^2", 2)


def test_substitute_at_a_zero_image():
    # Every term with a positive power of x2 dies; x1 goes to a form with a
    # fractional coefficient, so the integer sum is divided at the end.
    p = parse_polynomial("x1^3 - 2/3*x1*x2 + 5/2*x2^2", 2)
    images = [parse_polynomial("1/2*x1 + x2", 2), Polynomial.zero(2)]
    expected = parse_polynomial("1/8*x1^3 + 3/4*x1^2*x2 + 3/2*x1*x2^2 + x2^3", 2)
    assert substitute(p, images) == expected
    assert substitute(p, [Polynomial.zero(2)] * 2).is_zero


def test_substitute_non_homogeneous_polynomial_and_images():
    # Terms of different degrees take different common-denominator powers.
    p = parse_polynomial("x1*x2 + 3/4*x1 - 1", 2)
    images = [parse_polynomial("x1^2 - x2", 2), parse_polynomial("2/3*x2", 2)]
    expected = parse_polynomial(
        "2/3*x1^2*x2 - 2/3*x2^2 + 3/4*x1^2 - 3/4*x2 - 1", 2
    )
    assert substitute(p, images) == expected


def test_substitute_rejects_a_wrong_image_count():
    p = parse_polynomial("x1^2 + x2", 2)
    with pytest.raises(ValueError, match="one image per variable"):
        substitute(p, [x(1, 2)])
    with pytest.raises(ValueError, match="one image per variable"):
        substitute(p, [])


def test_substitute_rejects_images_in_different_rings():
    p = parse_polynomial("x1*x2", 2)
    with pytest.raises(ValueError, match="mismatched variable counts"):
        substitute(p, [x(1, 2), x(1, 3)])


def test_act_gl_scaling_worked_example():
    g = MatrixQ.from_rows([[2, 0], [0, 1]])
    f = parse_polynomial("y1^2", 2)
    assert act_gl(g, None, f) == parse_polynomial("1/4*y1^2", 2)


def test_act_gl_is_a_left_action():
    g = MatrixQ.from_rows([[1, 2], [0, 1]])
    h = MatrixQ.from_rows([[1, 0], [3, 1]])
    f = parse_polynomial("y1^3 + y1*y2^2", 2)
    assert act_gl(g, None, act_gl(h, None, f)) == act_gl(g.matmul(h), None, f)


def test_act_gl_on_tuple_mixes_by_second_matrix():
    f = FormTuple(2, 2, (parse_polynomial("x1^2", 2), parse_polynomial("x2^2", 2)))
    g2 = MatrixQ.from_rows([[0, 1], [1, 0]])
    moved = act_gl(MatrixQ.identity(2), g2, f)
    assert moved.forms == (f.forms[1], f.forms[0])


def test_act_gl_rejects_a_second_matrix_on_a_form():
    f = parse_polynomial("y1^2 + y2^2", 2)
    with pytest.raises(ValueError, match="one matrix"):
        act_gl(MatrixQ.identity(2), MatrixQ.identity(2), f)


def test_act_gl_rejects_matrices_of_the_wrong_size():
    f = parse_polynomial("y1^2 + y2^2", 2)
    t = FormTuple(2, 2, (parse_polynomial("x1^2", 2), parse_polynomial("x2^2", 2)))
    with pytest.raises(ValueError, match="variable count"):
        act_gl(MatrixQ.identity(3), None, f)
    with pytest.raises(ValueError, match="variable count"):
        act_gl(MatrixQ.from_rows([[1, 0, 0], [0, 1, 0]]), None, f)
    with pytest.raises(ValueError, match="variable count"):
        act_gl(MatrixQ.identity(3), None, t)
    with pytest.raises(ValueError, match="tuple length"):
        act_gl(MatrixQ.identity(2), MatrixQ.identity(3), t)
    with pytest.raises(ValueError, match="tuple length"):
        act_gl(MatrixQ.identity(2), MatrixQ.from_rows([[1, 0]]), t)


def test_act_gl_rejects_a_target_that_is_not_a_form():
    with pytest.raises(TypeError, match="Polynomial or FormTuple"):
        act_gl(MatrixQ.identity(2), None, [x(1, 2), x(2, 2)])


def test_parse_rejects_mixed_letters_and_bad_index():
    with pytest.raises(ValueError):
        parse_polynomial("x1*y2", 2)
    with pytest.raises(ValueError):
        parse_polynomial("x3^2", 2)
    with pytest.raises(ValueError):
        parse_polynomial("x1 +", 2)


def test_parse_rejects_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_polynomial("1/0*x2^2", 2)


def test_parse_respects_requested_letter():
    assert parse_polynomial("y1*y2", 2, letter="y") == parse_polynomial("x1*x2", 2)
    with pytest.raises(ValueError):
        parse_polynomial("x1*x2", 2, letter="y")


def test_format_examples():
    p = parse_polynomial("-x1^2 + 1/2*x1*x2 - 3*x2^2", 2)
    assert format_polynomial(p) == "-x1^2 + 1/2*x1*x2 - 3*x2^2"
    assert format_polynomial(Polynomial.zero(2)) == "0"
    assert format_polynomial(p, letter="y") == "-y1^2 + 1/2*y1*y2 - 3*y2^2"


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@given(st.lists(coeffs, min_size=4, max_size=4))
def test_format_parse_roundtrip(vec):
    p = Polynomial.from_coefficient_vector(2, 3, vec)
    assert parse_polynomial(format_polynomial(p), 2) == p


@given(st.lists(coeffs, min_size=3, max_size=3), st.lists(coeffs, min_size=3, max_size=3))
def test_product_is_bilinear_in_coefficients(u, v):
    p = Polynomial.from_coefficient_vector(2, 2, u)
    q = Polynomial.from_coefficient_vector(2, 2, v)
    r = Polynomial.from_coefficient_vector(2, 2, [a + b for a, b in zip(u, v)])
    s = parse_polynomial("x1 + x2", 2)
    assert s * r == s * p + s * q
