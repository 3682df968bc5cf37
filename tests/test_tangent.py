from fractions import Fraction

import pytest

from apolar import (
    DegenerateTupleError,
    FormTuple,
    Polynomial,
    SplitMix64,
    annihilator_polynomials,
    associated_form,
    dim_forms,
    expected_N,
    koszul_kernel_check,
    parse_polynomial,
    product_space_dim,
    random_ci_tuple,
    random_form,
    rank,
    relation_space_dim_bruteforce,
    relation_space_dim_formula,
    stratify,
    tangent_dim,
)


def test_expected_n_table():
    assert expected_N(3, 3) == 22
    assert expected_N(3, 4) == 37
    assert expected_N(3, 5) == 55
    assert expected_N(4, 2) == 25
    assert expected_N(4, 3) == 65
    assert expected_N(5, 2) == 51


def test_expected_n_binary_case():
    for d in range(2, 8):
        assert expected_N(2, d) == 2 * d - 1


def test_relation_formula_table():
    assert relation_space_dim_formula(3, 4) == 0
    assert relation_space_dim_formula(3, 5) == 0
    assert relation_space_dim_formula(4, 4) == 20
    assert relation_space_dim_formula(6, 2) == 70


def test_relation_formula_preconditions():
    with pytest.raises(ValueError):
        relation_space_dim_formula(2, 5)
    with pytest.raises(ValueError):
        relation_space_dim_formula(3, 2)


def test_relation_bruteforce_matches_formula_quickly():
    for n, d, seed in [(3, 4, 0), (4, 2, 1)]:
        f = random_ci_tuple(n, d, seed=seed)
        assert relation_space_dim_bruteforce(f) == relation_space_dim_formula(n, d)


def test_relation_bruteforce_band():
    f = random_ci_tuple(2, 3, seed=0)
    with pytest.raises(ValueError):
        relation_space_dim_bruteforce(f)


def test_product_space_dim_basic():
    xs = [Polynomial.variable(2, 1), Polynomial.variable(2, 2)]
    assert product_space_dim(xs, xs) == 3
    assert product_space_dim([], xs) == 0


def test_product_space_dim_rejects_mixed_degrees():
    p = parse_polynomial("x1", 2)
    q = parse_polynomial("x1^2", 2)
    with pytest.raises(ValueError):
        product_space_dim([p, q], [p])


def test_pairwise_products_of_sampled_tuple_are_independent():
    for n, d, seed in [(3, 2, 0), (3, 3, 1)]:
        f = random_ci_tuple(n, d, seed=seed)
        forms = list(f.forms)
        assert product_space_dim(forms, forms) == n * (n + 1) // 2


def test_tangent_dim_smallest_case():
    f = random_ci_tuple(2, 2, seed=0)
    report = tangent_dim(associated_form(f))
    assert report.n == 2 and report.d == 2
    assert report.dim_ambient == 3
    assert report.tangent_dim == report.dim_ambient - report.dim_product
    assert report.tangent_dim == report.expected_N == 3
    assert report.dim_R_bruteforce is None


def test_tangent_report_with_relations():
    f = random_ci_tuple(2, 2, seed=0)
    report = tangent_dim(associated_form(f)).with_relations(7, 7)
    assert report.dim_R_bruteforce == 7 and report.dim_R_formula == 7
    assert list(report.to_json_dict())[-2:] == ["dim_R_bruteforce", "dim_R_formula"]


def test_tangent_dim_rejects_bad_inputs():
    with pytest.raises(ValueError):
        tangent_dim(Polynomial.zero(2))
    with pytest.raises(ValueError):
        tangent_dim(parse_polynomial("y1^3", 2))
    with pytest.raises(DegenerateTupleError):
        tangent_dim(parse_polynomial("y1^2", 2))


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (3, 4), (4, 2), (3, 5)])
def test_tangent_product_matches_annihilator_product_oracle(n, d):
    """dim (I^2)_s from the generators equals dim I_d * I_{s-d} computed from
    the two annihilator pieces, the route that needs no generation claim."""
    s = n * (d - 1)
    for seed in (0, 1):
        a = associated_form(random_ci_tuple(n, d, seed=seed))
        oracle = product_space_dim(annihilator_polynomials(a, d), annihilator_polynomials(a, s - d))
        report = tangent_dim(a)
        assert report.dim_product == oracle
        assert report.tangent_dim == report.expected_N


def test_tangent_dim_rejects_form_outside_u():
    f = random_form(3, 6, SplitMix64(11), 5)
    assert not f.is_zero
    assert len(annihilator_polynomials(f, 3)) != 3
    assert not stratify(f, 3, 3).in_U
    with pytest.raises(DegenerateTupleError):
        tangent_dim(f)


def test_koszul_check_at_minimal_degree():
    f = FormTuple(2, 2, (parse_polynomial("x1^2", 2), parse_polynomial("x2^2", 2)))
    assert koszul_kernel_check(f, 2)


def test_koszul_check_band_for_ternary_cubics():
    f = random_ci_tuple(3, 3, seed=2)
    for rho in range(3, 4):
        assert koszul_kernel_check(f, rho)


def test_koszul_check_rejects_low_degree():
    f = random_ci_tuple(2, 2, seed=0)
    with pytest.raises(ValueError):
        koszul_kernel_check(f, 1)


def test_koszul_kernel_dimension_oracle():
    """Rank-nullity cross-check built from plain polynomial products.

    The kernel of (h_1, h_2) -> h_1 f_1 + h_2 f_2 in degree rho = 2 for
    (x1^2, x2^2) must be one-dimensional: the single Koszul relation.
    """
    f = FormTuple(2, 2, (parse_polynomial("x1^2", 2), parse_polynomial("x2^2", 2)))
    rows = []
    for fi in f.forms:
        for mono in ((2, 0), (1, 1), (0, 2)):
            m = Polynomial(2, {mono: Fraction(1)})
            rows.append((m * fi).coefficient_vector(4))
    kernel_dim = len(rows) - rank(rows)
    assert kernel_dim == 1
    assert koszul_kernel_check(f, 2)
