from fractions import Fraction

import pytest

import apolar.linalg as linalg
from apolar import (
    DegenerateTupleError,
    FormTuple,
    Polynomial,
    SplitMix64,
    annihilator_polynomials,
    associated_form,
    canonical_kernel_basis,
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
from apolar.ci import _shift_rows
from apolar.cli import RunConfig, _sampled_trial
from apolar.linalg import _triangularize


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


@pytest.mark.parametrize(
    "text, n",
    [("y1^3", 1), ("5", 2), ("y1^2*y2", 2), ("y1^2 + y2", 2), ("0", 2)],
)
def test_socle_shape_errors_agree(text, n):
    # Neither entry point reads (n, d) off a form whose degree is not n(d-1)
    # with n, d >= 2; both reject it with the same text.
    f = parse_polynomial(text, n)
    with pytest.raises(ValueError) as tangent:
        tangent_dim(f)
    with pytest.raises(ValueError) as kernel:
        canonical_kernel_basis(f)
    assert type(tangent.value) is type(kernel.value) is ValueError
    assert str(tangent.value) == str(kernel.value)


@pytest.mark.parametrize("command, n, d", [("tangent", 3, 5), ("koszul", 3, 4), ("relations", 4, 2)])
def test_integer_rows_are_not_scaled_again(monkeypatch, command, n, d):
    # Product, Koszul and socle rows are built as integers; only rational
    # matrices (the catalecticants) should pass through the scaling step.
    integer_shapes = []
    scale = linalg._integer_rows

    def spy(rows):
        rows = list(rows)
        if rows and all(isinstance(x, int) for row in rows for x in row):
            integer_shapes.append((len(rows), len(rows[0])))
        return scale(rows)

    monkeypatch.setattr(linalg, "_integer_rows", spy)
    records = _sampled_trial((RunConfig(command, n=n, d=d, coeff_bound=2), 0, 3))
    assert records and all(r["pass"] for r in records)
    assert integer_shapes == []


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
    """Rank-nullity cross-checks of the kernel dimension the check uses.

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
    # On sampled tuples, over the whole band: the Bareiss rank-nullity of the
    # map's own shift matrix against the kernel dimension the check reads off
    # the tuple's quotient.
    for n, d, seed in [(3, 3, 0), (3, 4, 1), (4, 2, 2)]:
        f = random_ci_tuple(n, d, seed=seed)
        for rho in range(d, f.socle_degree - d + 1):
            rows = _shift_rows(f.forms, rho).tolist()
            bareiss = len(rows) - len(_triangularize(rows, dim_forms(n, rho + d)))
            assert bareiss == n * dim_forms(n, rho) - f.quotient.ideal_dim(rho + d)
            assert koszul_kernel_check(f, rho)
