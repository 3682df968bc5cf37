from fractions import Fraction
from itertools import combinations

import pytest

from apolar import (
    FormTuple,
    SplitMix64,
    SubspaceBasis,
    annihilator_piece,
    annihilator_polynomials,
    apolar_hilbert,
    associated_form,
    canonical_kernel_basis,
    catalecticant,
    ci_hilbert,
    dim_forms,
    gorenstein_sequence,
    determinant,
    parse_polynomial,
    random_ci_tuple,
    random_form,
    rank,
    stratify,
)
from apolar.apolarity import _first_nonsingular_chart
from apolar.linalg import pivot_columns


def test_catalecticant_of_product_form():
    f = parse_polynomial("y1*y2", 2)
    cat = catalecticant(f, 1)
    assert cat.contraction_degree == 1
    assert cat.matrix.entries == ((0, 1), (1, 0))


def test_catalecticant_shape():
    # Rows run over the target monomials, columns over the contracted ones,
    # so right-kernel vectors are annihilator coefficient vectors.
    f = parse_polynomial("y1^4 + y2^4", 2)
    cat = catalecticant(f, 3)
    assert cat.matrix.nrows == dim_forms(2, 1)
    assert cat.matrix.ncols == dim_forms(2, 3)


def test_catalecticant_rejects_contraction_past_degree():
    f = parse_polynomial("y1^2", 2)
    with pytest.raises(ValueError):
        catalecticant(f, 3)


def test_apolar_hilbert_product_form():
    assert apolar_hilbert(parse_polynomial("y1*y2", 2)) == (1, 2, 1)


def test_apolar_hilbert_fourth_powers():
    # x1^4 + x2^4 annihilates x1*x2, so the middle rank drops to 2.
    assert apolar_hilbert(parse_polynomial("y1^4 + y2^4", 2)) == (1, 2, 2, 2, 1)


def test_apolar_hilbert_of_generic_quartic_is_full():
    f = associated_form(random_ci_tuple(2, 3, seed=1))
    assert apolar_hilbert(f) == (1, 2, 3, 2, 1)


def test_gorenstein_sequence_is_ci_hilbert():
    assert gorenstein_sequence(2, 3) == ci_hilbert(2, 3) == (1, 2, 3, 2, 1)
    assert gorenstein_sequence(3, 3) == (1, 3, 6, 7, 6, 3, 1)


def test_annihilator_piece_dimensions():
    f = parse_polynomial("y1*y2", 2)
    assert annihilator_piece(f, 1).dimension == 0
    assert annihilator_piece(f, 2).dimension == 2
    assert annihilator_piece(f, 3).dimension == dim_forms(2, 3)


def test_annihilator_polynomials_of_product_form():
    f = parse_polynomial("y1*y2", 2)
    gens = annihilator_polynomials(f, 2)
    assert gens == [parse_polynomial("x1^2", 2), parse_polynomial("x2^2", 2)]


def test_stratify_rank_one_square():
    report = stratify(parse_polynomial("y1^2", 2), 2, 2)
    assert report.rank_d == 1
    assert report.in_V and report.in_U
    assert not report.in_GorT and not report.in_URes
    assert report.in_Z
    assert report.hilbert == (1, 1, 1)


def test_stratify_associated_form_lands_in_smooth_locus():
    f = random_ci_tuple(3, 2, seed=5)
    report = stratify(associated_form(f), 3, 2)
    assert report.in_URes and report.in_GorT and report.in_U and report.in_V
    assert not report.in_Z
    assert report.hilbert == ci_hilbert(3, 2)


def test_stratify_rank_d_is_the_catalecticant_rank():
    forms = [
        (parse_polynomial("y1^2", 2), 2, 2),
        (random_form(3, 6, SplitMix64(11), 5), 3, 3),
        (associated_form(random_ci_tuple(3, 3, seed=1)), 3, 3),
        (associated_form(random_ci_tuple(2, 4, seed=2)), 2, 4),
    ]
    for f, n, d in forms:
        report = stratify(f, n, d)
        assert report.rank_d == rank(catalecticant(f, d).matrix)
        assert report.in_U == (len(annihilator_polynomials(f, d)) == n)


def test_stratify_json_key_order():
    report = stratify(parse_polynomial("y1^2", 2), 2, 2)
    assert list(report.to_json_dict()) == [
        "in_V",
        "in_U",
        "in_GorT",
        "in_Z",
        "in_URes",
        "hilbert",
        "rank_d",
    ]


def test_canonical_kernel_basis_default_chart():
    f = parse_polynomial("y1^2 + y2^2", 2)
    basis = canonical_kernel_basis(f)
    assert basis == [
        parse_polynomial("x1*x2", 2),
        parse_polynomial("-x1^2 + x2^2", 2),
    ]


def test_canonical_kernel_basis_explicit_chart():
    f = parse_polynomial("y1^2 + y2^2", 2)
    # The catalecticant row is (2, 0, 2); column {2} also gives a chart.
    basis = canonical_kernel_basis(f, chart=((0,), (2,)))
    assert basis == [
        parse_polynomial("x1^2 - x2^2", 2),
        parse_polynomial("x1*x2", 2),
    ]


def test_canonical_kernel_basis_rejects_singular_chart():
    f = parse_polynomial("y1^2 + y2^2", 2)
    with pytest.raises(ValueError):
        canonical_kernel_basis(f, chart=((0,), (1,)))


def test_canonical_kernel_basis_requires_exact_corank():
    # deg 4 in 2 vars reads as d = 3, so the catalecticant must have rank 2;
    # a fourth power only reaches rank 1.
    with pytest.raises(ValueError):
        canonical_kernel_basis(parse_polynomial("y1^4", 2))


def test_canonical_kernel_basis_spans_the_annihilator_piece():
    f = associated_form(random_ci_tuple(2, 2, seed=3))
    basis = canonical_kernel_basis(f)
    gens = annihilator_polynomials(f, 2)
    vecs = [p.coefficient_vector(2) for p in basis]
    ref = [p.coefficient_vector(2) for p in gens]
    assert SubspaceBasis.from_spanning(vecs, 3).same_span(
        SubspaceBasis.from_spanning(ref, 3)
    )


def exhaustive_first_chart(cat, r):
    """Reference: the first (rows, cols) with a nonsingular minor, column
    subsets outermost, both in lexicographic order."""
    for cols in combinations(range(cat.ncols), r):
        for rows in combinations(range(cat.nrows), r):
            if determinant([[cat.entry(i, j) for j in cols] for i in rows]):
                return list(rows), list(cols)
    raise AssertionError("no nonsingular chart minor")


CHART_FORMS = [
    ("y1^2 + y2^2", 2),
    ("y1*y2", 2),
    ("y1^2*y2^2", 2),
    ("y1^3*y2 + y2^4", 2),
    ("y1^4 + y1^2*y2^2 + y2^4", 2),
    ("y1*y2*y3", 3),
    ("y1^2*y2^2*y3^2", 3),
    ("y1^4*y2^2 + y3^6 + y1*y2*y3^4", 3),
]


@pytest.mark.parametrize("text, n", CHART_FORMS)
def test_greedy_chart_is_the_exhaustive_lex_first_chart(text, n):
    f = parse_polynomial(text, n)
    d = f.homogeneous_degree() // n + 1
    cat = catalecticant(f, d).matrix
    cols = pivot_columns(cat)
    assert _first_nonsingular_chart(cat, cols) == exhaustive_first_chart(cat, len(cols))


@pytest.mark.parametrize("n, d, seed", [(2, 2, 0), (2, 3, 1), (3, 2, 2), (3, 2, 3)])
def test_greedy_chart_of_associated_forms(n, d, seed):
    cat = catalecticant(associated_form(random_ci_tuple(n, d, seed=seed)), d).matrix
    cols = pivot_columns(cat)
    assert len(cols) == dim_forms(n, d) - n
    assert _first_nonsingular_chart(cat, cols) == exhaustive_first_chart(cat, len(cols))


def test_canonical_kernel_basis_of_four_variable_monomial():
    f = parse_polynomial("y1^2*y2^2*y3^2*y4^2", 4)
    assert canonical_kernel_basis(f) == [
        parse_polynomial(f"x{i}^3", 4) for i in range(1, 5)
    ]
