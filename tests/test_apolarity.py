from fractions import Fraction
from itertools import combinations
from math import perm, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apolar import (
    MatrixQ,
    Polynomial,
    SplitMix64,
    SubspaceBasis,
    annihilator_piece,
    annihilator_polynomials,
    apolar_hilbert,
    associated_form,
    block_solve,
    canonical_kernel_basis,
    catalecticant,
    ci_hilbert,
    determinant,
    dim_forms,
    monomial_basis,
    parse_polynomial,
    random_ci_tuple,
    random_form,
    rank,
    stratify,
)
from apolar.apolarity import _moment_rows
from apolar.linalg import (
    _certified_rank,
    _integer_rows,
    _kernel,
    _triangularize,
)
from bareiss_reference import exact_kernel_basis, list_moment_rows


def test_catalecticant_of_product_form():
    f = parse_polynomial("y1*y2", 2)
    assert catalecticant(f, 1).entries == ((0, 1), (1, 0))


def test_catalecticant_shape():
    # Rows run over the target monomials, columns over the contracted ones,
    # so right-kernel vectors are annihilator coefficient vectors.
    f = parse_polynomial("y1^4 + y2^4", 2)
    cat = catalecticant(f, 3)
    assert cat.nrows == dim_forms(2, 1)
    assert cat.ncols == dim_forms(2, 3)


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
    # stratify's Gor(T) target is ci_hilbert itself.
    assert ci_hilbert(2, 3) == (1, 2, 3, 2, 1)
    assert ci_hilbert(3, 3) == (1, 3, 6, 7, 6, 3, 1)
    report = stratify(associated_form(random_ci_tuple(2, 3, seed=1)), 2, 3)
    assert report.in_GorT and report.hilbert == ci_hilbert(2, 3)


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
        assert report.rank_d == rank(catalecticant(f, d))
        assert report.in_U == (len(annihilator_polynomials(f, d)) == n)


def test_stratify_json_key_order():
    report = stratify(parse_polynomial("y1^2", 2), 2, 2)
    assert list(vars(report)) == [
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


@pytest.mark.parametrize(
    "chart",
    [
        ((0, 1), (-1, 0)),  # a negative index would be read from the end
        ((0, 1), (0, 4)),  # past the K = 4 catalecticant columns
        ((0, 2), (0, 1)),  # past the 2 catalecticant rows
    ],
)
def test_canonical_kernel_basis_rejects_chart_index_out_of_range(chart):
    # n = 2 and degree 4, so d = 3: the catalecticant is 2 x 4 and r = 2.
    f = parse_polynomial("y1^4 + y1^2*y2^2 + y2^4", 2)
    assert canonical_kernel_basis(f, chart=((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="in range"):
        canonical_kernel_basis(f, chart=chart)


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


def assert_default_chart_is_exhaustive_lex_first(f):
    """The default basis equals the one on the exhaustive search's chart and
    the reduced-echelon annihilator basis."""
    n = f.nvars
    d = f.homogeneous_degree() // n + 1
    cat = catalecticant(f, d)
    chart = exhaustive_first_chart(cat, cat.ncols - n)
    default = canonical_kernel_basis(f)
    assert default == canonical_kernel_basis(f, chart=chart)
    assert default == annihilator_polynomials(f, d)


@pytest.mark.parametrize("text, n", CHART_FORMS)
def test_greedy_chart_is_the_exhaustive_lex_first_chart(text, n):
    assert_default_chart_is_exhaustive_lex_first(parse_polynomial(text, n))


@pytest.mark.parametrize("n, d, seed", [(2, 2, 0), (2, 3, 1), (3, 2, 2), (3, 2, 3)])
def test_greedy_chart_of_associated_forms(n, d, seed):
    f = associated_form(random_ci_tuple(n, d, seed=seed))
    assert rank(catalecticant(f, d)) == dim_forms(n, d) - n
    assert_default_chart_is_exhaustive_lex_first(f)


def test_canonical_kernel_basis_of_four_variable_monomial():
    f = parse_polynomial("y1^2*y2^2*y3^2*y4^2", 4)
    assert canonical_kernel_basis(f) == [
        parse_polynomial(f"x{i}^3", 4) for i in range(1, 5)
    ]


def block_solve_chart_basis(f, chart):
    """Reference for an explicit chart: solve for -A^{-1}B with block_solve,
    put it on the chart columns and the identity on the others."""
    n = f.nvars
    d = f.homogeneous_degree() // n + 1
    cat = catalecticant(f, d)
    rows, cols = sorted(chart[0]), sorted(chart[1])
    comp = [c for c in range(cat.ncols) if c not in cols]
    a_block = [[cat.entry(i, j) for j in cols] for i in rows]
    b_block = [[cat.entry(i, j) for j in comp] for i in rows]
    try:
        s = block_solve(a_block, b_block)
    except ValueError as exc:
        raise ValueError("singular chart minor") from exc
    basis = []
    for j in range(n):
        v = [0] * cat.ncols
        for i, c in enumerate(cols):
            v[c] = s.entry(i, j)
        v[comp[j]] = 1
        basis.append(Polynomial.from_coefficient_vector(n, d, v))
    return basis


def outcome(build, f, chart):
    """The basis, or the text of the ValueError raised instead."""
    try:
        return build(f, chart)
    except ValueError as exc:
        return str(exc)


CHART_REFERENCE_FORMS = [(text, n) for text, n in CHART_FORMS if n == 2] + [("y1*y2*y3", 3)]


@pytest.mark.parametrize(
    "f",
    [parse_polynomial(text, n) for text, n in CHART_REFERENCE_FORMS]
    + [associated_form(random_ci_tuple(n, d, seed=1)) for n, d in [(2, 3), (3, 2)]],
    ids=[text for text, _ in CHART_REFERENCE_FORMS] + ["associated-2x3", "associated-3x2"],
)
def test_every_chart_matches_the_block_solve_reference(f):
    n = f.nvars
    cat = catalecticant(f, f.homogeneous_degree() // n + 1)
    r = cat.ncols - n
    charts = [
        (rows, cols)
        for rows in combinations(range(cat.nrows), r)
        for cols in combinations(range(cat.ncols), r)
    ]
    outcomes = [outcome(canonical_kernel_basis, f, chart) for chart in charts]
    assert outcomes == [outcome(block_solve_chart_basis, f, chart) for chart in charts]
    assert any(isinstance(o, list) for o in outcomes)


def test_chart_with_a_column_basis_and_dependent_rows_is_singular():
    # The chart columns span the column space, so the kernel restricted to
    # the other columns is invertible; only the minor shows the rows fail.
    f = associated_form(random_ci_tuple(3, 3, seed=2))
    cat = catalecticant(f, 3)
    r = cat.ncols - 3
    cols = exhaustive_first_chart(cat, r)[1]
    rows = (0, 1, 2, 4, 6, 8, 9)
    assert rank([[row[j] for j in cols] for row in cat.entries]) == r
    assert rank([cat.entries[i] for i in rows]) < r
    with pytest.raises(ValueError, match="singular chart minor"):
        canonical_kernel_basis(f, chart=(rows, cols))
    with pytest.raises(ValueError, match="singular chart minor"):
        block_solve_chart_basis(f, (rows, cols))


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def rational_forms(draw):
    """Nonzero forms of degree 1..5 in 2 or 3 variables: dense, sparse (one
    to three monomials), or a sum of one to three powers of linear forms,
    whose catalecticants have rank at most three."""
    nvars = draw(st.integers(2, 3))
    degree = draw(st.integers(1, 5))
    basis = monomial_basis(nvars, degree)
    kind = draw(st.sampled_from(["dense", "sparse", "powers"]))
    if kind == "powers":
        f = Polynomial.zero(nvars)
        for _ in range(draw(st.integers(1, 3))):
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars))
            linear = Polynomial.from_coefficient_vector(nvars, 1, coeffs)
            power = Polynomial.constant(nvars, draw(small_fractions))
            for _ in range(degree):
                power = power * linear
            f = f + power
    else:
        monos = basis if kind == "dense" else draw(
            st.lists(st.sampled_from(basis), min_size=1, max_size=3, unique=True)
        )
        coeffs = draw(st.lists(small_fractions, min_size=len(monos), max_size=len(monos)))
        f = Polynomial(nvars, zip(monos, coeffs))
    if f.is_zero:
        f = Polynomial(nvars, {basis[-1]: Fraction(1)})
    return f


def defining_catalecticant(f, i):
    """Entry (c, a) straight from the definition: the coefficient of
    y^(a+c) in f times prod_k (a_k+c_k)!/c_k!."""
    e = f.homogeneous_degree()
    return [
        [
            f.coefficient(tuple(x + y for x, y in zip(a, c)))
            * prod(perm(x + y, x) for x, y in zip(a, c))
            for a in monomial_basis(f.nvars, i)
        ]
        for c in monomial_basis(f.nvars, e - i)
    ]


@settings(max_examples=80, deadline=None)
@given(rational_forms())
def test_moment_rows_have_the_catalecticant_rank_and_kernel(f):
    # Cat_i(f) = diag(1/c!) H_i: the public catalecticant is the defining
    # matrix, and the moment rows H_i have its Bareiss rank and its
    # reduced-echelon kernel, in every contraction degree.
    for i in range(f.homogeneous_degree() + 1):
        reference = defining_catalecticant(f, i)
        assert catalecticant(f, i) == MatrixQ.from_rows(reference)
        cat = _integer_rows(reference)
        moments = _moment_rows(f, i)[0]
        ncols = len(cat[0])
        assert (len(moments), len(moments[0])) == (len(cat), ncols)
        want = len(_triangularize(cat, ncols))
        assert _certified_rank(moments, min(moments.shape)) == want
        assert _kernel(moments).vectors == exact_kernel_basis(cat, ncols).vectors
        assert annihilator_piece(f, i).dimension == ncols - want


# 2^63 - 1 is the largest size int64 holds; 2^63 and past it need Python ints.
edge_int = st.one_of(
    st.integers(-5, 5), st.sampled_from([2**63 - 1, -(2**63 - 1), 2**63, -(2**63), 2**70])
)


@st.composite
def edge_integer_forms(draw):
    """Nonzero integer forms of degree e <= 5 in n <= 4 variables, with
    coefficients on both sides of the int64 edge."""
    n, e = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    terms = draw(st.dictionaries(st.sampled_from(monomial_basis(n, e)), edge_int, min_size=1))
    return Polynomial(n, terms) if any(terms.values()) else Polynomial(n, {(e,) + (0,) * (n - 1): 1})


@given(edge_integer_forms())
@example(Polynomial(2, {(2, 0): 2**63 - 1, (0, 2): 1}))
@example(Polynomial(2, {(3, 0): 2**63, (0, 3): 3}))
@settings(deadline=None)
def test_moment_rows_array_matches_the_list_oracle(f):
    # One gather from phi into one array, int64 exactly when every entry is
    # below 2^63 in size, against the rows written one entry at a time.
    for i in range(f.homogeneous_degree() + 1):
        rows, factor = _moment_rows(f, i)
        want, want_factor = list_moment_rows(f, i)
        top = max(abs(x) for row in want for x in row)
        assert rows.dtype == (np.int64 if top < 2**63 else object)
        assert (rows.tolist(), factor) == (want, want_factor)


def assert_hilbert_is_the_bareiss_rank_both_ways(f):
    # The apolar Hilbert function ranks one member of each transpose pair;
    # here every H_i and its transpose are ranked by Bareiss from the list
    # oracle, so the symmetry it relies on is checked, not assumed.
    ranks = apolar_hilbert(f)
    assert len(ranks) == f.homogeneous_degree() + 1
    for i, r in enumerate(ranks):
        rows = list_moment_rows(f, i)[0]
        assert len(_triangularize(rows, len(rows[0]))) == r
        assert len(_triangularize([list(col) for col in zip(*rows)], len(rows))) == r


@settings(max_examples=60, deadline=None)
@given(rational_forms())
def test_apolar_hilbert_is_the_bareiss_rank_of_each_moment_matrix_and_transpose(f):
    assert_hilbert_is_the_bareiss_rank_both_ways(f)


# Odd and even degrees; the last two have moment matrices past the size rule
# (linalg.EXACT_MAX_ENTRIES), so their ranks take the modular route.
FIXED_FORMS = [
    ("y1^2", 1),
    ("y1^2*y2 - 3*y2^3", 2),
    ("y1^4 + y1*y2*y3^2 - 2/3*y2^4", 3),
    ("y1^3*y2^3*y3^3", 3),
    ("y1^8 + y1^2*y2^2*y3^2*y4^2 - 3*y2^5*y4^3", 4),
]


@pytest.mark.parametrize("text, n", FIXED_FORMS)
def test_apolar_hilbert_of_fixed_forms_is_the_bareiss_rank_both_ways(text, n):
    assert_hilbert_is_the_bareiss_rank_both_ways(parse_polynomial(text, n))


@pytest.mark.parametrize("text, n", FIXED_FORMS)
def test_apolar_hilbert_ranks_one_wide_matrix_per_transpose_pair(text, n, monkeypatch):
    shapes = []

    def spy(rows, upper):
        shapes.append(rows.shape)
        return _certified_rank(rows, upper)

    monkeypatch.setattr("apolar.apolarity._certified_rank", spy)
    f = parse_polynomial(text, n)
    e = f.homogeneous_degree()
    apolar_hilbert(f)
    # The tall member H_i, i <= e/2, whose right kernel is Ann(f)_i.
    assert len(shapes) == e // 2 + 1
    assert all(r >= c for r, c in shapes)
