from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apolar import (
    DegenerateTupleError,
    FormTuple,
    GradedQuotient,
    Polynomial,
    SamplingError,
    SplitMix64,
    apply_polar,
    associated_form,
    ci_hilbert,
    dim_forms,
    form_power_products,
    ideal_piece,
    is_complete_intersection,
    jacobian_det,
    parse_polynomial,
    random_ci_tuple,
    random_form,
    random_invertible_matrix,
    roundtrip_span,
    verify_inverse_system,
)
from apolar.ci import _term_rows
from apolar.poly import monomial_basis
from bareiss_reference import bareiss_quotient_dims, list_term_rows
from poly_reference import integer_power_products


def power_tuple(n, d):
    forms = tuple(
        parse_polynomial(f"x{i + 1}^{d}", n) for i in range(n)
    )
    return FormTuple(n, d, forms)


def test_hilbert_of_power_tuple():
    q = GradedQuotient(power_tuple(2, 2))
    assert q.hilbert() == (1, 2, 1)
    assert q.quotient_dim(0) == 1
    assert q.quotient_dim(1) == 2
    assert q.quotient_dim(2) == 1
    assert q.quotient_dim(3) == 0


def test_degenerate_tuple_is_detected():
    forms = (parse_polynomial("x1^2", 2), parse_polynomial("x1*x2", 2))
    f = FormTuple(2, 2, forms)
    assert not is_complete_intersection(f)
    with pytest.raises(DegenerateTupleError):
        associated_form(f)


def test_ideal_piece_dimensions_match_hilbert():
    f = power_tuple(2, 3)
    hf = ci_hilbert(2, 3)
    for j, h in enumerate(hf):
        assert ideal_piece(f, j).dimension == dim_forms(2, j) - h


def test_socle_coordinate_normalizes_jacobian_to_one():
    f = random_ci_tuple(2, 2, seed=9)
    q = GradedQuotient(f)
    assert q.socle_coordinate(jacobian_det(f)) == 1


def test_socle_coordinate_vanishes_on_ideal():
    # For (x1^2, x2^2) the socle degree is 2 and x1^2 is an ideal element.
    f = power_tuple(2, 2)
    assert GradedQuotient(f).socle_coordinate(parse_polynomial("x1^2", 2)) == 0


def test_associated_form_of_power_tuple():
    f = power_tuple(2, 2)
    assert associated_form(f) == parse_polynomial("1/2*y1*y2", 2)


def test_associated_form_is_an_inverse_system():
    for seed, (n, d) in enumerate([(2, 2), (2, 3), (3, 2)]):
        f = random_ci_tuple(n, d, seed=seed)
        g = associated_form(f)
        assert verify_inverse_system(f, g)
        assert all(apply_polar(fi, g).is_zero for fi in f.forms)


def test_verify_inverse_system_rejects_wrong_forms():
    f = power_tuple(2, 2)
    assert not verify_inverse_system(f, parse_polynomial("y1^2", 2))
    assert not verify_inverse_system(f, parse_polynomial("y1^3", 2))


def test_roundtrip_span():
    f = random_ci_tuple(3, 2, seed=4)
    assert roundtrip_span(f)


def test_certified_hilbert_matches_bareiss():
    for seed in range(3):
        f = random_ci_tuple(2, 3, seed=seed)
        q = GradedQuotient(f)
        top = f.socle_degree + 1
        assert tuple(q.quotient_dim(j) for j in range(top + 1)) == bareiss_quotient_dims(f, top)


def test_form_power_products_counts():
    f = power_tuple(3, 2)
    assert len(form_power_products(f, 2)) == 6
    assert len(form_power_products(f, 3)) == 10


# Rational coefficients give the forms factors other than 1; 40-bit ones
# push the power rows past 2^63, onto Python ints.
power_coeffs = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.integers(-(2**40), 2**40),
)


@given(st.sampled_from([(2, 2), (2, 3), (3, 2)]), st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_form_power_products_match_the_term_loop(shape, ell, data):
    """Each product g^e, e in grlex order, is the term-pair product of the
    forms' stored integer terms G_i divided by prod_i c_i^e_i."""
    n, d = shape
    basis = monomial_basis(n, d)
    forms = []
    for _ in range(n):
        terms = data.draw(st.dictionaries(st.sampled_from(basis), power_coeffs, min_size=1))
        forms.append(Polynomial(n, terms) if any(terms.values()) else Polynomial(n, {basis[0]: 1}))
    f = FormTuple(n, d, tuple(forms))
    exponents = monomial_basis(n, ell)
    want = integer_power_products([g._ints for g in forms], exponents, n)
    for got, terms, e in zip(form_power_products(f, ell), want, exponents, strict=True):
        scale = prod(g._factor**k for g, k in zip(forms, e))
        assert got == Polynomial(n, {m: Fraction(c) / scale for m, c in terms.items()})


def test_rational_coefficients_are_accepted():
    forms = (
        parse_polynomial("1/2*x1^2 + x2^2", 2),
        parse_polynomial("x1*x2 - 1/3*x2^2", 2),
    )
    f = FormTuple(2, 2, forms)
    assert is_complete_intersection(f)
    assert verify_inverse_system(f, associated_form(f))


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=20, deadline=None)
def test_sampled_tuples_have_target_hilbert(seed):
    f = random_ci_tuple(2, 2, seed=seed)
    q = GradedQuotient(f)
    assert q.hilbert() == ci_hilbert(2, 2)
    assert q.socle_coordinate(jacobian_det(f)) == 1


def test_samplers_reject_an_empty_coefficient_range():
    # With bound 0 every draw is zero, so no sample could ever be accepted.
    with pytest.raises(ValueError):
        random_ci_tuple(2, 2, seed=0, coeff_bound=0)
    with pytest.raises(ValueError):
        random_invertible_matrix(2, SplitMix64(0), 0)


def test_invertible_sampler_gives_up_after_its_attempt_cap(monkeypatch):
    import apolar.sampling as sampling

    monkeypatch.setattr(sampling, "determinant", lambda rows: 0)
    with pytest.raises(SamplingError):
        random_invertible_matrix(2, SplitMix64(0))


def test_ci_sampler_gives_up_after_its_attempt_cap(monkeypatch, capsys):
    from apolar.cli import main

    monkeypatch.setattr(GradedQuotient, "is_complete_intersection", lambda self: False)
    with pytest.raises(SamplingError):
        random_ci_tuple(2, 2, seed=0)
    assert main(["tangent", "--n", "2", "--d", "2", "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "--coeff-bound" in err


def assert_verdict_matches_full_hilbert_definition(f):
    """The one-degree verdict against the definition it replaces, read off
    Bareiss elimination alone: the complete intersection Hilbert function in
    every degree, and nothing one degree past the socle.  A fresh
    GradedQuotient's certified dimensions match Bareiss in each of those
    degrees."""
    n, d, s = f.var_count, f.degree, f.socle_degree
    oracle = bareiss_quotient_dims(f, s + 1)
    expected = oracle == ci_hilbert(n, d) + (0,)
    assert is_complete_intersection(f) == expected
    fresh = GradedQuotient(f)
    assert tuple(fresh.quotient_dim(j) for j in range(s + 2)) == oracle
    return expected


small_shape = st.sampled_from([(2, 2), (2, 3), (3, 2)])


@given(small_shape, st.data())
@settings(max_examples=60, deadline=None)
def test_one_degree_verdict_matches_full_hilbert_definition(shape, data):
    n, d = shape
    coeffs = st.lists(st.integers(-1, 1), min_size=dim_forms(n, d), max_size=dim_forms(n, d))
    forms = []
    for _ in range(n):
        vec = data.draw(coeffs.filter(any))
        forms.append(Polynomial.from_coefficient_vector(n, d, vec))
    assert_verdict_matches_full_hilbert_definition(FormTuple(n, d, tuple(forms)))


@pytest.mark.parametrize("n, d", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_one_degree_verdict_on_the_sampler_rejected_draws(n, d):
    """Replays random_ci_tuple(n, d, seed, coeff_bound=1) draw by draw; the
    seeds reach at least one rejected draw for every shape."""
    rejected = 0
    for seed in range(16):
        stream = SplitMix64(seed)
        while True:
            forms = tuple(random_form(n, d, stream, 1) for _ in range(n))
            if any(g.is_zero for g in forms):
                continue
            f = FormTuple(n, d, forms)
            if assert_verdict_matches_full_hilbert_definition(f):
                assert f == random_ci_tuple(n, d, seed, coeff_bound=1)
                break
            rejected += 1
    assert rejected


@pytest.fixture
def ci_passes(monkeypatch):
    """Records each complete intersection pass, one per GradedQuotient, as
    "socle" (its socle-degree certificate), and each ideal rank a quotient
    takes, as the shape of its rows (the degree s + 1 rank of a fallback)."""
    import apolar.ci as ci

    calls = []
    certificate, certified_rank = GradedQuotient._socle_certificate, ci._certified_rank

    def counted_certificate(self):
        calls.append("socle")
        return certificate(self)

    def counted_rank(rows, upper):
        calls.append(rows.shape)
        return certified_rank(rows, upper)

    monkeypatch.setattr(GradedQuotient, "_socle_certificate", counted_certificate)
    monkeypatch.setattr(ci, "_certified_rank", counted_rank)
    return calls


def test_one_complete_intersection_pass_per_tuple_object(ci_passes):
    f = random_ci_tuple(3, 3, seed=7)
    # The sampler's pass proves the tuple in the socle degree, with no rank.
    per_pass = ["socle"]
    assert ci_passes == per_pass
    assert is_complete_intersection(f)
    associated_form(f)
    assert ci_passes == per_pass
    # An equal but distinct tuple shares nothing with the first one.
    twin = FormTuple(f.var_count, f.degree, f.forms)
    assert twin == f and twin is not f
    assert is_complete_intersection(twin)
    assert ci_passes == 2 * per_pass
    assert associated_form(twin) == associated_form(f)
    assert ci_passes == 2 * per_pass


def test_tangent_trial_runs_one_ci_pass_per_tuple(ci_passes):
    from apolar.cli import RunConfig, _sampled_trial, trial_seeds

    n, d = 3, 5
    task = (RunConfig("tangent", n=n, d=d, coeff_bound=5), 0, trial_seeds(1, 1)[0])
    (record,) = _sampled_trial(task)
    assert record["pass"] and record["dim_R_bruteforce"] == 0
    # One pass for the sampled tuple, shared by the sampler, the associated
    # form and the relation count; one for the annihilator's g_i.  Both are
    # proven in the socle degree: no ideal rank, in degree s + 1 or any other.
    per_pass = ["socle"]
    assert ci_passes == 2 * per_pass
    # The same seed again builds fresh tuples and repeats both passes:
    # nothing carries over from one trial to the next.
    assert _sampled_trial(task) == [record]
    assert ci_passes == 4 * per_pass


def test_tangent_trial_eliminates_each_socle_matrix_once(monkeypatch):
    # A (3,5) trial: the tuple's and the g_i's degree-s shift rows, 108 x 91,
    # are each factored once mod p, for the verdict and (the tuple's) for
    # the socle lift; nothing of degree s + 1 (135 x 105) is eliminated, mod
    # p or by Bareiss.
    import apolar.linalg as linalg
    from apolar.cli import RunConfig, _sampled_trial, trial_seeds

    shapes, bareiss = [], []
    echelon, triangularize = linalg._echelon_mod_prime, linalg._triangularize

    def spy_echelon(a, prime):
        shapes.append(a.shape)
        return echelon(a, prime)

    def spy_bareiss(rows, ncols):
        bareiss.append((len(rows), ncols))
        return triangularize(rows, ncols)

    monkeypatch.setattr(linalg, "_echelon_mod_prime", spy_echelon)
    monkeypatch.setattr(linalg, "_triangularize", spy_bareiss)
    task = (RunConfig("tangent", n=3, d=5, coeff_bound=5), 0, trial_seeds(1, 1)[0])
    (record,) = _sampled_trial(task)
    assert record["pass"]
    assert shapes.count((108, 91)) == 2
    assert not {(135, 105), (105, 135)} & set(shapes)
    assert bareiss == []


def through_point(n, d, seed):
    """n random forms of degree d with no x_n^d term, so all vanish at
    e_n = (0, ..., 0, 1); redrawn while a form is zero."""
    stream = SplitMix64(seed)
    top = (0,) * (n - 1) + (d,)
    forms = []
    while len(forms) < n:
        terms = {m: c for m, c in random_form(n, d, stream, 5).terms() if m != top}
        if terms:
            forms.append(Polynomial(n, terms))
    return FormTuple(n, d, tuple(forms))


def test_a_common_point_rank_past_the_socle_lifts_one_vector(monkeypatch):
    # A (4,3) tuple through e_4: its degree-9 ideal misses only y4^9, so the
    # rank of its 336 x 220 shift rows falls one short of the columns, and
    # one factorization and a right kernel of one vector prove it.
    import apolar.linalg as linalg

    shapes, lifted, bareiss = [], [], []
    echelon, lift, triangularize = (
        linalg._echelon_mod_prime, linalg._padic_kernel, linalg._triangularize
    )

    def spy_echelon(a, prime):
        shapes.append(a.shape)
        return echelon(a, prime)

    def spy_lift(*args):
        lifted.append(lift(*args))
        return lifted[-1]

    def spy_bareiss(rows, ncols):
        bareiss.append((len(rows), ncols))
        return triangularize(rows, ncols)

    monkeypatch.setattr(linalg, "_echelon_mod_prime", spy_echelon)
    monkeypatch.setattr(linalg, "_padic_kernel", spy_lift)
    monkeypatch.setattr(linalg, "_triangularize", spy_bareiss)
    f = through_point(4, 3, 0)
    assert f.quotient.ideal_dim(9) == 219
    assert shapes == [(336, 220)]
    assert [len(v) for v in lifted] == [1]
    assert bareiss == []


@pytest.fixture
def verdict_route(monkeypatch):
    """Records the verdict's route: each 2 x 2 minor test mod p as its
    result, and each rank the quotient takes as "rank"."""
    import apolar.ci as ci

    route = []
    rank_two, certified_rank = ci._rank_two, ci._certified_rank

    def spy_minor(h):
        route.append(rank_two(h))
        return route[-1]

    def spy_rank(rows, upper):
        route.append("rank")
        return certified_rank(rows, upper)

    monkeypatch.setattr(ci, "_rank_two", spy_minor)
    monkeypatch.setattr(ci, "_certified_rank", spy_rank)
    return route


def assert_refused_by_the_minor(f, route):
    """The rank of the socle-degree shift rows meets its bound W - 1, the
    kernel line's form is a pure power, whose minors all vanish, and the
    degree s + 1 rank then finds no complete intersection."""
    route.clear()
    assert not is_complete_intersection(f)
    assert f.quotient.quotient_dim(f.socle_degree) == 1
    assert route[-1] == "rank" and route[:-1] and not any(route[:-1])
    with pytest.raises(DegenerateTupleError):
        associated_form(f)


@pytest.mark.parametrize("cutoff", [None, 0])
def test_shared_factor_is_refused_by_the_pure_power_minor(verdict_route, monkeypatch, cutoff):
    # (x1^2, x1 x2) vanish on x1 = 0: I_2 is the perp of y2^2, a pure power.
    import apolar.linalg as linalg

    if cutoff is not None:
        monkeypatch.setattr(linalg, "EXACT_MAX_ENTRIES", cutoff)
    f = FormTuple(2, 2, (parse_polynomial("x1^2", 2), parse_polynomial("x1*x2", 2)))
    assert_refused_by_the_minor(f, verdict_route)


@pytest.mark.parametrize("cutoff", [None, 0])
@pytest.mark.parametrize("n, d", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_tuples_through_a_common_point_are_refused_by_the_pure_power_minor(
    verdict_route, monkeypatch, n, d, cutoff
):
    # Forms through e_n have quotient dimension 1 in degree s, from the form
    # y_n^s; under the size rule (the default cutoff) the shapes up to (3,2)
    # are read by Bareiss and the rest mod p, and at cutoff 0 all mod p.
    import apolar.linalg as linalg

    if cutoff is not None:
        monkeypatch.setattr(linalg, "EXACT_MAX_ENTRIES", cutoff)
    for seed in range(3):
        assert_refused_by_the_minor(through_point(n, d, seed), verdict_route)


GOLDEN_CUBIC = (
    "953/6396*y1^3 - 27/4264*y1^2*y2 + 515/2132*y1^2*y3 + 9/2132*y1*y2^2 + 6/533*y1*y2*y3"
    " + 565/4264*y1*y3^2 + 417/123656*y2^3 + 69/123656*y2^2*y3 - 441/123656*y2*y3^2"
    " + 9539/370968*y3^3"
)


@pytest.mark.parametrize(
    "text, n, d, certified",
    [("y1^2", 2, 2, False), ("y1^2*y2^2*y3^2", 3, 3, True), (GOLDEN_CUBIC, 3, 2, True)],
)
def test_stratify_proves_u_res_in_the_socle_degree(verdict_route, text, n, d, certified):
    # The golden stratify forms' U_Res flags (tests/golden/stratify_*.jsonl),
    # and the route behind them:
    # the g_i of a form in U_Res are proven by a minor in the socle degree,
    # and those of y1^2, whose moments are a pure power, are refused there
    # and by the degree s + 1 rank.
    from apolar import stratify

    report = stratify(parse_polynomial(text, n), n, d)
    assert report.in_URes == certified and report.in_Z == (not certified)
    if certified:
        assert "rank" not in verdict_route and verdict_route[-1] is True
    else:
        assert verdict_route[-1] == "rank" and not any(verdict_route[:-1])


@given(
    st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
    st.sampled_from([None, 0]),
    st.booleans(),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_socle_degree_verdict_matches_the_degree_s_plus_1_rank(shape, cutoff, through, data):
    # Coefficients in {-1, 0, 1}, and with `through` no x_n^d term, so that
    # degenerate draws are frequent; at cutoff 0 every verdict is read mod p.
    from unittest import mock

    import apolar.linalg as linalg

    n, d = shape
    top = (0,) * (n - 1) + (d,)
    basis = monomial_basis(n, d)
    coeffs = st.lists(st.integers(-1, 1), min_size=len(basis), max_size=len(basis))
    forms = []
    for _ in range(n):
        vec = data.draw(coeffs.filter(lambda v: any(c for m, c in zip(basis, v) if m != top)))
        terms = {m: c for m, c in zip(basis, vec) if c and not (through and m == top)}
        forms.append(Polynomial(n, terms))
    f = FormTuple(n, d, tuple(forms))
    cutoff = linalg.EXACT_MAX_ENTRIES if cutoff is None else cutoff
    with mock.patch.object(linalg, "EXACT_MAX_ENTRIES", cutoff):
        verdict = is_complete_intersection(f)
        assert verdict == (GradedQuotient(f).quotient_dim(f.socle_degree + 1) == 0)
    if n * d < 9:
        assert_verdict_matches_full_hilbert_definition(f)


@st.composite
def integer_forms(draw):
    """n, e and one to three nonzero integer forms of degree e in n variables,
    as monomial -> coefficient dicts."""
    n, e = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    terms = st.dictionaries(
        st.sampled_from(monomial_basis(n, e)), st.integers(-5, 5).filter(bool), min_size=1
    )
    return n, e, draw(st.lists(terms, min_size=1, max_size=3))


@given(integer_forms(), st.integers(0, 3))
@settings(deadline=None)
def test_term_rows_are_the_coefficients_of_every_shifted_form(forms, k):
    # The rows read their columns from a cached table; the oracle multiplies
    # each form by each shift monomial and reads the product's coordinates.
    n, e, gs = forms
    want = [
        list((Polynomial(n, {m: 1}) * Polynomial(n, g)).coefficient_vector(e + k))
        for g in gs
        for m in monomial_basis(n, k)
    ]
    assert _term_rows(gs, k).tolist() == want


# 2^63 - 1 is the largest size int64 holds; 2^63 and past it need Python ints.
edge_int = st.one_of(
    st.integers(-5, 5), st.sampled_from([2**63 - 1, -(2**63 - 1), 2**63, -(2**63), 2**70])
)


@st.composite
def edge_integer_forms(draw):
    """n <= 4, e <= 5 and one to three integer forms of degree e in n
    variables as monomial -> coefficient dicts, with zero coefficients and
    coefficients on both sides of the int64 edge."""
    n, e = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    terms = st.dictionaries(st.sampled_from(monomial_basis(n, e)), edge_int, min_size=1)
    return n, e, draw(st.lists(terms, min_size=1, max_size=3))


@given(edge_integer_forms(), st.integers(0, 4))
@example((2, 1, [{(1, 0): 2**63 - 1, (0, 1): 0}]), 0)
@example((2, 1, [{(1, 0): 2**63}, {(0, 1): -(2**63 - 1)}]), 2)
@example((3, 2, [{(2, 0, 0): 0}]), 1)
@settings(deadline=None)
def test_term_rows_array_matches_the_list_oracle(forms, k):
    # One scatter into one array, int64 exactly when every coefficient is
    # below 2^63 in size, against the rows written one entry at a time.
    n, e, gs = forms
    rows = _term_rows(gs, k)
    top = max(abs(c) for g in gs for c in g.values())
    assert rows.dtype == (np.int64 if top < 2**63 else object)
    assert rows.shape == (len(gs) * dim_forms(n, k), dim_forms(n, e + k))
    assert rows.tolist() == list_term_rows(gs, k)
