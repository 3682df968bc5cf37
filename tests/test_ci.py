from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar import (
    DegenerateTupleError,
    FormTuple,
    GradedQuotient,
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
    random_invertible_matrix,
    roundtrip_span,
    socle_coordinate,
    verify_inverse_system,
)


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
    assert socle_coordinate(GradedQuotient(f), parse_polynomial("x1^2", 2)) == 0


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


def test_exact_only_engine_agrees():
    for seed in range(3):
        f = random_ci_tuple(2, 3, seed=seed)
        fast = GradedQuotient(f)
        slow = GradedQuotient(f, exact_only=True)
        assert fast.hilbert() == slow.hilbert()


def test_form_power_products_counts():
    f = power_tuple(3, 2)
    assert len(form_power_products(f, 2)) == 6
    assert len(form_power_products(f, 3)) == 10


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


@pytest.fixture
def ci_passes(monkeypatch):
    """Counts the mod-p ranks the complete intersection checks take, one per
    degree of a GradedQuotient pass."""
    import apolar.ci as ci

    calls = []
    rank_mod_prime = ci.rank_mod_prime

    def counted(rows, *args):
        calls.append(len(rows))
        return rank_mod_prime(rows, *args)

    monkeypatch.setattr(ci, "rank_mod_prime", counted)
    return calls


def test_one_complete_intersection_pass_per_tuple_object(ci_passes):
    f = random_ci_tuple(3, 3, seed=7)
    # The sampler's pass covers degrees d..s+1.
    per_pass = f.socle_degree + 2 - f.degree
    assert len(ci_passes) == per_pass
    assert is_complete_intersection(f)
    associated_form(f)
    assert len(ci_passes) == per_pass
    # An equal but distinct tuple shares nothing with the first one.
    twin = FormTuple(f.var_count, f.degree, f.forms)
    assert twin == f and twin is not f
    assert is_complete_intersection(twin)
    assert len(ci_passes) == 2 * per_pass
    assert associated_form(twin) == associated_form(f)
    assert len(ci_passes) == 2 * per_pass


def test_tangent_trial_runs_one_ci_pass_per_tuple(ci_passes):
    from apolar.cli import _tangent_trial, trial_seeds

    n, d = 3, 5
    task = (0, trial_seeds(1, 1)[0], n, d, 5)
    record = _tangent_trial(task)
    assert record["pass"] and record["dim_R_bruteforce"] == 0
    # One pass for the sampled tuple, shared by the sampler, the associated
    # form and the relation count; one for the annihilator's g_i.
    per_pass = n * (d - 1) + 2 - d
    assert len(ci_passes) == 2 * per_pass
    # The same seed again builds fresh tuples and repeats both passes:
    # nothing carries over from one trial to the next.
    assert _tangent_trial(task) == record
    assert len(ci_passes) == 4 * per_pass
