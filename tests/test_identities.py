import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar import (
    binom,
    check_a1,
    check_a2,
    check_a3,
    check_aux,
    check_delta_consistency,
    check_dimt2_equals_n,
    delta,
    expected_N,
)
from apolar.identities import a3_lhs, a3_lhs_enumerated


def test_delta_values():
    assert delta(1, 4) == binom(4, 3)
    assert delta(2, 4) == 3 * binom(5, 4)
    assert delta(1, 2) == 0


def test_a1_small_values():
    res = check_a1(1, 1)
    assert res.lhs == res.rhs == 1
    assert res.passed
    assert check_a1(3, 2).passed


def test_a2_small_values():
    res = check_a2(2, 2)
    assert res.lhs == 3 == binom(3, 2)
    assert check_a2(1, 5).rhs == 5


def test_a3_series_matches_literal_enumeration():
    for n in range(5, 10):
        for m in range(5, n + 2):
            assert a3_lhs(n, m) == a3_lhs_enumerated(n, m)


def test_a3_constraint_readings_differ():
    # With the last composition part allowed to be 1 the sum changes and no
    # longer matches the closed form; the implementation keeps the >= 2
    # reading.
    strict = a3_lhs_enumerated(6, 6, last_min=2)
    loose = a3_lhs_enumerated(6, 6, last_min=1)
    assert strict != loose
    assert strict == check_a3(6, 6).rhs
    assert loose != check_a3(6, 6).rhs


def test_a3_closed_form_at_m_five():
    for n in range(5, 12):
        res = check_a3(n, 5)
        assert res.rhs == -4 * binom(n + 1, 5)
        assert res.passed


def test_a3_rejects_out_of_range():
    with pytest.raises(ValueError):
        check_a3(4, 5)
    with pytest.raises(ValueError):
        check_a3(6, 8)


def test_aux_at_m_one_hits_the_documented_exception():
    plain, weighted = check_aux(7, 1)
    assert plain.lhs == plain.rhs == 1
    assert weighted.lhs == weighted.rhs == -7
    assert plain.passed and weighted.passed


def test_aux_vanishes_from_m_two():
    for n in (2, 5, 11):
        for m in (2, 3, 9):
            plain, weighted = check_aux(n, m)
            assert plain.lhs == 0 and weighted.lhs == 0
            assert plain.passed and weighted.passed


def test_dimt2_matches_expected_n():
    for n in (2, 3, 5):
        for d in (2, 3, 4):
            res = check_dimt2_equals_n(n, d)
            assert res.passed
            assert res.rhs == expected_N(n, d)


def test_delta_consistency_on_valid_grid():
    for n in range(3, 8):
        for d in range(2, 8):
            if n == 3 and d < 3:
                continue
            assert check_delta_consistency(n, d).passed


def test_delta_consistency_right_side_never_reads_the_band_sum(monkeypatch):
    # The right side is the conormal count, so a wrong band sum shows.
    import apolar.identities
    import apolar.tangent

    for module in (apolar.tangent, apolar.identities):
        monkeypatch.setattr(module, "tangent_band_sum", lambda n, d, first_m: 0)
    result = check_delta_consistency(4, 4)
    assert (result.lhs, result.rhs) == (0, 20)
    assert not result.passed


def test_identity_result_json_shape():
    rec = check_a1(2, 3).to_json_dict()
    assert json.dumps(rec) == (
        '{"identity_id": "A1", "params": [2, 3], "lhs": 1, "rhs": 1, "pass": true}'
    )


@given(st.integers(1, 60), st.integers(1, 60))
@settings(deadline=None)
def test_a1_a2_hold_everywhere(p, r):
    assert check_a1(p, r).passed
    assert check_a2(p, r).passed


@given(st.integers(2, 40), st.integers(2, 60))
def test_aux_holds_everywhere(n, m):
    plain, weighted = check_aux(n, m)
    assert plain.passed and weighted.passed
