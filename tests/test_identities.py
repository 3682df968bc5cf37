import json
import random

import identity_reference as ref
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
from apolar.identities import a3_lhs

# Each identity's left side, checked and by reference, and the parameters
# compared, past the CLI defaults.
LEFT_SIDES = {
    "A1": (lambda p, r: check_a1(p, r).lhs, ref.a1_lhs),
    "A2": (lambda p, r: check_a2(p, r).lhs, ref.a2_lhs),
    "A3": (lambda n, m: check_a3(n, m).lhs, ref.a3_lhs),
    "AUX": (lambda n, m: tuple(res.lhs for res in check_aux(n, m)), ref.aux_lhs),
}
COMPARED = [
    *((ident, p, r) for ident in ("A1", "A2") for p in range(1, 61) for r in range(1, 61)),
    *(("A3", n, m) for n in range(5, 46) for m in range(5, n + 2)),
    *(("AUX", n, m) for n in range(2, 46) for m in range(1, 61)),
]

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
            assert a3_lhs(n, m) == ref.a3_lhs_enumerated(n, m)


def test_a3_constraint_readings_differ():
    # With the last composition part allowed to be 1 the sum changes and no
    # longer matches the closed form; the implementation keeps the >= 2
    # reading.
    strict = ref.a3_lhs_enumerated(6, 6, last_min=2)
    loose = ref.a3_lhs_enumerated(6, 6, last_min=1)
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


@pytest.fixture(scope="module")
def reference_left_sides():
    return {key: LEFT_SIDES[key[0]][1](*key[1:]) for key in COMPARED}


@pytest.mark.parametrize("order", ["ascending", "descending", "interleaved"])
def test_left_sides_match_reference_in_any_call_order(order, reference_left_sides):
    # The cached rows, columns and A3 series grow and are evicted differently
    # in each order; no value may depend on it.
    keys = list(COMPARED)
    if order == "descending":
        keys.reverse()
    elif order == "interleaved":
        # A fixed shuffle: identities and far-apart parameters alternate.
        random.Random(19).shuffle(keys)
    for key in keys:
        assert LEFT_SIDES[key[0]][0](*key[1:]) == reference_left_sides[key], key


def test_left_sides_read_the_tables_and_right_sides_never_do(monkeypatch):
    # A wrong Pascal row or column shows as a failed check: the right sides
    # read binom, never the tables the left sides sum.
    import apolar.identities

    cases = [lambda: [check_a1(5, 3)], lambda: [check_a2(5, 3)], lambda: list(check_aux(6, 4))]
    honest = [case() for case in cases]
    for name in ("pascal_row", "pascal_column"):
        table = getattr(apolar.identities, name)
        with monkeypatch.context() as patch:
            patch.setattr(
                apolar.identities, name, lambda *args: tuple(x + 1 for x in table(*args))
            )
            for case, before in zip(cases, honest):
                after = case()
                assert [res.rhs for res in after] == [res.rhs for res in before]
                assert not any(res.passed for res in after), (name, after)


def test_sums_sign_and_weigh_every_table_entry(monkeypatch):
    # Arbitrary tables make every sum nonzero, so a wrong sign, weight or
    # starting term shows even where the true sums vanish, as the auxiliary
    # sums do for m >= 2.  The reference sums the same tables term by term.
    import apolar.identities

    rng = random.Random(29)
    rows = {a: tuple(rng.randint(-99, 99) for _ in range(a + 1)) for a in range(1, 12)}
    cols = {k: tuple(rng.randint(-99, 99) for _ in range(80)) for k in range(10)}
    monkeypatch.setattr(apolar.identities, "pascal_row", rows.__getitem__)
    monkeypatch.setattr(apolar.identities, "pascal_column", lambda k, top: cols[k])

    def a12(p, r, k):
        return sum(
            (-1) ** m * rows[k + 1][m] * cols[k][p * (r - 1) - m * r]
            for m in range(p * (r - 1) // r + 1)
        )

    for p in range(1, 9):
        for r in range(1, 9):
            assert check_a1(p, r).lhs == a12(p, r, p - 1), (p, r)
            assert check_a2(p, r).lhs == a12(p, r, p), (p, r)
    for n in range(2, 10):
        for m in range(1, 16):
            terms = {
                p: (-1) ** p * rows[n + 1][m - p] * cols[n - 1][p]
                for p in range(m + 1)
                if m - p <= n + 1
            }
            expected = (sum(terms.values()), sum(p * t for p, t in terms.items()))
            assert tuple(res.lhs for res in check_aux(n, m)) == expected, (n, m)


def test_identity_result_is_immutable_and_hashable():
    res = check_a1(2, 3)
    with pytest.raises(AttributeError):
        res.lhs = 0
    assert repr(res) == "IdentityResult(identity_id='A1', params=(2, 3), lhs=1, rhs=1)"
    assert len({res, check_a1(2, 3), check_a2(2, 3)}) == 2


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
