"""The one certified modular kernel reader, the p-adic lift behind
linalg.rank's left kernels, linalg.kernel_basis, SubspaceBasis.from_spanning
and the socle line, checked against the Bareiss core and against sympy,
including the cases where the certificate must fail and the exact fallback
must answer, and the exact route that solves keep."""
from fractions import Fraction
from itertools import chain
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DM

import apolar.linalg as linalg
from apolar import (
    FormTuple,
    SplitMix64,
    SubspaceBasis,
    associated_form,
    block_solve,
    catalecticant,
    kernel_basis,
    matrix_inverse,
    parse_polynomial,
    random_ci_tuple,
    rank,
    relation_space_dim_bruteforce,
)
from apolar.ci import _shift_rows
from apolar.cli import trial_seeds
from apolar.linalg import (
    PRIME,
    _certified_rank,
    _exact_kernel_basis,
    _integer_rows,
    _kernel,
    _triangularize,
    _verify_kernel,
    rank_mod_prime,
)
from bareiss_reference import bareiss_socle_kernel, eager_echelon_mod_prime

P = PRIME

small_int = st.integers(-7, 7)
# Entries that vanish or coincide mod PRIME make the prime unlucky.
unlucky_int = st.one_of(small_int, st.sampled_from([P, -P, 2 * P, P + 1, P - 1]))
small_fraction = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))


@st.composite
def matrices(draw, entries, max_side=6):
    nrows = draw(st.integers(1, max_side))
    ncols = draw(st.integers(1, max_side))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows))


@st.composite
def low_rank_matrices(draw, max_side=7, max_entry=7):
    """B * C with an inner dimension below both sides, so the kernels on
    both sides are nonzero and the p-adic lift is exercised."""
    nrows = draw(st.integers(2, max_side))
    ncols = draw(st.integers(2, max_side))
    inner = draw(st.integers(1, min(nrows, ncols) - 1))
    entry = st.integers(-max_entry, max_entry)
    b = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner), min_size=nrows,
                      max_size=nrows))
    c = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=inner,
                      max_size=inner))
    return [[sum(x * y for x, y in zip(r, col)) for col in zip(*c)] for r in b]


def sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(Fraction(x)) for x in r] for r in rows])


def sympy_nullspace(rows) -> tuple:
    return tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in v) for v in sympy_matrix(rows).nullspace()
    )


def sympy_rref_rows(rows) -> tuple:
    """The nonzero rows of sympy's reduced row echelon form."""
    reduced, pivots = sympy_matrix(rows).rref()
    return tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in reduced.row(i)) for i in range(len(pivots))
    )


def bareiss_rank(rows) -> int:
    return len(_triangularize(_integer_rows(rows), len(rows[0])))


def check_against_oracles(m):
    assert rank(m) == bareiss_rank(m) == sympy_matrix(m).rank()
    ncols = len(m[0])
    vectors = kernel_basis(m).vectors
    assert vectors == _exact_kernel_basis(_integer_rows(m), ncols).vectors == sympy_nullspace(m)
    assert SubspaceBasis.from_spanning(m, ncols).vectors == sympy_rref_rows(m)


@given(matrices(small_int))
@example([[P, 1], [0, 1]])
@example([[1, 1, 0], [0, P, 1]])
@settings(deadline=None)
def test_integer_matrices_match_bareiss_and_sympy(m):
    check_against_oracles(m)


@given(matrices(small_fraction, max_side=5))
@settings(deadline=None)
def test_rational_matrices_match_bareiss_and_sympy(m):
    check_against_oracles(m)


@given(low_rank_matrices())
@settings(deadline=None)
def test_rank_deficient_matrices_match_bareiss_and_sympy(m):
    check_against_oracles(m)


@given(low_rank_matrices(max_side=5, max_entry=2**24))
@settings(deadline=None, max_examples=50)
def test_wide_entries_match_bareiss_and_sympy(m):
    # Kernel entries of up to about a hundred bits, lifted through several
    # p-adic digits.
    check_against_oracles(m)


@given(matrices(unlucky_int, max_side=5))
@settings(deadline=None)
def test_unlucky_prime_entries_match_bareiss_and_sympy(m):
    check_against_oracles(m)


@given(st.one_of(matrices(small_int), low_rank_matrices(), matrices(unlucky_int, max_side=5)))
@example([[P, 1], [0, 1]])
@settings(deadline=None)
def test_certified_rank_matches_sympy_under_loose_and_tight_bounds(m):
    # The loosest bound rank passes, min(rows, cols), and the tightest, the
    # rank itself; shapes run wide and tall.
    exact = sympy_matrix(m).rank()
    ints = _integer_rows(m)
    assert _certified_rank(ints, min(len(m), len(m[0]))) == exact
    assert _certified_rank(ints, exact) == exact


@pytest.fixture
def paths(monkeypatch):
    """Records, in order, each p-adic lift as it starts and each Bareiss
    elimination made through the linalg module; a lift that falls back is
    "p-adic" followed by "bareiss"."""
    seen = []
    lift, bareiss = linalg._padic_kernel, linalg._triangularize

    def spy_lift(*args):
        seen.append("p-adic")
        return lift(*args)

    def spy_bareiss(*args):
        seen.append("bareiss")
        return bareiss(*args)

    monkeypatch.setattr(linalg, "_padic_kernel", spy_lift)
    monkeypatch.setattr(linalg, "_triangularize", spy_bareiss)
    return seen


def test_full_rank_mod_p_needs_no_kernel(paths):
    assert rank([[1, 2, 3], [4, 5, 7]]) == 2
    assert paths == []


def test_rank_drop_mod_p_falls_back_to_bareiss(paths):
    # Mod PRIME both rows end in the same residues, so the rank mod p is 1;
    # the left kernel lifted from it fails the exact check up to the step
    # cap, and Bareiss decides.
    m = [[P, 1], [0, 1]]
    assert rank(m) == 2 == sympy_matrix(m).rank()
    assert paths == ["p-adic", "bareiss"]


def test_rank_drop_mod_p_with_unreconstructible_kernel_falls_back(paths):
    # The left kernel is spanned by (1/p, -1/p, 1): a denominator p, which
    # no lift mod p reconstructs.
    m = [[1, 0, 0], [1, P, 0], [0, 1, 0]]
    assert rank(m) == 2 == sympy_matrix(m).rank()
    assert paths == ["p-adic", "bareiss"]


def test_kernel_with_shifted_pivots_mod_p_falls_back(paths):
    # Mod PRIME the pivot columns are 0 and 2; over the rationals they are
    # 0 and 1, and the kernel vector carries 1/PRIME.
    m = [[1, 1, 0], [0, P, 1]]
    vectors = kernel_basis(m).vectors
    assert vectors == ((Fraction(1, P), Fraction(-1, P), Fraction(1)),) == sympy_nullspace(m)
    assert paths == ["p-adic", "bareiss"]


def test_kernel_after_rank_drop_mod_p_falls_back(paths):
    # Mod PRIME the rows agree, so the lift sees pivot column 0 alone; its
    # two vectors fail the exact check, and Bareiss decides.
    m = [[1, 0, 1], [1, P, 1 + P]]
    assert kernel_basis(m).vectors == ((-1, -1, 1),) == sympy_nullspace(m)
    assert paths == ["p-adic", "bareiss"]


def test_tight_bound_is_not_reported_after_a_rank_drop_mod_p(paths):
    # Mod PRIME the rank is 1, short of the true rank 2 that the bound
    # states, so the bound is not met and the exact route answers.
    m = [[P, 1], [0, 1]]
    assert _certified_rank(m, 2) == 2 == sympy_matrix(m).rank()
    assert paths == ["p-adic", "bareiss"]


def test_degenerate_tuple_ideal_rank_is_certified_by_its_left_kernel(paths):
    # (x1^2, x1 x2) shares the factor x1: its degree-3 ideal misses x2^3, so
    # the mod-p rank 3 falls short of the column count, and the left kernel
    # (the repeated row x1^2 x2) proves the rank without Bareiss.
    f = FormTuple(2, 2, (parse_polynomial("x1^2", 2), parse_polynomial("x1*x2", 2)))
    assert f.quotient.ideal_dim(3) == 3
    assert paths == ["p-adic"]


def test_left_kernel_certificate_costs_one_elimination_beyond_the_rank(paths, eliminations):
    # The degenerate tuple above: the column profile that gives the mod-p
    # rank is the left kernel's row profile, so the lift adds only the
    # reduced [A_R | I].
    f = FormTuple(2, 2, (parse_polynomial("x1^2", 2), parse_polynomial("x1*x2", 2)))
    assert _certified_rank(_shift_rows(f.forms, 1), 4) == 3
    assert paths == ["p-adic"]
    assert eliminations == [2]


@pytest.mark.parametrize("n, d, want", [(4, 4, 20), (6, 2, 70)])
def test_relation_rank_is_certified_by_its_left_kernel(paths, n, d, want):
    # Acceptance criterion 2's first seed at each shape with a nonzero
    # relation space: the product rank falls short of the row count, and a
    # left kernel verified exactly proves it, with no Bareiss.
    f = random_ci_tuple(n, d, trial_seeds(200 + 10 * n + d, 3)[0], coeff_bound=2)
    paths.clear()
    assert relation_space_dim_bruteforce(f) == want
    assert paths == ["p-adic"]


def test_from_spanning_takes_the_certified_route(paths):
    m = [[2, 4, 0, 1], [1, 2, 1, 3], [3, 6, 1, 4]]
    assert SubspaceBasis.from_spanning(m, 4).vectors == sympy_rref_rows(m)
    assert paths == ["p-adic"]


def test_from_spanning_with_shifted_pivots_mod_p_falls_back(paths):
    # The kernel case above, read as a spanning set: mod PRIME the pivot
    # columns are 0 and 2, over the rationals 0 and 1.
    m = [[1, 1, 0], [0, P, 1]]
    assert SubspaceBasis.from_spanning(m, 3).vectors == sympy_rref_rows(m)
    assert paths == ["p-adic", "bareiss"]


def test_ideal_piece_takes_the_certified_route(paths):
    f = random_ci_tuple(3, 3, SplitMix64(5).next_u64())
    paths.clear()
    piece = f.quotient.ideal_piece(5)
    assert piece.vectors == sympy_rref_rows(_shift_rows(f.forms, 5 - f.degree))
    assert paths == ["p-adic"]


def test_solves_and_the_socle_functional_stay_exact(paths):
    # Small solves skip the certified try, which costs more than Bareiss on
    # them.  The socle kernel, entries of hundreds of bits, is lifted
    # p-adically and verified exactly, with no Bareiss.
    assert block_solve([[2, 1], [1, 1]], [[1], [2]]).entries == ((1,), (-3,))
    assert paths == ["bareiss"]
    paths.clear()
    assert matrix_inverse([[2, 1], [1, 1]]).entries == ((1, -1), (-1, 2))
    assert paths == ["bareiss"]
    f = random_ci_tuple(2, 3, SplitMix64(5).next_u64())
    paths.clear()
    f.quotient.socle_functional()
    assert paths == ["p-adic"]


def test_verify_kernel_accepts_the_reduced_echelon_basis():
    rows = [[1, 1, 0]]
    assert _verify_kernel(rows, 3, [0], [(-1, 1, 0), (0, 0, 1)])


def test_verify_kernel_rejects_support_right_of_the_free_column():
    # A true kernel basis, but for the wrong pivot column: (1, -1, 0) has its
    # pivot entry right of its free column 0, so column 1 is not shown to
    # depend on earlier columns.
    rows = [[1, 1, 0]]
    assert not _verify_kernel(rows, 3, [1], [(1, -1, 0), (0, 0, 1)])


def test_verify_kernel_rejects_a_vector_outside_the_kernel():
    assert not _verify_kernel([[1, 2]], 2, [0], [(Fraction(-1), Fraction(1))])
    assert _verify_kernel([[1, 2]], 2, [0], [(Fraction(-2), Fraction(1))])


def test_verify_kernel_rejects_a_wrong_count():
    assert not _verify_kernel([[1, 2, 0]], 3, [0], [(-2, 1, 0)])


def lift_rank(rows) -> int:
    """sympy's rank of the rows mod PRIME."""
    return DM(rows, sympy.GF(P)).rank()


def guard_edge(ncols: int) -> int:
    """The largest entry size the int64 bounds of a lift of ncols - 1 rows
    allow; past it the lift runs on Python ints."""
    return (2**62 - 1) // ((ncols - 1) * P)


@st.composite
def corank_one_matrices(draw, at_guard_edge=False, max_side=6):
    """ncols - 1 rows of ncols entries, which for almost every draw are
    independent, so the kernel is a line, then negated copies of some of
    them, all in random order.  At the guard's edge the entries run up to
    the largest size the lift takes."""
    ncols = draw(st.integers(2, max_side))
    if at_guard_edge:
        edge = guard_edge(ncols)
        entries = st.one_of(st.integers(-edge, edge), st.sampled_from([edge, -edge, edge - 1]))
    else:
        entries = small_int
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, min_size=ncols - 1, max_size=ncols - 1))
    copies = draw(st.lists(st.sampled_from(base), max_size=2))
    return draw(st.permutations(base + [[-x for x in r] for r in copies]))


@given(corank_one_matrices())
@settings(deadline=None)
def test_kernel_line_matches_bareiss_and_sympy(m):
    vectors = _kernel(m, len(m[0])).vectors
    assert vectors == _exact_kernel_basis(m, len(m[0])).vectors == sympy_nullspace(m)


@given(corank_one_matrices(at_guard_edge=True))
@settings(deadline=None, max_examples=50)
def test_kernel_line_at_the_guard_edge_matches_bareiss_and_sympy(m):
    # Entries as wide as the int64 bounds allow: an overflow anywhere in the
    # lift would fail the exact check and show as a Bareiss call.
    with mock.patch.object(linalg, "_triangularize", wraps=linalg._triangularize) as bareiss:
        vectors = _kernel(m, len(m[0])).vectors
    if lift_rank(m) == len(m[0]) - 1:
        assert not bareiss.called
    assert vectors == _exact_kernel_basis(m, len(m[0])).vectors == sympy_nullspace(m)


@pytest.mark.parametrize("n, d", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 5), (4, 3)])
def test_kernel_line_lifts_the_socle_kernel(paths, n, d):
    f = random_ci_tuple(n, d, SplitMix64(5).next_u64())
    rows = _shift_rows(f.forms, f.socle_degree - f.degree)
    paths.clear()
    vectors = _kernel(rows, len(rows[0])).vectors
    assert paths == ["p-adic"]
    assert vectors == bareiss_socle_kernel(f) == sympy_nullspace(rows)


def test_catalecticant_kernel_of_an_associated_form_is_lifted(paths):
    # The degree-5 catalecticant of a (3,5) associated form: 36 x 21, entries
    # of about two hundred bits, past the int64 bounds, and a kernel of
    # dimension 3 spanned by the tuple.  The lift answers it on Python ints.
    f = random_ci_tuple(3, 5, SplitMix64(11).next_u64())
    cat = catalecticant(associated_form(f), 5)
    assert (cat.nrows, cat.ncols) == (36, 21)
    assert max(abs(x).bit_length() for x in chain.from_iterable(_integer_rows(cat.entries))) > 150
    paths.clear()
    basis = kernel_basis(cat)
    assert paths == ["p-adic"]
    assert basis.dimension == 3
    assert basis.same_span(SubspaceBasis.from_spanning(f.coefficient_rows(), 21))
    assert basis.vectors == sympy_nullspace(cat.entries)


@pytest.fixture
def eliminations(monkeypatch):
    """The number of mod-p eliminations made, in a one-element list."""
    count = [0]
    echelon = linalg._echelon_mod_prime

    def spy_echelon(*args, **kwargs):
        count[0] += 1
        return echelon(*args, **kwargs)

    monkeypatch.setattr(linalg, "_echelon_mod_prime", spy_echelon)
    return count


def test_kernel_line_falls_back_when_the_mod_p_rank_is_short(paths, eliminations):
    # Mod PRIME the second row vanishes: rank 1, short of the rational 2, so
    # the lift's two vectors fail the exact check and Bareiss answers.
    m = [[1, 0, 0], [0, P, P]]
    assert _kernel(m, 3).vectors == ((0, -1, 1),) == sympy_nullspace(m)
    assert paths == ["p-adic", "bareiss"]
    assert eliminations == [2]


def test_kernel_line_past_the_int64_guard_stays_on_the_lift(paths, eliminations):
    # At the guard's edge the lift runs in int64; one past it, where int64
    # products of 2^45 by a digit would overflow, and past int64 itself, it
    # runs on Python ints.  Each answers alone, in two eliminations.
    edge = guard_edge(3)
    for top in (edge, edge + 1, 2**45 + 1, 2**200 + 1):
        m = [[top, -edge, 1], [1, edge, -edge]]
        assert lift_rank(m) == 2
        assert _kernel(m, 3).vectors == sympy_nullspace(m)
        assert paths == ["p-adic"] and eliminations == [2]
        paths.clear()
        eliminations[0] = 0


def test_kernel_line_falls_back_at_the_step_cap(paths, monkeypatch):
    # Mod PRIME the last row is twice the second less the first, so the
    # rank is 2, as for a line; over the rationals the matrix is invertible.
    # Every lifted candidate fails the exact check until the Hadamard bound
    # ends the lift, and Bareiss finds no kernel.
    verdicts = []
    verify = linalg._verify_kernel

    def spy_verify(*args):
        verdicts.append(verify(*args))
        return verdicts[-1]

    monkeypatch.setattr(linalg, "_verify_kernel", spy_verify)
    m = [[1, 2, 3], [4, 5, 6], [7, 8, 9 + P]]
    assert _kernel(m, 3).vectors == () == sympy_nullspace(m)
    assert paths == ["p-adic", "bareiss"]
    assert verdicts and not any(verdicts)


# The lazy loop leaves up to (2^63 - p) // (p - 1)^2 rank-one updates
# unreduced: 8192 mod PRIME, and 2 mod 2^31 - 1, where the periodic
# reduction of the rows still to be updated then runs on small inputs.
ECHELON_PRIMES = (P, 2**31 - 1)


@st.composite
def residue_matrices(draw, max_side=8):
    """A prime from ECHELON_PRIMES and a wide, tall or square matrix of
    residues mod it, either drawn entry by entry or a product B C mod p of
    lower rank.  Entries run to p - 1, whose products drive the unreduced
    entries furthest below zero after an update."""
    p = draw(st.sampled_from(ECHELON_PRIMES))
    entry = st.one_of(st.integers(0, p - 1), st.sampled_from([0, 1, p - 2, p - 1]))
    nrows, ncols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))

    def block(h, w):
        return draw(st.lists(st.lists(entry, min_size=w, max_size=w), min_size=h, max_size=h))

    if min(nrows, ncols) > 1 and draw(st.booleans()):
        inner = draw(st.integers(1, min(nrows, ncols) - 1))
        b, c = block(nrows, inner), block(inner, ncols)
        m = [[sum(x * y for x, y in zip(r, col)) % p for col in zip(*c)] for r in b]
    else:
        m = block(nrows, ncols)
    return p, m


# p - 1 for p = 2^31 - 1: a full-rank example mostly of such entries runs
# four pivots, so the reduction due every two pivots runs before the third.
M = 2**31 - 2


@given(residue_matrices(), st.booleans())
@example((M + 1, [[M, M, M, M], [M, 1, 2, 3], [5, M, 1, 1], [1, 1, M, 2]]), True)
@example((P, [[P - 1] * 3] * 2), False)
@settings(deadline=None, max_examples=200)
def test_lazy_echelon_matches_the_eager_reference(pm, reduced):
    p, m = pm
    lazy, eager = np.array(m, dtype=np.int64), np.array(m, dtype=np.int64)
    pivots = linalg._echelon_mod_prime(lazy, p, reduced)
    assert pivots == eager_echelon_mod_prime(eager, p, reduced)
    assert lazy.tolist() == eager.tolist()


@given(st.one_of(matrices(unlucky_int), low_rank_matrices()))
@example([[0, 0, 1], [P, 0, 0], [0, 1, 0], [1, 0, 0]])
@settings(deadline=None)
def test_rank_mod_prime_matches_sympy_over_gf_p(m):
    # rank_mod_prime sorts the rows by their first nonzero column, zero rows
    # last, before it eliminates; the rank mod p must not change.
    assert rank_mod_prime(m) == DM(m, sympy.GF(P)).rank()


def test_echelon_rejects_a_prime_with_no_room_for_an_update():
    # Mod the largest prime below 2^32 one product of residues, (p - 1)^2,
    # already passes 2^63.
    a = np.ones((2, 2), dtype=np.int64)
    with pytest.raises(ValueError):
        linalg._echelon_mod_prime(a, 2**32 - 5, reduced=False)
