"""The one certified modular kernel reader, the p-adic lift behind
linalg.rank's kernels, linalg.kernel_basis, SubspaceBasis.from_spanning
and the socle line, checked against the Bareiss core and against sympy,
including the cases where the certificate must fail and the exact fallback
must answer, and the exact route that solves keep.

Matrices of at most linalg.EXACT_MAX_ENTRIES entries skip the modular route.
This module sets that cutoff to 0, so every rank and kernel here, however
small its crafted matrix, drives the modular route; the tests that take the
`default_cutoff` fixture check the size rule itself."""
import inspect
import random
import sys
from fractions import Fraction
from itertools import chain
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
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
from apolar.cli import RunConfig, run_suite, trial_seeds
from apolar.linalg import (
    PRIME,
    _certified_rank,
    _integer_rows,
    _kernel,
    _triangularize,
    _verify_kernel,
    rank_mod_prime,
)
from bareiss_reference import (
    bareiss_socle_kernel,
    eager_echelon_mod_prime,
    exact_kernel_basis,
)

P = PRIME
DEFAULT_CUTOFF = linalg.EXACT_MAX_ENTRIES


@pytest.fixture(scope="module", autouse=True)
def modular_route_at_every_size():
    # Module-scoped, so that hypothesis tests run under it too.
    with mock.patch.object(linalg, "EXACT_MAX_ENTRIES", 0):
        yield


@pytest.fixture
def default_cutoff(monkeypatch):
    """The size rule as the package ships it, for one test."""
    monkeypatch.setattr(linalg, "EXACT_MAX_ENTRIES", DEFAULT_CUTOFF)

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
def low_rank_matrices(draw, max_side=7, max_entry=7, min_side=2):
    """B * C with an inner dimension below both sides, so the kernels on
    both sides are nonzero and the p-adic lift is exercised."""
    nrows = draw(st.integers(min_side, max_side))
    ncols = draw(st.integers(min_side, max_side))
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


def array(m):
    """Integer rows as the integer array the private readers take."""
    return linalg._integer_array(m, len(m[0]))


def bareiss_rank(rows) -> int:
    return len(_triangularize(_integer_rows(rows), len(rows[0])))


def check_against_oracles(m):
    assert rank(m) == bareiss_rank(m) == sympy_matrix(m).rank()
    ncols = len(m[0])
    vectors = kernel_basis(m).vectors
    assert vectors == exact_kernel_basis(_integer_rows(m), ncols).vectors == sympy_nullspace(m)
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
    ints = array(_integer_rows(m))
    assert _certified_rank(ints, min(len(m), len(m[0]))) == exact
    assert _certified_rank(ints, exact) == exact


@given(low_rank_matrices(max_side=14, min_side=11))
@settings(deadline=None, max_examples=30)
def test_rank_of_a_product_is_certified_on_either_side_by_one_factorization(m):
    # B C past the default cutoff has rank below both sides, so A and A^T
    # each need a certificate: the right kernel of the array passed, read
    # from the one factorization behind its mod-p rank, by the one lift,
    # which only the kernel reader calls.
    a, eliminations, callers = array(m), [], []
    echelon, lift = linalg._echelon_mod_prime, linalg._padic_kernel

    def spy_echelon(*args):
        eliminations[-1] += 1
        return echelon(*args)

    def spy_lift(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return lift(*args)

    with mock.patch.multiple(
        linalg,
        EXACT_MAX_ENTRIES=DEFAULT_CUTOFF,
        _echelon_mod_prime=spy_echelon,
        _padic_kernel=spy_lift,
    ):
        ranks = []
        for side in (a, a.T):
            eliminations.append(0)
            ranks.append(_certified_rank(side, min(a.shape)))
    assert ranks == [sympy_matrix(m).rank()] * 2
    assert eliminations == [1, 1]
    assert callers == ["_kernel_numerators"] * 2


@st.composite
def kernel_matrices(draw, max_side=6):
    """Wide, tall and square integer matrices: a drawn block of small
    entries, then scaled copies of some of its rows (so kernels of dimension
    two and more), zero columns spliced in, and the rows shuffled; or a zero
    matrix, of rank 0.  Every minor is 0 or a minor of the block times
    copy factors of at most 3, and every minor of the block is below PRIME
    (Hadamard: 7^6 6^3 < PRIME), so the pivot columns mod PRIME are the
    rational ones and the lift must certify every kernel."""
    nrows, ncols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    if draw(st.booleans()) and draw(st.booleans()):
        return [[0] * ncols for _ in range(nrows)]
    base = draw(st.lists(st.lists(small_int, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    copies = draw(st.lists(st.tuples(st.integers(0, nrows - 1), st.integers(-3, 3)),
                           max_size=3))
    rows = base + [[k * x for x in base[i]] for i, k in copies]
    for z in sorted(draw(st.lists(st.integers(0, ncols), max_size=2)), reverse=True):
        rows = [row[:z] + [0] + row[z:] for row in rows]
    return draw(st.permutations(rows))


@given(kernel_matrices())
@example([[0, 0, 0], [0, 0, 0]])
@example([[1, 2, 3], [2, 4, 6], [-1, -2, -3]])
@settings(deadline=None)
def test_padic_kernel_matches_bareiss_and_sympy(m):
    ncols = len(m[0])
    a = array(m)
    vectors = linalg._padic_kernel(a, linalg._factorization(a))
    assert vectors is not None
    lifted = linalg._fraction_basis(ncols, vectors).vectors
    assert lifted == exact_kernel_basis(m, ncols).vectors == sympy_nullspace(m)


def rref_pivots(rows, domain) -> tuple:
    """The pivot columns of sympy's reduced row echelon form over `domain`."""
    return DM(rows, domain).rref()[1]


def lu_factors(lu):
    """L (m x r) and U (r x n) of a factorization, as object arrays: column
    t of L is column C[t] of the factors from row t down, with the pivot on
    the diagonal, and row t of U is 1 at C[t] and the factors right of it."""
    factors, pivots = lu.factors, lu.pivots
    (m, n), r = factors.shape, len(pivots)
    lower, upper = np.zeros((m, r), dtype=object), np.zeros((r, n), dtype=object)
    for t, c in enumerate(pivots):
        lower[t:, t] = factors[t:, c]
        upper[t, c] = 1
        upper[t, c + 1 :] = factors[t, c + 1 :]
    return lower, upper


@given(st.one_of(kernel_matrices(), matrices(unlucky_int), low_rank_matrices(max_entry=2**40)))
@example([[P, 1]])
@example([[1, 0, 0], [1, P, 0], [0, 1, 0]])
@settings(deadline=None)
def test_one_elimination_gives_both_profiles_and_the_pivot_inverse(m):
    # One factorization P A = L U mod PRIME: its pivots are the lex-first
    # column profile, its first r rows are independent mod PRIME, and the
    # inverse derived from it inverts the pivot block mod PRIME.
    a = array(m)
    lu = linalg._factorization(a)
    lower, upper = lu_factors(lu)
    assert ((lower.dot(upper) - np.array(m, dtype=object)[lu.order]) % P == 0).all()
    assert tuple(lu.pivots) == rref_pivots(m, sympy.GF(P))
    rows = lu.order[: len(lu.pivots)].tolist()
    assert lift_rank([m[i] for i in rows]) == len(rows)
    if rows:
        up, low = linalg._pivot_inverse(lu)
        block = np.array(m, dtype=object)[np.ix_(rows, lu.pivots)]
        product = block.dot(up.astype(object)).dot(low.astype(object)) % P
        assert product.tolist() == np.eye(len(rows), dtype=int).tolist()


@pytest.fixture
def paths(monkeypatch):
    """Records, in order, each p-adic lift as it starts and each Bareiss
    elimination made through the linalg module; a lift that falls back is
    "p-adic" followed by "bareiss".  Bareiss must see Python ints only: an
    int64 scalar would overflow silently in its products."""
    seen = []
    lift, bareiss = linalg._padic_kernel, linalg._triangularize

    def spy_lift(*args):
        seen.append("p-adic")
        return lift(*args)

    def spy_bareiss(rows, ncols):
        seen.append("bareiss")
        assert all(type(x) is int for row in rows for x in row)
        return bareiss(rows, ncols)

    monkeypatch.setattr(linalg, "_padic_kernel", spy_lift)
    monkeypatch.setattr(linalg, "_triangularize", spy_bareiss)
    return seen


def test_full_rank_mod_p_needs_no_kernel(paths):
    assert rank([[1, 2, 3], [4, 5, 7]]) == 2
    assert paths == []


def test_rank_drop_mod_p_falls_back_to_bareiss(paths):
    # Mod PRIME both rows end in the same residues, so the rank mod p is 1;
    # the kernel lifted from it fails the exact check up to the step cap,
    # and Bareiss decides.
    m = [[P, 1], [0, 1]]
    assert rank(m) == 2 == sympy_matrix(m).rank()
    assert paths == ["p-adic", "bareiss"]


def test_rank_drop_mod_p_with_unreconstructible_kernel_falls_back(paths):
    # The kernel is spanned by (1/p, -1/p, 1): a denominator p, which no
    # lift mod p reconstructs.
    m = [[1, 1, 0], [0, P, 1], [0, 0, 0]]
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
    assert _certified_rank(array(m), 2) == 2 == sympy_matrix(m).rank()
    assert paths == ["p-adic", "bareiss"]


def test_degenerate_tuple_ideal_rank_is_certified_by_its_right_kernel(paths):
    # (x1^2, x1 x2) shares the factor x1: its degree-3 ideal misses x2^3, so
    # the mod-p rank 3 falls short of the column count, and the right kernel
    # (the line of y2^3, the ideal's perp) proves the rank without Bareiss.
    f = FormTuple(2, 2, (parse_polynomial("x1^2", 2), parse_polynomial("x1*x2", 2)))
    assert f.quotient.ideal_dim(3) == 3
    assert paths == ["p-adic"]


def test_kernel_certificate_costs_no_elimination_beyond_the_rank(paths, eliminations):
    # The degenerate tuple above: the right kernel is lifted from the one
    # factorization that gives the mod-p rank.
    f = FormTuple(2, 2, (parse_polynomial("x1^2", 2), parse_polynomial("x1*x2", 2)))
    assert _certified_rank(_shift_rows(f.forms, 1), 4) == 3
    assert paths == ["p-adic"]
    assert eliminations == [1]
    assert list(inspect.signature(linalg._factorization).parameters) == ["a"]


@pytest.mark.parametrize("n, d, want", [(4, 4, 20), (6, 2, 70)])
def test_relation_rank_is_certified_by_the_relation_space(monkeypatch, paths, n, d, want):
    # Acceptance criterion 2's first seed at each shape with a nonzero
    # relation space: the product rank falls short of the row count, and the
    # relation space R, verified exactly, proves it, with no Bareiss.  It is
    # the kernel of the transposed products: dim R vectors (20 at (4,4)),
    # where the products' own kernel would be W - rank (125).
    lifted, lift = [], linalg._padic_kernel

    def spy_lift(*args):
        lifted.append(lift(*args))
        return lifted[-1]

    f = random_ci_tuple(n, d, trial_seeds(200 + 10 * n + d, 3)[0], coeff_bound=2)
    paths.clear()
    monkeypatch.setattr(linalg, "_padic_kernel", spy_lift)
    assert relation_space_dim_bruteforce(f) == want
    assert paths == ["p-adic"]
    assert [len(v) for v in lifted] == [want]


def test_relation_space_reconstructs_each_column_once(monkeypatch):
    # Criterion 2's first (6,2) seed: the relation space, the right kernel
    # of the transposed products, has 70 columns over 371 pivots.  The first
    # p-adic digit reconstructs some columns before an entry has no fraction
    # small enough; the second reconstructs all 70.  Within a column, an
    # entry is a Euclid call only where it brings a new factor into the
    # column's denominator; the rest are integers over it.  One call per
    # entry was 70 * 371 calls and more.
    calls, lifted = [0], []
    reconstruct, lift = linalg._rational_reconstruction, linalg._padic_kernel

    def spy(*args):
        calls[0] += 1
        return reconstruct(*args)

    def spy_lift(a, *args):
        lifted.append((a, lift(a, *args)))
        return lifted[-1][1]

    f = random_ci_tuple(6, 2, trial_seeds(262, 3)[0], coeff_bound=2)
    monkeypatch.setattr(linalg, "_rational_reconstruction", spy)
    monkeypatch.setattr(linalg, "_padic_kernel", spy_lift)
    assert relation_space_dim_bruteforce(f) == 70
    assert calls[0] < 3 * 70
    # Bareiss on the whole 462 x 441 transpose takes about 25 s on a 2-core
    # Xeon VM, so the oracle reads the columns before 105 (under a second).
    # A reduced-echelon kernel vector ends at its free column, and the
    # leading columns' own reduced-echelon kernel is the vectors whose free
    # column lies among them, cut there.
    ((a, vectors),) = lifted
    assert a.shape == (462, 441) and len(vectors) == 70
    basis = linalg._fraction_basis(441, vectors).vectors
    leading = tuple(v[:105] for v in basis if not any(v[105:]))
    assert len(leading) == 10
    assert leading == exact_kernel_basis(a[:, :105].tolist(), 105).vectors


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
    assert piece.vectors == sympy_rref_rows(_shift_rows(f.forms, 5 - f.degree).tolist())
    assert paths == ["p-adic"]


def test_solves_and_the_socle_functional_stay_exact(paths, default_cutoff):
    # Solves always run Bareiss.  The (2,3) socle matrix, 4 x 5, is under
    # the cutoff and read by Bareiss too; the (3,3) one, 30 x 28, is past
    # it, and its kernel is lifted p-adically and verified exactly, with no
    # Bareiss.
    assert block_solve([[2, 1], [1, 1]], [[1], [2]]).entries == ((1,), (-3,))
    assert paths == ["bareiss"]
    paths.clear()
    assert matrix_inverse([[2, 1], [1, 1]]).entries == ((1, -1), (-1, 2))
    assert paths == ["bareiss"]
    # Each socle matrix is read once, by the verdict of a fresh tuple, for
    # the verdict and the socle line both.
    f = random_ci_tuple(2, 3, SplitMix64(5).next_u64())
    paths.clear()
    FormTuple(2, 3, f.forms).quotient.socle_functional()
    assert paths == ["bareiss"]
    f = random_ci_tuple(3, 3, SplitMix64(5).next_u64())
    paths.clear()
    FormTuple(3, 3, f.forms).quotient.socle_functional()
    assert paths == ["p-adic"]


def test_a_matrix_at_the_cutoff_goes_straight_to_bareiss(paths, default_cutoff):
    # 100 entries, rank 2: neither the rank nor the kernel tries the lift.
    m = [[i + j for j in range(10)] for i in range(10)]
    assert len(m) * len(m[0]) == DEFAULT_CUTOFF
    assert rank(m) == 2
    assert kernel_basis(m).vectors == sympy_nullspace(m)
    assert paths == ["bareiss", "bareiss"]


def test_a_matrix_past_the_cutoff_takes_the_modular_route(paths, default_cutoff):
    # 101 entries: the kernel of the row is lifted, and the rank of the
    # column is its mod-p rank, which meets its bound with no elimination
    # beyond it.
    row = [list(range(1, DEFAULT_CUTOFF + 2))]
    assert kernel_basis(row).vectors == sympy_nullspace(row)
    assert rank(list(zip(*row))) == 1
    assert paths == ["p-adic"]


def test_a_tangent_trial_at_3_5_runs_no_bareiss(paths, default_cutoff):
    # Every rank and kernel of an `apolar tangent` trial at (3,5) has far
    # more entries than the cutoff, so a cutoff set too high would show
    # here as a Bareiss call.
    cfg = RunConfig(command="tangent", n=3, d=5, trials=1, seed=1)
    (record,) = run_suite(cfg)
    assert record["pass"]
    assert "p-adic" in paths and "bareiss" not in paths


def test_verify_kernel_accepts_the_reduced_echelon_basis():
    rows = array([[1, 1, 0]])
    assert _verify_kernel(rows, [0], [(-1, 1, 0), (0, 0, 1)])


def test_verify_kernel_accepts_numerators_over_their_denominator():
    # (-2, 1) / 3 is the kernel vector of free column 1, given as integer
    # numerators with the denominator 3 at the free column.
    assert _verify_kernel(array([[1, 2]]), [0], [(-6, 3)])
    assert _verify_kernel(array([[1, 2]]), [0], [(2, -1)])


def test_verify_kernel_rejects_a_zero_at_the_free_column():
    assert not _verify_kernel(array([[1, 0]]), [0], [(0, 0)])


def test_verify_kernel_rejects_support_right_of_the_free_column():
    # A true kernel basis, but for the wrong pivot column: (1, -1, 0) has its
    # pivot entry right of its free column 0, so column 1 is not shown to
    # depend on earlier columns.
    rows = array([[1, 1, 0]])
    assert not _verify_kernel(rows, [1], [(1, -1, 0), (0, 0, 1)])


def test_verify_kernel_rejects_a_vector_outside_the_kernel():
    assert not _verify_kernel(array([[1, 2]]), [0], [(-1, 1)])
    assert _verify_kernel(array([[1, 2]]), [0], [(-2, 1)])


def test_verify_kernel_rejects_a_product_that_wraps_in_int64():
    # A v = 2^64: zero in int64 arithmetic, so the check must run on Python
    # ints here.
    assert not _verify_kernel(array([[2**32, 0]]), [0], [(2**32, 1)])
    assert _verify_kernel(array([[2**32, 0]]), [0], [(0, 1)])


def test_verify_kernel_rejects_a_wrong_count():
    assert not _verify_kernel(array([[1, 2, 0]]), [0], [(-2, 1, 0)])


def test_verify_kernel_checks_every_block_of_vectors():
    # A row of 2^11 + 1 ones has 2^11 kernel vectors e_f - e_0, more than
    # one block of about 2^22 terms holds; a wrong last vector, in the last
    # block, must still be found.
    ncols = 2**11 + 1
    vectors = np.eye(ncols, dtype=np.int64)[1:]
    vectors[:, 0] = -1
    a = np.ones((1, ncols), dtype=np.int64)
    assert _verify_kernel(a, [0], vectors)
    vectors[-1, 0] = -2
    assert not _verify_kernel(a, [0], vectors)


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
    vectors = _kernel(array(m)).vectors
    assert vectors == exact_kernel_basis(m, len(m[0])).vectors == sympy_nullspace(m)


@given(corank_one_matrices(at_guard_edge=True))
@example([[P, 1]])
@settings(deadline=None, max_examples=50)
def test_kernel_line_at_the_guard_edge_matches_bareiss_and_sympy(m):
    # Entries as wide as the int64 bounds allow: an overflow anywhere in the
    # lift would fail the exact check and show as a Bareiss call.  The lift
    # certifies exactly when the pivot columns mod PRIME are the rational
    # ones; [[P, 1]] has pivot column 0 over Q and 1 mod PRIME, so Bareiss
    # answers it.
    with mock.patch.object(linalg, "_triangularize", wraps=linalg._triangularize) as bareiss:
        vectors = _kernel(array(m)).vectors
    same_profile = rref_pivots(m, sympy.QQ) == rref_pivots(m, sympy.GF(P))
    if same_profile:
        assert not bareiss.called
    else:
        assert bareiss.called
    if m == [[P, 1]]:
        assert not same_profile
    assert vectors == exact_kernel_basis(m, len(m[0])).vectors == sympy_nullspace(m)


@pytest.mark.parametrize("n, d", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 5), (4, 3)])
def test_kernel_line_lifts_the_socle_kernel(paths, n, d):
    f = random_ci_tuple(n, d, SplitMix64(5).next_u64())
    rows = _shift_rows(f.forms, f.socle_degree - f.degree)
    paths.clear()
    vectors = _kernel(rows).vectors
    assert paths == ["p-adic"]
    assert vectors == bareiss_socle_kernel(f) == sympy_nullspace(rows.tolist())


def test_socle_lift_reconstructs_on_a_schedule(monkeypatch):
    # The (3,5) socle line, 90 entries over about 17 p-adic digits: the
    # reconstruction is tried on the schedule of the next test, and within
    # the line only an entry that brings a new factor into its denominator
    # is a Euclid call.  One try per digit made 132 calls.
    calls = [0]
    reconstruct = linalg._rational_reconstruction

    def spy(*args):
        calls[0] += 1
        return reconstruct(*args)

    f = random_ci_tuple(3, 5, SplitMix64(5).next_u64())
    rows = _shift_rows(f.forms, f.socle_degree - f.degree)
    monkeypatch.setattr(linalg, "_rational_reconstruction", spy)
    assert _kernel(rows).vectors == bareiss_socle_kernel(f)
    assert 0 < calls[0] <= 40


def test_socle_lift_stops_within_a_quarter_of_the_digits_it_needs(monkeypatch):
    # Tries at 1, 2, 4 and 8 digits, then at t + t // 4: the sampled (3,5)
    # socle line first reconstructs at 18 digits, where doubling lifted 32.
    tries = []
    reconstruct = linalg._reconstruct_vectors

    def spy(lifted, modulus):
        columns = reconstruct(lifted, modulus)
        tries.append((modulus, columns is not None))
        return columns

    f = random_ci_tuple(3, 5, trial_seeds(1, 1)[0], 5)
    rows = _shift_rows(f.forms, f.socle_degree - f.degree)
    monkeypatch.setattr(linalg, "_reconstruct_vectors", spy)
    assert _kernel(rows).vectors == bareiss_socle_kernel(f)
    digits = [1, 2, 4, 8, 10, 12, 15, 18]
    assert tries == [(P**t, t == 18) for t in digits]


def test_reconstruction_that_first_succeeds_at_the_cap_is_lifted(paths, monkeypatch):
    # The kernel of [1, b] is (-b, 1), with b = 2^25 - 1 past the bound
    # sqrt(p^2 / 2) that two digits give, so its reconstruction first gives
    # -b at three digits: the Hadamard cap here (column bits 3 and 51),
    # which is no power of two.  Before it, a small wrong fraction or none.
    # A schedule that skipped the cap would end the lift at two digits and
    # leave the kernel to Bareiss.
    tries = []
    reconstruct = linalg._reconstruct_vectors

    def spy(lifted, modulus):
        tries.append((modulus, reconstruct(lifted, modulus)))
        return tries[-1][1]

    monkeypatch.setattr(linalg, "_reconstruct_vectors", spy)
    m = [[1, 2**25 - 1]]
    assert _kernel(array(m)).vectors == ((-(2**25 - 1), 1),) == sympy_nullspace(m)
    assert paths == ["p-adic"]
    assert [modulus for modulus, _ in tries] == [P, P**2, P**3]
    right = [(1, [-(2**25 - 1)])]
    assert [columns == right for _, columns in tries] == [False, False, True]


def test_bareiss_reads_an_int64_array_as_python_ints(paths, default_cutoff):
    # Under the size rule an int64 array goes straight to Bareiss.  Entries
    # near 2^20 give 4 x 4 minors past 2^63, so Bareiss on int64 scalars
    # would overflow silently; the paths spy checks that it gets Python ints.
    rng = random.Random(20)
    m = [[rng.choice([-1, 1]) * rng.randint(2**19, 2**20) for _ in range(5)] for _ in range(4)]
    a = array(m)
    assert a.dtype == np.int64
    assert abs(sympy_matrix([r[:4] for r in m]).det()) > 2**63
    assert _certified_rank(a[:, :4], 4) == sympy_matrix(m).rank() == 4
    assert _kernel(a).vectors == sympy_nullspace(m)
    assert paths == ["bareiss"] * 2


def test_socle_line_reuses_the_verdicts_factorization(monkeypatch):
    # The (3,5) socle matrix, m = 108 rows by W = 91 columns: the verdict
    # factors it once mod p, and the socle line is lifted from that
    # factorization, with no second elimination.
    f = random_ci_tuple(3, 5, SplitMix64(5).next_u64())
    fresh = FormTuple(f.var_count, f.degree, f.forms)
    shapes = []
    echelon = linalg._echelon_mod_prime

    def spy_echelon(a, *args):
        shapes.append(a.shape)
        return echelon(a, *args)

    monkeypatch.setattr(linalg, "_echelon_mod_prime", spy_echelon)
    assert fresh.quotient.is_complete_intersection()
    assert shapes == [(108, 91)]
    functional = fresh.quotient.socle_functional()
    assert shapes == [(108, 91)]
    # The Bareiss line is 1 at its free column, its last nonzero entry.
    scale = next(x for x in reversed(functional) if x)
    assert bareiss_socle_kernel(f) == (tuple(x / scale for x in functional),)


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
    assert _kernel(array(m)).vectors == ((0, -1, 1),) == sympy_nullspace(m)
    assert paths == ["p-adic", "bareiss"]
    assert eliminations == [1]


def test_kernel_line_past_the_int64_guard_stays_on_the_lift(paths, eliminations):
    # At the guard's edge the lift runs in int64; one past it, where int64
    # products of 2^45 by a digit would overflow, and past int64 itself, it
    # runs on Python ints.  Each answers alone, in one elimination.
    edge = guard_edge(3)
    for top in (edge, edge + 1, 2**45 + 1, 2**200 + 1):
        m = [[top, -edge, 1], [1, edge, -edge]]
        assert lift_rank(m) == 2
        assert _kernel(array(m)).vectors == sympy_nullspace(m)
        assert paths == ["p-adic"] and eliminations == [1]
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
    assert _kernel(array(m)).vectors == () == sympy_nullspace(m)
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


@given(residue_matrices())
@example((M + 1, [[M, M, M, M], [M, 1, 2, 3], [5, M, 1, 1], [1, 1, M, 2]]))
@example((P, [[P - 1] * 3] * 2))
@example((P, [[0, 1], [1, 0], [P - 1, 1]]))
@settings(deadline=None, max_examples=200)
def test_lazy_echelon_matches_the_eager_reference(pm):
    # The same pivots as the eager loop, U its echelon rows, and P A = L U.
    p, m = pm
    lazy, eager = np.array(m, dtype=np.int64), np.array(m, dtype=np.int64)
    pivots, order = linalg._echelon_mod_prime(lazy, p)
    assert pivots == eager_echelon_mod_prime(eager, p)
    lower, upper = lu_factors(linalg._LU(lazy, order, pivots))
    assert upper.tolist() == eager[: len(pivots)].tolist()
    assert ((lower.dot(upper) - np.array(m, dtype=object)[order]) % p == 0).all()
    assert 0 <= lazy.min() and lazy.max() < p


@st.composite
def invertible_residue_matrices(draw):
    """An r x r matrix mod PRIME that is invertible mod PRIME, for r at 1, at
    the halving threshold of linalg._lower_inverse (six rows) and past it,
    and at odd sizes: a random one, or one of residues at p - 1 bar a few
    entries."""
    r = draw(st.sampled_from([1, 2, 5, 6, 7, 11, 13, 25]))
    if draw(st.booleans()):
        m = [[P - 1] * r for _ in range(r)]
        for i in range(r):
            m[i][i] = draw(st.integers(0, P - 2))
    else:
        entry = st.one_of(st.integers(0, P - 1), st.sampled_from([0, 1, P - 1]))
        m = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=r, max_size=r))
    assume(lift_rank(m) == r)
    return m


@given(invertible_residue_matrices())
@example([[P - 1]])
@settings(deadline=None, max_examples=100)
def test_pivot_inverse_inverts_the_pivot_block(m):
    # B B^-1 = I mod PRIME, with B^-1 formed from the factorization's two
    # triangular inverses, each by halving.
    lu = linalg._factorization(array(m))
    up, low = linalg._pivot_inverse(lu)
    assert up.dtype == low.dtype == np.int64
    block = np.array(m, dtype=object)[np.ix_(lu.order.tolist(), lu.pivots)]
    product = block.dot(up.astype(object)).dot(low.astype(object)) % P
    assert product.tolist() == np.eye(len(m), dtype=int).tolist()


@given(corank_one_matrices())
@example([[1, 2, 3], [2, 4, 7]])
@example([[0, 0, 1], [0, 1, 0]])
@settings(deadline=None)
def test_line_residues_are_the_kernel_line_mod_p(m):
    # Back substitution off U, from any starting column, against the exact
    # kernel line, 1 at its free column, reduced mod PRIME.
    lu = linalg._factorization(array(m))
    ncols = len(m[0])
    assume(len(lu.pivots) == ncols - 1 and rref_pivots(m, sympy.QQ) == tuple(lu.pivots))
    (line,) = exact_kernel_basis(m, ncols).vectors
    want = [x.numerator * pow(x.denominator, -1, P) % P for x in line]
    for start in range(ncols):
        assert linalg._line_residues(lu, start).tolist() == want[start:]


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
        linalg._echelon_mod_prime(a, 2**32 - 5)
