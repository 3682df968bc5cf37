"""The stored primitive form of Polynomial against Fraction-first oracles.

A Polynomial stores its terms as coprime integers over one positive factor.
Polynomials in 1-4 variables are built here by every path: raw pairs with
repeated monomials and exact cancellations, the integer constructor, scalar
*, +, -, products, substitution, apply_polar and the kernel builders.  Each
is checked against its Fraction coefficients computed by the references in
poly_reference: the stored form must be _primitive_row of them, terms() must
give them in the same order, and == and hash must agree with equality of the
Fraction dicts.  Coefficients run past 2^63, so the int64 and Python-int
paths are both exercised.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar import (
    FormTuple,
    Polynomial,
    act_gl,
    annihilator_piece,
    annihilator_polynomials,
    apolar_hilbert,
    apply_polar,
    associated_form,
    jacobian_det,
    koszul_kernel_check,
    monomial_basis,
    random_ci_tuple,
    random_invertible_matrix,
    roundtrip_span,
    stratify,
    substitute,
)
from apolar import poly
from apolar.sampling import SplitMix64
from poly_reference import (
    add_product,
    fraction_terms,
    integer_det,
    integer_power_products,
    multinomial,
    polar_loop,
    primitive_terms,
)

COEFFS = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.integers(-(2**70), 2**70),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**66)),
)
SCALES = COEFFS.filter(bool)
settings_ = settings(max_examples=80, deadline=None)


def monomials(nvars, top=3):
    return st.sampled_from([m for k in range(top + 1) for m in monomial_basis(nvars, k)])


@st.composite
def pair_lists(draw, nvars, top=3):
    """Raw pairs of degree at most `top`, some monomials repeated and some
    pairs followed somewhere by their exact negatives."""
    pairs = draw(st.lists(st.tuples(monomials(nvars, top), COEFFS), max_size=5))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=2))
        pairs += [(m, -c) for m, c in draw(st.lists(st.sampled_from(pairs), max_size=2))]
    return draw(st.permutations(pairs))


def scaled(ref, s):
    return {m: c * s for m, c in ref.items()} if s else {}


@st.composite
def built(draw, nvars, depth=2):
    """(p, ref, ordered): a polynomial built by one path, its Fraction terms
    computed by the reference, and whether terms() must list them in the
    reference's order (the kernels' own orders are not part of it)."""
    paths = ["pairs", "integers"]
    if depth:
        paths += ["scalar", "neg", "add", "sub", "product", "substitute", "polar"]
    path = draw(st.sampled_from(paths))
    if path == "pairs":
        pairs = draw(pair_lists(nvars))
        return Polynomial(nvars, pairs), fraction_terms(nvars, pairs), True
    if path == "integers":
        ints = draw(st.dictionaries(monomials(nvars), st.integers(-(2**70), 2**70), max_size=5))
        scale = draw(SCALES)
        ref = {m: Fraction(c) / scale for m, c in ints.items() if c}
        return Polynomial._from_integers(nvars, ints, scale), ref, True
    p, rp, ordered = draw(built(nvars, depth - 1))
    if path == "scalar":
        s = draw(st.one_of(st.just(0), COEFFS))
        return (p * s if draw(st.booleans()) else s * p), scaled(rp, Fraction(s)), ordered
    if path == "neg":
        return -p, scaled(rp, -1), ordered
    q, rq, ordered_q = draw(built(nvars, depth - 1))
    if path == "add":
        return p + q, fraction_terms(nvars, [*rp.items(), *rq.items()]), ordered and ordered_q
    if path == "sub":
        diff = fraction_terms(nvars, [*rp.items(), *scaled(rq, -1).items()])
        return p - q, diff, ordered and ordered_q
    if path == "product":
        return p * q, {m: c for m, c in add_product({}, rp, rq).items() if c}, False
    if path == "polar":
        return apply_polar(p, q), polar_loop(rp, rq), False
    # Substitute small images, so that the powers stay small.
    images = [draw(built(nvars, 0)) for _ in range(nvars)]
    small = Polynomial(nvars, [(m, c) for m, c in draw(pair_lists(nvars, top=2))])
    rsmall = fraction_terms(nvars, list(small.terms()))
    exponents = list(rsmall)
    powers = integer_power_products([r for _, r, _ in images], exponents, nvars)
    acc = {}
    for e, power in zip(exponents, powers):
        for m, c in power.items():
            acc[m] = acc.get(m, 0) + rsmall[e] * c
    ref = {m: c for m, c in acc.items() if c}
    return substitute(small, [g for g, _, _ in images]), ref, False


def check_form(p, ref, ordered):
    """The stored form is _primitive_row of the reference's coefficients,
    and the derived views give the reference back."""
    ints, factor = primitive_terms(ref)
    assert p._ints == ints and p._factor == factor
    assert isinstance(p._factor, Fraction) and p._factor > 0
    assert all(type(c) is int and c for c in p._ints.values())
    assert dict(p.terms()) == ref
    if ordered:
        assert list(p._ints) == list(ints)
        assert p.terms() == list(ref.items())
    for m, c in ref.items():
        assert p.coefficient(m) == c
    assert p.is_zero == (not ref)


@settings_
@given(st.data())
def test_every_path_stores_the_primitive_form_of_its_fraction_terms(data):
    nvars = data.draw(st.integers(1, 4))
    check_form(*data.draw(built(nvars)))


@settings_
@given(st.data())
def test_equality_and_hash_follow_the_fraction_terms(data):
    nvars = data.draw(st.integers(1, 4))
    p, rp, _ = data.draw(built(nvars))
    q, rq, _ = data.draw(built(nvars))
    assert (p == q) == (rp == rq)
    if p == q:
        assert hash(p) == hash(q)
    assert (p == 2 * p) == (not rp) == (p == -p)
    # The same polynomial by other paths: raw pairs, integers over a scale,
    # a scalar and its inverse, and adding and taking away q.
    s = data.draw(SCALES)
    ints, factor = primitive_terms(rp)
    same = [
        Polynomial(nvars, list(rp.items())),
        Polynomial._from_integers(nvars, {m: c * 3 for m, c in ints.items()}, factor * 3),
        (p * s) * (1 / Fraction(s)),
        p + q - q,
        -(-p),
    ]
    for other in same:
        assert other == p and hash(other) == hash(p)
        check_form(other, rp, False)


@settings_
@given(st.data())
def test_apply_polar_matches_the_term_loop(data):
    nvars = data.draw(st.integers(1, 4))
    h_pairs, f_pairs = data.draw(pair_lists(nvars)), data.draw(pair_lists(nvars))
    h, f = Polynomial(nvars, h_pairs), Polynomial(nvars, f_pairs)
    want = polar_loop(fraction_terms(nvars, h_pairs), fraction_terms(nvars, f_pairs))
    check_form(apply_polar(h, f), want, False)


@pytest.mark.parametrize(
    "h, f",
    [
        # h of higher degree than f in one piece, lower in another.
        ({(3, 0): 1, (0, 1): 2**70}, {(2, 1): Fraction(2**65, 3), (0, 2): -(2**64)}),
        # Coefficients at the int64 edge, and a degree-22 f whose divisors
        # c! run past 2^63.
        ({(0, 0): 2**62, (1, 0): -(2**63)}, {(11, 11): 2**62 - 1, (21, 1): 3}),
        ({(1, 1, 0): Fraction(1, 7)}, {(1, 1, 0): 1, (0, 0, 0): 5}),
        ({(2, 0, 1, 0): -1}, {}),
    ],
)
def test_apply_polar_matches_the_term_loop_at_the_edges(h, f):
    nvars = len(next(iter(h)))
    got = apply_polar(Polynomial(nvars, h), Polynomial(nvars, f))
    want = polar_loop(fraction_terms(nvars, h.items()), fraction_terms(nvars, f.items()))
    check_form(got, want, False)


def random_forms(draw, n, degree):
    basis = monomial_basis(n, degree)
    out = []
    for _ in range(n):
        coeffs = draw(st.lists(COEFFS, min_size=len(basis), max_size=len(basis)))
        out.append(dict(zip(basis, coeffs)))
    return out


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_jacobian_det_stores_the_primitive_form_of_the_fraction_determinant(data):
    n = data.draw(st.integers(2, 3))
    refs = [{m: c for m, c in f.items() if c} for f in random_forms(data.draw, n, 2)]
    if not all(refs):
        return
    mat = [
        [
            {m[:j] + (m[j] - 1,) + m[j + 1 :]: c * m[j] for m, c in f.items() if m[j]}
            for j in range(n)
        ]
        for f in refs
    ]
    want = {m: c for m, c in integer_det(mat, n).items() if c}
    got = jacobian_det(FormTuple(n, 2, tuple(Polynomial(n, f) for f in refs)))
    check_form(got, want, False)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_kernel_builders_store_the_primitive_form_of_the_fraction_basis(data):
    n, d = data.draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    f = random_ci_tuple(n, d, data.draw(st.integers(0, 2**64 - 1)))
    a = associated_form(f)
    lam = f.quotient.socle_functional()
    basis = monomial_basis(n, n * (d - 1))
    check_form(a, {m: multinomial(m) * c for m, c in zip(basis, lam) if c}, True)
    for j in range(n * (d - 1) + 1):
        gens = annihilator_polynomials(a, j)
        vectors = annihilator_piece(a, j).vectors
        assert len(gens) == len(vectors)
        for g, v in zip(gens, vectors):
            check_form(g, {m: c for m, c in zip(monomial_basis(n, j), v) if c}, True)


def test_primitive_row_runs_at_most_once_per_polynomial(monkeypatch):
    """The pair constructor scales each polynomial once; the integer kernels
    read the stored form and build their results without rescaling."""
    tuples = [random_ci_tuple(n, d, 11) for n, d in ((2, 3), (3, 3))]
    stream = SplitMix64(5)
    matrices = [random_invertible_matrix(3, stream) for _ in range(2)]
    images = [Polynomial(3, {(1, 0, 0): Fraction(1, 2), (0, 0, 1): 3})] * 3
    calls, made = [], []
    primitive_row, init = poly._primitive_row, Polynomial.__init__

    def counted_row(row):
        calls.append(len(row))
        return primitive_row(row)

    def counted_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(poly, "_primitive_row", counted_row)
    monkeypatch.setattr(Polynomial, "__init__", counted_init)
    # The integer kernels alone: no pair constructor, no rescaling.
    f = FormTuple(3, 3, tuple(random_ci_tuple(3, 3, 12).forms))
    a = associated_form(f)
    g, h = f.forms[0], f.forms[1]
    results = [
        g * h, g + h, g - h, -g, g * 3, Fraction(2, 5) * g, apply_polar(g, a), jacobian_det(f),
        substitute(g, images), *annihilator_polynomials(a, 3),
    ]
    assert all(isinstance(r, Polynomial) for r in results)
    assert calls == [] and made == []
    # A round of library calls, the GL action included: no pair construction.
    for t in tuples:
        b = associated_form(t)
        apolar_hilbert(b)
        stratify(b, t.var_count, t.degree)
        roundtrip_span(t)
        koszul_kernel_check(t, t.degree)
    act_gl(*matrices, tuples[1])
    assert calls == made == []


def test_numpy_integers_reach_the_stored_form_as_python_ints():
    """A numpy integer, bare or inside a Fraction, would wrap past 2^63 in
    the integer kernels; the constructor and scalar * store Python ints."""
    import numpy as np

    big = np.int64(2**62)
    p = Polynomial(1, [((1,), Fraction(big)), ((0,), np.int64(3)), ((2,), big)])
    total = p + p + p
    assert all(type(c) is int for q in (p, total, p * big) for c in q._ints.values())
    three = Fraction(3 * 2**62)
    check_form(total, {(1,): three, (0,): Fraction(9), (2,): three}, True)
    square = Fraction(2**124)
    check_form(p * big, {(1,): square, (0,): three, (2,): square}, True)
