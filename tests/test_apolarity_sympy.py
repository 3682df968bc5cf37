"""Catalecticants against sympy 1.14 and against the term-pairing build.

Column x^a of the catalecticant of F at contraction degree i is the
coefficient vector of the derivative d^a F / dy^a, which sympy's diff
computes independently.  The term-pairing construction below, which pairs
every term of F with every column and adds the results up, is kept as a
second reference for the one-coefficient-per-entry build.
"""
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar import MatrixQ, Polynomial, catalecticant, monomial_basis
from apolar.poly import monomial_index
from poly_reference import polar_term

nonzero_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


@st.composite
def forms(draw):
    """Nonzero homogeneous forms of degree 0..4 in 1-3 variables, either
    dense (every monomial present) or sparse (one to three monomials)."""
    nvars = draw(st.integers(1, 3))
    basis = monomial_basis(nvars, draw(st.integers(0, 4)))
    if draw(st.booleans()):
        monos = basis
    else:
        monos = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3, unique=True))
    coeffs = draw(st.lists(nonzero_coeffs, min_size=len(monos), max_size=len(monos)))
    return Polynomial(nvars, zip(monos, coeffs))


def term_pairing_catalecticant(f, i):
    """Reference: every term y^b of f contributes to every column x^a with
    a <= b, at the row of y^(b-a)."""
    e = f.homogeneous_degree()
    cols = monomial_basis(f.nvars, i)
    row_index = monomial_index(f.nvars, e - i)
    entries = [[Fraction(0)] * len(cols) for _ in row_index]
    for b, c in f.terms():
        for k, a in enumerate(cols):
            term = polar_term(a, b)
            if term:
                target, factor = term
                entries[row_index[target]][k] += c * factor
    return MatrixQ.from_rows(entries)


def sympy_catalecticant(f, i):
    """Column a is the coefficient vector of d^a F in the degree e - i basis."""
    ys = sympy.symbols(f"y1:{f.nvars + 1}")
    expr = sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(y**k for y, k in zip(ys, b)))
            for b, c in f.terms()
        )
    )
    rows = monomial_basis(f.nvars, f.homogeneous_degree() - i)
    columns = []
    for a in monomial_basis(f.nvars, i):
        orders = [(y, k) for y, k in zip(ys, a) if k]
        derivative = sympy.Poly(sympy.diff(expr, *orders) if orders else expr, *ys)
        columns.append([derivative.coeff_monomial(c) for c in rows])
    return [[Fraction(int(x.p), int(x.q)) for x in row] for row in zip(*columns)]


@settings(max_examples=60, deadline=None)
@given(forms())
def test_catalecticant_matches_sympy_and_term_pairing(f):
    for i in range(f.homogeneous_degree() + 1):
        cat = catalecticant(f, i)
        assert cat == term_pairing_catalecticant(f, i)
        assert [list(row) for row in cat.entries] == sympy_catalecticant(f, i)
