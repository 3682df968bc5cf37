"""Reference products of integer polynomials, one term pair at a time: the
oracle for poly's product kernel, which multiplies coefficient arrays by one
outer product and one scatter-add.  Also the Fraction-first primitive form
of a polynomial and the term-pair loop of the polar pairing, the oracles for
the stored primitive form and for apply_polar's moment-row product, and the
multinomial coefficient that relates a socle functional to its form.

Integer polynomials are monomial -> coefficient dicts; cancelled terms stay
as zeros.  Nothing here is shared with apolar.poly but the data layout and
linalg._primitive_row; Fraction terms are monomial -> Fraction dicts.
"""
from fractions import Fraction
from math import factorial, perm
from operator import add

from apolar.linalg import _primitive_row


def add_product(acc, p, q, sign=1):
    """Add sign * p * q into acc and return it: one monomial tuple and one
    dict update for each pair of terms."""
    for m1, c1 in p.items():
        c1 *= sign
        for m2, c2 in q.items():
            m = tuple(map(add, m1, m2))
            acc[m] = acc.get(m, 0) + c1 * c2
    return acc


def integer_det(mat, nvars):
    """Determinant of a square matrix of integer polynomials by column-subset
    expansion, minors over the first r rows memoized per column bitmask."""
    n = len(mat)
    states = {0: {(0,) * nvars: 1}}
    for r in range(n):
        nxt = {}
        for mask, minor in states.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit or not mat[r][j]:
                    continue
                sign = -1 if (r + bin(mask & (bit - 1)).count("1")) % 2 else 1
                add_product(nxt.setdefault(mask | bit, {}), minor, mat[r][j], sign)
        states = nxt
    return states.get((1 << n) - 1, {})


def integer_power_products(bases, exponents, nvars):
    """prod_i bases[i]^e_i for each exponent tuple e, by repeated products."""
    out = []
    for e in exponents:
        acc = {(0,) * nvars: 1}
        for base, k in zip(bases, e):
            for _ in range(k):
                acc = add_product({}, acc, base)
        out.append(acc)
    return out


def multinomial(exponents):
    """Multinomial coefficient (sum a_i)! / prod(a_i!)."""
    if any(a < 0 for a in exponents):
        raise ValueError("exponents must be nonnegative")
    out = factorial(sum(exponents))
    for a in exponents:
        out //= factorial(a)
    return out


def nonzero(p):
    """The terms of p with a nonzero coefficient."""
    return {m: c for m, c in p.items() if c}


def fraction_terms(nvars, pairs):
    """The constructor's merge over Fractions: equal monomials added in
    first-seen order, then zeros dropped."""
    merged = {}
    for mono, c in pairs:
        mono = tuple(mono)
        merged[mono] = merged.get(mono, 0) + Fraction(c)
    return {m: c for m, c in merged.items() if c}


def primitive_terms(coefficients):
    """Fraction coefficients (monomial -> Fraction) scaled to coprime
    integers, and the factor they were scaled by."""
    ints, factor = _primitive_row(list(coefficients.values()))
    return dict(zip(coefficients, ints)), factor


def polar_term(a, b):
    """x^a acting on y^b: (b - a, prod_i b_i!/(b_i-a_i)!), or None when
    some a_i > b_i."""
    if any(bi < ai for ai, bi in zip(a, b)):
        return None
    factor = 1
    for ai, bi in zip(a, b):
        if ai:
            factor *= perm(bi, ai)
    return tuple(bi - ai for ai, bi in zip(a, b)), factor


def polar_loop(h, f):
    """The Fraction terms h acting on the Fraction terms f, term pair by
    term pair: both scaled to primitive integers, the products summed, the
    sum divided once."""
    (h_ints, h_scale), (f_ints, f_scale) = primitive_terms(h), primitive_terms(f)
    acc = {}
    for a, ca in h_ints.items():
        for b, cb in f_ints.items():
            term = polar_term(a, b)
            if term:
                mono, factor = term
                acc[mono] = acc.get(mono, 0) + ca * cb * factor
    scale = h_scale * f_scale
    return {m: Fraction(c) / scale for m, c in acc.items() if c}
