"""Reference constructions with no shortcut: quotient dimensions and socle
kernels by Bareiss elimination alone, with no modular shortcut and no upper
bound, the oracle for GradedQuotient's certified ranks and its p-adically
lifted socle line; the shift and moment matrices built as Python lists one
entry at a time, the oracle for the array builders; and the eager mod-p
elimination, which reduces the whole trailing block after every pivot, the
oracle for linalg's lazy one.

Bareiss runs on Python ints only, so the shift arrays reach it as lists."""
from fractions import Fraction
from math import factorial, prod
from operator import add
from typing import Mapping, Sequence

import numpy as np

from apolar import FormTuple, Polynomial, dim_forms
from apolar.ci import _shift_rows
from apolar.linalg import _exact_kernel_basis, _primitive_row, _triangularize
from apolar.poly import Monomial, monomial_basis, monomial_index
from poly_reference import primitive_terms


def bareiss_quotient_dims(f: FormTuple, top: int) -> tuple[int, ...]:
    """Dimensions of the quotient by the tuple's ideal in degrees 0..top."""
    n, d = f.var_count, f.degree
    dims = []
    for j in range(top + 1):
        width = dim_forms(n, j)
        ideal = len(_triangularize(_shift_rows(f.forms, j - d).tolist(), width)) if j >= d else 0
        dims.append(width - ideal)
    return tuple(dims)


def bareiss_socle_kernel(f: FormTuple) -> tuple:
    """The reduced-echelon kernel basis of the tuple's degree-s shift matrix,
    s = n(d-1): one vector, the socle functional before normalization."""
    rows = _shift_rows(f.forms, f.socle_degree - f.degree).tolist()
    return _exact_kernel_basis(rows, dim_forms(f.var_count, f.socle_degree)).vectors


def list_term_rows(forms: Sequence[Mapping[Monomial, int]], k: int) -> list[list[int]]:
    """Rows m * g for every g in forms (integer polynomials as monomial ->
    coefficient dicts, all of one degree e) and every degree-k monomial m, g
    outermost, m in grlex order, written one coefficient at a time at the
    column of the monomial m * b among the degree-(e + k) monomials."""
    first = next(iter(forms[0]))
    n, e = len(first), sum(first)
    col = monomial_index(n, e + k)
    rows = []
    for g in forms:
        for m in monomial_basis(n, k):
            row = [0] * dim_forms(n, e + k)
            for b, c in g.items():
                row[col[tuple(map(add, m, b))]] = c
            rows.append(row)
    return rows


def list_moment_rows(f: Polynomial, i: int) -> tuple[list[list[int]], Fraction]:
    """The moment matrix H_i of a nonzero form f of degree e, scaled to
    integers, and the factor it was scaled by: phi_b = b! f_b scaled once to
    coprime integers, and row y^c holds phi at x^a y^c for every degree-i
    x^a."""
    e = f.homogeneous_degree()
    n = f.nvars
    ints, factor = primitive_terms(dict(f.terms()))
    index = monomial_index(n, e)
    scaled = [0] * len(index)
    for b, c in ints.items():
        scaled[index[b]] = c * prod(map(factorial, b))
    phi, content = _primitive_row(scaled)
    rows = [
        [phi[index[tuple(map(add, a, c))]] for a in monomial_basis(n, i)]
        for c in monomial_basis(n, e - i)
    ]
    return rows, factor * content


def eager_echelon_mod_prime(a, prime: int, reduced: bool) -> list[int]:
    """linalg._echelon_mod_prime's contract, with every entry reduced mod
    `prime` after every pivot: the pivot row is scaled to a unit pivot, and
    each row with a nonzero in the pivot column, below the pivot or, with
    `reduced`, above it too, has the pivot row's multiple subtracted."""
    nrows, ncols = a.shape
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r, c:] = (a[r, c:] * pow(int(a[r, c]), -1, prime)) % prime
        first = 0 if reduced else r + 1
        hits = first + np.flatnonzero(a[first:, c])
        hits = hits[hits != r]
        if hits.size:
            a[hits, c:] = (a[hits, c:] - np.outer(a[hits, c], a[r, c:])) % prime
        pivots.append(c)
    return pivots
