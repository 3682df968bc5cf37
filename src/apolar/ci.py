"""Graded quotients by form tuples and their associated forms.

GradedQuotient tracks the ideal generated by a tuple of n degree-d forms in
n variables, degree by degree.  The tuple is a complete intersection exactly
when its ideal fills degree s + 1, s = n(d-1) (Macaulay's resultant
criterion): then S/I is Artinian, so the forms are a system of parameters of
the Cohen-Macaulay ring S, hence a regular sequence (Bruns-Herzog 2.1); and
a regular sequence has Hilbert function (1 + u + ... + u^{d-1})^n, zero past
s.  The quotient is then Gorenstein with one-dimensional socle generated by
the Jacobian determinant, and the associated form

    A(f) = sum multinomial(a) * socle_coordinate(x^a) * y^a

over degree-n(d-1) monomials is a Macaulay inverse system for the ideal.

Dimensions: each ideal rank is linalg._certified_rank of the shifted rows.
Its lower bound is the rank mod a prime.  Its upper bound is the complete
intersection value: by rank semicontinuity no tuple's ideal is larger in any
degree than a generic tuple's, and a generic tuple is a complete
intersection.  When the two bounds differ, a verified left kernel or Bareiss
elimination decides; matrices small enough for the size rule
(linalg.EXACT_MAX_ENTRIES) go to Bareiss directly.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .apolarity import _moment_rows, apolar_hilbert
from .combinat import ci_hilbert, dim_forms, multinomial
from .linalg import SubspaceBasis, _certified_rank, _dtype, _kernel_numerators, span_dim
from .poly import (
    FormTuple,
    Monomial,
    Polynomial,
    _jacobian_det,
    _shift_columns,
    _substituted,
    apply_polar,
    monomial_basis,
    monomial_index,
)


class DegenerateTupleError(ValueError):
    """Raised when an operation needs a complete intersection and lacks one."""


def _shift_rows(forms: Sequence[Polynomial], k: int):
    """The _term_rows of the forms' stored primitive integer terms: scaling
    a form changes no span."""
    return _term_rows([g._ints for g in forms], k)


def _term_rows(forms: Sequence[Mapping[Monomial, int]], k: int):
    """The _shifted_rows of integer polynomials given as monomial ->
    coefficient dicts, all of one degree e, in the dtype _dtype chooses for
    their largest coefficient."""
    import numpy as np

    first = next(iter(forms[0]))
    n, e = len(first), sum(first)
    basis = monomial_basis(n, e)
    top = max(abs(c) for g in forms for c in g.values())
    coefficients = np.array([[g.get(b, 0) for b in basis] for g in forms], dtype=_dtype(top))
    return _shifted_rows(coefficients, n, e, k)


def _shifted_rows(coefficients, n: int, e: int, k: int):
    """Integer rows m * g, as one 2-D array in the dtype of `coefficients`,
    for every g among its rows (degree-e forms over the grlex basis) and
    every degree-k monomial m, g outermost, m in grlex order; columns are
    the degree-(e + k) monomials.  One scatter over the shift table fills
    it."""
    import numpy as np

    table = _shift_columns(n, e, k)
    shifts, width = table.shape[1], dim_forms(n, e + k)
    rows = np.zeros((len(coefficients), shifts, width), dtype=coefficients.dtype)
    rows[:, np.arange(shifts)[:, None], table.T] = coefficients[:, None, :]
    return rows.reshape(-1, width)


class GradedQuotient:
    """Degreewise data of k[x_1..x_n] modulo the ideal of a form tuple."""

    def __init__(self, f: FormTuple):
        # The forms, not the tuple: the tuple keeps its quotient, and a
        # reference back would make the pair a cycle.
        self.forms = f.forms
        self.var_count = f.var_count
        self.degree = f.degree
        self.socle_degree = f.socle_degree
        self._target = ci_hilbert(f.var_count, f.degree)
        self._ideal_dims: dict[int, int] = {}
        self._socle_line: tuple[list[int], Fraction] | None = None

    def ideal_dim(self, j: int) -> int:
        """Exact dimension of the ideal's degree-j piece, certified against
        the complete intersection value (the column count past degree s)."""
        if j < 0:
            raise ValueError("degree must be nonnegative")
        if j < self.degree:
            return 0
        if j not in self._ideal_dims:
            rows = _shift_rows(self.forms, j - self.degree)
            width = dim_forms(self.var_count, j)
            upper = width - (self._target[j] if j <= self.socle_degree else 0)
            self._ideal_dims[j] = _certified_rank(rows, upper)
        return self._ideal_dims[j]

    def quotient_dim(self, j: int) -> int:
        return dim_forms(self.var_count, j) - self.ideal_dim(j)

    def hilbert(self) -> tuple[int, ...]:
        """Quotient dimensions for degrees 0..n(d-1)."""
        return tuple(self.quotient_dim(j) for j in range(self.socle_degree + 1))

    def is_complete_intersection(self) -> bool:
        """Whether the ideal fills degree s + 1: then S/I is Artinian, so the
        forms are a system of parameters of the Cohen-Macaulay S, hence a
        regular sequence, whose quotient stops at s.  One rank, certified
        when the mod-p rank reaches the column count."""
        return self.quotient_dim(self.socle_degree + 1) == 0

    def ideal_piece(self, j: int) -> SubspaceBasis:
        """Reduced-echelon basis of the ideal's degree-j piece."""
        width = dim_forms(self.var_count, j)
        if j < self.degree:
            return SubspaceBasis(width, ())
        rows = _shift_rows(self.forms, j - self.degree)
        return SubspaceBasis.from_spanning(rows.tolist(), width)

    def _socle(self) -> tuple[list[int], Fraction]:
        """The socle functional as integer numerators over one rational
        denominator, computed once."""
        if self._socle_line is None:
            if not self.is_complete_intersection():
                raise DegenerateTupleError("tuple is not a complete intersection")
            # The socle is a line, so the shift matrix has corank one: past
            # the smallest shapes, which Bareiss reads under the size rule,
            # its kernel is lifted p-adically and verified exactly, with
            # Bareiss as the fallback; the entries run to hundreds of bits.
            lam = _kernel_numerators(_shift_rows(self.forms, self.socle_degree - self.degree))
            assert len(lam) == 1, "complete intersection socle must be a line"
            # The Jacobian determinant is its stored integer terms over its
            # factor, so its value on the integer vector is one integer dot
            # product t over that factor.
            jac = _jacobian_det(self.forms)
            index = monomial_index(self.var_count, self.socle_degree)
            t = sum(lam[0][index[m]] * c for m, c in jac._ints.items())
            assert t != 0, "Jacobian determinant must generate the socle"
            self._socle_line = lam[0], t / jac._factor
        return self._socle_line

    def socle_functional(self) -> tuple[Fraction, ...]:
        """The functional on top-degree forms killing the ideal, with value 1
        on the Jacobian determinant."""
        lam, den = self._socle()
        return tuple(x / den for x in lam)

    def socle_coordinate(self, p: Polynomial) -> Fraction:
        """Coordinate of p's class in the socle line, normalized so the
        Jacobian determinant has coordinate 1."""
        if p.nvars != self.var_count:
            raise ValueError("mismatched variable counts")
        lam = self.socle_functional()
        vec = p.coefficient_vector(self.socle_degree)
        return sum(a * b for a, b in zip(lam, vec))

    def associated_form(self) -> Polynomial:
        """Macaulay inverse system generator of the ideal, a form of degree
        n(d-1) in the dual variables."""
        lam, den = self._socle()
        basis = monomial_basis(self.var_count, self.socle_degree)
        terms = {mono: multinomial(mono) * c for mono, c in zip(basis, lam) if c}
        return Polynomial._from_integers(self.var_count, terms, den)


def ideal_piece(f: FormTuple, j: int) -> SubspaceBasis:
    """Degree-j piece of the ideal generated by the tuple."""
    return f.quotient.ideal_piece(j)


def is_complete_intersection(f: FormTuple) -> bool:
    """Whether the tuple's quotient vanishes one degree past the socle
    (equivalently, nonzero resultant)."""
    return f.quotient.is_complete_intersection()


def associated_form(f: FormTuple) -> Polynomial:
    """Associated form of a complete intersection tuple."""
    return f.quotient.associated_form()


def verify_inverse_system(f: FormTuple, g: Polynomial) -> bool:
    """True when g is a Macaulay inverse system for the tuple's ideal: every
    form annihilates g and g's apolar Hilbert function is the full target."""
    if g.nvars != f.var_count:
        raise ValueError("mismatched variable counts")
    if g.is_zero or not g.is_homogeneous(f.socle_degree):
        return False
    if any(not apply_polar(fi, g).is_zero for fi in f.forms):
        return False
    return apolar_hilbert(g) == ci_hilbert(f.var_count, f.degree)


def roundtrip_span(f: FormTuple) -> bool:
    """Whether the degree-d annihilator of the associated form is exactly the
    span of the tuple: both have dimension n, and so does their sum.  Both
    are read as integer vectors, the kernel's numerators and the forms'
    stored terms, since scaling a vector changes no span."""
    ann = _kernel_numerators(_moment_rows(associated_form(f), f.degree)[0])
    basis = monomial_basis(f.var_count, f.degree)
    rows = [[g._ints.get(b, 0) for b in basis] for g in f.forms]
    return len(ann) == f.var_count == span_dim(rows) == span_dim([*ann, *rows])


def form_power_products(f: FormTuple, ell: int) -> list[Polynomial]:
    """All degree-ell monomials in the forms, in grlex order on exponents:
    the monomials x^e substituted at the forms, over the integers."""
    if ell < 0:
        raise ValueError("exponent must be nonnegative")
    n = f.var_count
    monomials = [Polynomial._from_integers(n, {e: 1}) for e in monomial_basis(n, ell)]
    return _substituted(monomials, f.forms)
