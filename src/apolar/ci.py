"""Graded quotients by form tuples and their associated forms.

GradedQuotient tracks the ideal generated by a tuple of n degree-d forms in
n variables, degree by degree.  The tuple is a complete intersection exactly
when the quotient's Hilbert function matches the coefficients of
(1 + u + ... + u^{d-1})^n and the piece one past the socle degree vanishes;
in that case the quotient is Gorenstein with one-dimensional socle generated
by the Jacobian determinant, and the associated form

    A(f) = sum multinomial(a) * socle_coordinate(x^a) * y^a

over degree-n(d-1) monomials is a Macaulay inverse system for the ideal.

Dimension engine: by rank semicontinuity, every tuple's quotient dimensions
are bounded below by the complete intersection values, and reducing mod a
prime can only shrink the ideal's rank.  So when the mod-p rank reaches the
complete intersection bound, the exact dimension is certified; otherwise the
code falls back to full fraction-free elimination.  Construct with
exact_only=True to force the fallback everywhere (the tests cross-check the
two paths).
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .apolarity import annihilator_piece, apolar_hilbert, gorenstein_sequence
from .combinat import ci_hilbert, dim_forms, multinomial
from .linalg import (
    SubspaceBasis,
    _exact_kernel_basis,
    _integer_rows,
    _triangularize,
    rank_mod_prime,
)
from .poly import (
    FormTuple,
    Polynomial,
    _power_products,
    apply_polar,
    jacobian_det,
    monomial_basis,
    monomial_index,
)


class DegenerateTupleError(ValueError):
    """Raised when an operation needs a complete intersection and lacks one."""


def _shift_rows(forms: Sequence[Polynomial], k: int) -> list[list[int]]:
    """Integer rows m * g for every g in forms (all of one degree e) and
    every degree-k monomial m, g outermost, m in grlex order; columns are the
    degree-(e + k) monomials.  Each g is scaled to coprime integers first,
    which changes no span."""
    n = forms[0].nvars
    col = monomial_index(n, forms[0].homogeneous_degree() + k)
    shifts = monomial_basis(n, k)
    rows = []
    for g, coeffs in zip(forms, _integer_rows([[c for _, c in g.terms()] for g in forms])):
        terms = [(b, c) for (b, _), c in zip(g.terms(), coeffs)]
        for m in shifts:
            row = [0] * len(col)
            for b, c in terms:
                row[col[tuple(x + y for x, y in zip(m, b))]] = c
            rows.append(row)
    return rows


class GradedQuotient:
    """Degreewise data of k[x_1..x_n] modulo the ideal of a form tuple."""

    def __init__(self, f: FormTuple, exact_only: bool = False):
        self.tuple = f
        self.var_count = f.var_count
        self.degree = f.degree
        self.socle_degree = f.socle_degree
        self.exact_only = exact_only
        self._target = ci_hilbert(f.var_count, f.degree)
        self._ideal_dims: dict[int, int] = {}
        self._is_ci: bool | None = None
        self._socle_functional: tuple[Fraction, ...] | None = None

    def _expected_ideal_dim(self, j: int) -> int:
        # The complete intersection value is the generic (maximal) rank.
        hf = self._target[j] if j <= self.socle_degree else 0
        return dim_forms(self.var_count, j) - hf

    def ideal_dim(self, j: int) -> int:
        """Exact dimension of the ideal's degree-j piece.

        Lower bound: the rank mod p of the shifted rows.  Upper bound: the
        complete intersection value, the generic rank.  When the two differ,
        Bareiss elimination decides (always, with exact_only).
        """
        if j < 0:
            raise ValueError("degree must be nonnegative")
        if j < self.degree:
            return 0
        if j not in self._ideal_dims:
            rows = _shift_rows(self.tuple.forms, j - self.degree)
            dim = None
            if not self.exact_only:
                bound = self._expected_ideal_dim(j)
                if rank_mod_prime(rows) == bound:
                    dim = bound
            if dim is None:
                dim = len(_triangularize(rows, dim_forms(self.var_count, j)))
            self._ideal_dims[j] = dim
        return self._ideal_dims[j]

    def quotient_dim(self, j: int) -> int:
        return dim_forms(self.var_count, j) - self.ideal_dim(j)

    def hilbert(self) -> tuple[int, ...]:
        """Quotient dimensions for degrees 0..n(d-1)."""
        return tuple(self.quotient_dim(j) for j in range(self.socle_degree + 1))

    def is_complete_intersection(self) -> bool:
        if self._is_ci is None:
            ok = all(
                self.quotient_dim(j) == self._target[j]
                for j in range(self.degree, self.socle_degree + 1)
            )
            self._is_ci = ok and self.quotient_dim(self.socle_degree + 1) == 0
        return self._is_ci

    def ideal_piece(self, j: int) -> SubspaceBasis:
        """Reduced-echelon basis of the ideal's degree-j piece."""
        width = dim_forms(self.var_count, j)
        if j < self.degree:
            return SubspaceBasis(width, ())
        return SubspaceBasis.from_spanning(_shift_rows(self.tuple.forms, j - self.degree), width)

    def socle_functional(self) -> tuple[Fraction, ...]:
        """The functional on top-degree forms killing the ideal, with value 1
        on the Jacobian determinant."""
        if self._socle_functional is None:
            if not self.is_complete_intersection():
                raise DegenerateTupleError("tuple is not a complete intersection")
            # Exact route: this kernel vector's entries run to hundreds of
            # bits, past what three word-size primes can reconstruct.
            lam = _exact_kernel_basis(
                _shift_rows(self.tuple.forms, self.socle_degree - self.degree)
            )
            assert lam.dimension == 1, "complete intersection socle must be a line"
            vec = lam.vectors[0]
            jac_vec = jacobian_det(self.tuple).coefficient_vector(self.socle_degree)
            t = sum(a * b for a, b in zip(vec, jac_vec))
            assert t != 0, "Jacobian determinant must generate the socle"
            self._socle_functional = tuple(x / t for x in vec)
        return self._socle_functional

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
        lam = self.socle_functional()
        n, s = self.var_count, self.socle_degree
        terms = {}
        for idx, mono in enumerate(monomial_basis(n, s)):
            c = lam[idx]
            if c:
                terms[mono] = multinomial(mono) * c
        return Polynomial(n, terms)


def ideal_piece(f: FormTuple, j: int) -> SubspaceBasis:
    """Degree-j piece of the ideal generated by the tuple."""
    return f.quotient.ideal_piece(j)


def is_complete_intersection(f: FormTuple) -> bool:
    """Whether the tuple's quotient has the length-d^n Hilbert function and
    vanishes one degree past the socle (equivalently, nonzero resultant)."""
    return f.quotient.is_complete_intersection()


def socle_coordinate(q: GradedQuotient, p: Polynomial) -> Fraction:
    return q.socle_coordinate(p)


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
    return apolar_hilbert(g) == gorenstein_sequence(f.var_count, f.degree)


def roundtrip_span(f: FormTuple) -> bool:
    """Whether the degree-d annihilator of the associated form is exactly the
    span of the tuple."""
    g = associated_form(f)
    ann = annihilator_piece(g, f.degree)
    span_f = SubspaceBasis.from_spanning(
        f.coefficient_rows(), dim_forms(f.var_count, f.degree)
    )
    return ann.dimension == f.var_count and ann.same_span(span_f)


def form_power_products(f: FormTuple, ell: int) -> list[Polynomial]:
    """All degree-ell monomials in the forms, in grlex order on exponents."""
    if ell < 0:
        raise ValueError("exponent must be nonnegative")
    return _power_products(f.forms, monomial_basis(f.var_count, ell))
