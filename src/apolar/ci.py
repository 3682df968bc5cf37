"""Graded quotients by form tuples and their associated forms.

GradedQuotient tracks the ideal I generated by a tuple f of n degree-d forms
in n variables, degree by degree.  Write s = n(d-1) and W = dim S_s.  The
tuple is a complete intersection exactly when I fills degree s + 1
(Macaulay's resultant criterion): then S/I is Artinian, so the forms are a
system of parameters of the Cohen-Macaulay ring S, hence a regular sequence
(Bruns-Herzog 2.1); and a regular sequence has Hilbert function
(1 + u + ... + u^{d-1})^n, zero past s.  The quotient is then Gorenstein
with one-dimensional socle generated by the Jacobian determinant, and the
associated form

    A(f) = sum (s!/a!) * socle_coordinate(x^a) * y^a

over degree-s monomials is a Macaulay inverse system for the ideal.

The verdict is proven in degree s (Macaulay's inverse system,
Iarrobino-Kanev, LNM 1721), from the degree-s shift matrix M_s:

- dim I_s <= W - 1 always: by rank semicontinuity no tuple's ideal is larger
  in any degree than a generic tuple's, and a generic tuple is a complete
  intersection, whose quotient has dimension 1 in degree s.
- If dim I_s = W - 1, then I_s = F^perp for a nonzero form F of degree s in
  the dual variables, A(f) up to scale.  The part of degree s + 1 orthogonal
  to S_1 I_s is {G : x_i o G in k F for every i}, o the polar action.  Let G
  be in it, G != 0, with x_i o G = c_i F.  Not every c_i is 0, since G is
  not a constant, so after a linear change of coordinates c = e_1: then
  x_i o G = 0 for i >= 2, G is a multiple of y_1^{s+1}, and F of y_1^s.  So
  that part is 0 unless F = l^s for a linear form l, and then it is k l^{s+1}.
- F = l^s exactly when rank Cat_1(F) = 1, the span of its first partials
  being a line.  So if rank Cat_1(F) >= 2, then I_{s+1} contains
  S_1 I_s = S_{s+1}, and f is a complete intersection by the criterion
  above.  Conversely a complete intersection has rank Cat_1(A(f)) = n >= 2,
  its Hilbert function in degree 1.

The certificate (GradedQuotient._socle_certificate): rank M_s = W - 1, which
meets the bound, read mod PRIME from the factorization of M_s (or exactly,
by Bareiss, under the size rule linalg.EXACT_MAX_ENTRIES); its kernel is then
the line of the primitive integer socle vector lambda, whose moments are
phi = s! lambda, and the kernel line mod p is a nonzero multiple of lambda
mod p.  A nonzero 2 x 2 minor mod p of the moment matrix H_1 built from that
line is a nonzero multiple of the same minor of F, so rank Cat_1(F) >= 2.
Tuples through a common point, whose F is usually a pure power, fail the
minor.  When either test fails, the degree-(s + 1) rank decides, as it
alone ever reports "not a complete intersection"; the socle line is lifted
from the same factorization of M_s.

Dimensions: each ideal rank is linalg._certified_rank of the shifted rows.
Its lower bound is the rank mod a prime.  Its upper bound is the complete
intersection value, by the same semicontinuity.  When the two bounds differ,
the rows' verified right kernel, (I_j)^perp, or Bareiss elimination decides;
matrices small enough for the size rule go to Bareiss directly.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from typing import Sequence

from . import linalg
from .apolarity import _moment_rows, apolar_hilbert
from .combinat import ci_hilbert, dim_forms
from .linalg import (
    PRIME,
    SubspaceBasis,
    _certified_rank,
    _dtype,
    _exact_kernel_numerators,
    _factorization,
    _integer_array,
    _kernel_numerators,
    _line_residues,
    span_dim,
)
from .poly import (
    FormTuple,
    Polynomial,
    _factorial_array,
    _jacobian_det,
    _norm,
    _power_rows,
    _row_terms,
    _shift_columns,
    apply_polar,
    monomial_basis,
    monomial_index,
)


class DegenerateTupleError(ValueError):
    """Raised when an operation needs a complete intersection and lacks one."""


def _shift_rows(forms: Sequence[Polynomial], k: int):
    """The _shifted_rows of the forms' stored primitive integer terms, all
    of one degree e, in the dtype _integer_array chooses for their largest
    coefficient: scaling a form changes no span."""
    n, e = forms[0].nvars, sum(next(iter(forms[0]._ints)))
    basis = monomial_basis(n, e)
    coefficients = _integer_array([[g._ints.get(b, 0) for b in basis] for g in forms], len(basis))
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
        self._verdict: bool | None = None
        # What the socle line needs of the verdict's elimination of the
        # degree-s shift rows, kept until _socle has built the line: those
        # rows, and their factorization mod PRIME or their exact kernel.
        self._socle_source: tuple | None = None
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
        """Whether the forms are a regular sequence, decided once: proven in
        the socle degree when _socle_certificate holds, else by the ideal's
        rank in degree s + 1, which alone ever reports that they are not."""
        if self._verdict is None:
            self._verdict = self._socle_certificate() or self.quotient_dim(self.socle_degree + 1) == 0
        return self._verdict

    def _socle_certificate(self) -> bool:
        """Whether the degree-s shift rows M_s prove a complete intersection
        (module docstring): rank M_s = W - 1, read by Bareiss under the size
        rule and else from the factorization mod PRIME, and a nonzero 2 x 2
        minor mod PRIME of H_1 of the kernel line.  The minors of the binary
        Hankel matrix of the last s + 1 entries, the monomials in x_{n-1}
        and x_n, are tried first, so the whole line is back-substituted only
        when they all vanish.  The elimination is kept for the socle line."""
        import numpy as np

        n, s = self.var_count, self.socle_degree
        rows = _shift_rows(self.forms, s - self.degree)
        width = rows.shape[1]
        if rows.size <= linalg.EXACT_MAX_ENTRIES:
            lines = _exact_kernel_numerators(rows.tolist(), width)
            self._socle_source = rows, lines
            self._ideal_dims[s] = width - len(lines)
            if len(lines) != 1:
                return False
            line = (np.array(lines[0], dtype=object) % PRIME).astype(np.int64)
        else:
            lu = _factorization(rows)
            self._socle_source = rows, lu
            if len(lu.pivots) != width - 1:
                return False
            self._ideal_dims[s] = width - 1
            tail = _line_residues(lu, width - s - 1)
            if _rank_two(tail[_shift_columns(2, s - 1, 1)]):
                return True
            line = _line_residues(lu)
        return _rank_two(line[_shift_columns(n, s - 1, 1)])

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
            # The socle is a line, so the shift matrix has corank one.  The
            # verdict left its exact kernel under the size rule; past it, its
            # factorization, from which the kernel is lifted p-adically and
            # verified exactly, with Bareiss as the fallback; the entries run
            # to hundreds of bits.
            rows, read = self._socle_source
            self._socle_source = None
            lam = read if isinstance(read, list) else _kernel_numerators(rows, read)
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
        s = n(d-1) in the dual variables: its coefficient at y^a is s!/a!
        times the socle functional's at x^a."""
        lam, den = self._socle()
        n, s = self.var_count, self.socle_degree
        top = factorial(s)
        weights = zip(monomial_basis(n, s), _factorial_array(n, s).tolist(), lam)
        terms = {mono: top // w * c for mono, w, c in weights if c}
        return Polynomial._from_integers(n, terms, den)


def _rank_two(h) -> bool:
    """Whether the residue matrix h has rank at least two mod PRIME:
    with h[i, j] its first nonzero entry, whether some 2 x 2 minor
    h[i, j] h[k, l] - h[k, j] h[i, l] is nonzero.  Products of residues stay
    below 2^50."""
    import numpy as np

    first = np.flatnonzero(h)
    if not first.size:
        return False
    i, j = divmod(int(first[0]), h.shape[1])
    return bool(np.count_nonzero((h * h[i, j] - np.outer(h[:, j], h[i])) % PRIME))


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
    rows = _shift_rows(f.forms, 0).tolist()
    return len(ann) == f.var_count == span_dim(rows) == span_dim([*ann, *rows])


def form_power_products(f: FormTuple, ell: int) -> list[Polynomial]:
    """All degree-ell monomials in the forms, in grlex order on exponents:
    the degree-ell power rows G^e of the forms' stored integer terms G_i
    (poly._power_rows, in the dtype M^ell chooses, M their largest _norm),
    row e divided by prod_i c_i^e_i, c_i the forms' factors."""
    if ell < 0:
        raise ValueError("exponent must be nonnegative")
    n = f.var_count
    images = [g._ints for g in f.forms]
    out = _power_rows(images, ell, n, _dtype(max(map(_norm, images)) ** ell))[ell]
    scales = [g._factor for g in f.forms]
    return [
        Polynomial._from_integers(n, _row_terms(out, j, n), prod(map(pow, scales, e)))
        for j, e in enumerate(monomial_basis(n, ell))
    ]
