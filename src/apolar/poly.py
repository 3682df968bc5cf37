"""Sparse multivariate polynomials over the rationals.

Monomials are exponent tuples; the global ordering everywhere in the package
is graded lexicographic with x1 > x2 > ... > xn, descending within a degree
(so the degree-2 basis in two variables reads x1^2, x1*x2, x2^2).

The polar pairing lets a polynomial in x act on one in y as a constant
coefficient differential operator: apply_polar(h, F) = h(d/dy1,...,d/dyn) F.
Variable letters are a printing concern only; the algebra never records them.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from math import perm
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .linalg import MatrixQ, matrix_inverse

if TYPE_CHECKING:
    from .ci import GradedQuotient

Monomial = tuple[int, ...]


@lru_cache(maxsize=None)
def monomial_basis(nvars: int, degree: int) -> tuple[Monomial, ...]:
    """All exponent tuples of the given total degree, grlex descending."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        return ()
    monos = []
    for picks in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in picks:
            e[i] += 1
        monos.append(tuple(e))
    return tuple(sorted(monos, reverse=True))


@lru_cache(maxsize=None)
def monomial_index(nvars: int, degree: int) -> Mapping[Monomial, int]:
    return {m: i for i, m in enumerate(monomial_basis(nvars, degree))}


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, Fraction] | Iterable = ()):
        if nvars < 1:
            raise ValueError("need at least one variable")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in items:
            mono = tuple(mono)
            if len(mono) != nvars:
                raise ValueError(f"exponent tuple {mono} does not have {nvars} entries")
            if any(e < 0 for e in mono):
                raise ValueError("exponents must be nonnegative")
            c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if c:
                c = clean.get(mono, Fraction(0)) + c
                if c:
                    clean[mono] = c
                else:
                    clean.pop(mono, None)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        """The variable with 1-based index i."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range")
        mono = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return cls(nvars, {mono: Fraction(1)})

    @classmethod
    def from_coefficient_vector(cls, nvars: int, degree: int, coeffs: Sequence) -> "Polynomial":
        basis = monomial_basis(nvars, degree)
        if len(coeffs) != len(basis):
            raise ValueError("coefficient vector has wrong length")
        return cls(nvars, zip(basis, coeffs))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterable[tuple[Monomial, Fraction]]:
        return self._terms.items()

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self._terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(tuple(mono), Fraction(0))

    def coefficient_vector(self, degree: int) -> tuple[Fraction, ...]:
        """Coordinates in the grlex monomial basis of the given degree.

        The polynomial must be zero or homogeneous of that degree.
        """
        idx = monomial_index(self.nvars, degree)
        vec = [Fraction(0)] * len(idx)
        for mono, c in self._terms.items():
            if sum(mono) != degree:
                raise ValueError("polynomial is not homogeneous of the requested degree")
            vec[idx[mono]] = c
        return tuple(vec)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degrees = {sum(m) for m in self._terms}
        if not degrees:
            return True
        if len(degrees) > 1:
            return False
        return degree is None or degrees == {degree}

    def homogeneous_degree(self) -> int:
        degrees = {sum(m) for m in self._terms}
        if len(degrees) != 1:
            raise ValueError("polynomial is zero or not homogeneous")
        return next(iter(degrees))

    def _require_same_ring(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("mismatched variable counts")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_ring(other)
        out = dict(self._terms)
        for mono, c in other._terms.items():
            s = out.get(mono, Fraction(0)) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return Polynomial(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._require_same_ring(other)
            out: dict[Monomial, Fraction] = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    mono = tuple(a + b for a, b in zip(m1, m2))
                    s = out.get(mono, Fraction(0)) + c1 * c2
                    if s:
                        out[mono] = s
                    else:
                        out.pop(mono, None)
            return Polynomial(self.nvars, out)
        return Polynomial(self.nvars, {m: c * other for m, c in self._terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"<{format_polynomial(self)}>"


def multiply(p: Polynomial, q: Polynomial) -> Polynomial:
    """Product of two polynomials in the same ring."""
    return p * q


def polynomials_from_vectors(nvars: int, degree: int, vectors) -> list[Polynomial]:
    """Interpret coordinate vectors in the grlex basis as homogeneous forms."""
    return [Polynomial.from_coefficient_vector(nvars, degree, v) for v in vectors]


def _polar_term(a: Monomial, b: Monomial) -> tuple[Monomial, int] | None:
    """x^a acting on y^b: (b - a, prod_i b_i!/(b_i-a_i)!), or None when
    some a_i > b_i."""
    if any(bi < ai for ai, bi in zip(a, b)):
        return None
    factor = 1
    for ai, bi in zip(a, b):
        if ai:
            factor *= perm(bi, ai)
    return tuple(bi - ai for ai, bi in zip(a, b)), factor


def apply_polar(h: Polynomial, f: Polynomial) -> Polynomial:
    """Apply h as a differential operator to f (the polar pairing).

    Term by term, x^a acting on y^b gives prod_i b_i!/(b_i-a_i)! * y^{b-a}
    when b >= a componentwise and zero otherwise.  Lowers degree by deg h;
    anything of higher degree than f dies.
    """
    if h.nvars != f.nvars:
        raise ValueError("mismatched variable counts")
    out: dict[Monomial, Fraction] = {}
    for a, ca in h.terms():
        for b, cb in f.terms():
            term = _polar_term(a, b)
            if not term:
                continue
            mono, factor = term
            s = out.get(mono, Fraction(0)) + ca * cb * factor
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return Polynomial(f.nvars, out)


def partial(p: Polynomial, i: int) -> Polynomial:
    """Partial derivative with respect to the 1-based variable i."""
    if not 1 <= i <= p.nvars:
        raise ValueError(f"variable index {i} out of range")
    k = i - 1
    out = {}
    for mono, c in p.terms():
        if mono[k]:
            lowered = tuple(e - 1 if j == k else e for j, e in enumerate(mono))
            out[lowered] = c * mono[k]
    return Polynomial(p.nvars, out)


@dataclass(frozen=True)
class FormTuple:
    """A tuple of n nonzero forms, each of degree d in n variables."""

    var_count: int
    degree: int
    forms: tuple[Polynomial, ...]

    def __post_init__(self):
        n, d = self.var_count, self.degree
        if n < 2 or d < 2:
            raise ValueError("need at least two variables and degree at least two")
        if len(self.forms) != n:
            raise ValueError(f"expected {n} forms, got {len(self.forms)}")
        for f in self.forms:
            if f.nvars != n:
                raise ValueError("mismatched variable counts")
            if f.is_zero or not f.is_homogeneous(d):
                raise ValueError(f"each form must be nonzero homogeneous of degree {d}")

    @property
    def socle_degree(self) -> int:
        return self.var_count * (self.degree - 1)

    @cached_property
    def quotient(self) -> "GradedQuotient":
        """This tuple's GradedQuotient, made on first use and kept on this
        object, so every check on the tuple shares one complete intersection
        verdict.  An equal but distinct tuple gets its own."""
        from .ci import GradedQuotient

        return GradedQuotient(self)

    def coefficient_rows(self) -> list[tuple[Fraction, ...]]:
        return [f.coefficient_vector(self.degree) for f in self.forms]


def jacobian_det(f: FormTuple) -> Polynomial:
    """Determinant of the Jacobian matrix (df_i/dx_j), degree n(d-1)."""
    n = f.var_count
    mat = [[partial(fi, j + 1) for j in range(n)] for fi in f.forms]
    return _poly_det(mat, n)


def _poly_det(mat: list[list[Polynomial]], nvars: int) -> Polynomial:
    """Determinant of a square polynomial matrix by column-subset expansion.

    Minors over the first r rows are memoized per column bitmask, so the work
    is O(2^n) polynomial multiplies instead of n! for the permanent-style sum.
    """
    n = len(mat)
    states = {0: Polynomial.constant(nvars, 1)}
    for r in range(n):
        nxt: dict[int, Polynomial] = {}
        for mask, minor in states.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                entry = mat[r][j]
                if entry.is_zero:
                    continue
                below = bin(mask & (bit - 1)).count("1")
                signed = minor * entry
                if (r + below) % 2:
                    signed = -signed
                key = mask | bit
                nxt[key] = nxt[key] + signed if key in nxt else signed
        states = nxt
        if not states:
            return Polynomial.zero(nvars)
    return states.get((1 << n) - 1, Polynomial.zero(nvars))


def substitute(p: Polynomial, images: Sequence[Polynomial]) -> Polynomial:
    """Evaluate p at the given images of its variables."""
    if len(images) != p.nvars:
        raise ValueError("need one image per variable")
    if not images:
        raise ValueError("need at least one variable")
    out_nvars = images[0].nvars
    for g in images:
        if g.nvars != out_nvars:
            raise ValueError("mismatched variable counts among images")
    products = _power_products(images, [mono for mono, _ in p.terms()])
    out: dict[Monomial, Fraction] = {}
    for (_, c), term in zip(p.terms(), products):
        for mono, v in term.terms():
            out[mono] = out.get(mono, 0) + c * v
    return Polynomial(out_nvars, out)


def _power_products(
    bases: Sequence[Polynomial], exponents: Iterable[Monomial]
) -> list[Polynomial]:
    """prod_i bases[i]^e_i for each exponent tuple e, each power computed
    once."""
    one = Polynomial.constant(bases[0].nvars, 1)
    powers = [[one] for _ in bases]
    out = []
    for e in exponents:
        prod = one
        for i, k in enumerate(e):
            if k:
                while len(powers[i]) <= k:
                    powers[i].append(powers[i][-1] * bases[i])
                prod = prod * powers[i][k]
        out.append(prod)
    return out


def _linear_images(g: MatrixQ, nvars: int) -> list[Polynomial]:
    """Images of the variables under v -> v . g^{-t} (matrix rows mix them)."""
    m = matrix_inverse(g).transpose()
    images = []
    for j in range(nvars):
        images.append(
            Polynomial(
                nvars,
                {
                    tuple(1 if t == i else 0 for t in range(nvars)): m.entry(i, j)
                    for i in range(nvars)
                },
            )
        )
    return images


def act_gl(g1: MatrixQ, g2: MatrixQ | None, target):
    """Left action of GL(n) (pairs of them on form tuples).

    On a form F: (g1 F)(y) = F(y . g1^{-t}).  On a tuple f: substitute
    x . g1^{-t} into every form, then mix the tuple by g2^{-1} on the right
    (g2 = None means the identity).  act(g, act(h, F)) = act(g h, F).
    """
    if isinstance(target, Polynomial):
        if g2 is not None:
            raise ValueError("a single form is acted on by one matrix")
        if g1.nrows != g1.ncols or g1.nrows != target.nvars:
            raise ValueError("matrix size does not match the variable count")
        return substitute(target, _linear_images(g1, target.nvars))
    if isinstance(target, FormTuple):
        n = target.var_count
        if g1.nrows != g1.ncols or g1.nrows != n:
            raise ValueError("matrix size does not match the variable count")
        images = _linear_images(g1, n)
        moved = [substitute(fi, images) for fi in target.forms]
        if g2 is None:
            mixed = moved
        else:
            if g2.nrows != g2.ncols or g2.nrows != n:
                raise ValueError("matrix size does not match the tuple length")
            g2inv = matrix_inverse(g2)
            mixed = []
            for j in range(n):
                acc = Polynomial.zero(n)
                for i in range(n):
                    c = g2inv.entry(i, j)
                    if c:
                        acc = acc + moved[i] * c
                mixed.append(acc)
        return FormTuple(n, target.degree, tuple(mixed))
    raise TypeError("act_gl expects a Polynomial or FormTuple target")


_TERM_SPLIT = re.compile(r"(?=[+-])")
_FACTOR = re.compile(r"^([a-z])(\d+)(?:\^(\d+))?$")
_NUMBER = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_polynomial(text: str, nvars: int, letter: str | None = None) -> Polynomial:
    """Parse the text syntax: '3*x1^2*x2 - 1/2*x2^3 + 7'.

    Whitespace is insignificant.  Variables are one lowercase letter plus a
    1-based index; the letter must be uniform within the polynomial and match
    `letter` when given.  Coefficients are integers or p/q fractions.
    """
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ValueError("empty polynomial text")
    seen_letter = letter
    terms: dict[Monomial, Fraction] = {}
    chunks = [c for c in _TERM_SPLIT.split(s) if c]
    for chunk in chunks:
        if chunk in ("+", "-"):
            raise ValueError(f"dangling sign in {text!r}")
        sign = Fraction(1)
        body = chunk
        if body[0] in "+-":
            if body[0] == "-":
                sign = Fraction(-1)
            body = body[1:]
        coeff = sign
        exps = [0] * nvars
        for factor in body.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {text!r}")
            if _NUMBER.match(factor):
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {text!r}") from None
                continue
            m = _FACTOR.match(factor)
            if not m:
                raise ValueError(f"cannot parse factor {factor!r}")
            var_letter, idx_s, exp_s = m.groups()
            if seen_letter is None:
                seen_letter = var_letter
            elif var_letter != seen_letter:
                raise ValueError(f"mixed variable letters in {text!r}")
            idx = int(idx_s)
            if not 1 <= idx <= nvars:
                raise ValueError(f"variable index {idx} out of range 1..{nvars}")
            exps[idx - 1] += int(exp_s) if exp_s else 1
        mono = tuple(exps)
        acc = terms.get(mono, Fraction(0)) + coeff
        if acc:
            terms[mono] = acc
        else:
            terms.pop(mono, None)
    return Polynomial(nvars, terms)


def format_polynomial(p: Polynomial, letter: str = "x") -> str:
    """Inverse of parse_polynomial; terms in grlex descending order."""
    if p.is_zero:
        return "0"
    pieces = []
    for mono, coeff in p.sorted_terms():
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(f"{letter}{i + 1}")
            elif e > 1:
                factors.append(f"{letter}{i + 1}^{e}")
        mag = abs(coeff)
        if not factors:
            body = _coeff_str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_coeff_str(mag)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(pieces)


def _coeff_str(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"
