"""Sparse multivariate polynomials over the rationals.

Monomials are exponent tuples; the global ordering everywhere in the package
is graded lexicographic with x1 > x2 > ... > xn, descending within a degree
(so the degree-2 basis in two variables reads x1^2, x1*x2, x2^2).

The polar pairing lets a polynomial in x act on one in y as a constant
coefficient differential operator: apply_polar(h, F) = h(d/dy1,...,d/dyn) F.
Variable letters are a printing concern only; the algebra never records them.

The Polynomial constructor is the one place where terms are normalised: it
adds the coefficients of equal monomials, checks each distinct monomial once,
and then drops zero coefficients.
Every operation below hands it raw (monomial, coefficient) pairs.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from math import perm, prod
from operator import add
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .linalg import MatrixQ, _primitive_row, matrix_inverse

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


@lru_cache(maxsize=None)
def _shift_columns(n: int, e: int, k: int) -> Mapping[Monomial, tuple[int, ...]]:
    """For each degree-e monomial b, in grlex order, the column of m * b
    among the degree-(e + k) monomials, for every degree-k monomial m in
    grlex order."""
    col = monomial_index(n, e + k)
    shifts = monomial_basis(n, k)
    return {b: tuple(col[tuple(map(add, m, b))] for m in shifts) for b in monomial_basis(n, e)}


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, Fraction] | Iterable = ()):
        if nvars < 1:
            raise ValueError("need at least one variable")
        items = terms.items() if isinstance(terms, Mapping) else terms
        merged: dict[Monomial, Fraction] = {}
        for mono, coeff in items:
            mono = tuple(mono)
            c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            prev = merged.get(mono)
            merged[mono] = c if prev is None else prev + c
        for mono in merged:
            if len(mono) != nvars:
                raise ValueError(f"exponent tuple {mono} does not have {nvars} entries")
            if any(e < 0 for e in mono):
                raise ValueError("exponents must be nonnegative")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", {m: c for m, c in merged.items() if c})

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
        return Polynomial(self.nvars, [*self._terms.items(), *other._terms.items()])

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._require_same_ring(other)
            pairs = [
                (tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
                for m1, c1 in self._terms.items()
                for m2, c2 in other._terms.items()
            ]
            return Polynomial(self.nvars, pairs)
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
    anything of higher degree than f dies.  h and f are scaled once to
    primitive integer terms, the products are summed over the integers, and
    the sum is divided once by the two scaling factors.
    """
    if h.nvars != f.nvars:
        raise ValueError("mismatched variable counts")
    (h_ints, h_scale), (f_ints, f_scale) = _primitive_terms(h), _primitive_terms(f)
    acc: dict[Monomial, int] = {}
    for a, ca in h_ints.items():
        for b, cb in f_ints.items():
            term = _polar_term(a, b)
            if term:
                mono, factor = term
                acc[mono] = acc.get(mono, 0) + ca * cb * factor
    return _divided(f.nvars, acc, h_scale * f_scale)


def partial(p: Polynomial, i: int) -> Polynomial:
    """Partial derivative in the 1-based variable i: its polar action."""
    return apply_polar(Polynomial.variable(p.nvars, i), p)


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
    """Determinant of the Jacobian matrix (df_i/dx_j), degree n(d-1).

    Each form is scaled once to its primitive integer polynomial c_i f_i, the
    determinant is taken over the integers, and the result is divided by the
    product of the c_i."""
    n = f.var_count
    scaled = [_primitive_terms(fi) for fi in f.forms]
    # Entry (i, j) is d(c_i f_i)/dx_j: each term c x^m adds c m_j x^(m - e_j).
    mat: list[list[dict[Monomial, int]]] = [[{} for _ in range(n)] for _ in range(n)]
    for row, (g, _) in zip(mat, scaled):
        for m, c in g.items():
            for j, e in enumerate(m):
                if e:
                    row[j][m[:j] + (e - 1,) + m[j + 1 :]] = c * e
    return _divided(n, _integer_det(mat, n), prod(c for _, c in scaled))


def _primitive_terms(p: Polynomial) -> tuple[dict[Monomial, int], Fraction]:
    """p's terms scaled to coprime integer coefficients, and the factor they
    were scaled by."""
    ints, factor = _primitive_row(list(p._terms.values()))
    return dict(zip(p._terms, ints)), factor


def _divided(nvars: int, terms: Mapping[Monomial, int], scale: Fraction) -> Polynomial:
    """The polynomial with the integer terms divided by the nonzero `scale`:
    the one division on the way out of an integer computation."""
    num, den = scale.numerator, scale.denominator
    return Polynomial(nvars, [(m, Fraction(c * den, num)) for m, c in terms.items() if c])


def _add_product(
    acc: dict[Monomial, int], p: Mapping[Monomial, int], q: Mapping[Monomial, int], sign: int = 1
) -> dict[Monomial, int]:
    """Add sign * p * q into acc and return it; integer polynomials are
    monomial -> coefficient dicts, and cancelled terms stay as zeros."""
    for m1, c1 in p.items():
        c1 *= sign
        for m2, c2 in q.items():
            m = tuple(map(add, m1, m2))
            acc[m] = acc.get(m, 0) + c1 * c2
    return acc


def _integer_det(mat: list[list[dict[Monomial, int]]], nvars: int) -> dict[Monomial, int]:
    """Determinant of a square matrix of integer polynomials by column-subset
    expansion.

    Minors over the first r rows are memoized per column bitmask, so the work
    is O(2^n) polynomial multiplies instead of n! for the permanent-style sum.
    """
    n = len(mat)
    states = {0: {(0,) * nvars: 1}}
    for r in range(n):
        nxt: dict[int, dict[Monomial, int]] = {}
        for mask, minor in states.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit or not mat[r][j]:
                    continue
                sign = -1 if (r + bin(mask & (bit - 1)).count("1")) % 2 else 1
                _add_product(nxt.setdefault(mask | bit, {}), minor, mat[r][j], sign)
        states = nxt
    return states.get((1 << n) - 1, {})


def substitute(p: Polynomial, images: Sequence[Polynomial]) -> Polynomial:
    """Evaluate p at the given images of its variables."""
    if len(images) != p.nvars:
        raise ValueError("need one image per variable")
    out_nvars = images[0].nvars
    for g in images:
        if g.nvars != out_nvars:
            raise ValueError("mismatched variable counts among images")
    return _divided(out_nvars, *_substituted([p], images)[0])


def _substituted(
    ps: Sequence[Polynomial], images: Sequence[Polynomial]
) -> list[tuple[dict[Monomial, int], Fraction]]:
    """Each p in ps evaluated at the images, over the integers: an integer
    sum, and the denominator that divides it into the value.

    Image i is scaled once to primitive integer terms G_i, so that it is G_i
    times den_i / num_i, and each power of G_i is formed once for all of ps.
    With p scaled the same way and t_i its largest exponent of variable i,
    each term c x^e of p adds c prod_i den_i^e_i num_i^(t_i - e_i) G^e to
    the sum, whose denominator is p's factor times prod_i num_i^t_i.
    """
    nvars = images[0].nvars
    scaled = [_primitive_terms(g) for g in images]
    terms = [_primitive_terms(p) for p in ps]
    exponents = list(dict.fromkeys(e for ints, _ in terms for e in ints))
    bases = [g for g, _ in scaled]
    products = dict(zip(exponents, _integer_power_products(bases, exponents, nvars)))
    out = []
    for ints, factor in terms:
        top = [max((e[i] for e in ints), default=0) for i in range(len(images))]
        acc: dict[Monomial, int] = {}
        for e, c in ints.items():
            for (_, s), k, t in zip(scaled, e, top):
                c *= s.denominator**k * s.numerator ** (t - k)
            for m, v in products[e].items():
                acc[m] = acc.get(m, 0) + c * v
        out.append((acc, factor * prod(s.numerator**t for (_, s), t in zip(scaled, top))))
    return out


def _integer_power_products(
    bases: Sequence[Mapping[Monomial, int]], exponents: Iterable[Monomial], nvars: int
) -> list[dict[Monomial, int]]:
    """prod_i bases[i]^e_i for each exponent tuple e, over integer
    polynomials in nvars variables, each power of a base formed once."""
    one = {(0,) * nvars: 1}
    powers = [[one] for _ in bases]
    out = []
    for e in exponents:
        acc = one
        for i, k in enumerate(e):
            if k:
                while len(powers[i]) <= k:
                    powers[i].append(_add_product({}, powers[i][-1], bases[i]))
                acc = powers[i][k] if acc is one else _add_product({}, acc, powers[i][k])
        out.append(acc)
    return out


def act_gl(g1: MatrixQ, g2: MatrixQ | None, target):
    """Left action of GL(n) (pairs of them on form tuples).

    On a form F: (g1 F)(y) = F(y . g1^{-t}).  On a tuple f: substitute
    x . g1^{-t} into every form, then mix the tuple by g2^{-1} on the right
    (g2 = None means the identity).  act(g, act(h, F)) = act(g h, F).  The
    substitution and the mix both run on integer sums, and each resulting
    form is divided once.
    """
    if isinstance(target, Polynomial):
        if g2 is not None:
            raise ValueError("a single form is acted on by one matrix")
        n = target.nvars
    elif isinstance(target, FormTuple):
        n = target.var_count
    else:
        raise TypeError("act_gl expects a Polynomial or FormTuple target")
    if g1.nrows != g1.ncols or g1.nrows != n:
        raise ValueError("matrix size does not match the variable count")
    # Variable j goes to row j of g1^{-1}, read as a linear form.
    images = polynomials_from_vectors(n, 1, matrix_inverse(g1).entries)
    if isinstance(target, Polynomial):
        return substitute(target, images)
    if g2 is None:
        mix = MatrixQ.identity(n)
    elif g2.nrows != g2.ncols or g2.nrows != n:
        raise ValueError("matrix size does not match the tuple length")
    else:
        mix = matrix_inverse(g2)
    moved = _substituted(target.forms, images)
    forms = []
    # Form j of the result is sum_i (g2^{-1})_{ij} f_i: column j of g2^{-1}.
    # With moved form i the sum S_i over D_i, the weights (g2^{-1})_{ij} / D_i
    # are scaled to integers once per column.
    for col in mix.transpose().entries:
        weights, factor = _primitive_row([w / den for w, (_, den) in zip(col, moved)])
        acc: dict[Monomial, int] = {}
        for k, (sums, _) in zip(weights, moved):
            if k:
                for m, v in sums.items():
                    acc[m] = acc.get(m, 0) + k * v
        forms.append(_divided(n, acc, factor))
    return FormTuple(n, target.degree, tuple(forms))


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
    terms: list[tuple[Monomial, Fraction]] = []
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
        terms.append((tuple(exps), coeff))
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
