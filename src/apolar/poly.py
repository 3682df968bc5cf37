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

Products run on primitive integer terms through one kernel, _times: each
degree piece of a polynomial becomes a coefficient array over the grlex
basis, and the product of a degree-e and a degree-k array is one outer
product, summed into degree e + k by the sort order and run starts cached per
(n, e, k) in _product_runs, read off the shift table _shift_columns.  Each
caller proves one bound per call on every coefficient and partial sum it will
form (_norm); below 2^63 the kernel runs in int64, otherwise on Python ints
in numpy object arrays.  numpy is imported on first use.
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

from .linalg import MatrixQ, _dtype, _primitive_row, matrix_inverse

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
def _shift_columns(n: int, e: int, k: int):
    """The shift table, a read-only integer array: entry (i, j) is the
    column of m_j * b_i among the degree-(e + k) monomials, b_i the i-th
    degree-e monomial and m_j the j-th degree-k monomial, both in grlex
    order."""
    import numpy as np

    col = monomial_index(n, e + k)
    shifts = monomial_basis(n, k)
    table = np.array(
        [[col[tuple(map(add, m, b))] for m in shifts] for b in monomial_basis(n, e)], dtype=np.intp
    )
    table.flags.writeable = False
    return table


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
            (a, sa), (b, sb) = _primitive_terms(self), _primitive_terms(other)
            return _divided(self.nvars, _integer_products([(a, b)], self.nvars)[0], sa * sb)
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
    the sum is divided once by the two scaling factors.  The factorial
    weights make this a correlation of the two term lists, not a product, so
    it does not run through the product kernel _times.
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
    determinant is taken over the integers (_integer_det, in int64 when the
    product of the rows' L1 sums is below 2^63), and the result is divided by
    the product of the c_i."""
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


def _norm(*ps: Mapping[Monomial, int]) -> int:
    """The L1 norm of the integer polynomials taken together, floored at 1,
    so that it bounds every coefficient and a product of norms bounds every
    product."""
    return max(sum(abs(c) for p in ps for c in p.values()), 1)


def _graded(p: Mapping[Monomial, int], nvars: int, dtype) -> dict:
    """An integer polynomial as one coefficient array per degree, each over
    the grlex basis of its degree."""
    import numpy as np

    out = {}
    for m, c in p.items():
        e = sum(m)
        if e not in out:
            out[e] = np.zeros(len(monomial_basis(nvars, e)), dtype=dtype)
        out[e][monomial_index(nvars, e)[m]] = c
    return out


def _terms(p: Mapping[int, Sequence[int]], nvars: int) -> dict[Monomial, int]:
    """Graded coefficient arrays back to monomial -> Python int terms;
    cancelled terms stay as zeros."""
    return {m: c for e, a in p.items() for m, c in zip(monomial_basis(nvars, e), a.tolist())}


@lru_cache(maxsize=None)
def _product_runs(n: int, e: int, k: int):
    """How an outer product of a degree-e and a degree-k coefficient array
    (grlex bases, the degree-e index outermost) sums into degree e + k: the
    order that sorts its flattened entries by the column of their product
    monomial, read off _shift_columns, and where each column's run starts in
    that order.  Every degree-(e + k) monomial is such a product, so the runs
    are the columns in order."""
    import numpy as np

    cols = _shift_columns(n, e, k).ravel()
    order = np.argsort(cols, kind="stable")
    starts = np.flatnonzero(np.diff(cols[order], prepend=-1))
    # Cached and shared by every caller, so read-only.
    order.flags.writeable = starts.flags.writeable = False
    return order, starts


def _times(p: Mapping, q: Mapping, nvars: int, acc: dict | None = None, sign: int = 1) -> dict:
    """Add sign * p * q into the graded arrays acc (a new dict by default)
    and return it.  Each pair of degree pieces is one outer product, summed
    into its degree by one np.add.reduceat over the cached _product_runs;
    the caller has chosen the dtype for a bound on the whole sum."""
    import numpy as np

    acc = {} if acc is None else acc
    for e, a in p.items():
        for k, b in q.items():
            order, starts = _product_runs(nvars, e, k)
            c = sign * np.add.reduceat(np.multiply.outer(a, b).ravel()[order], starts)
            acc[e + k] = acc[e + k] + c if e + k in acc else c
    return acc


def _graded_products(
    pairs: Sequence[tuple[Mapping[Monomial, int], Mapping[Monomial, int]]], nvars: int
) -> list[dict]:
    """p * q for each pair of integer polynomials, as graded arrays in one
    dtype: int64 when the largest product of a pair's norms (_norm), which
    bounds every partial sum, is below 2^63."""
    dtype = _dtype(max((_norm(p) * _norm(q) for p, q in pairs), default=1))
    return [_times(_graded(p, nvars, dtype), _graded(q, nvars, dtype), nvars) for p, q in pairs]


def _integer_products(
    pairs: Sequence[tuple[Mapping[Monomial, int], Mapping[Monomial, int]]], nvars: int
) -> list[dict[Monomial, int]]:
    """The _graded_products as monomial -> Python int terms."""
    return [_terms(p, nvars) for p in _graded_products(pairs, nvars)]


def _integer_det(mat: list[list[dict[Monomial, int]]], nvars: int) -> dict[Monomial, int]:
    """Determinant of a square matrix of integer polynomials by column-subset
    expansion.

    Minors over the first r rows are memoized per column bitmask, so the work
    is O(2^n) polynomial multiplies instead of n! for the permanent-style sum.
    Every minor over the first r rows, and every partial sum of one, is
    bounded by the product of those rows' L1 sums (it is at most the
    permanent of the entries' L1 norms), so the product of every row's
    _norm chooses the dtype.
    """
    n = len(mat)
    dtype = _dtype(prod(_norm(*row) for row in mat))
    entries = [[_graded(p, nvars, dtype) for p in row] for row in mat]
    states = {0: _graded({(0,) * nvars: 1}, nvars, dtype)}
    for r in range(n):
        nxt: dict[int, dict] = {}
        for mask, minor in states.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit or not entries[r][j]:
                    continue
                sign = -1 if (r + bin(mask & (bit - 1)).count("1")) % 2 else 1
                _times(minor, entries[r][j], nvars, nxt.setdefault(mask | bit, {}), sign)
        states = nxt
    return _terms(states.get((1 << n) - 1, {}), nvars)


def substitute(p: Polynomial, images: Sequence[Polynomial]) -> Polynomial:
    """Evaluate p at the given images of its variables."""
    if len(images) != p.nvars:
        raise ValueError("need one image per variable")
    out_nvars = images[0].nvars
    for g in images:
        if g.nvars != out_nvars:
            raise ValueError("mismatched variable counts among images")
    return _substituted([p], images)[0]


def _substituted(ps: Sequence[Polynomial], images: Sequence[Polynomial]) -> list[Polynomial]:
    """Each p in ps evaluated at the images, summed over the integers and
    divided once on the way out.

    Image i is scaled once to primitive integer terms G_i, so that it is G_i
    times den_i / num_i, and each power of G_i is formed once for all of ps.
    With p scaled the same way and t_i its largest exponent of variable i,
    each term c x^e of p adds c prod_i den_i^e_i num_i^(t_i - e_i) G^e to
    an integer sum, which is divided by p's factor times prod_i num_i^t_i.
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
        acc: dict = {}
        for e, c in ints.items():
            for (_, s), k, t in zip(scaled, e, top):
                c *= s.denominator**k * s.numerator ** (t - k)
            for deg, a in products[e].items():
                a = a.astype(object) * c
                acc[deg] = acc[deg] + a if deg in acc else a
        den = factor * prod(s.numerator**t for (_, s), t in zip(scaled, top))
        out.append(_divided(nvars, _terms(acc, nvars), den))
    return out


def _integer_power_products(
    bases: Sequence[Mapping[Monomial, int]], exponents: Iterable[Monomial], nvars: int
) -> list[dict]:
    """prod_i bases[i]^e_i for each exponent tuple e, over integer
    polynomials in nvars variables, as graded arrays (_graded), each power
    of a base formed once.

    With t_i the largest exponent of base i, every power and product formed,
    and every partial sum of one, is bounded by prod_i _norm(bases[i])^t_i,
    which chooses the dtype; the norm's floor at 1 keeps a zero base from
    zeroing the bound of the products that do not involve it.
    """
    exponents = list(exponents)
    top = [max((e[i] for e in exponents), default=0) for i in range(len(bases))]
    dtype = _dtype(prod(_norm(g) ** t for g, t in zip(bases, top)))
    one = _graded({(0,) * nvars: 1}, nvars, dtype)
    # A base that no exponent uses is not converted: it need not fit.
    powers = [[one, _graded(g, nvars, dtype)] if t else [one] for g, t in zip(bases, top)]
    out = []
    for e in exponents:
        acc = one
        for i, k in enumerate(e):
            if k:
                while len(powers[i]) <= k:
                    powers[i].append(_times(powers[i][-1], powers[i][1], nvars))
                acc = powers[i][k] if acc is one else _times(acc, powers[i][k], nvars)
        out.append(acc)
    return out


def act_gl(g1: MatrixQ, g2: MatrixQ | None, target):
    """Left action of GL(n) (pairs of them on form tuples).

    On a form F: (g1 F)(y) = F(y . g1^{-t}).  On a tuple f: substitute
    x . g1^{-t} into every form, then mix the tuple by g2^{-1} on the right
    (g2 = None skips the mix).  act(g, act(h, F)) = act(g h, F).  The mix is
    a substitution too, run first (substitution is a ring map, so the two
    commute): form j is sum_i (g2^{-1})_{ij} f_i, the tuple substituted into
    column j of g2^{-1} read as a linear form.  Both run on integer sums.
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
    forms = target.forms
    if g2 is not None:
        if g2.nrows != g2.ncols or g2.nrows != n:
            raise ValueError("matrix size does not match the tuple length")
        mix = polynomials_from_vectors(n, 1, matrix_inverse(g2).transpose().entries)
        forms = _substituted(mix, forms)
    return FormTuple(n, target.degree, tuple(_substituted(forms, images)))


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
