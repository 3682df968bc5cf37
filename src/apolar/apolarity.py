"""Catalecticant matrices, annihilators, and the stratification flags.

A form F of degree e in y determines, for each contraction degree i, the
linear map h -> h(d/dy) F from degree-i polynomials in x to degree e-i forms
in y.  Its matrix in the grlex bases is the catalecticant; ranks of these
matrices are the apolar Hilbert function, and the kernel in the critical
degree is the degree-d piece of the annihilator ideal.

stratify places a form of degree n(d-1) relative to the nested loci

    U_Res  (annihilator piece is a complete intersection)
      in  Gor(T)  (apolar Hilbert function matches the length-n product)
      in  U  (catalecticant rank exactly K - n)
      in  V  (catalecticant rank at most K - n),

with Z = U minus U_Res.  All arithmetic is exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .combinat import ci_hilbert, dim_forms
from .linalg import MatrixQ, SubspaceBasis, block_solve, kernel_basis, pivot_columns, rank
from .poly import (
    FormTuple,
    Polynomial,
    _polar_term,
    monomial_basis,
    monomial_index,
    polynomials_from_vectors,
)


@dataclass(frozen=True)
class CatalecticantMatrix:
    """Matrix of contraction by degree-i polynomials, rows in degree e-i."""

    contraction_degree: int
    matrix: MatrixQ


def catalecticant(f: Polynomial, i: int) -> CatalecticantMatrix:
    """Catalecticant of a nonzero homogeneous form at contraction degree i."""
    if f.is_zero:
        raise ValueError("zero input")
    e = f.homogeneous_degree()
    if not 0 <= i <= e:
        raise ValueError(f"contraction degree must lie in 0..{e}")
    n = f.nvars
    cols = monomial_basis(n, i)
    row_index = monomial_index(n, e - i)
    entries = [[Fraction(0)] * len(cols) for _ in row_index]
    for b, c in f.terms():
        for k, a in enumerate(cols):
            term = _polar_term(a, b)
            if term:
                target, factor = term
                entries[row_index[target]][k] += c * factor
    return CatalecticantMatrix(i, MatrixQ.from_rows(entries))


def annihilator_piece(f: Polynomial, j: int) -> SubspaceBasis:
    """Degree-j piece of the annihilator ideal of f, as a kernel basis.

    Everything of degree above deg f annihilates it, so those pieces are the
    full space.
    """
    if f.is_zero:
        raise ValueError("zero input")
    if j < 0:
        raise ValueError("degree must be nonnegative")
    e = f.homogeneous_degree()
    if j > e:
        dim = dim_forms(f.nvars, j)
        one, zero = Fraction(1), Fraction(0)
        vectors = tuple(
            tuple(one if t == k else zero for t in range(dim)) for k in range(dim)
        )
        return SubspaceBasis(dim, vectors)
    return kernel_basis(catalecticant(f, j).matrix)


def annihilator_polynomials(f: Polynomial, j: int) -> list[Polynomial]:
    """The annihilator piece as polynomials in the contraction variables."""
    return polynomials_from_vectors(f.nvars, j, annihilator_piece(f, j).vectors)


def _ures_generators(f: Polynomial, d: int) -> list[Polynomial] | None:
    """The degree-d annihilator piece of f when f lies in U_Res, else None.

    A form f of degree n(d-1), n = f.nvars, lies in U_Res when that piece has
    n elements and they form a complete intersection.  Their ideal J then
    lies in Ann(f), and S/J is Gorenstein with socle degree deg f, so J is
    the annihilator of the one form, up to scale, that it kills in that
    degree; that form is f.  So Ann(f) = J is generated in degree d.
    """
    from .ci import is_complete_intersection

    gens = annihilator_polynomials(f, d)
    if len(gens) == f.nvars and is_complete_intersection(FormTuple(f.nvars, d, tuple(gens))):
        return gens
    return None


def apolar_hilbert(f: Polynomial) -> tuple[int, ...]:
    """Catalecticant ranks for every contraction degree 0..deg f.

    This is the Hilbert function of the apolar algebra; it is symmetric, and
    that symmetry is asserted on every call.
    """
    if f.is_zero:
        raise ValueError("zero input")
    e = f.homogeneous_degree()
    ranks = tuple(rank(catalecticant(f, i).matrix) for i in range(e + 1))
    assert ranks == ranks[::-1], "apolar Hilbert function must be symmetric"
    assert ranks[0] == 1
    return ranks


def gorenstein_sequence(n: int, d: int) -> tuple[int, ...]:
    """Target Hilbert function: coefficients of (1 + u + ... + u^{d-1})^n."""
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    return ci_hilbert(n, d)


@dataclass(frozen=True)
class StratumReport:
    """Membership flags for one form, plus the data behind them."""

    in_V: bool
    in_U: bool
    in_GorT: bool
    in_Z: bool
    in_URes: bool
    hilbert: tuple[int, ...]
    rank_d: int

    def to_json_dict(self) -> dict:
        return {
            "in_V": self.in_V,
            "in_U": self.in_U,
            "in_GorT": self.in_GorT,
            "in_Z": self.in_Z,
            "in_URes": self.in_URes,
            "hilbert": list(self.hilbert),
            "rank_d": self.rank_d,
        }


def stratify(f: Polynomial, n: int, d: int) -> StratumReport:
    """Locate a degree-n(d-1) form in the catalecticant stratification."""
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    if f.nvars != n:
        raise ValueError("mismatched variable counts")
    if f.is_zero:
        raise ValueError("zero input")
    socle = n * (d - 1)
    if f.homogeneous_degree() != socle:
        raise ValueError(f"form must be homogeneous of degree {socle}")
    hilbert = apolar_hilbert(f)
    rank_d = hilbert[d]
    target_rank = dim_forms(n, d) - n
    in_v = rank_d <= target_rank
    in_u = rank_d == target_rank
    in_gor = hilbert == gorenstein_sequence(n, d)
    in_ures = in_u and _ures_generators(f, d) is not None
    report = StratumReport(
        in_V=in_v,
        in_U=in_u,
        in_GorT=in_gor,
        in_Z=in_u and not in_ures,
        in_URes=in_ures,
        hilbert=hilbert,
        rank_d=rank_d,
    )
    # Containment chain sanity: U_Res inside Gor(T) inside U inside V.
    assert not report.in_URes or report.in_GorT
    assert not report.in_GorT or report.in_U
    assert not report.in_U or report.in_V
    return report


Chart = tuple[Sequence[int], Sequence[int]]


def canonical_kernel_basis(
    f: Polynomial, chart: Chart | None = None
) -> list[Polynomial]:
    """Chart-normalized basis of the degree-d annihilator piece of f.

    For f with catalecticant rank exactly K - n in degree d, a chart is a
    pair (rows, cols) of (K-n)-subsets with an invertible minor A; the basis
    vectors carry -A^{-1}B on the chart columns and the identity on the n
    complementary columns, one basis vector per complementary column in
    ascending order.  With chart=None the lexicographically first pair with a
    nonzero minor is used (column subsets outermost); for generic forms that
    is the leading principal chart.
    """
    if f.is_zero:
        raise ValueError("zero input")
    n = f.nvars
    e = f.homogeneous_degree()
    if e % n:
        raise ValueError("form degree is not a multiple of the variable count")
    d = e // n + 1
    cat = catalecticant(f, d).matrix
    k_dim = cat.ncols
    l_dim = cat.nrows
    r = k_dim - n
    pivots = pivot_columns(cat)
    if len(pivots) != r:
        raise ValueError("form is not in the expected rank locus")
    if chart is None:
        chart = _first_nonsingular_chart(cat, pivots)
    rows, cols = chart
    rows, cols = sorted(rows), sorted(cols)
    if len(rows) != r or len(set(rows)) != r or len(cols) != r or len(set(cols)) != r:
        raise ValueError(f"chart must pick {r} distinct rows and columns")
    comp = [c for c in range(k_dim) if c not in set(cols)]
    a_block = [[cat.entry(i, j) for j in cols] for i in rows]
    b_block = [[cat.entry(i, j) for j in comp] for i in rows]
    try:
        s = block_solve(a_block, b_block)
    except ValueError as exc:
        raise ValueError("singular chart minor") from exc
    basis = []
    for j in range(n):
        v = [Fraction(0)] * k_dim
        for i, c in enumerate(cols):
            v[c] = s.entry(i, j)
        v[comp[j]] = Fraction(1)
        # The chart rows span the row space, so v lies in the full kernel.
        for row in cat.entries:
            assert sum(x * y for x, y in zip(row, v)) == 0
        basis.append(Polynomial.from_coefficient_vector(n, d, v))
    return basis


def _first_nonsingular_chart(cat: MatrixQ, cols: list[int]) -> Chart:
    """The lexicographically first chart, columns compared first.

    A column subset carries a nonsingular minor exactly when its columns are
    independent, and greedy selection finds the lexicographically first basis
    of a matroid, so the chart columns are the pivot columns `cols` of the
    catalecticant and the chart rows are the pivot columns of the transpose
    of that column block.
    """
    block_t = [[cat.entry(i, j) for i in range(cat.nrows)] for j in cols]
    return pivot_columns(block_t), cols
