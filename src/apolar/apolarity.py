"""Catalecticant matrices, annihilators, and the stratification flags.

A form F of degree e in y determines, for each contraction degree i, the
linear map h -> h(d/dy) F from degree-i polynomials in x to degree e-i forms
in y.  Its matrix in the grlex bases is the catalecticant Cat_i(F); its entry
at row y^c, column x^a is F_{a+c} (a+c)!/c!, with b! = prod_k b_k!.  So
Cat_i(F) = diag(1/c!) H_i, where H_i[c, a] = phi_{a+c} is the moment (Hankel)
matrix of the divided-power coefficients phi_b = b! F_b (Iarrobino-Kanev,
Power Sums, Gorenstein Algebras, and Determinantal Loci, 1999).  A nonzero
scaling of the rows changes neither rank nor right kernel, so every rank and
kernel below is read off H_i, built from one vector phi, computed from the
form's stored integer terms and divided by its gcd, and indexed by the shift
table of poly; the same H_j times a coefficient vector is poly.apply_polar.
Ranks of these matrices are the apolar Hilbert function, and the kernel in
the critical degree is the degree-d piece of the annihilator ideal.

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
from math import gcd
from typing import Sequence

from .combinat import ci_hilbert, dim_forms
from .linalg import (
    MatrixQ,
    SubspaceBasis,
    _certified_rank,
    _dtype,
    _fraction_basis,
    _kernel,
    _kernel_numerators,
    determinant,
    matrix_inverse,
)
from .poly import (
    FormTuple,
    Polynomial,
    _factorial_array,
    _moment_vectors,
    _shift_columns,
    monomial_basis,
    polynomials_from_vectors,
)


def _moments(f: Polynomial) -> tuple[object, int, Fraction]:
    """phi_b = b! f_b of a nonzero homogeneous form f of degree e, over the
    degree-e monomials, scaled to coprime integers as one array in the dtype
    _dtype chooses for its largest entry; e; and the factor it was scaled
    by.  It reads f's stored integer terms, so the scaling is one gcd."""
    e = f.homogeneous_degree()
    phi = _moment_vectors(f._ints, f.nvars)[e]
    content = gcd(*phi)
    phi = phi // content
    return phi.astype(_dtype(max(map(abs, phi)))), e, f._factor / content


def _moment_rows(f: Polynomial, i: int) -> tuple[object, Fraction]:
    """The moment matrix H_i of a nonzero homogeneous form f of degree e,
    scaled to integers, as one 2-D array, and the factor it was scaled by.

    Row y^c, c of degree e - i, holds the scaled phi (_moments) at the
    monomials x^a y^c for every degree-i contractor x^a, gathered in one
    step through the shift table.
    """
    phi, e, factor = _moments(f)
    if not 0 <= i <= e:
        raise ValueError(f"contraction degree must lie in 0..{e}")
    return phi[_shift_columns(f.nvars, e - i, i)], factor


def catalecticant(f: Polynomial, i: int) -> MatrixQ:
    """Catalecticant of a nonzero homogeneous form at contraction degree i:
    columns run over the degree-i contractors x^a, rows over the degree e - i
    monomials y^c, and entry (c, a) is phi_{a+c}/c!, the coefficient of
    y^(a+c) in f times prod_k (a_k+c_k)!/c_k!: the moment rows scaled."""
    rows, factor = _moment_rows(f, i)
    weights = (factor * w for w in _factorial_array(f.nvars, f.homogeneous_degree() - i).tolist())
    return MatrixQ.from_rows([[x / w for x in row] for row, w in zip(rows.tolist(), weights)])


def annihilator_piece(f: Polynomial, j: int) -> SubspaceBasis:
    """Degree-j piece of the annihilator ideal of f, as a kernel basis.

    Everything of degree above deg f annihilates it, so those pieces are the
    full space.
    """
    if j < 0:
        raise ValueError("degree must be nonnegative")
    e = f.homogeneous_degree()
    if j > e:
        dim = dim_forms(f.nvars, j)
        return SubspaceBasis(dim, MatrixQ.identity(dim).entries)
    return _kernel(_moment_rows(f, j)[0])


def annihilator_polynomials(f: Polynomial, j: int) -> list[Polynomial]:
    """The annihilator piece as polynomials in the contraction variables;
    at most deg f, built from the kernel's integer numerators."""
    if 0 <= j <= f.homogeneous_degree():
        return _kernel_polynomials(f.nvars, j, _kernel_numerators(_moment_rows(f, j)[0]))
    return polynomials_from_vectors(f.nvars, j, annihilator_piece(f, j).vectors)


def _kernel_polynomials(nvars: int, degree: int, vectors) -> list[Polynomial]:
    """Integer kernel vectors over the grlex basis as forms, each divided by
    its entry at its free column, its last nonzero entry."""
    basis = monomial_basis(nvars, degree)
    return [
        Polynomial._from_integers(nvars, dict(zip(basis, v)), next(x for x in reversed(v) if x))
        for v in vectors
    ]


def _socle_shape(f: Polynomial) -> tuple[int, int]:
    """(n, d) for a form of degree n(d-1) in n >= 2 variables, d >= 2."""
    n, e = f.nvars, f.homogeneous_degree()
    if n < 2 or e < n or e % n:
        raise ValueError(f"need degree n(d-1), n >= 2 variables, d >= 2; got degree {e}, n={n}")
    return n, e // n + 1


def _ures_generators(f: Polynomial, d: int) -> list[Polynomial] | None:
    """The degree-d annihilator piece of f when f lies in U_Res, else None.

    A form f of degree n(d-1), n = f.nvars, lies in U_Res when that piece has
    n elements and they form a complete intersection.  Their ideal J then
    lies in Ann(f), and S/J is Gorenstein with socle degree deg f, so J is
    the annihilator of the one form, up to scale, that it kills in that
    degree; that form is f.  So Ann(f) = J is generated in degree d.

    The g_i lie in Ann(f), so J_s lies in f^perp, of codimension one: the
    complete intersection verdict on the g_i (ci.GradedQuotient) meets its
    rank bound W - 1 in degree s exactly when J_s = f^perp, and the kernel
    line it back-substitutes is then f's own moment vector mod PRIME, whose
    minor test is the one of f.  So one factorization in degree s proves
    membership, with no kernel lift and no rank in degree s + 1; any other
    outcome falls back to that rank.
    """
    gens = annihilator_polynomials(f, d)
    if len(gens) != f.nvars:
        return None
    if FormTuple(f.nvars, d, tuple(gens)).quotient.is_complete_intersection():
        return gens
    return None


def apolar_hilbert(f: Polynomial) -> tuple[int, ...]:
    """Catalecticant ranks for every contraction degree 0..deg f.

    This is the Hilbert function of the apolar algebra.  H_{e-i} is H_i
    transposed, so only the tall one, H_i for i <= e/2, is ranked; a deficit
    is proven by its right kernel, Ann(f)_i.
    """
    phi, e, _ = _moments(f)
    tall = (phi[_shift_columns(f.nvars, e - i, i)] for i in range(e // 2 + 1))
    half = [_certified_rank(rows, rows.shape[1]) for rows in tall]
    ranks = tuple(half[min(i, e - i)] for i in range(e + 1))
    assert ranks[0] == 1
    return ranks


@dataclass(frozen=True)
class StratumReport:
    """Membership flags for one form, plus the data behind them; reports
    list the fields in this order."""

    in_V: bool
    in_U: bool
    in_GorT: bool
    in_Z: bool
    in_URes: bool
    hilbert: tuple[int, ...]
    rank_d: int


def stratify(f: Polynomial, n: int, d: int) -> StratumReport:
    """Locate a degree-n(d-1) form in the catalecticant stratification."""
    if _socle_shape(f) != (n, d):
        raise ValueError(f"need degree n(d-1), n >= 2 variables, d >= 2 for n={n} d={d}")
    hilbert = apolar_hilbert(f)
    rank_d = hilbert[d]
    target_rank = dim_forms(n, d) - n
    in_v = rank_d <= target_rank
    in_u = rank_d == target_rank
    in_gor = hilbert == ci_hilbert(n, d)
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
    ascending order.  With chart=None the chart columns are the
    lexicographically first column basis, the pivot columns, and the basis
    is the reduced-echelon kernel basis: each of its vectors is 1 at one
    free column and 0 at the others, which pins it down whatever the chart
    rows, so it is the basis of the lexicographically first chart.  Another
    chart's basis is B^{-1} K, where B is K restricted to the complementary
    columns.
    """
    n, d = _socle_shape(f)
    moments = _moment_rows(f, d)[0]
    k_dim = dim_forms(n, d)
    numerators = _kernel_numerators(moments)
    if len(numerators) != n:
        raise ValueError("form is not in the expected rank locus")
    if chart is None:
        return _kernel_polynomials(n, d, numerators)
    kernel = _fraction_basis(k_dim, numerators)
    r = k_dim - n
    rows, cols = chart
    rows, cols = sorted(rows), sorted(cols)
    moments = moments.tolist()
    for picked, size in ((rows, len(moments)), (cols, k_dim)):
        if len(set(picked)) != r or len(picked) != r or not 0 <= picked[0] <= picked[-1] < size:
            raise ValueError(f"chart must pick {r} distinct rows and columns, each in range")
    # The catalecticant minor is the moment minor with its rows scaled.
    if not determinant([[moments[i][j] for j in cols] for i in rows]):
        raise ValueError("singular chart minor")
    # A nonsingular minor makes the chart columns independent, so no kernel
    # vector vanishes on all the complementary columns and B is invertible.
    comp = [c for c in range(k_dim) if c not in set(cols)]
    b_inv = matrix_inverse([[v[c] for c in comp] for v in kernel.vectors])
    basis = b_inv.matmul(MatrixQ(kernel.vectors)).entries
    for v in basis:
        for row in moments:
            assert sum(x * y for x, y in zip(row, v)) == 0
    return polynomials_from_vectors(n, d, basis)
