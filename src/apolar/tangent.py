"""Tangent-space dimension counts and the relation space of form products.

For a form F of degree s = n(d-1) whose degree-d annihilator piece is a
complete intersection, the tangent space to the catalecticant rank locus has
dimension

    dim k[y]_s - dim( I_d * I_{s-d} ),

and the expected value is N = K n - n^2 + 1 with K = C(d+n-1, n-1).  The
complete intersection check certifies that I = Ann(F) is generated by I_d =
span{g_i}, so I_{s-d} = k[x]_{s-2d} * I_d and the product is the degree-s
piece of I^2, spanned by the shifted pairwise products m * g_i * g_j.  The
relation space R collects the linear relations among the shifted pairwise
products of a tuple's forms; its dimension admits both a brute-force kernel
computation and a closed alternating-sum formula, and the two are compared as
independent routes.

The tangent and relation counts take their product ranks from
linalg._certified_rank: the mod-p rank is its lower bound, and when that falls
short of full rank an exactly verified left kernel is its upper bound, with
Bareiss elimination as the fallback.  That certificate reads only the matrix,
never relation_space_dim_formula or N, so the routes stay independent.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .apolarity import _socle_shape, _ures_generators
from .ci import DegenerateTupleError, _shift_rows, _shifted_rows
from .combinat import dim_forms, tangent_band_sum
from .linalg import _certified_rank, span_dim
from .poly import FormTuple, Polynomial, _graded_products, monomial_basis


@dataclass(frozen=True)
class TangentReport:
    """Dimension counts for one form; reports list the fields in this
    order."""

    n: int
    d: int
    dim_ambient: int
    dim_product: int
    tangent_dim: int
    expected_N: int


def expected_N(n: int, d: int) -> int:
    """N = Kn - n^2 + 1, asserted equal to its alternating-sum expansion."""
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    value = dim_forms(n, d) * n - n * n + 1
    assert tangent_band_sum(n, d, 0) == value, "alternating sum disagrees with N"
    return value


def product_space_dim(us: Sequence[Polynomial], vs: Sequence[Polynomial]) -> int:
    """Dimension of span{u*v} for homogeneous families u in us, v in vs."""
    if not us or not vs:
        return 0
    nvars = us[0].nvars
    deg_u = us[0].homogeneous_degree()
    deg_v = vs[0].homogeneous_degree()
    for u in us:
        if u.nvars != nvars or u.homogeneous_degree() != deg_u:
            raise ValueError("first family is not homogeneous of one degree")
    for v in vs:
        if v.nvars != nvars or v.homogeneous_degree() != deg_v:
            raise ValueError("second family is not homogeneous of one degree")
    # Each product as its stored integer terms: scaling changes no span.
    basis = monomial_basis(nvars, deg_u + deg_v)
    vectors = [[(u * v)._ints.get(b, 0) for b in basis] for u in us for v in vs]
    return span_dim(vectors)


def _pairwise_product_rank(forms: Sequence[Polynomial], shift: int) -> int:
    """Exact rank of the rows m * g_i * g_j, i <= j, over the forms g and
    every degree-`shift` monomial m.  The products are formed from each
    form's stored primitive integer terms, since scaling a form changes no
    span, as coefficient arrays, which are shifted as they are."""
    import numpy as np

    n, e = forms[0].nvars, 2 * forms[0].homogeneous_degree()
    ints = [g._ints for g in forms]
    pairs = [(g, h) for i, g in enumerate(ints) for h in ints[i:]]
    products = np.stack([p[e] for p in _graded_products(pairs, n)])
    rows = _shifted_rows(products, n, e, shift)
    return _certified_rank(rows, min(rows.shape))


def tangent_dim(f: Polynomial) -> TangentReport:
    """Tangent dimension report for a form whose annihilator is a complete
    intersection; n and d are read off the form itself.

    The degree-d moment matrix (the catalecticant with its rows scaled) is
    eliminated once, for the generators g_i of Ann(f); they generate the
    whole ideal (certified by the complete intersection check), so
    dim(I_d * I_{s-d}) is the rank of the shifted products m * g_i * g_j,
    and 0 when s < 2d.
    """
    n, d = _socle_shape(f)
    s = n * (d - 1)
    gens = _ures_generators(f, d)
    if gens is None:
        raise DegenerateTupleError("form does not lie in the complete intersection locus")
    dim_ambient = dim_forms(n, s)
    dim_product = _pairwise_product_rank(gens, s - 2 * d) if s >= 2 * d else 0
    return TangentReport(
        n=n,
        d=d,
        dim_ambient=dim_ambient,
        dim_product=dim_product,
        tangent_dim=dim_ambient - dim_product,
        expected_N=expected_N(n, d),
    )


RELATION_BAND = "n >= 3 and n(d-1) >= 2d"


def relation_band(n: int, d: int) -> bool:
    """Where both dim R routes are defined, RELATION_BAND: n >= 3 forms whose
    socle degree s = n(d-1) reaches 2d, the degree of the products f_i * f_j."""
    return n >= 3 and n * (d - 1) >= 2 * d


def relation_space_dim_bruteforce(f: FormTuple) -> int:
    """Kernel dimension of (a_ij) -> sum a_ij f_i f_j: the number of
    coefficients minus the rank of the products m * f_i * f_j.

    That rank is linalg._certified_rank, bounded below by its mod-p rank and
    above by the rows minus an exactly verified left kernel, with Bareiss when
    the two do not meet.  The certificate reads only the product matrix, never
    relation_space_dim_formula or N, so this stays the independent route
    against the formula."""
    n, d = f.var_count, f.degree
    if not relation_band(n, d):
        raise ValueError(f"need {RELATION_BAND}")
    if not f.quotient.is_complete_intersection():
        raise DegenerateTupleError("tuple is not a complete intersection")
    pairs = n * (n + 1) // 2
    shift = f.socle_degree - 2 * d
    return pairs * dim_forms(n, shift) - _pairwise_product_rank(f.forms, shift)


def relation_space_dim_formula(n: int, d: int) -> int:
    """Closed form for dim R: the m >= 3 band of the alternating sum."""
    if not relation_band(n, d):
        raise ValueError(f"need {RELATION_BAND}")
    return tangent_band_sum(n, d, 3)


def koszul_kernel_check(f: FormTuple, rho: int) -> bool:
    """Whether the syzygies of (h_1..h_n) -> sum h_i f_i in degree rho are
    exactly the Koszul ones m (f_j e_i - f_i e_j).  The map's rank is the
    dimension of the ideal's degree rho + d piece, read off the quotient."""
    import numpy as np

    n, d = f.var_count, f.degree
    if rho < d:
        raise ValueError("need rho >= d")
    if not f.quotient.is_complete_intersection():
        raise DegenerateTupleError("tuple is not a complete intersection")
    block, shifts = dim_forms(n, rho), dim_forms(n, rho - d)
    kernel_dim = n * block - f.quotient.ideal_dim(rho + d)
    low = _shift_rows(f.forms, rho - d).reshape(n, shifts, block)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    koszul = np.zeros((len(pairs), shifts, n, block), dtype=low.dtype)
    for t, (i, j) in enumerate(pairs):
        koszul[t, :, i] = low[j]
        koszul[t, :, j] = -low[i]
    rows = koszul.reshape(-1, n * block)
    return kernel_dim == _certified_rank(rows, min(rows.shape))
