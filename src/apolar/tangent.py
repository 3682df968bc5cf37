"""Tangent-space dimension counts and the relation space of form products.

For a form F of degree n(d-1) whose degree-d annihilator piece is a complete
intersection, the tangent space to the catalecticant rank locus has dimension

    dim k[y]_{n(d-1)} - dim( I_d * I_{n(d-1)-d} ),

and the expected value is N = K n - n^2 + 1 with K = C(d+n-1, n-1).  The
relation space R collects the linear relations among the shifted pairwise
products of a tuple's forms; its dimension admits both a brute-force kernel
computation and a closed alternating-sum formula, and the two are compared as
independent routes (the brute force is always full exact elimination).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .apolarity import annihilator_polynomials, stratify
from .ci import DegenerateTupleError, GradedQuotient, _shift_rows
from .combinat import dim_forms, tangent_band_sum
from .linalg import _triangularize, span_dim
from .poly import FormTuple, Polynomial


@dataclass(frozen=True)
class TangentReport:
    """Dimension counts for one form; dim_R fields stay None until a suite
    fills them (they live on the tuple, not the form)."""

    n: int
    d: int
    dim_ambient: int
    dim_product: int
    tangent_dim: int
    expected_N: int
    dim_R_bruteforce: int | None = None
    dim_R_formula: int | None = None

    def with_relations(self, brute: int, formula: int) -> "TangentReport":
        return replace(self, dim_R_bruteforce=brute, dim_R_formula=formula)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "dim_ambient": self.dim_ambient,
            "dim_product": self.dim_product,
            "tangent_dim": self.tangent_dim,
            "expected_N": self.expected_N,
            "dim_R_bruteforce": self.dim_R_bruteforce,
            "dim_R_formula": self.dim_R_formula,
        }


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
    total = deg_u + deg_v
    vectors = [(u * v).coefficient_vector(total) for u in us for v in vs]
    return span_dim(vectors)


def tangent_dim(f: Polynomial) -> TangentReport:
    """Tangent dimension report for a form whose annihilator is a complete
    intersection; n and d are read off the form itself."""
    n = f.nvars
    if f.is_zero:
        raise ValueError("zero input")
    s = f.homogeneous_degree()
    if s % n:
        raise ValueError("form degree is not a multiple of the variable count")
    d = s // n + 1
    if d < 2:
        raise ValueError("need degree at least n")
    report = stratify(f, n, d)
    if not report.in_URes:
        raise DegenerateTupleError("form does not lie in the complete intersection locus")
    gens = annihilator_polynomials(f, d)
    assert len(gens) == n
    upper = annihilator_polynomials(f, s - d)
    dim_ambient = dim_forms(n, s)
    dim_product = product_space_dim(gens, upper)
    return TangentReport(
        n=n,
        d=d,
        dim_ambient=dim_ambient,
        dim_product=dim_product,
        tangent_dim=dim_ambient - dim_product,
        expected_N=expected_N(n, d),
    )


def relation_space_dim_bruteforce(f: FormTuple) -> int:
    """Kernel dimension of (a_ij) -> sum a_ij f_i f_j, by full exact
    elimination (deliberately no modular shortcut: this is the independent
    route against relation_space_dim_formula)."""
    n, d = f.var_count, f.degree
    socle = f.socle_degree
    shift = socle - 2 * d
    if shift < 0:
        raise ValueError("need n(d-1) >= 2d")
    if not GradedQuotient(f).is_complete_intersection():
        raise DegenerateTupleError("tuple is not a complete intersection")
    products = [f.forms[i] * f.forms[j] for i in range(n) for j in range(i, n)]
    rows = _shift_rows(products, shift)
    return len(rows) - len(_triangularize(rows, dim_forms(n, socle)))


def relation_space_dim_formula(n: int, d: int) -> int:
    """Closed form for dim R: the m >= 3 band of the alternating sum."""
    if n < 3 or (n == 3 and d < 3):
        raise ValueError("need n >= 3, and d >= 3 when n = 3")
    if d < 2:
        raise ValueError("need d >= 2")
    return tangent_band_sum(n, d, 3)


def koszul_kernel_check(f: FormTuple, rho: int) -> bool:
    """Whether the syzygies of (h_1..h_n) -> sum h_i f_i in degree rho are
    exactly the Koszul ones m (f_j e_i - f_i e_j)."""
    n, d = f.var_count, f.degree
    if rho < d:
        raise ValueError("need rho >= d")
    if not GradedQuotient(f).is_complete_intersection():
        raise DegenerateTupleError("tuple is not a complete intersection")
    phi_rows = _shift_rows(f.forms, rho)
    kernel_dim = len(phi_rows) - len(_triangularize(phi_rows, dim_forms(n, rho + d)))

    block = dim_forms(n, rho)
    low = [_shift_rows([g], rho - d) for g in f.forms]
    koszul_rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for vec_j, vec_i in zip(low[j], low[i]):
                full = [0] * (n * block)
                full[i * block : (i + 1) * block] = vec_j
                full[j * block : (j + 1) * block] = [-v for v in vec_i]
                koszul_rows.append(full)
    koszul_dim = span_dim(koszul_rows) if koszul_rows else 0
    return kernel_dim == koszul_dim
