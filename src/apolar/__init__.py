"""Exact apolarity toolkit: polar pairing, catalecticants, associated forms
of complete intersections, tangent space counts, and the combinatorial
identities behind the closed-form dimension counts.

All linear algebra is exact, with Fraction at the API surface: ranks and
kernels are lifted p-adically mod a word-size prime and verified over the
integers, with fraction-free elimination as the fallback, for solves and for
matrices of at most 100 entries; randomized suites are deterministic in
their seeds.
"""
from .apolarity import (
    StratumReport,
    annihilator_piece,
    annihilator_polynomials,
    apolar_hilbert,
    canonical_kernel_basis,
    catalecticant,
    stratify,
)
from .ci import (
    DegenerateTupleError,
    GradedQuotient,
    associated_form,
    form_power_products,
    ideal_piece,
    is_complete_intersection,
    roundtrip_span,
    verify_inverse_system,
)
from .combinat import binom, ci_hilbert, dim_forms
from .identities import (
    IdentityResult,
    check_a1,
    check_a2,
    check_a3,
    check_aux,
    check_delta_consistency,
    check_dimt2_equals_n,
    delta,
)
from .linalg import (
    MatrixQ,
    SubspaceBasis,
    block_solve,
    determinant,
    kernel_basis,
    matrix_inverse,
    rank,
    span_dim,
)
from .poly import (
    FormTuple,
    Polynomial,
    act_gl,
    apply_polar,
    format_polynomial,
    jacobian_det,
    monomial_basis,
    parse_polynomial,
    partial,
    polynomials_from_vectors,
    substitute,
)
from .sampling import (
    SamplingError,
    SplitMix64,
    random_ci_tuple,
    random_form,
    random_invertible_matrix,
)
from .tangent import (
    TangentReport,
    expected_N,
    koszul_kernel_check,
    product_space_dim,
    relation_space_dim_bruteforce,
    relation_space_dim_formula,
    tangent_dim,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateTupleError",
    "FormTuple",
    "GradedQuotient",
    "IdentityResult",
    "MatrixQ",
    "Polynomial",
    "SamplingError",
    "SplitMix64",
    "StratumReport",
    "SubspaceBasis",
    "TangentReport",
    "act_gl",
    "annihilator_piece",
    "annihilator_polynomials",
    "apolar_hilbert",
    "apply_polar",
    "associated_form",
    "binom",
    "block_solve",
    "canonical_kernel_basis",
    "catalecticant",
    "check_a1",
    "check_a2",
    "check_a3",
    "check_aux",
    "check_delta_consistency",
    "check_dimt2_equals_n",
    "ci_hilbert",
    "delta",
    "determinant",
    "dim_forms",
    "expected_N",
    "form_power_products",
    "format_polynomial",
    "ideal_piece",
    "is_complete_intersection",
    "jacobian_det",
    "kernel_basis",
    "koszul_kernel_check",
    "matrix_inverse",
    "monomial_basis",
    "parse_polynomial",
    "partial",
    "polynomials_from_vectors",
    "product_space_dim",
    "random_ci_tuple",
    "random_form",
    "random_invertible_matrix",
    "rank",
    "relation_space_dim_bruteforce",
    "relation_space_dim_formula",
    "roundtrip_span",
    "span_dim",
    "stratify",
    "substitute",
    "tangent_dim",
    "verify_inverse_system",
]
