"""Reference quotient dimensions and socle kernels by Bareiss elimination
alone, with no modular shortcut and no upper bound: the oracle for
GradedQuotient's certified ranks and its p-adically lifted socle line."""
from apolar import FormTuple, dim_forms
from apolar.ci import _shift_rows
from apolar.linalg import _exact_kernel_basis, _triangularize


def bareiss_quotient_dims(f: FormTuple, top: int) -> tuple[int, ...]:
    """Dimensions of the quotient by the tuple's ideal in degrees 0..top."""
    n, d = f.var_count, f.degree
    dims = []
    for j in range(top + 1):
        width = dim_forms(n, j)
        ideal = len(_triangularize(_shift_rows(f.forms, j - d), width)) if j >= d else 0
        dims.append(width - ideal)
    return tuple(dims)


def bareiss_socle_kernel(f: FormTuple) -> tuple:
    """The reduced-echelon kernel basis of the tuple's degree-s shift matrix,
    s = n(d-1): one vector, the socle functional before normalization."""
    rows = _shift_rows(f.forms, f.socle_degree - f.degree)
    return _exact_kernel_basis(rows, dim_forms(f.var_count, f.socle_degree)).vectors
