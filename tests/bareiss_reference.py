"""Reference quotient dimensions by Bareiss elimination alone, with no modular
shortcut and no upper bound: the oracle for GradedQuotient's certified ranks."""
from apolar import FormTuple, dim_forms
from apolar.ci import _shift_rows
from apolar.linalg import _triangularize


def bareiss_quotient_dims(f: FormTuple, top: int) -> tuple[int, ...]:
    """Dimensions of the quotient by the tuple's ideal in degrees 0..top."""
    n, d = f.var_count, f.degree
    dims = []
    for j in range(top + 1):
        width = dim_forms(n, j)
        ideal = len(_triangularize(_shift_rows(f.forms, j - d), width)) if j >= d else 0
        dims.append(width - ideal)
    return tuple(dims)
