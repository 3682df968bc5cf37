"""Reference eliminations with no shortcut: quotient dimensions and socle
kernels by Bareiss elimination alone, with no modular shortcut and no upper
bound, the oracle for GradedQuotient's certified ranks and its p-adically
lifted socle line; and the eager mod-p elimination, which reduces the whole
trailing block after every pivot, the oracle for linalg's lazy one."""
import numpy as np

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


def eager_echelon_mod_prime(a, prime: int, reduced: bool) -> list[int]:
    """linalg._echelon_mod_prime's contract, with every entry reduced mod
    `prime` after every pivot: the pivot row is scaled to a unit pivot, and
    each row with a nonzero in the pivot column, below the pivot or, with
    `reduced`, above it too, has the pivot row's multiple subtracted."""
    nrows, ncols = a.shape
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r, c:] = (a[r, c:] * pow(int(a[r, c]), -1, prime)) % prime
        first = 0 if reduced else r + 1
        hits = first + np.flatnonzero(a[first:, c])
        hits = hits[hits != r]
        if hits.size:
            a[hits, c:] = (a[hits, c:] - np.outer(a[hits, c], a[r, c:])) % prime
        pivots.append(c)
    return pivots
