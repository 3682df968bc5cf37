"""Exact linear algebra over the rationals.

One elimination core, _triangularize, runs fraction-free Bareiss elimination
with first-nonzero partial pivoting, so identical inputs take identical pivot
paths.  Rank and pivot columns are read off its pivots, the determinant off
its last pivot, and kernel, solve and inverse off the reduced row echelon
form built from its echelon rows.  Entries are cleared to integers row by row
(row scaling changes neither rank nor kernel) and manipulated as gmpy2
integers when the optional gmpy2 is installed, as plain ints otherwise;
results come back as fractions.Fraction.

rank_mod_prime is the one deliberately inexact-looking routine here: it
computes the rank of the reduction mod a fixed word-size prime, which is a
certified lower bound for the rational rank.  Callers combine it with an
a-priori upper bound to certify exact dimensions cheaply; nothing in this
module ever touches floating point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Sequence

try:
    from gmpy2 import mpz
except ImportError:  # gmpy2 is optional; plain ints give the same answers
    mpz = int

# Mersenne prime 2^31 - 1: products of two residues stay under 2^62, so the
# modular elimination fits in int64 without overflow.
WORD_PRIME = 2147483647

Scalar = Fraction | int
RowSeq = Sequence[Sequence[Scalar]]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


@dataclass(frozen=True)
class MatrixQ:
    """Immutable dense matrix with Fraction entries."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValueError("rows have mismatched lengths")

    @classmethod
    def from_rows(cls, rows: RowSeq) -> "MatrixQ":
        return cls(tuple(tuple(_as_fraction(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "MatrixQ":
        one, zero = Fraction(1), Fraction(0)
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def transpose(self) -> "MatrixQ":
        return MatrixQ(tuple(zip(*self.entries))) if self.entries else MatrixQ(())

    def matmul(self, other: "MatrixQ") -> "MatrixQ":
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions do not match")
        cols = other.transpose().entries
        return MatrixQ(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )

    def scaled(self, c: Scalar) -> "MatrixQ":
        c = _as_fraction(c)
        return MatrixQ(tuple(tuple(c * x for x in row) for row in self.entries))


@dataclass(frozen=True)
class SubspaceBasis:
    """Ordered list of linearly independent coordinate vectors."""

    ambient_dim: int
    vectors: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise ValueError("vector length does not match ambient dimension")

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    @classmethod
    def from_spanning(cls, vectors: RowSeq, ambient_dim: int) -> "SubspaceBasis":
        """Reduce a spanning set to its reduced-echelon basis.

        The result depends only on the span, so it is a canonical
        representative: unit pivots, pivot columns cleared, rows ordered by
        pivot column.
        """
        rows = [[_as_fraction(x) for x in v] for v in vectors]
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        _, reduced = _rref(rows, ambient_dim)
        return cls(ambient_dim, tuple(tuple(r) for r in reduced))

    def contains(self, vector: Sequence[Scalar]) -> bool:
        if len(vector) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        if not self.vectors:
            return all(_as_fraction(x) == 0 for x in vector)
        stacked = list(self.vectors) + [tuple(_as_fraction(x) for x in vector)]
        return span_dim(stacked) == self.dimension

    def same_span(self, other: "SubspaceBasis") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        if self.dimension != other.dimension:
            return False
        if self.dimension == 0:
            return True
        return span_dim(list(self.vectors) + list(other.vectors)) == self.dimension


def _primitive_row(row: Sequence[Scalar]) -> tuple[list[int], Fraction]:
    """A row scaled to coprime integers, and the factor it was scaled by."""
    mult = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (mult // x.denominator) for x in row]
    content = gcd(*ints)
    if content > 1:
        ints = [v // content for v in ints]
    return ints, Fraction(mult, content or 1)


def _integer_rows(rows: RowSeq) -> list[list[int]]:
    """Scale each row to coprime integers; preserves rank and kernel."""
    return [_primitive_row(row)[0] for row in rows]


def _triangularize(rows: RowSeq, ncols: int) -> list[tuple[int, int, list]]:
    """Fraction-free forward elimination (Bareiss) of integer rows.

    Returns pivot records (row, col, tail) in pivot order: row is the index
    in `rows` of the pivot row, and tail[k] is its surviving entry in column
    col + k.  The pivot is the first active row, in input order, that is
    nonzero in the column, so the pivot columns are the lexicographically
    first column basis.  Active rows are kept trimmed to the columns not yet
    processed; the Bareiss divisions are exact, so every intermediate entry is
    an integer (a minor of the input), and the last pivot of a nonsingular
    square matrix is its determinant up to the sign of the pivot row order.
    """
    active = [(i, list(map(mpz, row))) for i, row in enumerate(rows) if any(row)]
    pivots: list[tuple[int, int, list]] = []
    prev = mpz(1)
    for c in range(ncols):
        if not active:
            break
        k = next((k for k, (_, tail) in enumerate(active) if tail[0]), None)
        if k is None:
            # Free column: every active row already has a zero here.
            active = [(i, tail[1:]) for i, tail in active]
            continue
        p, pivot_tail = active.pop(k)
        pv = pivot_tail[0]
        nxt = []
        for i, tail in active:
            f = tail[0]
            if f:
                new = [(pv * a - f * b) // prev for a, b in zip(tail[1:], pivot_tail[1:])]
            else:
                new = [(pv * a) // prev for a in tail[1:]]
            if any(new):
                nxt.append((i, new))
        active = nxt
        pivots.append((p, c, pivot_tail))
        prev = pv
    return pivots


def _entry_rows(m) -> RowSeq:
    if isinstance(m, MatrixQ):
        return m.entries
    return m


def pivot_columns(m) -> list[int]:
    """Pivot columns of the echelon form: the lexicographically first set of
    columns that is a basis of the column space."""
    rows = _entry_rows(m)
    if not rows or not rows[0]:
        return []
    return [c for _, c, _ in _triangularize(_integer_rows(rows), len(rows[0]))]


def rank(m) -> int:
    """Exact rank of a rational matrix."""
    return len(pivot_columns(m))


def _rref(rows: RowSeq, ncols: int) -> tuple[list[int], list[list[Fraction]]]:
    """Pivot columns and reduced row echelon form over Fraction, zero rows
    dropped.

    The pivot columns of the reduced form are unit vectors, so the back
    substitution runs over the free columns only.  The reduced rows are
    P^{-1} times the pivot rows, where P is the pivot block, whose
    determinant is the last pivot `den`; so den times each reduced entry is
    an integer and the back substitution divides exactly.
    """
    pivots = _triangularize(_integer_rows(rows), ncols)
    pivot_cols = [c for _, c, _ in pivots]
    free = sorted(set(range(ncols)) - set(pivot_cols))
    den = pivots[-1][2][0] if pivots else 1
    # scaled[k]: den times the free-column entries of reduced row k.
    scaled: list[list] = [[]] * len(pivots)
    for k in reversed(range(len(pivots))):
        _, c, tail = pivots[k]
        acc = [den * tail[f - c] if f > c else 0 for f in free]
        for pc, below in zip(pivot_cols[k + 1 :], scaled[k + 1 :]):
            t = tail[pc - c]
            if t:
                acc = [a - t * b for a, b in zip(acc, below)]
        scaled[k] = [a // tail[0] for a in acc]
    reduced = []
    for c, values in zip(pivot_cols, scaled):
        row = [Fraction(0)] * ncols
        row[c] = Fraction(1)
        for f, v in zip(free, values):
            row[f] = Fraction(int(v), int(den))
        reduced.append(row)
    return pivot_cols, reduced


def kernel_basis(m) -> SubspaceBasis:
    """Reduced-echelon basis of the right kernel.

    One vector per free column in ascending order, each carrying a unit in
    its own free position and zeros in the other free positions; it is read
    off the reduced row echelon form.
    """
    rows = _entry_rows(m)
    ncols = len(rows[0]) if rows else 0
    if ncols == 0:
        return SubspaceBasis(0, ())
    pivot_cols, reduced = _rref(rows, ncols)
    vectors = []
    for fc in sorted(set(range(ncols)) - set(pivot_cols)):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pc, row in zip(pivot_cols, reduced):
            v[pc] = -row[fc]
        vectors.append(tuple(v))
    return SubspaceBasis(ncols, tuple(vectors))


def span_dim(vectors: Iterable[Sequence[Scalar]]) -> int:
    """Dimension of the span of coordinate vectors (0 for an empty family)."""
    vecs = list(vectors)
    if not vecs:
        return 0
    width = {len(v) for v in vecs}
    if len(width) > 1:
        raise ValueError("vectors have mismatched lengths")
    return rank(vecs)


def block_solve(a, b) -> MatrixQ:
    """Return -A^{-1} B for invertible A: the right block of the reduced
    row echelon form of [A | B], negated."""
    a_rows = _entry_rows(a)
    b_rows = _entry_rows(b)
    n = len(a_rows)
    if any(len(r) != n for r in a_rows):
        raise ValueError("block_solve needs a square left block")
    if len(b_rows) != n:
        raise ValueError("right block has wrong row count")
    width = len(b_rows[0]) if n else 0
    aug = [list(ar) + list(br) for ar, br in zip(a_rows, b_rows)]
    pivot_cols, reduced = _rref(aug, n + width)
    # A is invertible exactly when its columns are the first n pivots.
    if pivot_cols[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return MatrixQ.from_rows([[-x for x in row[n:]] for row in reduced])


def matrix_inverse(a) -> MatrixQ:
    """Exact inverse of a square rational matrix."""
    n = len(_entry_rows(a))
    neg_id = [[-1 if i == j else 0 for j in range(n)] for i in range(n)]
    return block_solve(a, neg_id)


def determinant(a) -> Fraction:
    """Exact determinant: the sign of the Bareiss pivot row order times the
    last pivot, divided by the factors that scaled the rows to integers."""
    rows = _entry_rows(a)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    scaled = [_primitive_row(row) for row in rows]
    pivots = _triangularize([ints for ints, _ in scaled], n)
    if len(pivots) < n:
        return Fraction(0)
    order = [p for p, _, _ in pivots]
    inversions = sum(x > y for i, x in enumerate(order) for y in order[i + 1 :])
    last = int(pivots[-1][2][0]) if pivots else 1
    return Fraction(-last if inversions % 2 else last) / prod(f for _, f in scaled)


def rank_mod_prime(rows: Sequence[Sequence[int]], prime: int = WORD_PRIME) -> int:
    """Rank of an integer matrix reduced mod `prime`.

    Always a lower bound for the rational rank (specialization can only drop
    rank).  Entries must be integers; clear denominators first.  Integer-only
    numpy arithmetic, word-size residues.
    """
    import numpy as np

    if not rows or not len(rows[0]):
        return 0
    a = np.array([[int(x) % prime for x in row] for row in rows], dtype=np.int64)
    nrows, ncols = a.shape
    if nrows < ncols:
        a = a.T
        nrows, ncols = ncols, nrows
    r = 0
    for c in range(ncols):
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, prime)
        a[r, c:] = (a[r, c:] * inv) % prime
        if r + 1 < nrows:
            factors = a[r + 1 :, c]
            a[r + 1 :, c:] = (a[r + 1 :, c:] - np.outer(factors, a[r, c:])) % prime
        r += 1
        if r == nrows:
            break
    return r
