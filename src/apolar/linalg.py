"""Exact linear algebra over the rationals.

One elimination core, _triangularize, runs fraction-free Bareiss elimination
with first-nonzero partial pivoting, so identical inputs take identical pivot
paths.  Pivot columns are read off its pivots, the determinant off its last
pivot, and solve, inverse and the exact kernel off the reduced row echelon
form built from its echelon rows.  Entries are cleared to integers row by row
(row scaling changes neither rank nor kernel) and manipulated as gmpy2
integers when the optional gmpy2 is installed, as plain ints otherwise;
results come back as fractions.Fraction.

rank and kernel_basis first try a certified modular shortcut and fall back to
that core whenever the certificate is missing:

- Lower bound on the rank: the rank mod a word-size prime (specialization can
  only drop rank).  When it reaches min(rows, cols) it is the rank.
- Upper bound on the rank: a kernel whose vectors were computed mod primes,
  lifted by CRT and rational reconstruction, and then verified exactly over
  the integers.  k verified independent vectors in the right (left) kernel
  bound the rank by cols - k (rows - k) from above.

The certificate reads nothing but the matrix itself, never a closed formula
for the answer the caller expects, so a shortcut result is as independent of
such formulas as the Bareiss one.  Nothing in this module touches floating
point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from typing import Iterable, Sequence

try:
    from gmpy2 import mpz
except ImportError:  # gmpy2 is optional; plain ints give the same answers
    mpz = int

# The three largest primes below 2^31, the Mersenne prime 2^31 - 1 first:
# products of two residues stay under 2^62, so the modular elimination fits
# in int64 without overflow.
PRIMES = (2147483647, 2147483629, 2147483587)

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
    """Exact rank of a rational matrix.

    Lower bound: rank_mod_prime of the integer rows; when it reaches
    min(rows, cols) it is the rank.  Upper bound otherwise: the left kernel,
    certified as in kernel_basis, bounds the rank by rows minus its
    dimension, and the mod-p rank of the transpose bounds it from below by the
    same number.  When neither certificate holds, Bareiss elimination decides.
    """
    rows = _entry_rows(m)
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    ints = _integer_rows(rows)
    low = rank_mod_prime(ints)
    if low == min(len(ints), ncols):
        return low
    left = _modular_kernel(list(zip(*ints)), len(ints))
    if left is not None:
        return len(ints) - len(left)
    return len(_triangularize(ints, ncols))


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
    its own free position and zeros in the other free positions.  It is
    first sought mod primes and certified by _verify_kernel: the mod-p rank
    bounds the kernel dimension from above, the verified vectors bound it
    from below, and their supports pin down the pivot columns, so the
    certified basis is the one the reduced row echelon form gives.  Without a
    certificate the basis is read off the exact reduced row echelon form.
    """
    rows = _entry_rows(m)
    ncols = len(rows[0]) if rows else 0
    vectors = _modular_kernel(_integer_rows(rows), ncols) if ncols else ()
    if vectors is None:
        return _exact_kernel_basis(rows)
    return SubspaceBasis(ncols, tuple(vectors))


def _exact_kernel_basis(m) -> SubspaceBasis:
    """kernel_basis read off the exact reduced row echelon form, with no
    modular attempt: for kernels whose entries are known to be too wide to
    reconstruct from three word-size primes."""
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


def rank_mod_prime(rows: Sequence[Sequence[int]], prime: int = PRIMES[0]) -> int:
    """Rank of an integer matrix reduced mod `prime`.

    Always a lower bound for the rational rank (specialization can only drop
    rank).  Entries must be integers; clear denominators first.  Integer-only
    numpy arithmetic, word-size residues.
    """
    if not rows or not len(rows[0]):
        return 0
    a = _residues(rows, prime)
    if a.shape[0] < a.shape[1]:
        a = a.T.copy()
    return len(_echelon_mod_prime(a, prime, reduced=False))


def _residues(rows: Sequence[Sequence[int]], prime: int):
    """The rows mod `prime` as an int64 array; entries that fit in int64
    are converted in one numpy call, wider ones are reduced in Python."""
    import numpy as np

    try:
        return np.array(rows, dtype=np.int64) % prime
    except OverflowError:
        return np.array([[int(x) % prime for x in row] for row in rows], dtype=np.int64)


def _echelon_mod_prime(a, prime: int, reduced: bool) -> list[int]:
    """Pivot columns of the int64 residue matrix `a`, which is brought in
    place to row echelon form mod `prime` with unit pivots in rows
    0..rank-1; with `reduced`, each pivot column is also cleared above its
    pivot, giving the reduced row echelon form."""
    import numpy as np

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


def _modular_kernel(
    rows: Sequence[Sequence[int]], ncols: int
) -> list[tuple[Fraction, ...]] | None:
    """The reduced-echelon kernel basis of integer rows, found mod PRIMES and
    certified by _verify_kernel, or None when no prime gives a certificate.

    Each prime gives the reduced row echelon form mod p, whose entries at the
    free columns are, negated, the kernel vectors mod p.  Reduction can only
    lose pivots or move them right, so a prime with fewer or
    lexicographically later pivot columns than an earlier one is skipped, and
    one with more or earlier ones starts the lift afresh.  After each prime
    the residues are joined by CRT and rationally reconstructed (Wang), and
    the candidate is verified exactly.
    """
    best = None
    for prime in PRIMES:
        a = _residues(rows, prime)
        pivots = _echelon_mod_prime(a, prime, reduced=True)
        pivot_set = set(pivots)
        free = [c for c in range(ncols) if c not in pivot_set]
        # images[k][t]: kernel vector of free column free[k] at pivots[t].
        images = ((-a[: len(pivots)][:, free]) % prime).T.tolist()
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, modulus, lifted = key, prime, images
        elif key > best:
            continue
        else:
            inv = pow(modulus, -1, prime)
            lifted = [
                [u + modulus * ((w - u) * inv % prime) for u, w in zip(us, ws)]
                for us, ws in zip(lifted, images)
            ]
            modulus *= prime
        vectors = _reconstruct_kernel(lifted, modulus, pivots, free, ncols)
        if vectors is not None and _verify_kernel(rows, ncols, pivots, vectors):
            return vectors
    return None


def _reconstruct_kernel(
    lifted: list[list[int]], modulus: int, pivots: list[int], free: list[int], ncols: int
) -> list[tuple[Fraction, ...]] | None:
    """Kernel vectors with unit free entries and reconstructed pivot entries,
    or None when some residue has no fraction small enough for `modulus`."""
    bound = isqrt(modulus // 2)
    vectors = []
    for f, column in zip(free, lifted):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for pc, u in zip(pivots, column):
            if u:
                x = _rational_reconstruction(u, modulus, bound)
                if x is None:
                    return None
                v[pc] = x
        vectors.append(tuple(v))
    return vectors


def _rational_reconstruction(u: int, modulus: int, bound: int) -> Fraction | None:
    """The fraction a/b = u mod `modulus` with |a|, |b| <= bound, where
    2 bound^2 < modulus makes it unique, or None (Wang 1981): the extended
    Euclidean algorithm on (modulus, u), stopped at the first remainder not
    above the bound."""
    r0, r1, s0, s1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _verify_kernel(
    rows: Sequence[Sequence[int]],
    ncols: int,
    pivots: Sequence[int],
    vectors: Sequence[Sequence[Fraction]],
) -> bool:
    """Whether `vectors` is exactly the reduced-echelon kernel basis of the
    integer `rows`, given the rows' pivot columns mod some prime.

    Upper bound on the kernel dimension: ncols - len(pivots), because the
    mod-p rank is at most the rational rank.  Lower bound: one vector per
    non-pivot column f, in ascending order, each 1 at f and supported only on
    f and pivot columns left of f (so they are independent), and each with
    A v = 0 over the integers.  Such a vector writes column f as a
    combination of earlier columns, so no such f is a rational pivot column;
    the bounds then meet, the mod-p pivot columns are the rational ones, and
    each vector is the one kernel vector with its pattern on the free
    columns: the vector the exact reduced row echelon form gives.  Nothing
    here relies on how the vectors were computed.
    """
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    if len(vectors) != len(free):
        return False
    for f, v in zip(free, vectors):
        support = [j for j, x in enumerate(v) if x]
        if v[f] != 1 or any(j != f and (j not in pivot_set or j > f) for j in support):
            return False
        scale = lcm(*(v[j].denominator for j in support))
        w = [(j, int(v[j] * scale)) for j in support]
        if any(sum(row[j] * x for j, x in w) for row in rows):
            return False
    return True
