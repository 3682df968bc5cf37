"""Exact linear algebra over the rationals.

One elimination core, _triangularize, runs fraction-free Bareiss elimination
with first-nonzero partial pivoting, so identical inputs take identical pivot
paths.  The determinant is read off its last pivot; _exact_kernel_basis
back-substitutes its echelon rows straight into the reduced-echelon kernel
basis, the one form built from them.  The public functions check once that
rows share one width and clear entries to integers row by row, once (row
scaling changes neither rank nor kernel); the private cores take integer rows
as they are.  The exact core runs on Python ints; results come back as
fractions.Fraction.

Every rank goes through _certified_rank, given the integer rows and an upper
bound the caller has proven (rank passes min(rows, cols)), and every kernel
basis (kernel_basis, SubspaceBasis.from_spanning, the socle functional)
through _kernel.  A matrix of at most EXACT_MAX_ENTRIES entries is answered
by Bareiss alone, which costs less there than the modular route's set-up.
On a larger one the lower bound is the rank mod the word-size prime PRIME,
since specialization can only drop rank; when the two bounds meet, that is
the rank.  Otherwise a verified left kernel bounds the rank from above by
rows minus its dimension.  Every such kernel, left or right, is read by one
certified reader, _padic_kernel, which lifts it p-adically mod PRIME (Dixon
1982) and checks it exactly with _verify_kernel; Bareiss answers what it does
not certify, and determinant, solve and inverse are exact.  Every mod-p step
runs one elimination loop, _echelon_mod_prime, with delayed reduction, over
residues below 2^25.  A bound that is not met is never reported, so a
certified answer is as exact as the Bareiss one.  Nothing in this module
touches floating point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from typing import Iterable, Sequence

# Python int is the one big-integer type; no code here uses this name, which
# bench/run.py reads to record the big-integer backend of a run.
mpz = int

# The largest prime below 2^25.  Residues below it leave room in int64 for
# (2^63 - p) // (p - 1)^2 = 8192 unreduced rank-one updates in the lazy
# elimination (_echelon_mod_prime), and for the p-adic lift's sums of r
# products of residues, r (p - 1)^2 < 2^63, for every r up to 8192.
PRIME = 33554393

# Matrices of at most this many entries skip the modular route: on them an
# exact Bareiss run costs less than that route's fixed cost (column profile,
# reduced [A_R | I], lift set-up, exact check).  The README's exactness
# notes give the measured crossover.
EXACT_MAX_ENTRIES = 100

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
        _entry_rows(self.entries)

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
        ints = _integer_rows(vectors)
        if any(len(row) != ambient_dim for row in ints):
            raise ValueError("vector length does not match ambient dimension")
        # Kernel vector v_f ends at its free column f; reduced row p is 1 at
        # the pivot column p and -v_f[p] at each free column f.
        kernel = _kernel(ints, ambient_dim).vectors
        free = [max(j for j, x in enumerate(v) if x) for v in kernel]
        pivots = sorted(set(range(ambient_dim)) - set(free))
        rows = (_unit_vector(ambient_dim, p, free, [-v[p] for v in kernel]) for p in pivots)
        return cls(ambient_dim, tuple(rows))

    def contains(self, vector: Sequence[Scalar]) -> bool:
        if len(vector) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return span_dim([*self.vectors, vector]) == self.dimension

    def same_span(self, other: "SubspaceBasis") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        if self.dimension != other.dimension:
            return False
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
    active = [(i, list(row)) for i, row in enumerate(rows) if any(row)]
    pivots: list[tuple[int, int, list]] = []
    prev = 1
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
    """The rows of a MatrixQ or of a row sequence, which must share one width."""
    if isinstance(m, MatrixQ):
        return m.entries
    if len({len(row) for row in m}) > 1:
        raise ValueError("rows have mismatched lengths")
    return m


def rank(m) -> int:
    """Exact rank of a rational matrix: _certified_rank of its integer rows,
    with min(rows, cols) as the upper bound."""
    rows = _entry_rows(m)
    if not rows or not rows[0]:
        return 0
    return _certified_rank(_integer_rows(rows), min(len(rows), len(rows[0])))


def _certified_rank(ints: Sequence[Sequence[int]], upper: int) -> int:
    """Exact rank of nonempty integer rows whose rank is at most `upper`, a
    bound the caller has proven: Bareiss elimination for at most
    EXACT_MAX_ENTRIES entries; else the mod-p rank when it meets the bound,
    else a verified left kernel, lifted from the same column profile (the
    transpose's row profile), else Bareiss elimination."""
    ncols = len(ints[0])
    if len(ints) * ncols > EXACT_MAX_ENTRIES:
        profile = _column_profile(_integer_array(ints))
        if len(profile) == upper:
            return upper
        left = _padic_kernel(list(zip(*ints)), len(ints), profile)
        if left is not None:
            return len(ints) - len(left)
    return len(_triangularize(ints, ncols))


def kernel_basis(m) -> SubspaceBasis:
    """Reduced-echelon basis of the right kernel: one vector per free column
    in ascending order, 1 there and 0 at the other free columns.  _kernel
    reads it by Bareiss under the size rule (EXACT_MAX_ENTRIES), else lifts
    it p-adically when it can certify it, else reads it by Bareiss."""
    ints = _integer_rows(_entry_rows(m))
    return _kernel(ints, len(ints[0]) if ints else 0)


def _kernel(ints: Sequence[Sequence[int]], ncols: int) -> SubspaceBasis:
    """The reduced-echelon kernel basis of integer rows, by the exact reader,
    _exact_kernel_basis, for at most EXACT_MAX_ENTRIES entries; else by the
    certified reader, _padic_kernel, when it gives a certificate, else by the
    exact reader.  The certificate (see _verify_kernel) pins the pivot
    columns, so both readers give the same basis."""
    if len(ints) * ncols > EXACT_MAX_ENTRIES:
        vectors = _padic_kernel(ints, ncols)
        if vectors is not None:
            return SubspaceBasis(ncols, tuple(vectors))
    return _exact_kernel_basis(ints, ncols)


def _exact_kernel_basis(ints: Sequence[Sequence[int]], ncols: int) -> SubspaceBasis:
    """The reduced-echelon kernel basis of integer rows, by Bareiss
    elimination and exact back substitution, with no modular attempt.

    The vector of free column f is 1 at f and, at each pivot column, minus
    the entry at f of that column's reduced row.  The reduced rows are P^{-1}
    times the pivot rows, where P is the pivot block, whose determinant is
    the last pivot `den`; so den times each reduced entry is an integer and
    the back substitution, run over the free columns only, divides exactly.
    """
    pivots = _triangularize(ints, ncols)
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
    vectors = (
        _unit_vector(ncols, f, pivot_cols, [Fraction(-row[i], den) for row in scaled])
        for i, f in enumerate(free)
    )
    return SubspaceBasis(ncols, tuple(vectors))


def _padic_kernel(
    ints: Sequence[Sequence[int]], ncols: int, profile: Sequence[int] | None = None
) -> list[tuple[Fraction, ...]] | None:
    """The reduced-echelon kernel basis of integer rows, lifted p-adically
    (Dixon 1982) and certified by _verify_kernel, or None.

    Mod PRIME, the lex-first row profile R (the column profile of the
    transpose; a caller that has it passes it as `profile`) and the reduced
    form of [A_R | I] give r pivot columns and the inverse of their r x r
    block B.  One pass over [A | I] with every row would give both, but it
    eliminates a block as wide as A is tall, which costs more than the two.
    The k = ncols - r solutions Y of B Y = -(A_R at the free columns) are
    lifted together, one p-adic digit per pair of matrix products.
    Certificate: the mod-p rank r bounds the kernel dimension by k, so the k
    vectors, 1 at a free column and a column of Y at the pivots, once
    _verify_kernel checks them exactly, are bit for bit the Bareiss basis.
    The rows and the residual are int64 within the bounds below, Python ints
    past them.  None when r passes 8192, or when the lift reaches the
    Hadamard bound unverified, as after a rank drop mod p.
    """
    import numpy as np

    p = PRIME
    a = _integer_array(ints)
    if profile is None:
        profile = _column_profile(a.T)
    r, k = len(profile), ncols - len(profile)
    if k == 0:
        # Full column rank mod p, so over the rationals too: no kernel.
        return []
    # Each digit is (B^-1 mod p)(res mod p), at most r (p-1)^2; the residual
    # res stays within r top, and res - B digit within r top p.
    if r * (p - 1) ** 2 >= 2**63:
        return None
    top = max(int(a.max()), -int(a.min()))
    if top * r * p >= 2**62:
        a = a.astype(object)
    # [A_R | I] in reduced echelon form mod p is [E | U] with U A_R = E, so
    # U B = I at the pivot columns: U is B^-1 mod p.
    block = a[profile]
    reduced = np.hstack([(block % p).astype(np.int64), np.eye(r, dtype=np.int64)])
    pivots = _echelon_mod_prime(reduced, p, reduced=True)
    inverse = reduced[:, ncols:]
    free = sorted(set(range(ncols)) - set(pivots))
    b, residual = block[:, pivots], -block[:, free]
    # Cramer and Hadamard: Y's entries are ratios of r x r minors of [B | c],
    # c a column of the residual's start, each minor at most the product H of
    # B's column norms and the largest of c's, and a column of k nonzero
    # entries of size at most t has norm at most t sqrt(k).  So H^2 < 2^bits,
    # and since p >= 2^(p.bit_length() - 1), `cap` digits give p^cap > 2 H^2,
    # which makes the reconstruction unique.
    sizes = np.abs(block).max(axis=0, initial=0).tolist()
    counts = np.count_nonzero(block, axis=0).tolist()
    norms = [2 * t.bit_length() + nz.bit_length() for t, nz in zip(sizes, counts)]
    bits = sum(norms[c] for c in pivots) + max(norms[f] for f in free)
    cap = -(-(bits + 1) // (p.bit_length() - 1))
    # Columns reconstructed at one digit are kept for the next: a digit
    # resumes at the first column not yet reconstructed, and the kept
    # columns are dropped only when _verify_kernel rejects a full set.
    lifted, modulus, vectors = np.zeros((r, k), dtype=object), 1, []
    for _ in range(cap):
        digit = inverse @ (residual % p).astype(np.int64, copy=False) % p
        residual = (residual - b @ digit) // p
        lifted += digit.astype(object) * modulus
        modulus *= p
        done = len(vectors)
        columns = lifted[:, done:].T.tolist()
        vectors += _reconstruct_vectors(columns, modulus, pivots, free[done:], ncols)
        if len(vectors) == k:
            if _verify_kernel(a, ncols, pivots, vectors):
                return vectors
            vectors = []
    return None


def _reconstruct_vectors(
    lifted: list[list[int]], modulus: int, pivots: list[int], free: list[int], ncols: int
) -> list[tuple[Fraction, ...]]:
    """Kernel vectors, 1 at each free column and, at the pivots, the
    fractions with the residues `lifted` mod `modulus`, up to the first
    column with a residue that has none small enough.  Each column runs one
    common denominator: scaled by the denominators found so far, its later
    entries are integers."""
    bound, vectors = isqrt(modulus // 2), []
    for f, column in zip(free, lifted):
        den, entries = 1, []
        for u in column:
            q = _rational_reconstruction(den * u % modulus, modulus, bound)
            if q is None:
                return vectors
            entries.append(q / den if den > 1 else q)
            den *= q.denominator
        vectors.append(_unit_vector(ncols, f, pivots, entries))
    return vectors


def _unit_vector(ncols: int, unit: int, cols: Sequence[int], entries) -> tuple[Fraction, ...]:
    """The vector with 1 at column `unit`, entries[t] at column cols[t] and
    zeros elsewhere."""
    v = [Fraction(0)] * ncols
    v[unit] = Fraction(1)
    for c, x in zip(cols, entries):
        v[c] = x
    return tuple(v)


def span_dim(vectors: Iterable[Sequence[Scalar]]) -> int:
    """Dimension of the span of coordinate vectors (0 for an empty family)."""
    return rank(list(vectors))


def block_solve(a, b) -> MatrixQ:
    """Return -A^{-1} B for invertible A, read off the exact kernel of
    [A | B]: column j of -A^{-1} B is the first n entries of the kernel
    vector of free column n + j."""
    a_rows = _entry_rows(a)
    b_rows = _entry_rows(b)
    n = len(a_rows)
    if any(len(r) != n for r in a_rows):
        raise ValueError("block_solve needs a square left block")
    if len(b_rows) != n:
        raise ValueError("right block has wrong row count")
    width = len(b_rows[0]) if n else 0
    aug = _integer_rows([[*ar, *br] for ar, br in zip(a_rows, b_rows)])
    kernel = _exact_kernel_basis(aug, n + width).vectors
    # A is invertible exactly when the free columns are n .. n + width - 1,
    # and the kernel vector of free column f ends at f.
    if [max(j for j, x in enumerate(v) if x) for v in kernel] != list(range(n, n + width)):
        raise ValueError("singular matrix")
    return MatrixQ(tuple(tuple(v[i] for v in kernel) for i in range(n)))


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
    last = pivots[-1][2][0] if pivots else 1
    return Fraction(-last if inversions % 2 else last) / prod(f for _, f in scaled)


def rank_mod_prime(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix reduced mod PRIME: the length of its column
    profile.

    Always a lower bound for the rational rank (specialization can only drop
    rank).  Entries must be integers; clear denominators first.  Integer-only
    numpy arithmetic, word-size residues.
    """
    if not rows or not len(rows[0]):
        return 0
    return len(_column_profile(_integer_array(rows)))


def _integer_array(rows: Sequence[Sequence[int]]):
    """The rows as an int64 array, or as an array of Python ints (dtype
    object) when some entry does not fit in int64."""
    import numpy as np

    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def _column_profile(a) -> list[int]:
    """The pivot columns mod PRIME of the integer array `a`, the lex-first
    columns independent mod PRIME.  The rows are sorted by their first
    nonzero column first, which changes no column profile: on a sparse shift
    matrix each column's nonzeros then start in a short band of rows, and
    the elimination updates only the rows from the first to the last."""
    import numpy as np

    residues = (a % PRIME).astype(np.int64, copy=False)
    nonzero = residues != 0
    lead = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), residues.shape[1])
    return _echelon_mod_prime(residues[np.argsort(lead, kind="stable")], PRIME, reduced=False)


def _echelon_mod_prime(a, prime: int, reduced: bool) -> list[int]:
    """Pivot columns of the int64 residue matrix `a`, entries in [0, prime),
    which is brought in place to row echelon form mod `prime` with unit
    pivots in rows 0..rank-1 and every entry in [0, prime); with `reduced`,
    each pivot column is also cleared above its pivot, giving the reduced
    row echelon form.

    Reduction is delayed (as in FFLAS-FFPACK, Dumas, Giorgi and Pernet 2008):
    the rank-one updates are left unreduced, and only the pivot column and
    the pivot row are reduced, as they are read.  An update subtracts at most
    (prime - 1)^2, so the rows still to be updated are reduced once every
    `budget` pivots, the most that int64 holds, and the whole matrix once at
    the end.  ValueError when the prime leaves no room for one update.
    """
    import numpy as np

    budget = (2**63 - prime) // (prime - 1) ** 2
    if budget < 1:
        raise ValueError(f"residues mod {prime} are too wide for an int64 update")
    nrows, ncols = a.shape
    pivots: list[int] = []
    pending = 0
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        first = 0 if reduced else r
        column = a[first:, c]
        column %= prime
        nz = column[r - first :].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        if pending == budget:
            a[first:, c + 1 :] %= prime
            pending = 0
        row = a[r, c:] % prime * pow(int(a[r, c]), -1, prime) % prime
        # Only the rows from the first to the last nonzero of the pivot
        # column, and the columns up to the pivot row's last nonzero, change;
        # the pivot row clears itself too, and is written back reduced.
        hits = column.nonzero()[0]
        end = c + 1 + int(row.nonzero()[0][-1])
        block = a[first + int(hits[0]) : first + int(hits[-1]) + 1, c:end]
        block -= block[:, :1] * row[: end - c]
        a[r, c:] = row
        pending += 1
        pivots.append(c)
    a %= prime
    return pivots


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
    here relies on how the vectors were computed.  A V = 0 is checked as
    one exact product over the nonzero entries of A, V holding the vectors
    scaled to primitive integers: in int64 when no partial sum can pass it,
    else on Python ints (numpy object arrays).
    """
    import numpy as np

    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    if len(vectors) != len(free):
        return False
    for f, v in zip(free, vectors):
        support = [j for j, x in enumerate(v) if x]
        if v[f] != 1 or any(j != f and (j not in pivot_set or j > f) for j in support):
            return False
    a = _integer_array(rows)
    i, j = np.nonzero(a)
    if not (i.size and vectors):
        return True
    scaled = np.array([_primitive_row(v)[0] for v in vectors], dtype=object)
    top = max(int(a.max()), -int(a.min())) * int(np.abs(scaled).max())
    # Each vector is 1 somewhere, so top bounds every entry of A: below the
    # bound, A is already int64.
    if top * ncols < 2**63:
        scaled = scaled.astype(np.int64)
    else:
        a = a.astype(object)
    # The nonzeros come row by row: terms[t, e] is nonzero e times vector t
    # at its column, and each row's terms are one run, summed by reduceat.
    terms = a[i, j] * scaled[:, j]
    runs = np.flatnonzero(np.diff(i, prepend=-1))
    return not np.count_nonzero(np.add.reduceat(terms, runs, axis=1))
