"""Exact linear algebra over the rationals.

One elimination core, _triangularize, runs fraction-free Bareiss elimination
with first-nonzero partial pivoting, so identical inputs take identical pivot
paths.  The determinant is read off its last pivot; _exact_kernel_numerators
back-substitutes its echelon rows straight into the reduced-echelon kernel
basis, the one form built from them.  The public functions check once that
rows share one width and clear entries to integers row by row, once (row
scaling changes neither rank nor kernel).  The exact core runs on Python
ints, and is handed lists of them, never numpy scalars, whose products would
overflow silently; results come back as fractions.Fraction.

Every rank goes through _certified_rank, given the integer rows as one 2-D
numpy array and an upper bound the caller has proven, and every kernel basis
(kernel_basis, SubspaceBasis.from_spanning, the socle functional) through
_kernel_numerators.  The array is int64 when its entries fit, else an array
of Python ints (_integer_array, or the caller's own builder, chooses by
_dtype, once per matrix), and stays an array up to the exact check.  A
matrix of at most EXACT_MAX_ENTRIES entries is answered by Bareiss alone,
which costs less there than the modular route's set-up.  On a larger one the
lower bound is the rank mod the word-size prime PRIME, since specialization
can only drop rank; when the two bounds meet, that is the rank.  Otherwise a
verified right kernel bounds it by ncols minus its dimension, so each caller
passes A or A^T, whichever has the short kernel.  Every kernel is read by
one certified reader, _padic_kernel, which lifts it p-adically mod PRIME
(Dixon 1982), tries the rational reconstruction at digits 1, 2, 4, 8, then
a quarter further each time, and at the Hadamard cap, and checks the
result, integer numerators over one denominator per vector, exactly with
_verify_kernel; Bareiss answers what it does not certify, and determinant,
solve and inverse are exact.

Every mod-p step reads one factorization, P A = L U mod PRIME (_LU,
_factorization), made by one forward elimination loop, _echelon_mod_prime,
with delayed reduction over residues below 2^25, that keeps its multipliers
(as in the rank-profile PLUQ of Dumas, Pernet and Sultan 2017).  Its pivots
are the lex-first column profile C, so the mod-p rank is their count; its
first r rows are an independent row set R; and the pivot block B = A[R][:, C]
is L_R U_C, whose inverse _pivot_inverse forms on demand from two triangular
inverses by halving, for the lift.  So a rank, its certificate and a kernel
cost one factorization of A, which a caller that has one already (the
complete intersection verdict of ci) passes in.  _line_residues
back-substitutes the kernel line of a factorization of corank one off U.  A
bound that is not met is never reported, so a certified answer is as exact
as the Bareiss one.  Kernel vectors become fractions once, in
_fraction_basis.  Nothing in this module touches floating point.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from typing import Iterable, NamedTuple, Sequence

# Python int is the one big-integer type; no code here uses this name, which
# bench/run.py reads to record the big-integer backend of a run.
mpz = int

# The largest prime below 2^25.  Residues below it leave room in int64 for
# (2^63 - p) // (p - 1)^2 = 8192 unreduced rank-one updates in the lazy
# elimination (_echelon_mod_prime), and for the sums of r products of
# residues in the triangular inverses and the p-adic lift, r (p - 1)^2 <
# 2^63, for every r up to 8192.
PRIME = 33554393

# Matrices of at most this many entries skip the modular route: on them an
# exact Bareiss run costs less than that route's fixed cost (the
# factorization, the pivot block's inverse, lift set-up, exact check).  The
# README's exactness notes give the measured crossover.
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
        kernel = _kernel(_integer_array(ints, ambient_dim)).vectors
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
    or of their transpose if taller, with min(rows, cols) as the bound."""
    rows = _entry_rows(m)
    if not rows or not rows[0]:
        return 0
    a = _integer_array(_integer_rows(rows), len(rows[0]))
    return _certified_rank(a if a.shape[0] >= a.shape[1] else a.T, min(a.shape))


def _certified_rank(a, upper: int) -> int:
    """Exact rank of a nonempty integer array whose rank is at most `upper`,
    a bound the caller has proven: for at most EXACT_MAX_ENTRIES entries,
    Bareiss elimination of a or a^T, whichever has fewer rows; else the rank
    of one factorization of a mod PRIME when it meets the bound, else ncols
    minus the dimension of a's right kernel, read from that factorization by
    _kernel_numerators."""
    if a.size <= EXACT_MAX_ENTRIES:
        side = a if a.shape[0] <= a.shape[1] else a.T
        return len(_triangularize(side.tolist(), side.shape[1]))
    lu = _factorization(a)
    if len(lu.pivots) == upper:
        return upper
    return a.shape[1] - len(_kernel_numerators(a, lu))


def kernel_basis(m) -> SubspaceBasis:
    """Reduced-echelon basis of the right kernel: one vector per free column
    in ascending order, 1 there and 0 at the other free columns.  _kernel
    reads it by Bareiss under the size rule (EXACT_MAX_ENTRIES), else lifts
    it p-adically when it can certify it, else reads it by Bareiss."""
    ints = _integer_rows(_entry_rows(m))
    return _kernel(_integer_array(ints, len(ints[0]) if ints else 0))


def _kernel(a) -> SubspaceBasis:
    """The reduced-echelon kernel basis of an integer array, read by
    _kernel_numerators."""
    return _fraction_basis(a.shape[1], _kernel_numerators(a))


def _kernel_numerators(a, lu: _LU | None = None) -> list[list[int]]:
    """The reduced-echelon kernel basis of an integer array, each vector
    times the denominator of its entries, which it holds at its free column:
    by the exact reader, _exact_kernel_numerators, for at most
    EXACT_MAX_ENTRIES entries; else by the certified reader, _padic_kernel,
    when it gives a certificate, else by the exact reader.  The certificate
    (see _verify_kernel) pins the pivot columns, so both readers give the
    same basis.  A caller that has factored `a` already passes it as `lu`."""
    if a.size > EXACT_MAX_ENTRIES:
        vectors = _padic_kernel(a, lu if lu is not None else _factorization(a))
        if vectors is not None:
            return vectors
    return _exact_kernel_numerators(a.tolist(), a.shape[1])


def _fraction_basis(ncols: int, vectors: Sequence[Sequence[int]]) -> SubspaceBasis:
    """The basis of integer kernel vectors, each divided by its entry at its
    free column, its last nonzero entry: the one place where the kernel
    readers make fractions."""
    zero, basis = Fraction(0), []
    for v in vectors:
        den = next(x for x in reversed(v) if x)
        basis.append(tuple(Fraction(x, den) if x else zero for x in v))
    return SubspaceBasis(ncols, tuple(basis))


def _exact_kernel_basis(ints: Sequence[Sequence[int]], ncols: int) -> SubspaceBasis:
    """The reduced-echelon kernel basis of integer rows, by Bareiss
    elimination alone: _exact_kernel_numerators as fractions."""
    return _fraction_basis(ncols, _exact_kernel_numerators(ints, ncols))


def _exact_kernel_numerators(ints: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """The reduced-echelon kernel basis of integer rows, each vector times
    the last Bareiss pivot `den`, by Bareiss elimination and exact back
    substitution, with no modular attempt.

    The vector of free column f is 1 at f and, at each pivot column, minus
    the entry at f of that column's reduced row.  The reduced rows are P^{-1}
    times the pivot rows, where P is the pivot block, whose determinant is
    den; so den times each reduced entry is an integer and the back
    substitution, run over the free columns only, divides exactly.
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
    vectors = []
    for i, f in enumerate(free):
        v = [0] * ncols
        v[f] = den
        for c, row in zip(pivot_cols, scaled):
            v[c] = -row[i]
        vectors.append(v)
    return vectors


def _padic_kernel(a, lu: _LU) -> list[list[int]] | None:
    """The reduced-echelon kernel basis of the integer array `a`, lifted
    p-adically (Dixon 1982) and certified by _verify_kernel, each vector
    times the denominator of its entries, which it holds at its free column;
    or None.

    The lift needs, mod PRIME, a row profile R (r rows independent mod p),
    the column profile C (the lex-first r columns independent mod p) and the
    inverse of their r x r block B.  One factorization P A = L U mod p gives
    all three (_factorization): R is the first r rows of P A, C its pivot
    columns, and B = L_R U_C, whose inverse _pivot_inverse forms as its two
    triangular factors; the caller passes that factorization of `a` as `lu`.
    The k = ncols - r solutions Y of B Y = -(A_R at the free columns) are
    lifted together, one p-adic digit per three matrix products.
    Reconstruction (_reconstruct_vectors) is tried at digits 1, 2, 4 and 8,
    then at t + floor(t/4) after a try at t, and at the Hadamard cap, each
    time on every column: doubling would lift up to twice the digits a
    kernel needs.
    Certificate: the mod-p rank r bounds the kernel dimension by k, so the k
    vectors, 1 at a free column and a column of Y at the pivots, once
    _verify_kernel checks their integer numerators exactly, are bit for bit
    the Bareiss basis.  The rows and the residual are int64 within the
    bounds below, Python ints past them.  None when r passes 8192, or when
    the lift reaches the Hadamard bound unverified, as after a rank drop
    mod p.
    """
    import numpy as np

    p = PRIME
    ncols = a.shape[1]
    pivots = lu.pivots
    r, k = len(pivots), ncols - len(pivots)
    if k == 0:
        # Full column rank mod p, so over the rationals too: no kernel.
        return []
    # Each product sums at most r products of residues, r (p-1)^2; the
    # residual stays within r top, and res - B digit within r top p.
    if r * (p - 1) ** 2 >= 2**63:
        return None
    upper, lower = _pivot_inverse(lu)
    top = max(int(a.max()), -int(a.min()))
    if top * r * p >= 2**62:
        a = a.astype(object)
    block = a[lu.order[:r]]
    free = sorted(set(range(ncols)) - set(pivots))
    b, residual = np.ascontiguousarray(block[:, pivots]), -block[:, free]
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
    # Nothing below reads `block`: free it before the exact check, where the
    # lift's memory peaks.
    del block
    lifted, modulus, attempt = np.zeros((r, k), dtype=object), 1, 1
    for t in range(1, cap + 1):
        digit = upper @ (lower @ (residual % p).astype(np.int64, copy=False) % p) % p
        residual = (residual - b @ digit) // p
        lifted += digit.astype(object) * modulus
        modulus *= p
        if t < attempt and t < cap:
            continue
        attempt = 2 * t if t < 8 else t + t // 4
        columns = _reconstruct_vectors(lifted.T.tolist(), modulus)
        if columns is None:
            continue
        dens, nums = zip(*columns)
        vectors = np.zeros((k, ncols), dtype=object)
        vectors[:, pivots] = np.array(nums, dtype=object).reshape(k, r)
        vectors[np.arange(k), free] = dens
        if _verify_kernel(a, pivots, vectors):
            return vectors.tolist()
    return None


class _LU(NamedTuple):
    """P A = L U mod PRIME for an m x n integer array A of mod-p rank r, as
    _echelon_mod_prime leaves it.  Row i of `factors` is row order[i] of A.
    `pivots` is the column profile C, the lex-first columns independent mod
    p.  L is m x r: its column t is column C[t] of `factors` from row t down,
    and L[t, t] is pivot t before it was normalized.  U is r x n: row t is
    1 at C[t] and `factors` right of it, 0 left of it.  So the rows
    R = order[:r] are independent mod p, and B = A[R][:, C] = L_R U_C with
    L_R = L[:r] lower and U_C unit upper triangular."""

    factors: object
    order: object
    pivots: list[int]


def _factorization(a) -> _LU:
    """P A = L U mod PRIME (_LU) of the integer array `a`.  The rows are
    sorted by their first nonzero column first, which changes no column
    profile: on a sparse shift matrix each column's nonzeros then start in a
    short band of rows, and the elimination updates only the rows from the
    first to the last."""
    import numpy as np

    residues = (a % PRIME).astype(np.int64, copy=False)
    nonzero = residues != 0
    lead = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), residues.shape[1])
    order = np.argsort(lead, kind="stable")
    factors = residues[order]
    pivots, swaps = _echelon_mod_prime(factors, PRIME)
    return _LU(factors, order[swaps], pivots)


def _pivot_inverse(lu: _LU) -> tuple[object, object]:
    """B^-1 mod PRIME, B = L_R U_C the pivot block of `lu`, as its two
    factors U_C^-1 and L_R^-1, each a triangular inverse (_lower_inverse,
    the upper one through its transpose).  The lift multiplies by the two in
    turn: its kernels have few right-hand sides next to their rows (one for
    a socle line), so two products per digit cost less than the r^3 product
    of the two inverses."""
    import numpy as np

    r = len(lu.pivots)
    block = lu.factors[:r, lu.pivots]
    lower = _lower_inverse(np.tril(block))
    block = np.triu(block, 1).T
    block[np.diag_indices(r)] = 1
    return np.ascontiguousarray(_lower_inverse(block).T), lower


def _lower_inverse(t):
    """The inverse mod PRIME of the lower triangular int64 residue matrix
    `t`, whose diagonal is nonzero mod PRIME, by halving:
    [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]].  Blocks of at
    most six rows are solved on Python ints, row by row.  Each product sums
    fewer than 8192 products of residues, below 2^63 in int64."""
    import numpy as np

    p, n = PRIME, len(t)
    if n <= 6:
        rows, inverse = t.tolist(), [[0] * n for _ in range(n)]
        for i, row in enumerate(rows):
            unit = pow(row[i], -1, p)
            inverse[i][i] = unit
            for j in range(i):
                inverse[i][j] = -unit * sum(row[m] * inverse[m][j] for m in range(j, i)) % p
        return np.array(inverse, dtype=np.int64).reshape(n, n)
    h = n // 2
    head, tail = _lower_inverse(t[:h, :h]), _lower_inverse(t[h:, h:])
    out = np.zeros((n, n), dtype=np.int64)
    out[:h, :h], out[h:, h:] = head, tail
    out[h:, :h] = -(tail @ (t[h:, :h] @ head % p)) % p
    return out


def _line_residues(lu: _LU, start: int = 0):
    """The kernel line mod PRIME of a factorization of corank one, 1 at its
    free column f, at columns start.. only, as an array of residues.  It is
    0 past f, and back substitution off U gives its entry at each pivot
    column c from its entries right of c, so only the pivot rows at columns
    from `start` on are read, bottom up.  Each step sums fewer than ncols
    products of residues, in int64 when that stays below 2^63."""
    import numpy as np

    u, pivots = lu.factors, lu.pivots
    ncols = u.shape[1]
    free = next(c for c, q in enumerate([*pivots, ncols]) if c != q)
    line = np.zeros(ncols - start, dtype=_dtype(ncols * (PRIME - 1) ** 2))
    if free >= start:
        line[free - start] = 1
    for t in range(bisect_left(pivots, free) - 1, bisect_left(pivots, start) - 1, -1):
        c = pivots[t]
        line[c - start] = -int(u[t, c + 1 : free + 1] @ line[c + 1 - start : free + 1 - start]) % PRIME
    return line


def _reconstruct_vectors(
    lifted: list[list[int]], modulus: int
) -> list[tuple[int, list[int]]] | None:
    """For each column of residues `lifted` mod `modulus`, the fractions
    with those residues and numerator and denominator at most
    sqrt(modulus / 2) in size, as integer numerators over one common
    denominator: (den, numerators).  None when some residue has no such
    fraction.

    A column runs its denominator den, the product of those found so far:
    den u, u the next residue, is the next numerator when its symmetric
    residue is within the bound, with no Euclid call, and otherwise
    _rational_reconstruction splits it into a/b, b joins den, and the
    numerators found so far are scaled by b."""
    bound, half, columns = isqrt(modulus // 2), modulus // 2, []
    for column in lifted:
        den, nums = 1, []
        for u in column:
            w = den * u % modulus
            if w > half:
                w -= modulus
            if -bound <= w <= bound:
                nums.append(w)
                continue
            q = _rational_reconstruction(w % modulus, modulus, bound)
            if q is None:
                return None
            nums = [x * q.denominator for x in nums]
            nums.append(q.numerator)
            den *= q.denominator
        columns.append((den, nums))
    return columns


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


def _solved(a, b) -> tuple[list[list[int]], int]:
    """-A^{-1} B for invertible A as integer numerators over one nonzero
    denominator, read off the exact kernel of [A | B]: column j is the first
    n entries of the kernel vector of free column n + j, and every vector of
    _exact_kernel_numerators holds the same denominator at its free column."""
    a_rows = _entry_rows(a)
    b_rows = _entry_rows(b)
    n = len(a_rows)
    if any(len(r) != n for r in a_rows):
        raise ValueError("block_solve needs a square left block")
    if len(b_rows) != n:
        raise ValueError("right block has wrong row count")
    width = len(b_rows[0]) if n else 0
    aug = _integer_rows([[*ar, *br] for ar, br in zip(a_rows, b_rows)])
    kernel = _exact_kernel_numerators(aug, n + width)
    # A is invertible exactly when the free columns are n .. n + width - 1,
    # and the kernel vector of free column f ends at f.
    if [max(j for j, x in enumerate(v) if x) for v in kernel] != list(range(n, n + width)):
        raise ValueError("singular matrix")
    den = kernel[0][n] if kernel else 1
    return [[v[i] for v in kernel] for i in range(n)], den


def _fraction_matrix(nums: Sequence[Sequence[int]], den: int) -> MatrixQ:
    """The MatrixQ nums / den."""
    return MatrixQ(tuple(tuple(Fraction(x, den) for x in row) for row in nums))


def block_solve(a, b) -> MatrixQ:
    """Return -A^{-1} B for invertible A: the Fraction view of _solved."""
    return _fraction_matrix(*_solved(a, b))


def _inverse_numerators(a) -> tuple[list[list[int]], int]:
    """A^{-1} for a square invertible A as integer numerators over one
    nonzero denominator: _solved on [A | -I]."""
    n = len(_entry_rows(a))
    return _solved(a, [[-1 if i == j else 0 for j in range(n)] for i in range(n)])


def matrix_inverse(a) -> MatrixQ:
    """Exact inverse of a square rational matrix: the Fraction view of
    _inverse_numerators."""
    return _fraction_matrix(*_inverse_numerators(a))


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
    return len(_factorization(_integer_array(rows, len(rows[0]))).pivots)


def _dtype(bound: int):
    """int64 when `bound`, proven by the caller to bound every entry and
    every partial sum of a computation, stays below 2^63; else object, so
    that the computation runs on Python ints."""
    import numpy as np

    return np.int64 if bound < 2**63 else object


def _integer_array(rows: Sequence[Sequence[int]], ncols: int):
    """Integer rows of width ncols as one 2-D array, its dtype chosen once
    by _dtype from the largest entry."""
    import numpy as np

    top = max((max(map(abs, row), default=0) for row in rows), default=0)
    return np.array(rows, dtype=_dtype(top)).reshape(len(rows), ncols)


def _echelon_mod_prime(a, prime: int) -> tuple[list[int], object]:
    """LU factorization in place of the int64 residue matrix `a`, entries in
    [0, prime): returns the pivot columns and the row order, with row i of
    the result holding row order[i] of `a`.  Each pivot is the first row
    below the pivots found so far that is nonzero mod `prime` in the column,
    so the pivot columns are the lex-first columns independent mod `prime`.
    Whole rows move on a swap.  The pivot keeps its value; right of it the
    pivot row is divided by it, a row of U; below it the column keeps each
    row's multiplier of that row of U, a column of L (see _LU).  Every entry
    ends in [0, prime).

    A pivot row changes only the rows from the first to the last nonzero of
    its column, and only in the columns from the pivot to the row's last
    nonzero.  Reduction is delayed (as in FFLAS-FFPACK, Dumas, Giorgi and
    Pernet 2008): the rank-one updates are left unreduced, and only the pivot
    column and the pivot row are reduced, as they are read.  An update
    subtracts at most (prime - 1)^2, so the rows still to be updated are
    reduced once every `budget` pivots, the most that int64 holds, and the
    whole matrix once at the end.  ValueError when the prime leaves no room
    for one update.
    """
    import numpy as np

    budget = (2**63 - prime) // (prime - 1) ** 2
    if budget < 1:
        raise ValueError(f"residues mod {prime} are too wide for an int64 update")
    nrows, ncols = a.shape
    order = list(range(nrows))
    pivots: list[int] = []
    pending = 0
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        column = a[r:, c]
        column %= prime
        nz = column.nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[r], a[i] = a[i], a[r].copy()
            order[r], order[i] = order[i], order[r]
        if pending == budget:
            a[r:, c + 1 :] %= prime
            pending = 0
        pending += 1
        pivots.append(c)
        row = a[r, c + 1 :]
        row %= prime
        row *= pow(int(a[r, c]), -1, prime)
        row %= prime
        cols = row.nonzero()[0] if nz.size > 1 else ()
        if len(cols):
            # The rows below the pivot with a nonzero in its column, read off
            # the column before the swap, which left a zero where the pivot
            # was; each keeps its multiplier there.
            band = a[r + int(nz[1]) : r + int(nz[-1]) + 1]
            lo, hi = int(cols[0]), int(cols[-1]) + 1
            band[:, c + 1 + lo : c + 1 + hi] -= band[:, c : c + 1] * row[lo:hi]
    a %= prime
    return pivots, np.array(order, dtype=np.intp)


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


def _verify_kernel(a, pivots: Sequence[int], vectors) -> bool:
    """Whether the integer `vectors`, each divided by its entry at its free
    column, are exactly the reduced-echelon kernel basis of the integer
    array `a`, given a's pivot columns mod some prime.

    Upper bound on the kernel dimension: ncols - len(pivots), because the
    mod-p rank is at most the rational rank.  Lower bound: one vector per
    non-pivot column f, in ascending order, each nonzero at f and supported
    only on f and pivot columns left of f (so they are independent), and
    each with A v = 0 over the integers.  Such a vector writes column f as a
    combination of earlier columns, so no such f is a rational pivot column;
    the bounds then meet, the mod-p pivot columns are the rational ones, and
    each vector, divided by its entry at f, is the one kernel vector that is
    1 at f and 0 at the other free columns: the vector the exact reduced row
    echelon form gives.  Nothing here relies on how the vectors were
    computed.  A V = 0 is checked as exact products over the nonzero
    entries of A: in int64 when no partial sum can pass it, else on Python
    ints (numpy object arrays).
    """
    import numpy as np

    ncols = a.shape[1]
    is_pivot = np.zeros(ncols, dtype=bool)
    is_pivot[list(pivots)] = True
    free = np.flatnonzero(~is_pivot)
    if len(vectors) != free.size:
        return False
    v = np.asarray(vectors, dtype=object).reshape(free.size, ncols)
    allowed = is_pivot & (np.arange(ncols) < free[:, None])
    allowed[np.arange(free.size), free] = True
    nonzero = v != 0
    if (nonzero & ~allowed).any() or not nonzero[np.arange(free.size), free].all():
        return False
    i, j = np.nonzero(a)
    if not (i.size and free.size):
        return True
    top = max(int(a.max()), -int(a.min())) * int(np.abs(v).max())
    # Each vector is nonzero somewhere, so top bounds every entry of A:
    # below the bound, A is already int64.
    if top * ncols < 2**63:
        v = v.astype(np.int64)
    else:
        a = a.astype(object)
    # The nonzeros come row by row: vector t's terms are each nonzero e times
    # v[t] at its column, one run per row, summed by reduceat, in blocks of
    # vectors of about 2^22 terms, which bound the memory of the products.
    entries, runs = a[i, j], np.flatnonzero(np.diff(i, prepend=-1))
    step = max(1, 2**22 // i.size)
    blocks = (entries * v[t : t + step, j] for t in range(0, len(v), step))
    return not any(np.count_nonzero(np.add.reduceat(b, runs, axis=1)) for b in blocks)
