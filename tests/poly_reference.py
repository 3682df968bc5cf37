"""Reference products of integer polynomials, one term pair at a time: the
oracle for poly's product kernel, which multiplies coefficient arrays by one
outer product and one scatter-add.

Integer polynomials are monomial -> coefficient dicts; cancelled terms stay
as zeros.  Nothing here is shared with apolar.poly but the data layout.
"""
from operator import add


def add_product(acc, p, q, sign=1):
    """Add sign * p * q into acc and return it: one monomial tuple and one
    dict update for each pair of terms."""
    for m1, c1 in p.items():
        c1 *= sign
        for m2, c2 in q.items():
            m = tuple(map(add, m1, m2))
            acc[m] = acc.get(m, 0) + c1 * c2
    return acc


def integer_det(mat, nvars):
    """Determinant of a square matrix of integer polynomials by column-subset
    expansion, minors over the first r rows memoized per column bitmask."""
    n = len(mat)
    states = {0: {(0,) * nvars: 1}}
    for r in range(n):
        nxt = {}
        for mask, minor in states.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit or not mat[r][j]:
                    continue
                sign = -1 if (r + bin(mask & (bit - 1)).count("1")) % 2 else 1
                add_product(nxt.setdefault(mask | bit, {}), minor, mat[r][j], sign)
        states = nxt
    return states.get((1 << n) - 1, {})


def integer_power_products(bases, exponents, nvars):
    """prod_i bases[i]^e_i for each exponent tuple e, by repeated products."""
    out = []
    for e in exponents:
        acc = {(0,) * nvars: 1}
        for base, k in zip(bases, e):
            for _ in range(k):
                acc = add_product({}, acc, base)
        out.append(acc)
    return out


def nonzero(p):
    """The terms of p with a nonzero coefficient."""
    return {m: c for m, c in p.items() if c}
