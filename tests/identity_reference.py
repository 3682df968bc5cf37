"""Reference left sides of the identities with every term computed on its
own: each binomial by math.comb, and A3's series built afresh for each
(n, m). The oracle for identities' sums, which read their binomials from
cached Pascal rows and columns and share A3's series across m.  A3's left
side is also enumerated literally, composition by composition, under both
published readings of its constraint."""
from math import comb


def _comb(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


def _dim_forms(n: int, r: int) -> int:
    return _comb(n + r - 1, r)


def _delta(s: int, n: int) -> int:
    return s * (s + 1) // 2 * _comb(n + s - 1, s + 2)


def a1_lhs(p: int, r: int) -> int:
    return sum(
        (-1) ** m * _comb(p, m) * _comb(p * r - m * r - 1, p - 1)
        for m in range(p * (r - 1) // r + 1)
    )


def a2_lhs(p: int, r: int) -> int:
    return sum(
        (-1) ** m * _comb(p + 1, m) * _comb(p * r - m * r, p)
        for m in range(p * (r - 1) // r + 1)
    )


def aux_lhs(n: int, m: int) -> tuple[int, int]:
    """The plain and the p-weighted auxiliary sums."""
    terms = [(-1) ** p * _comb(n + 1, m - p) * _comb(n + p - 1, p) for p in range(m + 1)]
    return sum(terms), sum(p * t for p, t in enumerate(terms))


def a3_lhs(n: int, m: int) -> int:
    """delta(m-2, n) - [u^{m-2}] B D / (1 + A), every series truncated at
    u^{m-2} and built for this (n, m) alone."""
    top = m - 2
    a = [0] + [_comb(n + r - 1, n - 1) for r in range(1, top + 1)]
    dd = [0] + [_delta(s, n) for s in range(1, top + 1)]
    inv = [1]
    for i in range(1, top + 1):
        inv.append(-sum(a[j] * inv[i - j] for j in range(1, i + 1)))
    lhs = dd[top]
    for t in range(3, top + 1):
        lhs -= sum(a[i] * dd[t - i] for i in range(2, t)) * inv[top - t]
    return lhs


def a3_lhs_enumerated(n: int, m: int, last_min: int = 2) -> int:
    """The A3 left side by literal recursive enumeration of the compositions
    r_1 + .. + r_l + s = m-2.

    last_min selects between the two printed constraint readings: 2 requires
    r_l >= 2 (the reading the identity follows), 1 lets the last part be 1.
    Exponential in m; for small parameters only.
    """
    total = _delta(m - 2, n)

    def walk(ell_left: int, remaining: int, prod: int, acc: list[int]):
        if ell_left == 1:
            for r_last in range(last_min, remaining):
                acc[0] += prod * _dim_forms(n, r_last) * _delta(remaining - r_last, n)
            return
        for r in range(1, remaining):
            walk(ell_left - 1, remaining - r, prod * _dim_forms(n, r), acc)

    for ell in range(1, m - 3):
        acc = [0]
        walk(ell, m - 2, 1, acc)
        total += acc[0] if ell % 2 == 0 else -acc[0]
    return total
