"""Exact linear solves over the rationals by fraction-free elimination.

Each row is scaled to integers once. Elimination then runs on integers:
a row is updated by cross-multiplication with the pivot row and divided
by the gcd of its entries, as in Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22 (1968).
Back-substitution keeps integer numerators over one shared denominator
in lowest terms, so fractions are formed only for the returned solution.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _integer_row(values) -> list[int]:
    """The row times the lcm of its denominators, divided by its content.

    Entries are ``Fraction``s or ints; both carry ``numerator`` and
    ``denominator``, so an integer row is only divided by its content.
    """
    scale = lcm(*(v.denominator for v in values))
    row = [v.numerator * (scale // v.denominator) for v in values]
    return _primitive(row)


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    if g > 1:
        return [v // g for v in row]
    return row


def solve_exact(rows, rhs):
    """Solve A x = b exactly over the rationals.

    `rows` is a list of equal-length coefficient lists, `rhs` the matching
    right-hand sides. Returns ``(kind, solution)`` where kind is one of
    ``"unique"``, ``"none"`` or ``"many"``; for consistent systems the
    solution is a particular one with every free variable set to zero.

    The pivot columns are the column rank profile of A, which no row
    operation changes, so the particular solution is the one read off the
    reduced row echelon form.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [_integer_row([*row, rhs[i]]) for i, row in enumerate(rows)]

    pivot_cols = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pivot = next((i for i in range(r, m) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        top = a[r]
        p = top[c]
        tail = top[c + 1 :]
        for i in range(r + 1, m):
            row = a[i]
            f = row[c]
            if f:
                # entries left of c are zero in both rows and stay zero
                a[i] = _primitive(
                    [0] * (c + 1) + [p * v - f * w for v, w in zip(row[c + 1 :], tail)]
                )
        pivot_cols.append(c)
        r += 1

    if any(a[i][n] for i in range(r, m)):
        return "none", None

    # Back-substitution with the free variables zero, on integer numerators
    # over one shared denominator: x_c = num[c] / den, in lowest terms.
    num = [0] * n
    den = 1
    for k in range(r - 1, -1, -1):
        row = a[k]
        c = pivot_cols[k]
        p = row[c]
        later = pivot_cols[k + 1 :]
        s = row[n] * den - sum(row[j] * num[j] for j in later)
        # gcd(p den, p num_j..., s) = gcd(p, s), as gcd(den, num_j...) = 1
        g = gcd(p, s)
        f = p // g
        if f != 1:
            den *= f
            for j in later:
                num[j] *= f
        num[c] = s // g
    kind = "unique" if r == n else "many"
    return kind, [Fraction(v, den) for v in num]
