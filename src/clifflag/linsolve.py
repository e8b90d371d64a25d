"""Exact linear solves over the rationals by fraction-free elimination.

Each row is scaled to integers once. Elimination then runs on integers,
in the shape of :func:`clifflag._quaternion.solve_left` (rows kept as
tails, pivot rows with their column): a row is updated by
cross-multiplication with the pivot row and divided by the gcd of its
entries, as in Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22 (1968).
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

    At column c each row not yet pivoted holds only its columns c..n, and
    the first with a nonzero entry there is the pivot, kept as ``(c, row)``.
    The pivot columns are the column rank profile of A, which no row
    operation changes, so the particular solution is the one read off the
    reduced row echelon form.
    """
    n = len(rows[0]) if rows else 0
    rest = [_integer_row([*row, rhs[i]]) for i, row in enumerate(rows)]
    pivots = []  # (c, the pivot row on its columns c..n)
    for c in range(n):
        pivot = next((i for i, row in enumerate(rest) if row[0]), None)
        if pivot is None:
            rest = [row[1:] for row in rest]
            continue
        top = rest.pop(pivot)
        p = top[0]
        tail = top[1:]
        for i, row in enumerate(rest):
            f = row[0]
            if f:
                rest[i] = _primitive([p * v - f * w for v, w in zip(row[1:], tail)])
            else:
                rest[i] = row[1:]
        pivots.append((c, top))

    if any(row[-1] for row in rest):
        return "none", None

    # Back-substitution with the free variables zero, on integer numerators
    # over one shared denominator: x_c = num[c] / den, in lowest terms.
    num = [0] * n
    den = 1
    solved = []
    for c, row in reversed(pivots):
        p = row[0]
        s = row[-1] * den - sum(row[j - c] * num[j] for j in solved)
        # gcd(p den, p num_j..., s) = gcd(p, s), as gcd(den, num_j...) = 1
        g = gcd(p, s)
        f = p // g
        if f != 1:
            den *= f
            for j in solved:
                num[j] *= f
        num[c] = s // g
        solved.append(c)
    kind = "unique" if len(pivots) == n else "many"
    return kind, [Fraction(v, den) for v in num]
