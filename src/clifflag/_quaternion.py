"""Private exact integer arithmetic: the layout of ``Multivector`` and the
quaternion kernel for H and for the halves of R_{0,3}.

An element with coordinates c_0..c_{k-1} is the tuple (n_0, ..., n_{k-1}, d)
of integers with d > 0 and gcd(n_0, ..., n_{k-1}, d) = 1, standing for
c_h = n_h / d; zero is (0, ..., 0, 1). This is the storage of
:class:`clifflag.multivector.Multivector` in every signature, so the
helpers :func:`add`, :func:`neg`, :func:`sub` and :func:`scale` take tuples
of any length and serve both. Each works on the integer numerators and
reduces its result by one gcd, instead of one gcd per ``Fraction``
operation.

A quaternion a0 + a1 i + a2 j + a3 k is such a tuple of length 5. The
units are i = e1, j = e2, k = e12 of R_{0,2}, so a quaternionic
``Multivector`` stores exactly its kernel tuple, and nothing is converted.
An R_{0,3} tuple splits into two quaternions, one per half of its H (+) H
split (:func:`split`, :func:`join`), the one place that writes out that
layout.

A polynomial is a list of quaternions, a_0 first, valued as sum_h x^h a_h
like :class:`clifflag.poly.Polynomial`. The kernel serves the Lagrange
construction, through :class:`NewtonFrame`, the Newton frame of
:mod:`clifflag.interpolate`, the root search and root census of
:mod:`clifflag.poly`, through :func:`remainder_mod_quadratic` and
:func:`in_class`, and the linear-system oracle of
:mod:`clifflag.interpolate`, through the integer rows of :func:`left_rows`.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import add as _add, neg as _neg

from .errors import NotInvertible

ZERO = (0, 0, 0, 0, 1)
ONE = (1, 0, 0, 0, 1)


def _reduce(*a: int) -> tuple:
    """(n_0, ..., d) divided by the gcd of its entries."""
    g = gcd(*a)
    if g == 1:
        return a
    return tuple(map(g.__rfloordiv__, a))


def split(a: tuple) -> tuple:
    """The halves of a: its H (+) H split for an R_{0,3} tuple, else a alone.

    The halves are the images under the central idempotents (1 +- e123)/2,
    in the basis i = e1, j = e2, k = e12; each is reduced by one gcd.
    """
    if len(a) == 5:
        return (a,)
    n0, n1, n2, n3, n4, n5, n6, n7, d = a
    return (
        _reduce(n0 + n7, n1 - n6, n2 + n5, n3 - n4, d),
        _reduce(n0 - n7, n1 + n6, n2 - n5, n3 + n4, d),
    )


def join(halves) -> tuple:
    """Inverse of :func:`split`: the R_{0,3} tuple is (h+ + h-)/2 in blade order."""
    if len(halves) == 1:
        return halves[0]
    (p0, p1, p2, p3, pd), (m0, m1, m2, m3, md) = halves
    d = lcm(pd, md)
    fp, fm = d // pd, d // md
    p0, p1, p2, p3 = p0 * fp, p1 * fp, p2 * fp, p3 * fp
    m0, m1, m2, m3 = m0 * fm, m1 * fm, m2 * fm, m3 * fm
    return _reduce(
        p0 + m0,  # 1
        p1 + m1,  # e1
        p2 + m2,  # e2
        p3 + m3,  # e12
        m3 - p3,  # e3
        p2 - m2,  # e13
        m1 - p1,  # e23
        p0 - m0,  # e123
        2 * d,
    )


def add(a: tuple, b: tuple) -> tuple:
    # map stops at a's numerators, so b's denominator is never summed
    ad, bd = a[-1], b[-1]
    if ad == bd:
        return _reduce(*map(_add, a[:-1], b), ad)
    return _reduce(*map(_add, map(bd.__mul__, a[:-1]), map(ad.__mul__, b)), ad * bd)


def neg(a: tuple) -> tuple:
    return (*map(_neg, a[:-1]), a[-1])


def sub(a: tuple, b: tuple) -> tuple:
    return add(a, neg(b))


def mul(a: tuple, b: tuple) -> tuple:
    """The Hamilton product, with ij = k, jk = i and ki = j."""
    a0, a1, a2, a3, ad = a
    b0, b1, b2, b3, bd = b
    return _reduce(
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        ad * bd,
    )


def left_rows(a: tuple, factor: int) -> tuple:
    """The matrix of b -> a b times ``factor`` * d, as integer rows.

    Row k holds the coordinate k of a times each unit (1, i, j, k), read
    off :func:`mul`; d is a's denominator, so the entries are the
    numerators of a times ``factor``.
    """
    a0, a1, a2, a3 = (v * factor for v in a[:4])
    return (a0, -a1, -a2, -a3), (a1, a0, -a3, a2), (a2, a3, a0, -a1), (a3, -a2, a1, a0)


def scale(a: tuple, q) -> tuple:
    """a times the rational number q (an int or a ``Fraction``)."""
    return _reduce(*map(q.numerator.__mul__, a[:-1]), a[-1] * q.denominator)


def inverse(a: tuple) -> tuple:
    """d conj(n) / |n|^2; raises NotInvertible for zero."""
    a0, a1, a2, a3, ad = a
    norm = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
    if not norm:
        raise NotInvertible("0")
    return _reduce(ad * a0, -ad * a1, -ad * a2, -ad * a3, norm)


def evaluate(poly: list, x: tuple) -> tuple:
    """sum_h x^h a_h by Horner's rule from the top; powers stay left."""
    if not poly:
        return ZERO
    acc = poly[-1]
    for a in reversed(poly[:-1]):
        acc = add(mul(x, acc), a)
    return acc


def in_class(a: tuple, t, n) -> bool:
    """Whether a has trace t and norm n: 2 n_0 / d = t and sum n_h^2 / d^2 = n."""
    a0, a1, a2, a3, ad = a
    return (
        2 * a0 * t.denominator == t.numerator * ad
        and (a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3) * n.denominator == n.numerator * ad * ad
    )


def remainder_mod_quadratic(poly: list, t, n) -> tuple[tuple, tuple]:
    """(b, a) with poly = Q (X^2 - t X + n) + b + X a, for rational t and n.

    The divisor is real, so it is central and Q is the same on either side.
    """
    rem = list(poly) + [ZERO] * (2 - len(poly))
    for i in range(len(rem) - 1, 1, -1):
        c = rem[i]
        if c != ZERO:
            if t:
                rem[i - 1] = add(rem[i - 1], scale(c, t))
            if n:
                rem[i - 2] = sub(rem[i - 2], scale(c, n))
    return rem[0], rem[1]


class NewtonFrame:
    """Nodes x_i with T_i and T_i(x_i)^-1, built one node at a time.

    T_0 = 1 and T_{i+1} = T_i (X - T_i(x_i)^-1 x_i T_i(x_i)), which vanishes
    at x_i and wherever T_i does. The append reuses the value and inverse
    that the frame stored for x_i, and runs only once a later node arrives.
    """

    def __init__(self):
        self.nodes: list[tuple] = []  # (x, T, T(x), T(x)^-1)

    def add_node(self, x: tuple):
        """Append node x; raises NotInvertible when T(x) is zero."""
        if self.nodes:
            y, t, ty, ty_inv = self.nodes[-1]
            root = mul(mul(ty_inv, y), ty)
            tc = [mul(a, root) for a in t]
            # T (X - c): coefficient h is t_(h-1) - t_h c
            t = [neg(tc[0])] + [sub(a, b) for a, b in zip(t, tc[1:])] + [t[-1]]
        else:
            t = [ONE]
        tx = evaluate(t, x)
        self.nodes.append((x, t, tx, inverse(tx)))

    def solve(self, values) -> list[tuple]:
        """Coefficients of the polynomial within the frame's degree taking
        ``values`` at its nodes: P += T (T(x)^-1 (w - P(x))) node by node."""
        poly: list[tuple] = []
        for (x, t, _, t_inv), w in zip(self.nodes, values):
            residual = sub(w, evaluate(poly, x))
            if residual == ZERO:
                continue
            c = mul(t_inv, residual)
            step = [mul(a, c) for a in t]
            poly = [add(a, b) for a, b in zip(poly, step)] + step[len(poly):]
        return poly
