"""Private exact integer arithmetic: the layout of ``Multivector`` and the
quaternion kernel for H and for the halves of R_{0,3}.

An element with coordinates c_0..c_{k-1} is the tuple (n_0, ..., n_{k-1}, d)
of integers with d > 0 and gcd(n_0, ..., n_{k-1}, d) = 1, standing for
c_h = n_h / d; zero is (0, ..., 0, 1). This is the storage of
:class:`clifflag.multivector.Multivector` in every signature, so the
helpers :func:`add`, :func:`neg` and :func:`scale` take tuples
of any length and serve both. Each works on the integer numerators and
reduces its result by one gcd, instead of one gcd per ``Fraction``
operation. :func:`divide_columns` divides integer polynomials, the
columns of a polynomial's rows, by a real integer polynomial with no
gcd: the root multiplicities of every signature.

A quaternion a0 + a1 i + a2 j + a3 k is such a tuple of length 5. The
units are i = e1, j = e2, k = e12 of R_{0,2}, so a quaternionic
``Multivector`` stores exactly its kernel tuple, and nothing is converted.
An R_{0,3} tuple splits into two quaternions, one per half of its H (+) H
split; :func:`_halves` and its inverse :func:`join_rows` are the one
place that writes out that layout.

A polynomial, a_0 first and valued as sum_h x^h a_h like
:class:`clifflag.poly.Polynomial`, lifts the layout from one coefficient
to the whole polynomial, as FLINT's ``fmpq_poly`` stores one: integer
rows over one positive denominator, a_h = rows[h] / den.

A polynomial crosses into the kernel one way, in every signature:
:func:`split_rows` puts its coefficients over the lcm of their
denominators, as the two halves of the H (+) H split in R_{0,3} and as
the coordinate numerators themselves, one half, in every other
signature. It leaves one way, :func:`join_rows`, and a single value
crosses as a polynomial of one row (:func:`split`, :func:`join`). Nothing
is reduced on the way in or inside, and each coefficient is reduced once
on the way out. Inside, every result stays unreduced: Horner's rule on
the rows (:func:`_horner`), the remainder modulo a class quadratic
(:func:`_remainder_numerators`), the root of a sphere class
(:func:`sphere_root`, which decides the class on the remainder's
numerators), :func:`inverse` and the Lagrange construction of
:mod:`clifflag.interpolate` (:class:`NewtonFrame`), whose polynomials are
such rows, with one content gcd per step and one gcd for the root or
constant a step finds; its append and its Newton step are one row
combination (:func:`_row_step`). The storage helpers above keep their
results in lowest terms, since that storage is canonical.
Conjugacy classes are read off the halves too, each as one integer key:
its quadratic L (X^2 - t X + n), primitive (:func:`class_key`). Every
class id keeps such a key, and the root search, the remainder and the
multiplicities read it as it is.

The linear-system oracle of :mod:`clifflag.interpolate` solves its
systems over H with :func:`solve_left`: fraction-free elimination on rows
of integer quaternions, whose pivots are made real by left multiplication
with their conjugates. It gives the kind and the particular solution that
``clifflag.linsolve.solve_exact`` gives on the rows' real expansion into
4x4 blocks, because that expansion's pivot columns come in whole blocks.
The oracle's rows hold unreduced integer powers of each point, with a
real positive column 0, and every row is divided by its content first;
a positive real pivot or a real multiplier then takes a path without
quaternion products that gives the same integers as the products would.
Only the width of an entry separates the two routines: both keep rows as
tails and pivot rows with their column, and back-substitute by
gcd(pivot, s).
"""

from __future__ import annotations

from itertools import chain, repeat, zip_longest
from math import gcd, lcm
from operator import add as _add, neg as _neg

from .errors import NotInvertible

_ZERO4 = (0, 0, 0, 0)


def _reduce(*a: int) -> tuple:
    """(n_0, ..., d) divided by the gcd of its entries."""
    g = gcd(*a)
    if g == 1:
        return a
    return tuple(map(g.__rfloordiv__, a))


def _halves(a: tuple) -> tuple:
    """The numerators of a's halves over a's denominator, not reduced.

    The halves of an R_{0,3} tuple are the images under the central
    idempotents (1 +- e123)/2, in the basis i = e1, j = e2, k = e12; a
    quaternion is its own single half.
    """
    if len(a) == 5:
        return (a[:4],)
    n0, n1, n2, n3, n4, n5, n6, n7, _ = a
    return (n0 + n7, n1 - n6, n2 + n5, n3 - n4), (n0 - n7, n1 + n6, n2 - n5, n3 + n4)


def class_key(a: tuple):
    """(N, M, L): the class quadratic L (X^2 - t X + n) of a, constant term
    first, primitive with L > 0, when a lies in the cone, else None; one key
    per class.

    Every quaternion lies in the cone, and the split keeps trace and norm,
    so an R_{0,3} element lies in it when its halves, over d = a[-1], share
    their real numerator h_0 and their squared norm n: trace 2 h_0 / d and
    norm n / d^2, so the key is (n, -2 h_0 d, d^2) over its gcd.
    """
    halves = _halves(a)
    h0, h1, h2, h3 = halves[0]
    n = h0 * h0 + h1 * h1 + h2 * h2 + h3 * h3
    if len(halves) == 2:
        m0, m1, m2, m3 = halves[1]
        if m0 != h0 or m0 * m0 + m1 * m1 + m2 * m2 + m3 * m3 != n:
            return None
    d = a[-1]
    m, dd = -2 * h0 * d, d * d
    g = gcd(n, m, dd)
    return n // g, m // g, dd // g


def split(a: tuple) -> tuple:
    """The halves of a as tuples over a's own denominator, not reduced: its
    H (+) H split for an R_{0,3} tuple, else a alone."""
    if len(a) == 5:
        return (a,)
    d = a[-1]
    plus, minus = _halves(a)
    return (*plus, d), (*minus, d)


def split_rows(nums: list, count: int) -> tuple[tuple[tuple[tuple, ...], ...], int]:
    """(halves, den): the ``count`` halves (2 for R_{0,3}; else 1, the
    numerators themselves, of any width) of the polynomial with coefficient
    tuples ``nums``, a_0 first, as integer rows over den, the lcm of their
    denominators, with no gcd; all tuples."""
    den = lcm(*(a[-1] for a in nums))
    parts = _halves if count == 2 else lambda a: (a[:-1],)
    halves = [[] for _ in range(count)]
    for a in nums:
        f = den // a[-1]
        for half, h in zip(halves, parts(a)):
            half.append(tuple(map(f.__mul__, h)))
    return tuple(map(tuple, halves)), den


def join(halves) -> tuple:
    """Inverse of :func:`split` on halves in any terms, reduced once: the
    one-row case of :func:`join_rows`."""
    return join_rows([((h[:-1],), h[-1]) for h in halves])[0]


def join_rows(halves) -> list[tuple]:
    """The coefficients, each reduced once, of the polynomial whose halves
    are the (rows, den) pairs ``halves``: one half's rows of any width over
    den, or the R_{0,3} tuples (h+ + h-)/2 in blade order over one lcm of
    the two denominators, a shorter half padded with zero rows; a value is
    a polynomial of one row (:func:`join`)."""
    if len(halves) == 1:
        ((rows, den),) = halves
        return [_reduce(*row, den) for row in rows]
    (p, pd), (m, md) = halves
    d = lcm(pd, md)
    fp, fm = d // pd, d // md
    out = []
    for (p0, p1, p2, p3), (m0, m1, m2, m3) in zip_longest(p, m, fillvalue=_ZERO4):
        p0, p1, p2, p3, m0, m1, m2, m3 = p0 * fp, p1 * fp, p2 * fp, p3 * fp, m0 * fm, m1 * fm, m2 * fm, m3 * fm
        # blade order: 1, e1, e2, e12, e3, e13, e23, e123
        out.append(_reduce(p0 + m0, p1 + m1, p2 + m2, p3 + m3, m3 - p3, p2 - m2, m1 - p1, p0 - m0, 2 * d))
    return out


def add(a: tuple, b: tuple) -> tuple:
    # map stops at a's numerators, so b's denominator is never summed
    ad, bd = a[-1], b[-1]
    if ad == bd:
        return _reduce(*map(_add, a[:-1], b), ad)
    return _reduce(*map(_add, map(bd.__mul__, a[:-1]), map(ad.__mul__, b)), ad * bd)


def neg(a: tuple) -> tuple:
    return (*map(_neg, a[:-1]), a[-1])


def scale(a: tuple, q) -> tuple:
    """a times the rational number q (an int or a ``Fraction``)."""
    return _reduce(*map(q.numerator.__mul__, a[:-1]), a[-1] * q.denominator)


def inverse(a: tuple) -> tuple:
    """d conj(n) / |n|^2, not reduced; raises NotInvertible for zero."""
    a0, a1, a2, a3, ad = a
    norm = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
    if not norm:
        raise NotInvertible("0")
    return ad * a0, -ad * a1, -ad * a2, -ad * a3, norm


def _horner(rows: list, den: int, x: tuple) -> tuple:
    """P(x) = sum_h x^h a_h for a_h = rows[h] / den, as a tuple not reduced:
    the value's integer numerators over den x_d^k, for P of degree k.

    The rows are integer 4-tuples over one positive denominator, as
    :func:`split_rows` gives them, and x = (x_0..x_3) / x_d need not be
    in lowest terms. Horner's rule from the top keeps the powers of x
    left: the accumulator is an integer quaternion A over den x_d^k, and

        A' = x A + x_d^(k+1) c_k    (over den x_d^(k+1)),

    so no gcd runs at all.
    """
    if not rows:
        return (0, 0, 0, 0, den)
    x0, x1, x2, x3, xd = x
    a0, a1, a2, a3 = rows[-1]
    power = 1  # x_d^k
    for c0, c1, c2, c3 in reversed(rows[:-1]):
        power *= xd
        a0, a1, a2, a3 = (
            x0 * a0 - x1 * a1 - x2 * a2 - x3 * a3 + power * c0,
            x0 * a1 + x1 * a0 + x2 * a3 - x3 * a2 + power * c1,
            x0 * a2 - x1 * a3 + x2 * a0 + x3 * a1 + power * c2,
            x0 * a3 + x1 * a2 - x2 * a1 + x3 * a0 + power * c3,
        )
    return a0, a1, a2, a3, den * power


def _remainder_numerators(rows: list, key: tuple) -> tuple[tuple, tuple, int]:
    """(B, A, L^k): the integer numerators of P's remainder b + X a modulo
    X^2 - t X + n, for P's rows over the denominator den: b = B / (den L^k)
    and a = A / (den L^k).

    The class is its key (N, M, L) from :func:`class_key`, the primitive
    L X^2 + M X + N = L (X^2 - t X + n). Horner's rule from the top keeps
    b + X a congruent to the part of P read so far, since
    (b + X a) X + c = X (b + t a) + (c - n a) modulo the divisor, so the
    step runs on integers A, B over den L^k:

        A' = L B - M A,    B' = L^(k+1) C - N A    (over den L^(k+1)),

    and no gcd runs at all.
    """
    if not rows:
        return _ZERO4, _ZERO4, 1
    N, M, L = key
    a0 = a1 = a2 = a3 = 0
    b0, b1, b2, b3 = rows[-1]
    power = 1  # L^k
    for c0, c1, c2, c3 in reversed(rows[:-1]):
        power *= L
        a0, a1, a2, a3, b0, b1, b2, b3 = (
            L * b0 - M * a0,
            L * b1 - M * a1,
            L * b2 - M * a2,
            L * b3 - M * a3,
            power * c0 - N * a0,
            power * c1 - N * a1,
            power * c2 - N * a2,
            power * c3 - N * a3,
        )
    return (b0, b1, b2, b3), (a0, a1, a2, a3), power


def sphere_root(rows: list, key: tuple):
    """The root in the class with key (N, M, L) of P, a polynomial over H
    given by integer rows over any positive denominator: a quaternion, not
    reduced, ``None`` when the whole class is roots, or ``False`` when it
    holds none.

    P agrees on the class with its remainder b + X a modulo X^2 - t X + n,
    so a root solves x a + b = 0. b and a share one denominator, which
    cancels: with B and A their numerators from
    :func:`_remainder_numerators`, the only candidate is

        x = -b a^-1 = -B conj(A) / N(A),

    with trace -2 <B, A> / N(A) and norm N(B) / N(A). As t = -M / L and
    n = N / L, x lies in the class exactly when 2 <B, A> L = M N(A) and
    N(B) L = N N(A), and a probe without a root takes no gcd, inverse or
    product; A = 0 leaves the whole class (B = 0) or nothing. A found root
    is the product B (-a_0, a_1, a_2, a_3) = -B conj(A) over N(A) > 0,
    which reduces to -b a^-1 in lowest terms.
    """
    (b0, b1, b2, b3), (a0, a1, a2, a3), _ = _remainder_numerators(rows, key)
    norm = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
    if not norm:
        return None if not (b0 or b1 or b2 or b3) else False
    N, M, L = key
    dot = b0 * a0 + b1 * a1 + b2 * a2 + b3 * a3
    if 2 * dot * L != M * norm or (b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3) * L != N * norm:
        return False
    return (*_product((b0, b1, b2, b3), (-a0, a1, a2, a3)), norm)


def divide_columns(columns, divisor: tuple):
    """The quotients of ``columns``, integer polynomials a_0 first, one per
    coordinate, by the primitive integer polynomial sum_k divisor[k] X^k
    of degree m = len(divisor) - 1, whose leading coefficient
    l = divisor[m] is positive, as lists; ``None`` as soon as one column
    leaves a nonzero remainder, so no later column is divided.

    Synthetic division from the top: the quotient's next coefficient is
    the top working entry over l, and divisor[k] times it is taken off the
    entry m - k below. By Gauss's lemma a primitive divisor of an integer
    polynomial leaves an integer quotient, so the first top entry that l
    does not divide shows that the divisor does not divide the polynomial;
    no gcd runs at all.
    """
    m = len(divisor) - 1
    lead, lower = divisor[m], divisor[:m]
    quotients = []
    for work in columns:
        work = list(work)
        quotient = work[m:]
        for i in range(len(work) - 1, m - 1, -1):
            w = work[i]
            if w % lead:
                return None
            q = quotient[i - m] = w // lead
            if q:
                for k, e in enumerate(lower, i - m):
                    work[k] -= e * q
        if any(work[:m]):
            return None
        quotients.append(quotient)
    return quotients


def _product(a: tuple, b: tuple) -> tuple:
    """The Hamilton product of two integer 4-tuples, with ij = k, jk = i
    and ki = j, not reduced. The constants that run once per node or per
    solved unknown come from here; the loops that run once per coefficient
    (:func:`_row_step`, :func:`_horner`, the elimination of
    :func:`solve_left`) write the same sums out, saving a call each."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def _row_step(f: int, us, vs, c: tuple, den: int) -> tuple[list, int]:
    """The rows f u_h + v_h c over den, divided by their content: the one
    row step of :class:`NewtonFrame`, both for an append (u the rows of T
    shifted up one degree, v those of T and c = -r for the root r) and for
    a Newton step (u those of P, v those of T and c the step's constant),
    one row per pair that ``zip(us, vs)`` gives."""
    c0, c1, c2, c3 = c
    return _primitive(
        [
            (
                f * u0 + v0 * c0 - v1 * c1 - v2 * c2 - v3 * c3,
                f * u1 + v0 * c1 + v1 * c0 + v2 * c3 - v3 * c2,
                f * u2 + v0 * c2 - v1 * c3 + v2 * c0 + v3 * c1,
                f * u3 + v0 * c3 + v1 * c2 - v2 * c1 + v3 * c0,
            )
            for (u0, u1, u2, u3), (v0, v1, v2, v3) in zip(us, vs)
        ],
        den,
    )


def _primitive(rows: list, den: int = 0) -> tuple[list, int]:
    """Integer 4-tuples and their denominator divided by the gcd of all
    their entries and den: one content gcd for a whole polynomial. A bare
    row of equations passes den = 0, which leaves the gcd to its entries.
    """
    g = gcd(den, *chain.from_iterable(rows))
    if g > 1:
        return [(a // g, b // g, c // g, d // g) for a, b, c, d in rows], den // g
    return rows, den


def solve_left(rows: list) -> tuple:
    """Solve the equations sum_h r_h a_h = w exactly for quaternions a_h.

    Each row is ``[r_0, ..., r_(n-1), w]``, integer 4-tuples: one equation,
    scaled to integers, whose unknowns a_h stand right of their
    coefficients. Returns ``(kind, solution)`` as
    :func:`clifflag.linsolve.solve_exact` does: kind is ``"unique"``,
    ``"none"`` or ``"many"``, and a consistent system gives the n unknowns
    as ``(rows, den)``, integer 4-tuples over one positive denominator
    with gcd(den, all numerators) = 1, every free unknown zero (``None``
    for ``"none"``).

    Fraction-free elimination over the skew field H, after Bareiss:
    the pivot row is multiplied on the left by conj(p), so its pivot
    becomes the real N(p) = p conj(p); a row with f in the pivot column
    becomes N row - f top, and every row is divided by its content. Both
    steps multiply equations on the left or add them, which keeps the
    solutions. Every row is primitive once divided by its content, so a
    positive real pivot p gives top = row, which is conj(p) row over its
    content p, with no product and no gcd (a negative one takes the
    product, whose content division gives -row); a real multiplier f gives
    N x - f_0 v per entry, the same integers as the Hamilton product with
    four multiplications instead of sixteen. Every intermediate row is
    therefore the one the products would give, kept as its tail as
    ``solve_exact`` keeps its rows: at column c a row holds only columns
    c..n, and each pivot row is kept as ``(c, row)``. A real pivot is
    central, so back-substitution keeps integer numerators over one shared
    denominator in lowest terms, as ``solve_exact`` does: unknown c is
    s / (N den) over the num_j / den solved before it, and
    gcd(N den, N num_j..., s) = gcd(N, s) = g, so the step stores s / g
    and multiplies den and the num_j by N / g.

    The result equals ``solve_exact`` on the real expansion (each r_h
    its 4x4 matrix of b -> r_h b). The span of that matrix's columns for
    a_0..a_(h-1) is closed under right multiplication by H, so the a_h
    that its block's columns move out of that span form a right ideal of
    H: all of H or zero. The real pivot columns therefore come in whole
    blocks, one per quaternionic pivot, and zero real free variables are
    zero free quaternion unknowns: same kind, same particular solution.
    """
    n = len(rows[0]) - 1 if rows else 0
    # the rows not yet pivoted, each holding only its columns c..n at step c
    rest = [_primitive(row)[0] for row in rows]
    pivots = []  # (c, the pivot row on its columns c..n)
    for c in range(n):
        pivot = next((i for i, row in enumerate(rest) if row[0] != _ZERO4), None)
        if pivot is None:
            rest = [row[1:] for row in rest]
            continue
        top = rest.pop(pivot)
        p0, p1, p2, p3 = top[0]
        if p1 or p2 or p3 or p0 < 0:
            top = _primitive(
                [
                    (
                        p0 * v0 + p1 * v1 + p2 * v2 + p3 * v3,
                        p0 * v1 - p1 * v0 - p2 * v3 + p3 * v2,
                        p0 * v2 + p1 * v3 - p2 * v0 - p3 * v1,
                        p0 * v3 - p1 * v2 + p2 * v1 - p3 * v0,
                    )
                    for v0, v1, v2, v3 in top
                ]
            )[0]
        norm = top[0][0]
        tail = top[1:]
        for i, row in enumerate(rest):
            f0, f1, f2, f3 = row[0]
            entries = zip(row[1:], tail)
            if f1 or f2 or f3:
                new = [
                    (
                        norm * x0 - (f0 * v0 - f1 * v1 - f2 * v2 - f3 * v3),
                        norm * x1 - (f0 * v1 + f1 * v0 + f2 * v3 - f3 * v2),
                        norm * x2 - (f0 * v2 - f1 * v3 + f2 * v0 + f3 * v1),
                        norm * x3 - (f0 * v3 + f1 * v2 - f2 * v1 + f3 * v0),
                    )
                    for (x0, x1, x2, x3), (v0, v1, v2, v3) in entries
                ]
            elif f0:
                new = [
                    (norm * x0 - f0 * v0, norm * x1 - f0 * v1, norm * x2 - f0 * v2, norm * x3 - f0 * v3)
                    for (x0, x1, x2, x3), (v0, v1, v2, v3) in entries
                ]
            else:
                rest[i] = row[1:]
                continue
            rest[i] = _primitive(new)[0]
        pivots.append((c, top))

    if any(row[-1] != _ZERO4 for row in rest):
        return "none", None

    # a_c = num[c] / den, the free unknowns zero
    num = [_ZERO4] * n
    den = 1
    solved = []
    for c, row in reversed(pivots):
        s0, s1, s2, s3 = map(den.__mul__, row[-1])
        for j in solved:
            y0, y1, y2, y3 = _product(row[j - c], num[j])
            s0, s1, s2, s3 = s0 - y0, s1 - y1, s2 - y2, s3 - y3
        norm = row[0][0]
        g = gcd(norm, s0, s1, s2, s3)
        f = norm // g
        if f != 1:
            den *= f
            for j in solved:
                num[j] = tuple(map(f.__mul__, num[j]))
        num[c] = (s0 // g, s1 // g, s2 // g, s3 // g)
        solved.append(c)
    return "unique" if len(pivots) == n else "many", (num, den)


class NewtonFrame:
    """Nodes x_i with T_i and T_i(x_i), built one node at a time.

    T_0 = 1 and T_{i+1} = T_i (X - T_i(x_i)^-1 x_i T_i(x_i)), which vanishes
    at x_i and wherever T_i does. The append reuses the value that the
    frame stored for x_i, and runs only once a later node arrives.

    Every polynomial of the frame, each T_i and the P that :meth:`solve`
    builds, is kept as integer 4-tuple rows over one positive denominator,
    with the gcd of all entries and the denominator equal to 1: each step
    takes one content gcd for the whole polynomial, not one per coefficient.
    Nodes and values are kernel tuples that need not be in lowest terms,
    such as the halves of an R_{0,3} element over its own denominator
    (:func:`split`). T_i(x_i) is kept as :func:`_horner` gives
    it, integer numerators A over a denominator D, with N(A) = A conj(A):
    its inverse is D conj(A) / N(A), so neither step inverts or reduces
    T_i(x_i), and each reduces once, the root of an append or the
    constant of a Newton step. Both steps then combine rows the same way,
    f U + V c over a denominator (:func:`_row_step`): an append with
    U = X T, V = T and c = -r, a Newton step with U = P, V = T and c its
    constant.
    """

    def __init__(self):
        self.nodes: list[tuple] = []  # (x, T rows, T denominator, T(x) as _horner gives it, N(A))

    def add_node(self, x: tuple):
        """Append node x; raises NotInvertible when T(x) is zero."""
        if self.nodes:
            y, t, den, (a0, a1, a2, a3, _), norm = self.nodes[-1]
            # the root T(y)^-1 y T(y) is conj(A) y A / (N(A) y_d)
            u = _product((a0, -a1, -a2, -a3), y[:4])
            r0, r1, r2, r3, rd = _reduce(*_product(u, (a0, a1, a2, a3)), norm * y[4])
            # T (X - r / rd) over den rd: coefficient h is rd t_(h-1) - t_h r
            t, den = _row_step(rd, chain((_ZERO4,), t), chain(t, (_ZERO4,)), (-r0, -r1, -r2, -r3), den * rd)
        else:
            t, den = [(1, 0, 0, 0)], 1
        tx = _horner(t, den, x)
        a0, a1, a2, a3, _ = tx
        norm = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
        if not norm:
            raise NotInvertible("0")
        self.nodes.append((x, t, den, tx, norm))

    def solve(self, values) -> tuple[list, int]:
        """The polynomial within the frame's degree taking ``values`` at its
        nodes, as primitive rows over one denominator: P += T (T(x)^-1 (w -
        P(x))) node by node.

        With P(x) = B / D from :func:`_horner` and w = m / w_d, the residual
        is (m D - w_d B) / (w_d D), and the constant c = T(x)^-1 times it is
        reduced once. P's rows are added over the lcm of the two
        denominators; :func:`join_rows` reduces each coefficient.
        """
        rows: list[tuple] = []
        den = 1
        for (x, t, tden, (a0, a1, a2, a3, ad), norm), (w0, w1, w2, w3, wd) in zip(self.nodes, values):
            b0, b1, b2, b3, bd = _horner(rows, den, x)
            r = w0 * bd - wd * b0, w1 * bd - wd * b1, w2 * bd - wd * b2, w3 * bd - wd * b3
            if not any(r):
                continue
            # c = D_T conj(A) R / (N(A) w_d D)
            c0, c1, c2, c3, cd = _reduce(*map(ad.__mul__, _product((a0, -a1, -a2, -a3), r)), norm * wd * bd)
            # T c is t_h c over tden cd; bring P and T c over their lcm
            common = lcm(den, tden * cd)
            f, g = common // den, common // (tden * cd)
            # P is shorter than T, so its missing rows are zero
            rows, den = _row_step(f, chain(rows, repeat(_ZERO4)), t, (g * c0, g * c1, g * c2, g * c3), common)
        return rows, den
