"""Rational points on conjugacy-class spheres.

Sphere classes rarely admit a closed-form rational parametrisation, but two
standard tricks give plenty of exact sample points:

* stereographic projection turns any rational parameter pair into a
  rational unit vector, so the square roots of -1 can be sampled freely;
* reflecting a known rational vector v0 across planes keeps its length, so
  once one rational point of a sphere |v| = r is known, so are many others.

Vectors here are coordinate triples of Fractions; the quaternion basis is
the package-wide embedding i = e1, j = e2, k = e12. One integer loop runs
on a kernel quaternion (c0, c, D): the reflection of its vector part in the
plane normal to an integer direction u is (c0 |u|^2, c |u|^2 - 2 (c . u) u,
D |u|^2), reduced by one gcd, so reduced tuples also serve as the keys that
remove duplicates. :func:`reflect_through` reads its vector parts as
Fractions; :func:`quaternion_class_points` wraps a class member's as they are.
"""

from __future__ import annotations

from fractions import Fraction

from ._quaternion import _reduce
from .multivector import QUATERNIONS, Multivector, from_quaternion_pair


# parameter values for stereographic enumeration, small denominators first
_PARAMS = (
    Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
    Fraction(2), Fraction(-2), Fraction(1, 3), Fraction(-1, 3), Fraction(3),
    Fraction(2, 3), Fraction(-2, 3), Fraction(3, 2), Fraction(1, 4), Fraction(4),
)

_REFLECT_DIRS = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, 0, 1), (0, 1, 1),
    (1, -1, 0), (1, 0, -1), (0, 1, -1),
    (1, 1, 1), (1, 2, 3), (2, -1, 1),
)


def rational_unit_vectors(count: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Deterministic rational unit 3-vectors; starts with (1,0,0), (0,1,0), (0,0,1)."""
    out = []
    seen = set()
    for n in range(len(_PARAMS) ** 2):
        if len(out) >= count:
            break
        u = _PARAMS[n % len(_PARAMS)]
        v = _PARAMS[(n // len(_PARAMS)) % len(_PARAMS)]
        d = 1 + u * u + v * v
        vec = ((1 - u * u - v * v) / d, 2 * u / d, 2 * v / d)
        if vec not in seen:
            seen.add(vec)
            out.append(vec)
    if len(out) < count:
        raise ValueError(f"cannot produce {count} distinct sample vectors")
    return out


def _reflections(q: tuple, limit: int | None) -> list[tuple]:
    """The reduced kernel quaternion q, then its vector part's reflections in
    its own normal plane (the antipode) and those normal to ``_REFLECT_DIRS``,
    each with q's real part; no duplicates. q and its antipode always come
    back; the list stops at ``limit`` entries only after them."""
    c0, c1, c2, c3, den = q
    out = [q]
    seen = {q}
    for u1, u2, u3 in ((c1, c2, c3),) + _REFLECT_DIRS:
        uu = u1 * u1 + u2 * u2 + u3 * u3
        if not uu:
            continue
        cu2 = 2 * (c1 * u1 + c2 * u2 + c3 * u3)
        w = _reduce(c0 * uu, c1 * uu - cu2 * u1, c2 * uu - cu2 * u2, c3 * uu - cu2 * u3, den * uu)
        if w not in seen:
            seen.add(w)
            out.append(w)
        if limit is not None and len(out) >= limit:
            break
    return out


def reflect_through(v0, limit: int | None = None) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Rational vectors of the same length as v0, via reflections of v0.

    The list starts with v0 itself and contains its antipode; duplicates
    are removed while preserving order.
    """
    points = _reflections(Multivector(QUATERNIONS, (0, *v0))._num, limit)
    return [(Fraction(w1, d), Fraction(w2, d), Fraction(w3, d)) for _, w1, w2, w3, d in points]


def quaternion_from_parts(alpha, vec) -> Multivector:
    """The quaternion alpha + v1*i + v2*j + v3*k."""
    alpha = Fraction(alpha)
    v = [Fraction(c) for c in vec]
    return Multivector(QUATERNIONS, (alpha, v[0], v[1], v[2]))


def vector_part(h: Multivector) -> tuple[Fraction, Fraction, Fraction]:
    """Coordinate triple of the imaginary part of a quaternion."""
    return h.coeffs[1], h.coeffs[2], h.coeffs[3]


def quaternion_class_points(x: Multivector, count: int) -> list[Multivector]:
    """Up to ``count`` points of the class of the quaternion x, x first: its
    reflections from :func:`_reflections`, so x and its antipode always come
    back. Raises WrongSignature outside H."""
    x._require_sig(QUATERNIONS, "quaternion_class_points")
    return [Multivector._wrap(QUATERNIONS, w) for w in _reflections(x._num, count)]


def square_roots_of_minus_one(count: int) -> list[Multivector]:
    """Rational quaternionic square roots of -1."""
    return [quaternion_from_parts(0, v) for v in rational_unit_vectors(count)]


def r03_cone_point(alpha, beta, unit_plus, unit_minus) -> Multivector:
    """A quadratic-cone element of R_{0,3} with trace 2*alpha and norm alpha^2+beta^2.

    `unit_plus` and `unit_minus` are rational unit vectors selecting the two
    quaternionic components alpha + beta*K.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    hp = quaternion_from_parts(alpha, [beta * c for c in unit_plus])
    hm = quaternion_from_parts(alpha, [beta * c for c in unit_minus])
    return from_quaternion_pair(hp, hm)


def r03_square_roots_of_minus_one(count: int) -> list[Multivector]:
    """Rational square roots of -1 inside the quadratic cone of R_{0,3}."""
    units = rational_unit_vectors(max(3, count))
    out = []
    n = len(units)
    k = 0
    while len(out) < count and k < n * n:
        up = units[k % n]
        um = units[(k // n + k) % n]
        x = r03_cone_point(0, 1, up, um)
        if x not in out:
            out.append(x)
        k += 1
    return out
