"""The oracle in the classical cases R(0,0) = R and R(0,1) = C.

There the algebra is a field, so n distinct points with any values have
exactly one interpolant of degree at most n - 1: classical Lagrange,
computed here on `Fraction`s and on Gaussian rationals held as pairs, with
no code of the package. `brute_force_interpolate` must give it, Fraction
for Fraction, and an affine family at every higher degree.
"""

import random
from fractions import Fraction

from clifflag import InterpolationProblem, Multivector, Signature, brute_force_interpolate

REALS = Signature(0, 0)
COMPLEX = Signature(0, 1)  # e1^2 = -1, so a + b e1 is a + b i


class Gaussian:
    """a + b i for rational a and b, held as the pair (a, b)."""

    def __init__(self, a, b=0):
        self.pair = (Fraction(a), Fraction(b))

    def __add__(self, other):
        (a, b), (c, d) = self.pair, other.pair
        return Gaussian(a + c, b + d)

    def __sub__(self, other):
        (a, b), (c, d) = self.pair, other.pair
        return Gaussian(a - c, b - d)

    def __mul__(self, other):
        (a, b), (c, d) = self.pair, other.pair
        return Gaussian(a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        (a, b), (c, d) = self.pair, other.pair
        norm = c * c + d * d
        return Gaussian((a * c + b * d) / norm, (b * c - a * d) / norm)


def classical_lagrange(points, values, zero, one):
    """Coefficients c_0..c_(n-1) of sum_j w_j prod_(k != j) (X - x_k) / (x_j - x_k)."""
    coeffs = [zero] * len(points)
    for j, (xj, wj) in enumerate(zip(points, values)):
        basis, weight = [one], wj
        for k, xk in enumerate(points):
            if k != j:
                # times (X - x_k): coefficient h is b_(h-1) - x_k b_h
                basis = [low - xk * high for high, low in zip(basis + [zero], [zero] + basis)]
                weight = weight / (xj - xk)
        coeffs = [c + weight * b for c, b in zip(coeffs, basis)]
    return coeffs


def rand_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def check_oracle(sig, points, values, expected):
    """The oracle's coefficients at degree n - 1 are `expected` (coordinate
    tuples), and every higher degree gives an affine family."""
    n = len(points)
    problem = InterpolationProblem.from_pairs(
        sig, [(Multivector(sig, x), Multivector(sig, w)) for x, w in zip(points, values)]
    )
    result = brute_force_interpolate(problem, n - 1)
    assert result.kind == "unique"
    assert [result.polynomial.coefficient(h).coeffs for h in range(n)] == expected
    for degree in (n, n + 2):
        assert brute_force_interpolate(problem, degree).kind == "affine_family"


def test_oracle_is_classical_lagrange_over_the_reals():
    rng = random.Random("classical reals")
    for n in range(1, 7):
        for _ in range(3):
            points = rng.sample(sorted({rand_fraction(rng) for _ in range(40)}), n)
            values = [rand_fraction(rng) for _ in range(n)]
            expected = classical_lagrange(points, values, Fraction(0), Fraction(1))
            check_oracle(REALS, [(x,) for x in points], [(w,) for w in values], [(c,) for c in expected])


def test_oracle_is_classical_lagrange_over_the_complex_numbers():
    rng = random.Random("classical complex")
    for n in range(1, 6):
        for _ in range(3):
            pairs = sorted({(rand_fraction(rng), rand_fraction(rng)) for _ in range(40)})
            points = rng.sample(pairs, n)
            values = [(rand_fraction(rng), rand_fraction(rng)) for _ in range(n)]
            expected = classical_lagrange(
                [Gaussian(*x) for x in points], [Gaussian(*w) for w in values], Gaussian(0), Gaussian(1)
            )
            check_oracle(COMPLEX, points, values, [c.pair for c in expected])
