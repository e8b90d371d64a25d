"""Inverses checked against exact elimination, in every signature.

The reference inverse of x solves the left-multiplication system
x * y = 1 with ``solve_exact``; x is invertible exactly when that solution
is unique. ``Multivector.inverse`` takes the quaternion kernel in H and
R(0,3) and Faddeev-LeVerrier everywhere else, with no linear solve, so
each result is compared with the reference. Seeded elements: dense ones of
small height, sparse ones of two or three blades with coefficients +-1
(often zero divisors), and planted zero divisors.
"""

import random

import pytest

from clifflag import Multivector, NotInvertible, Signature
from clifflag.linsolve import solve_exact
from util import rand_multivector

SIGNATURES = [Signature(p, m - p) for m in range(6) for p in range(m + 1)]
R06_SIGNATURES = [Signature(0, 6), Signature(1, 5), Signature(3, 3)]

# zero divisors by construction: (1 - e) (1 + e) = 0 when e^2 = +1
PLANTED = [(Signature(0, 4), "1 + e1234"), (Signature(1, 3), "1 + e14")] + [
    (sig, "1 + e1") for sig in SIGNATURES if sig.p
]


def reference_inverse(x):
    """x^-1 from the exact solve of x * y = 1, or None if it is not unique."""
    kind, solution = solve_exact(x.left_multiplication_matrix(), [1] + [0] * (x.sig.dim - 1))
    return Multivector(x.sig, solution) if kind == "unique" else None


def sparse_element(rng, sig):
    terms = rng.sample(range(sig.dim), min(sig.dim, rng.randint(2, 3)))
    return sum((Multivector.blade(sig, mask, rng.choice((-1, 1))) for mask in terms), Multivector.zero(sig))


def check_against_reference(x):
    expected = reference_inverse(x)
    assert x.is_invertible() == (expected is not None)
    if expected is None:
        with pytest.raises(NotInvertible):
            x.inverse()
        return
    inv = x.inverse()
    assert inv == expected
    assert x * inv == 1 and inv * x == 1


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_inverse_equals_elimination(sig):
    rng = random.Random(f"general inverse {sig}")
    elements = [rand_multivector(rng, sig, 2) for _ in range(3)]
    elements += [sparse_element(rng, sig) for _ in range(4)]
    elements += [Multivector.zero(sig), Multivector.scalar(sig, 3)]
    for x in elements:
        check_against_reference(x)


@pytest.mark.parametrize("sig", R06_SIGNATURES, ids=str)
def test_inverse_equals_elimination_in_dimension_six(sig):
    rng = random.Random(f"general inverse {sig}")
    for x in (rand_multivector(rng, sig, 2), sparse_element(rng, sig)):
        check_against_reference(x)


@pytest.mark.parametrize("sig, text", PLANTED, ids=[f"{sig} {text}" for sig, text in PLANTED])
def test_planted_zero_divisors(sig, text):
    x = Multivector.parse(text, sig)
    assert reference_inverse(x) is None
    check_against_reference(x)
