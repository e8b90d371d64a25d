"""Pinned oracle witnesses in signatures other than H and R(0,3).

Two points, 0 and u = 1 + e with e^2 = +1, so u is a zero divisor. The
oracle's kind is pinned at degrees 1 to 3, and the particular polynomial
of the one family at degree 1. These are witnesses only: nothing here
classifies the problems of any signature. Outside H and R(0,3) the oracle
has no default degree bound, so every call here passes one.
"""

import pytest

from clifflag import (
    InterpolationProblem,
    Multivector,
    Polynomial,
    Signature,
    UnsupportedSignature,
    brute_force_interpolate,
    verify_interpolant,
)


def two_point_problem(sig, point, value):
    zero = Multivector.zero(sig)
    pairs = [(zero, zero), (Multivector.parse(point, sig), Multivector.parse(value, sig))]
    return InterpolationProblem.from_pairs(sig, pairs)


NONE_WITNESSES = [
    (Signature(1, 0), "1 + e1", "1"),
    (Signature(0, 4), "1 + e1234", "1"),
    (Signature(1, 1), "1 + e1", "e2"),
]


@pytest.mark.parametrize("sig, point, value", NONE_WITNESSES, ids=[str(w[0]) for w in NONE_WITNESSES])
@pytest.mark.parametrize("degree", (1, 2, 3))
def test_zero_divisor_point_has_no_interpolant(sig, point, value, degree):
    problem = two_point_problem(sig, point, value)
    assert not Multivector.parse(point, sig).is_invertible()
    result = brute_force_interpolate(problem, max_degree=degree)
    assert result.kind == "none"
    assert result.polynomial is None


@pytest.mark.parametrize("degree", (1, 2, 3))
def test_value_in_the_zero_divisors_ideal_gives_a_family(degree):
    sig = Signature(1, 0)
    problem = two_point_problem(sig, "1 + e1", "1 + e1")
    result = brute_force_interpolate(problem, max_degree=degree)
    assert result.kind == "affine_family"
    assert verify_interpolant(result.polynomial, problem)
    if degree == 1:
        assert result.polynomial == Polynomial.parse("X^1*(1)", sig)
        assert str(result.polynomial) == "X^1*(1)"


def test_oracle_needs_a_degree_bound_outside_h_and_r03():
    # the default bound is the construction's, which these signatures lack;
    # with a bound the same problem is solved
    sig = Signature(1, 1)
    pair = (Multivector.parse("e1", sig), Multivector.parse("e2", sig))
    problem = InterpolationProblem.from_pairs(sig, [pair])
    with pytest.raises(UnsupportedSignature, match=r"required in R\(1,1\), outside H and R\(0,3\)"):
        brute_force_interpolate(problem)
    result = brute_force_interpolate(problem, max_degree=0)
    assert result.kind == "unique"
    assert result.polynomial == Polynomial.parse("(e2)", sig)
