"""Property tests for the text grammars, for division by real polynomials,
and for the Lagrange construction against the linear-system oracle.

Derandomized with few examples, so the suite stays deterministic and fast.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clifflag import (
    CollinearityViolated,
    InterpolationProblem,
    Multivector,
    OracleResult,
    ParseError,
    Polynomial,
    QUATERNIONS,
    R03,
    brute_force_interpolate,
    divide_by_real,
    group_by_class,
    interpolate,
    lagrange_basis,
    verify_interpolant,
)
from clifflag.classpoints import quaternion_from_parts, r03_cone_point
from util import random_h_problem, random_h_problem_with_violation

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

# Zero and unit magnitudes are over-weighted: they take the formatter's
# omitted-term and bare-blade branches.
fractions = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
)
signatures = st.sampled_from([QUATERNIONS, R03])


def multivectors(sig):
    return st.lists(fractions, min_size=sig.dim, max_size=sig.dim).map(
        lambda coeffs: Multivector(sig, coeffs)
    )


def polynomials(sig, max_size=4):
    coefficient = st.one_of(st.just(Multivector.zero(sig)), multivectors(sig))
    return st.lists(coefficient, max_size=max_size).map(lambda coeffs: Polynomial(sig, coeffs))


@PROPERTY_SETTINGS
@given(signatures.flatmap(multivectors))
def test_multivector_text_round_trip(x):
    text = str(x)
    assert x.format(str) == text
    assert Multivector.parse(text, x.sig) == x
    assert Multivector.parse(f" {text} ", x.sig) == x


@PROPERTY_SETTINGS
@given(signatures.flatmap(polynomials))
def test_polynomial_text_round_trip(p):
    text = str(p)
    assert p.format(str) == text
    assert Polynomial.parse(text, p.sig) == p
    assert Polynomial.parse(f" {text} ", p.sig) == p


# One lexical rule for both grammars: ASCII whitespace between tokens is
# ignored, any other whitespace is a parse error.
ASCII_SPACE = st.text(st.sampled_from(" \t\n"), min_size=1, max_size=3)
FOREIGN_SPACE = st.sampled_from(["\u00a0", "\u2003", "\u3000"])


def with_space(text, data, space):
    """``text`` with ``space`` at its start, its end, or beside one of its signs."""
    signs = [k for k, ch in enumerate(text) if ch in "+-"]
    places = {0, len(text), *signs, *(k + 1 for k in signs)}
    at = data.draw(st.sampled_from(sorted(places)))
    return text[:at] + space + text[at:]


@PROPERTY_SETTINGS
@given(signatures.flatmap(multivectors), st.data())
def test_multivector_text_whitespace_rule(x, data):
    spaced = with_space(str(x), data, data.draw(ASCII_SPACE))
    assert Multivector.parse(spaced, x.sig) == x
    assert Polynomial.parse(spaced, x.sig) == Polynomial.constant(x)
    foreign = with_space(str(x), data, data.draw(FOREIGN_SPACE))
    for parse in (Multivector.parse, Polynomial.parse):
        with pytest.raises(ParseError):
            parse(foreign, x.sig)


@PROPERTY_SETTINGS
@given(signatures.flatmap(polynomials), st.data())
def test_polynomial_text_whitespace_rule(p, data):
    assert Polynomial.parse(with_space(str(p), data, data.draw(ASCII_SPACE)), p.sig) == p
    foreign = with_space(str(p), data, data.draw(FOREIGN_SPACE))
    for parse in (Multivector.parse, Polynomial.parse):
        with pytest.raises(ParseError):
            parse(foreign, p.sig)


def dividends_and_divisors(sig):
    # real monic divisors of degree 1 to 3; zero is over-weighted among
    # their lower coefficients
    divisors = st.lists(fractions, min_size=1, max_size=3).map(
        lambda lower: Polynomial.from_scalars(sig, [*lower, 1])
    )
    return st.tuples(polynomials(sig, max_size=8), divisors)


def ones(sig, length):
    return Polynomial(sig, [Multivector.one(sig)] * length)


@PROPERTY_SETTINGS
@given(signatures.flatmap(dividends_and_divisors))
@example((ones(R03, 6), Polynomial.from_scalars(R03, (1, 0, 1))))
@example((ones(QUATERNIONS, 7), Polynomial.from_scalars(QUATERNIONS, (-2, 0, 0, 1))))
def test_divide_by_real_reassembles(case):
    p, divisor = case
    quotient, remainder = divide_by_real(p, divisor)
    assert divisor * quotient + remainder == p
    assert quotient * divisor + remainder == p  # a real divisor commutes
    assert remainder.degree is None or remainder.degree < divisor.degree


# Class parameters (alpha, beta): the class of alpha + beta u for rational
# unit vectors u, a sphere for beta > 0 and the real class {alpha} for
# beta = 0. Distinct parameters give distinct classes.
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
class_parameters = st.tuples(rationals, rationals.map(abs))
# stereographic parameters of a rational unit vector, one vector each
stereographic = st.tuples(rationals, rationals)


def unit_vector(s, t):
    d = 1 + s * s + t * t
    return (1 - s * s - t * t) / d, 2 * s / d, 2 * t / d


def along_the_slope(points, values):
    """``values`` for the first two points, then w_1 + (x - x_1) s for each
    later point x, with s = (x_2 - x_1)^-1 (w_2 - w_1): collinear values."""
    if len(points) < 3:
        return values
    slope = (points[1] - points[0]).inverse() * (values[1] - values[0])
    return values + [values[0] + (x - points[0]) * slope for x in points[2:]]


@st.composite
def h_problems(draw, broken=False):
    """1-4 classes of 1-4 points (one in a real class), with values along
    the slope from a class's third point on (:func:`along_the_slope`), so
    the collinearity condition holds.

    With ``broken``, the first class is a sphere of 3-5 points, and a drawn
    multivector, zero among them, is added to the value of one of its points
    from the third on: the slope is broken unless it is zero."""
    layouts = st.lists(class_parameters, min_size=1, max_size=4, unique=True)
    pairs = []
    for k, (alpha, beta) in enumerate(draw(layouts.filter(lambda c: c[0][1]) if broken else layouts)):
        size = draw(st.integers(3, 5) if broken and k == 0 else st.integers(1, 4)) if beta else 1
        units = draw(st.lists(stereographic, min_size=size, max_size=size, unique=True))
        points = [quaternion_from_parts(alpha, [beta * c for c in unit_vector(*u)]) for u in units]
        values = along_the_slope(points, [draw(multivectors(QUATERNIONS)) for _ in points[:2]])
        if broken and k == 0:
            h = draw(st.integers(2, size - 1))
            values[h] += draw(st.one_of(st.just(Multivector.zero(QUATERNIONS)), multivectors(QUATERNIONS)))
        pairs += zip(points, values)
    return InterpolationProblem.from_pairs(QUATERNIONS, draw(st.permutations(pairs)))


@st.composite
def r03_problems(draw):
    """1-5 points of R(0,3), one per class."""
    pairs = []
    for alpha, beta in draw(st.lists(class_parameters, min_size=1, max_size=5, unique=True)):
        plus, minus = draw(st.tuples(stereographic, stereographic))
        x = r03_cone_point(alpha, beta, unit_vector(*plus), unit_vector(*minus))
        pairs.append((x, draw(multivectors(R03))))
    return InterpolationProblem.from_pairs(R03, pairs)


def wide_problem(sig, seed, sizes):
    """A seeded problem with classes of ``sizes`` points (one each in
    R(0,3)) whose class parameters, stereographic parameters and values have
    numerators up to 10^12 and denominators up to 10^6, far wider than
    ``fractions`` and ``rationals``; values collinear from a class's third
    point on (:func:`along_the_slope`)."""
    rng = random.Random(seed)

    def wide():
        return Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**6))

    def value():
        return Multivector(sig, [wide() for _ in range(sig.dim)])

    def unit():
        return unit_vector(wide(), wide())

    pairs = []
    for size in sizes:
        alpha, beta = wide(), abs(wide())
        if sig == R03:
            pairs.append((r03_cone_point(alpha, beta, unit(), unit()), value()))
            continue
        points = [quaternion_from_parts(alpha, [beta * c for c in unit()]) for _ in range(size)]
        pairs += zip(points, along_the_slope(points, [value() for _ in points[:2]]))
    return InterpolationProblem.from_pairs(sig, pairs)


def check_construction(problem):
    """The construction is the oracle's unique polynomial at the degree
    bound, takes every value, and is sum_j B_j w_j over the basis."""
    p = interpolate(problem)
    assert brute_force_interpolate(problem) == OracleResult("unique", p)
    assert verify_interpolant(p, problem)
    values = dict(problem.pairs)
    combination = Polynomial.zero(problem.sig)
    for node, basis in lagrange_basis(problem):
        combination = combination + basis * values[node]
    assert combination == p


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(h_problems())
@example(random_h_problem(random.Random(4), sizes=(4, 4, 4, 4)))
@example(wide_problem(QUATERNIONS, 1, (3, 1)))
@example(wide_problem(QUATERNIONS, 2, (2, 2, 1)))
def test_h_construction_equals_the_oracle_and_the_basis_combination(problem):
    check_construction(problem)


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(r03_problems())
@example(wide_problem(R03, 3, (1, 1, 1)))
@example(wide_problem(R03, 4, (1, 1, 1, 1)))
def test_r03_construction_equals_the_oracle_and_the_basis_combination(problem):
    check_construction(problem)


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(h_problems(broken=True))
@example(random_h_problem_with_violation(random.Random(5)))
@example(random_h_problem(random.Random(5), force_triple=True))
def test_broken_slope_raises_exactly_when_the_oracle_finds_no_solution(problem):
    try:
        p = interpolate(problem)
    except CollinearityViolated:
        assert brute_force_interpolate(problem).kind == "none"
    else:
        assert brute_force_interpolate(problem) == OracleResult("unique", p)


@settings(PROPERTY_SETTINGS, max_examples=15)
@given(st.one_of(h_problems(), r03_problems()))
@example(wide_problem(QUATERNIONS, 5, (3, 2)))
@example(wide_problem(R03, 6, (1, 1, 1)))
def test_above_the_bound_the_oracle_gives_an_affine_family(problem):
    # one and two degrees above the construction's bound the solutions form
    # an affine family, and its particular solution takes every value within
    # the asked degree
    bound = group_by_class(problem).degree_bound
    for asked in (bound + 1, bound + 2):
        result = brute_force_interpolate(problem, max_degree=asked)
        assert result.kind == "affine_family"
        assert verify_interpolant(result.polynomial, problem)
        assert result.polynomial.degree is None or result.polynomial.degree <= asked
