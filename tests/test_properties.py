"""Property tests for the text grammars and for division by real polynomials.

Derandomized with few examples, so the suite stays deterministic and fast.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clifflag import Multivector, ParseError, Polynomial, QUATERNIONS, R03, divide_by_real

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
