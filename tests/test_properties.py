"""Property tests for the text grammars of multivectors and polynomials.

Derandomized with few examples, so the suite stays deterministic and fast.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from clifflag import Multivector, Polynomial, QUATERNIONS, R03

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


def polynomials(sig):
    coefficient = st.one_of(st.just(Multivector.zero(sig)), multivectors(sig))
    return st.lists(coefficient, max_size=4).map(lambda coeffs: Polynomial(sig, coeffs))


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
