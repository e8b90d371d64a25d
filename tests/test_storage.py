"""Canonical storage of Multivector: one integer tuple per value.

A value is stored as (n_0, ..., n_{2^m-1}, d) with d > 0 and gcd 1, so the
same value has the same storage, ``==`` and ``hash`` however it was built:
parsed, constructed, computed or passed through the H (+) H split.
Derandomized, so the suite stays deterministic.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clifflag import (
    Multivector,
    QUATERNIONS,
    R03,
    Signature,
    from_quaternion_pair,
    to_quaternion_pair,
)

R13 = Signature(1, 3)
R06 = Signature(0, 6)

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

fractions = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
)


def coordinates(sig):
    return st.lists(fractions, min_size=sig.dim, max_size=sig.dim)


def assert_canonical(x):
    num = x._num
    assert len(num) == x.sig.dim + 1
    assert all(type(v) is int for v in num)
    assert num[-1] > 0 and gcd(*num) == 1
    assert x.coeffs == tuple(Fraction(n, num[-1]) for n in num[:-1])
    assert all(type(c) is Fraction for c in x.coeffs)


def built_other_ways(x, y, coords, k):
    """(how, value) pairs that all equal x = Multivector(sig, coords)."""
    sig = x.sig
    # unreduced spellings, and ints where a coordinate is whole
    unreduced = [Fraction(c.numerator * k, c.denominator * k) for c in coords]
    ints = [int(c) if c.denominator == 1 else c for c in coords]
    parts = (Multivector.blade(sig, mask, c) for mask, c in enumerate(coords))
    ways = [
        ("parsed", Multivector.parse(str(x), sig)),
        ("unreduced", Multivector(sig, unreduced)),
        ("ints", Multivector(sig, ints)),
        ("sum", (x + y) - y),
        ("sum of blades", sum(parts, Multivector.zero(sig))),
        ("scaled", (x * k) / k),
        ("product", x * Multivector.one(sig)),
        ("product on the left", Multivector.one(sig) * x),
    ]
    if y.is_invertible():
        ways.append(("product and inverse", (x * y) * y.inverse()))
    if x.is_invertible():
        ways.append(("double inverse", x.inverse().inverse()))
    if sig == R03:
        ways.append(("split and join", from_quaternion_pair(*to_quaternion_pair(x))))
    return ways


def check_storage(sig, coords, other, k):
    x, y = Multivector(sig, coords), Multivector(sig, other)
    before = (x._num, y._num)
    assert_canonical(x)
    assert x.coeffs == tuple(coords)
    for how, built in built_other_ways(x, y, coords, k):
        assert_canonical(built)
        assert built._num == x._num, how
        assert built == x, how
        assert hash(built) == hash(x), how
    zero = (0,) * sig.dim + (1,)
    for built in (x - x, x * 0, Multivector.zero(sig), Multivector(sig, [0] * sig.dim)):
        assert built._num == zero
        assert not built
    assert (x._num, y._num) == before  # operands never change


@PROPERTY_SETTINGS
@given(
    st.sampled_from([QUATERNIONS, R03, R13]).flatmap(
        lambda sig: st.tuples(st.just(sig), coordinates(sig), coordinates(sig))
    ),
    st.integers(2, 6),
)
@example((R03, [Fraction(1, 2)] + [Fraction(0)] * 6 + [Fraction(1, 2)], [Fraction(1)] * 8), 2)
@example((QUATERNIONS, [Fraction(0)] * 4, [Fraction(2, 4)] * 4), 3)
@example((R13, [Fraction(6, 4)] * 16, [Fraction(-1, 3)] * 16), 4)
def test_same_value_same_storage(case, k):
    sig, coords, other = case
    check_storage(sig, coords, other, k)


def test_same_value_same_storage_in_r06():
    # 64 coordinates over many denominators; few cases, since each inverse
    # is eight 64-coordinate products (Faddeev-LeVerrier) at growing height
    rng = random.Random("storage r06")
    for k in (2, 3):
        coords, other = ([Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(64)] for _ in range(2))
        check_storage(R06, coords, other, k)


def test_coeffs_is_a_read_only_view():
    x = Multivector.parse("3/2 + e1 - 2 e23 + 1/5 e123", R03)
    assert x._num == (15, 10, 0, 0, 0, 0, -20, 2, 10)
    with pytest.raises(AttributeError):
        x.coeffs = (Fraction(0),) * 8
    assert str(x) == "3/2 + e1 - 2 e23 + 1/5 e123"
