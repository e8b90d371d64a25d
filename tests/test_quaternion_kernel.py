"""The integer quaternion kernel against Multivector and Polynomial.

The kernel stores a quaternion as four integer numerators over one
denominator, which is also what a quaternionic Multivector stores; every
operation must give the same exact value as the generic blade-table
arithmetic of R(0,2), in lowest terms. Derandomized, so the suite stays
deterministic.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clifflag import (
    Multivector,
    NotInvertible,
    Polynomial,
    QUATERNIONS,
    R03,
    append_root,
    divide_by_real,
    to_quaternion_pair,
)
from clifflag import _quaternion as hk
from util import random_h_problem

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=80, deadline=None)

# Small values take the zero, unit and equal-denominator branches.
BIG = 2**256
numerators = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))
denominators = st.one_of(st.integers(1, 6), st.integers(1, BIG))
fractions = st.builds(Fraction, numerators, denominators)
quaternions = st.lists(fractions, min_size=4, max_size=4).map(
    lambda coeffs: Multivector(QUATERNIONS, coeffs)
)
r03_elements = st.lists(fractions, min_size=8, max_size=8).map(lambda coeffs: Multivector(R03, coeffs))


def assert_reduced(a):
    assert a[4] > 0 and gcd(*a) == 1


def as_kernel(x):
    a = x._num
    assert_reduced(a)
    return a


@PROPERTY_SETTINGS
@given(quaternions, quaternions)
def test_product_and_sums_match(x, y):
    a, b = as_kernel(x), as_kernel(y)
    for got, want in (
        (hk.mul(a, b), x * y),
        (hk.add(a, b), x + y),
        (hk.sub(a, b), x - y),
        (hk.neg(a), -x),
    ):
        assert_reduced(got)
        assert got == want._num


@PROPERTY_SETTINGS
@given(quaternions)
def test_inverse_matches(x):
    if not x:
        with pytest.raises(NotInvertible):
            hk.inverse(as_kernel(x))
        return
    got = hk.inverse(as_kernel(x))
    assert_reduced(got)
    assert got == x.inverse()._num


@PROPERTY_SETTINGS
@given(quaternions, fractions)
def test_scale_matches(x, q):
    got = hk.scale(as_kernel(x), q)
    assert_reduced(got)
    assert got == (x * q)._num


@PROPERTY_SETTINGS
@given(st.one_of(quaternions, r03_elements))
def test_split_and_join_invert_each_other(x):
    halves = hk.split(x._num)
    assert len(halves) == (2 if x.sig == R03 else 1)
    for half in halves:
        assert_reduced(half)
    assert hk.join(halves) == x._num


@PROPERTY_SETTINGS
@given(r03_elements)
@example(Multivector.parse("1/2 + 1/2 e123", R03))  # the minus half is zero
@example(Multivector.parse("1/4 e1 + 1/3 e2 + 1/4 e23", R03))  # gcds 4 and 2
def test_split_is_the_quaternion_pair_in_lowest_terms(x):
    halves = hk.split(x._num)
    assert halves == tuple(h._num for h in to_quaternion_pair(x))
    for half in halves:
        assert_reduced(half)


@PROPERTY_SETTINGS
@given(quaternions, quaternions, st.integers(1, 5))
def test_left_rows_are_the_product_matrix(x, y, factor):
    a = as_kernel(x)
    rows = hk.left_rows(a, factor)
    product = [sum(v * c for v, c in zip(row, y.coeffs)) for row in rows]
    assert product == [c * factor * a[4] for c in (x * y).coeffs]
    assert all(type(v) is int for row in rows for v in row)


@PROPERTY_SETTINGS
@given(quaternions, st.integers(-4, 4), st.integers(1, 3), st.integers(-4, 4), st.integers(1, 3))
def test_class_test_matches_trace_and_norm(x, t_num, t_den, n_num, n_den):
    # the element's own (trace, norm) and nearby pairs
    own_t, own_n = 2 * x.scalar_part(), x.norm().scalar_part()
    a = as_kernel(x)
    assert hk.in_class(a, own_t, own_n)
    for t, n in ((Fraction(t_num, t_den), own_n), (own_t, Fraction(n_num, n_den))):
        assert hk.in_class(a, t, n) == (t == own_t and n == own_n)


@PROPERTY_SETTINGS
@given(st.lists(quaternions, max_size=6), fractions, fractions)
def test_remainder_matches_division(coeffs, t, n):
    p = Polynomial(QUATERNIONS, coeffs)
    _, rem = divide_by_real(p, Polynomial.from_scalars(QUATERNIONS, (n, -t, 1)))
    b, a = hk.remainder_mod_quadratic([as_kernel(c) for c in p.coeffs], t, n)
    for got, want in ((b, rem.coefficient(0)), (a, rem.coefficient(1))):
        assert_reduced(got)
        assert got == want._num


@PROPERTY_SETTINGS
@given(st.lists(quaternions, max_size=5), quaternions)
def test_evaluation_matches(coeffs, x):
    got = hk.evaluate([as_kernel(c) for c in coeffs], as_kernel(x))
    assert_reduced(got)
    assert got == Polynomial(QUATERNIONS, coeffs)(x)._num


def test_frame_polynomials_are_the_append_root_chain():
    # T_i of the frame is append_root over the earlier nodes, in order
    rng = random.Random("frame")
    for _ in range(10):
        nodes = [x for x, _ in random_h_problem(rng, sizes=(1, 1, 1, 1)).pairs]
        frame = hk.NewtonFrame()
        chain = Polynomial.one(QUATERNIONS)
        for i, node in enumerate(nodes):
            frame.add_node(node._num)
            if i:
                chain = append_root(chain, nodes[i - 1])
            _, t, tx, tx_inv = frame.nodes[-1]
            assert t == [c._num for c in chain.coeffs]
            assert tx == chain(node)._num
            assert tx_inv == chain(node).inverse()._num
