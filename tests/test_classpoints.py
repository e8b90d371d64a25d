"""Tests for rational sampling of class spheres.

The reflections run on integer numerators; the Fraction form they replaced
stays below as the reference, and a derandomized property pins the integer
routine to it list for list. Class points start from a member of the class,
a quaternion, so they never leave its class.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clifflag import ConjugacyClassId, Multivector, QUATERNIONS, R03, Signature, WrongSignature
from clifflag.classpoints import (
    _REFLECT_DIRS,
    quaternion_class_points,
    quaternion_from_parts,
    r03_cone_point,
    r03_square_roots_of_minus_one,
    rational_unit_vectors,
    reflect_through,
    square_roots_of_minus_one,
    vector_part,
)


def test_unit_vectors_are_unit_and_distinct():
    vectors = rational_unit_vectors(20)
    assert len(set(vectors)) == 20
    for v in vectors:
        assert sum(c * c for c in v) == 1
    assert vectors[0] == (1, 0, 0)


def test_too_many_vectors_requested():
    with pytest.raises(ValueError):
        rational_unit_vectors(10**6)


def test_reflections_preserve_length_and_contain_antipode():
    v0 = (Fraction(3, 5), Fraction(4, 5), Fraction(0))
    points = reflect_through(v0)
    assert points[0] == v0
    assert tuple(-c for c in v0) in points
    for w in points:
        assert sum(c * c for c in w) == 1


def test_square_roots_of_minus_one():
    for root in square_roots_of_minus_one(10):
        assert root * root == -1


def test_r03_square_roots_live_in_the_standard_sphere_class():
    roots = r03_square_roots_of_minus_one(10)
    assert len(roots) == 10
    for root in roots:
        assert root * root == -1
        assert root.conjugacy_class() == ConjugacyClassId.sphere(0, 1)
    assert Multivector.basis(R03, 1) in roots


def test_quaternion_class_points_share_trace_and_norm():
    t, n = Fraction(1), Fraction(5, 2)  # beta^2 = 5/2 - 1/4 = 9/4
    v0 = (Fraction(3, 2), Fraction(0), Fraction(0))
    for h in quaternion_class_points(quaternion_from_parts(t / 2, v0), 8):
        assert h.trace() == t
        assert h.norm() == n


def test_quaternion_class_points_keep_the_start_and_its_antipode():
    x = Multivector.parse("1/2 + 3/2 e1", QUATERNIONS)
    for count in (0, 1, 2):
        assert quaternion_class_points(x, count) == [x, Multivector.parse("1/2 - 3/2 e1", QUATERNIONS)]
    # a real start is its whole class
    two = Multivector.scalar(QUATERNIONS, 2)
    assert quaternion_class_points(two, 5) == [two]


@pytest.mark.parametrize("sig", [R03, Signature(1, 1)], ids=["R03", "R11"])
def test_quaternion_class_points_take_a_quaternion(sig):
    with pytest.raises(WrongSignature, match="quaternion_class_points requires"):
        quaternion_class_points(Multivector.basis(sig, 1), 3)


def test_r03_cone_point_class():
    x = r03_cone_point(Fraction(1, 2), Fraction(3, 2), (1, 0, 0), (0, 1, 0))
    assert x.in_quadratic_cone()
    cls = x.conjugacy_class()
    assert cls.t == 1 and cls.n == Fraction(1, 4) + Fraction(9, 4)


def test_vector_part():
    assert vector_part(Multivector.parse("1 + 2 e1", QUATERNIONS)) == (2, 0, 0)


def reflect_through_reference(v0, limit=None):
    # reference: the same reflections in Fraction arithmetic
    v0 = tuple(Fraction(c) for c in v0)
    out = [v0]
    seen = {v0}
    dirs = [v0] + [tuple(Fraction(c) for c in d) for d in _REFLECT_DIRS]
    for d in dirs:
        dd = sum(c * c for c in d)
        if not dd:
            continue
        t = 2 * sum(a * b for a, b in zip(v0, d)) / dd
        w = tuple(a - t * b for a, b in zip(v0, d))
        if w not in seen:
            seen.add(w)
            out.append(w)
        if limit is not None and len(out) >= limit:
            break
    return out


# small values reach zero and repeated denominators, big ones unrelated ones
fractions = st.builds(
    Fraction,
    st.one_of(st.integers(-3, 3), st.integers(-(2**64), 2**64)),
    st.one_of(st.integers(1, 6), st.integers(1, 2**64)),
)
vectors = st.one_of(
    st.tuples(fractions, fractions, fractions),
    # parallel to a reflection direction, so some reflections fix v0 or
    # give its antipode again
    st.builds(lambda q, d: tuple(q * c for c in d), fractions, st.sampled_from(_REFLECT_DIRS)),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(vectors, fractions)
@example((0, 0, 0), Fraction(0))
@example((Fraction(3, 5), Fraction(4, 5), Fraction(0)), Fraction(1))
@example((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)), Fraction(-1, 3))
def test_integer_reflections_equal_the_fraction_reference(v0, t):
    # same vectors in the same order for every limit, and the class points
    # are the reference's quaternions, in lowest terms
    for limit in [*range(1, 14), None]:
        want = reflect_through_reference(v0, limit)
        got = reflect_through(v0, limit)
        assert got == want
        assert all(type(c) is Fraction for w in got for c in w)
        if limit is not None:
            points = quaternion_class_points(quaternion_from_parts(t / 2, v0), limit)
            assert points == [quaternion_from_parts(t / 2, w) for w in want]
