"""The cone test and the class id: one computation behind every caller.

A derandomized property ties `in_quadratic_cone`, `conjugacy_class`,
`ConjugacyClassId.contains` and `same_class` to the definition (trace and
norm real, 4n > t^2 or x real), formed by the products of `trace()` and
`norm()`. H and R(0,3) read the id off the coordinates in closed form, so
this property is the check of that form; R(0,3) elements drawn from their
halves reach both sides of the cone's boundary. Count tests pin that
grouping and membership make no geometric product in H and R(0,3), and
one per test in other signatures.
"""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clifflag import (
    ConjugacyClassId,
    Multivector,
    NotInCone,
    Polynomial,
    QUATERNIONS,
    R03,
    Signature,
    affine_restriction,
    from_quaternion_pair,
    group_by_class,
    roots_in_class,
    same_class,
)
from clifflag import _quaternion as qk
from clifflag.classpoints import r03_cone_point
from clifflag.multivector import _class_of
from util import UNITS, count_products, random_h_problem, random_r03_problem

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)
R11 = Signature(1, 1)
R13 = Signature(1, 3)
R04 = Signature(0, 4)

# Zero and unit magnitudes are over-weighted: they reach the reals and, in
# R(1,1), non-real elements with 4n = t^2 such as e1 + e2.
fractions = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
)


def multivectors(sig):
    return st.one_of(
        st.lists(fractions, min_size=sig.dim, max_size=sig.dim).map(
            lambda coeffs: Multivector(sig, coeffs)
        ),
        fractions.map(lambda value: Multivector.scalar(sig, value)),
    )


# R(0,3) cone points built from the H + H split: both halves share the
# scalar part alpha and the vector length beta. Few values, so classes repeat.
r03_cone_points = st.builds(
    r03_cone_point,
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2)]),
    st.sampled_from([Fraction(1), Fraction(3, 2)]),
    st.sampled_from(UNITS),
    st.sampled_from(UNITS),
)

@st.composite
def r03_from_halves(draw):
    """R(0,3) elements from their two halves. The minus half is often the
    plus half with its vector part permuted and signed, so the halves share
    the norm (a real n) and, unless the scalar changes, the trace."""
    plus = draw(multivectors(QUATERNIONS))
    if draw(st.booleans()):
        return from_quaternion_pair(plus, draw(multivectors(QUATERNIONS)))
    vector = draw(st.permutations(plus.coeffs[1:]))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=3, max_size=3))
    scalar = draw(st.one_of(st.just(plus.coeffs[0]), fractions))
    minus = Multivector(QUATERNIONS, [scalar] + [s * v for s, v in zip(signs, vector)])
    return from_quaternion_pair(plus, minus)


elements = st.one_of(
    multivectors(QUATERNIONS),
    multivectors(R03),
    r03_cone_points,
    r03_from_halves(),
    multivectors(R11),
)


def class_or_none(x):
    try:
        return x.conjugacy_class()
    except NotInCone:
        return None


def conjugate_by(a, x):
    # a x a^-1 stays in the class of x in H and R(0,3)
    return a * x * a.inverse() if a.is_invertible() else x


pairs = elements.flatmap(
    lambda x: st.tuples(
        st.just(x),
        st.one_of(
            multivectors(x.sig),
            multivectors(x.sig).map(lambda a: conjugate_by(a, x)),
            r03_cone_points if x.sig == R03 else st.just(x),
        ),
    )
)


@PROPERTY_SETTINGS
@given(pairs)
@example((Multivector.parse("e1 + e2", R11), Multivector.parse("e1", R11)))
@example((Multivector.parse("e123", R03), Multivector.parse("e1", R03)))
@example((Multivector.parse("e1 + e2 + e13 + e23", R03), Multivector.parse("e1", R03)))
@example((Multivector.parse("e1 + e2 - e13 + e23", R03), Multivector.parse("e1", R03)))
# trace 0 but norm 2 - 2 e123: a real trace with a non-real norm
@example((Multivector.parse("e1 + e23", R04), Multivector.parse("e1", R04)))
def test_class_id_matches_trace_and_norm(pair):
    x, y = pair
    t, n = x.trace(), x.norm()
    real_pair = t.is_scalar() and n.is_scalar()
    t, n = t.scalar_part(), n.scalar_part()
    in_cone = real_pair and (4 * n > t * t or x.is_scalar())
    assert x.in_quadratic_cone() == in_cone

    cls_id = class_or_none(x)
    assert (cls_id is not None) == in_cone
    probes = [ConjugacyClassId.real(0), ConjugacyClassId.sphere(0, 1)]
    if cls_id is None:
        assert not any(probe.contains(x) for probe in probes)
        return
    assert (cls_id.t, cls_id.n) == (t, n)
    assert cls_id.is_real == x.is_scalar()
    assert cls_id.contains(x)
    assert [probe.contains(x) for probe in probes] == [probe == cls_id for probe in probes]

    y_id = class_or_none(y)
    if y_id is not None:
        assert same_class(x, y) == (y_id == cls_id) == cls_id.contains(y)
    else:
        assert not cls_id.contains(y)


def test_grouping_forms_each_norm_once(monkeypatch):
    # in H and R(0,3) the norm comes from the coordinates, with no product
    rng = random.Random("class id count")
    problems = [random_r03_problem(rng, n_points=7), random_h_problem(rng, sizes=(3, 1, 2))]
    calls = count_products(monkeypatch)
    for problem in problems:
        grouping = group_by_class(problem)
        assert sum(g.size for g in grouping.groups) == len(problem.pairs)
    assert calls == []


def test_class_membership_forms_the_norm_once(monkeypatch):
    points = [
        r03_cone_point(Fraction(1, 3), Fraction(2), UNITS[0], UNITS[5]),
        Multivector.parse("1/3 + 2 e1 - e12", QUATERNIONS),
    ]
    ids = [x.conjugacy_class() for x in points]
    calls = count_products(monkeypatch)
    assert all(cls_id.contains(x) for cls_id, x in zip(ids, points))
    assert calls == []


def test_other_signatures_form_the_norm_once(monkeypatch):
    # R(1,3) keeps the product form: x conj(x) once per membership test
    x = Multivector.parse("1/3 + 2 e2 - e4", R13)
    cls_id = x.conjugacy_class()
    calls = count_products(monkeypatch)
    assert cls_id.contains(x)
    assert len(calls) == 1


def test_class_id_coordinates_are_fractions():
    # ints and floats are made exact, as Multivector coordinates are, so
    # alpha and the text form stay exact; Fractions are kept as they are
    cls = ConjugacyClassId(1, Fraction(1, 4))
    assert cls.is_real and str(cls) == "Real(1/2)"
    assert type(cls.t) is Fraction and type(cls.alpha) is Fraction
    assert ConjugacyClassId(0.0, 1.0) == ConjugacyClassId.sphere(0, 1)
    assert str(ConjugacyClassId(0.5, 0.0625)) == "Real(1/4)"
    t, n = Fraction(2, 3), Fraction(1, 9)
    cls = ConjugacyClassId(t, n)
    assert cls.t is t and cls.n is n and cls.is_real


def test_float_class_id_reaches_the_exact_root_search():
    # float t and n are made exact before they reach the kernel
    p = Polynomial.parse("X^2*(1 + e123) + (1 - e1)", R03)
    for exact, approximate in (
        (ConjugacyClassId.sphere(0, 1), ConjugacyClassId(0.0, 1.0)),
        (ConjugacyClassId.real(Fraction(1, 2)), ConjugacyClassId(1.0, 0.25)),
    ):
        assert roots_in_class(p, approximate) == roots_in_class(p, exact)
        assert affine_restriction(p, approximate) == affine_restriction(p, exact)


@PROPERTY_SETTINGS
@given(fractions, fractions)
@example(Fraction(-6, 7), Fraction(9, 49))
def test_is_real_and_the_class_bound_on_cross_products(t, n):
    if 4 * n < t * t:
        with pytest.raises(ValueError):
            ConjugacyClassId(t, n)
        return
    assert ConjugacyClassId(t, n).is_real == (4 * n == t * t)


def ids_of(x):
    """Every way to build the class id of the cone element x: from its
    trace and norm as Fractions, ints and floats where they are exact,
    .real or .sphere, conjugacy_class() and the kernel's class key."""
    t, n = x.trace().scalar_part(), x.norm().scalar_part()
    ids = [ConjugacyClassId(t, n), x.conjugacy_class(), _class_of(qk.class_key(x._num))]
    ids.append(ConjugacyClassId.real(t / 2) if x.is_scalar() else ConjugacyClassId.sphere(t, n))
    if t.denominator == n.denominator == 1:
        ids.append(ConjugacyClassId(int(t), int(n)))
    if all(q.denominator & (q.denominator - 1) == 0 for q in (t, n)):  # dyadic: floats are exact
        ids.append(ConjugacyClassId(float(t), float(n)))
    return (t, n), ids


cone_elements = st.one_of(multivectors(QUATERNIONS), r03_cone_points)


@PROPERTY_SETTINGS
@given(cone_elements, cone_elements)
@example(Multivector.parse("1/2 + e1", QUATERNIONS), Multivector.parse("1/2 + e2", QUATERNIONS))
@example(Multivector.parse("2", QUATERNIONS), Multivector.parse("1 + e1", QUATERNIONS))  # t = 2 both
def test_class_ids_are_equal_and_hash_equal_exactly_when_trace_and_norm_are(x, y):
    pair_x, ids_x = ids_of(x)
    pair_y, ids_y = ids_of(y)
    for a in ids_x + ids_y:
        assert (a.t, a.n) in (pair_x, pair_y)
        for b in ids_x + ids_y:
            same = (a.t, a.n) == (b.t, b.n)
            assert (a == b) == same and (a != b) != same
            assert (hash(a) == hash(b)) == same
            assert ({a: 1}.get(b) == 1) == same


@PROPERTY_SETTINGS
@given(cone_elements)
def test_copies_and_pickles_keep_the_class_key(x):
    cls_id = x.conjugacy_class()
    copies = [copy.copy(cls_id), copy.deepcopy(cls_id)]
    copies += [pickle.loads(pickle.dumps(cls_id, proto)) for proto in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert other._key == cls_id._key == qk.class_key(x._num)
        assert other == cls_id and hash(other) == hash(cls_id) and repr(other) == repr(cls_id)
        assert other.is_real == cls_id.is_real
