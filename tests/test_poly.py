"""Tests for right-coefficient polynomials: products, division, roots."""

import random
import sys
from fractions import Fraction

import pytest

from clifflag import (
    MAX_DEGREE,
    ConjugacyClassId,
    Multivector,
    NotInvertible,
    ParseError,
    Polynomial,
    QUATERNIONS,
    R03,
    Signature,
    SignatureMismatch,
    UnsupportedSignature,
    WrongSignature,
    affine_restriction,
    append_root,
    characteristic_poly,
    divide_by_real,
    eval_of_product,
    factor_out_characteristic,
    paravector_root_census,
    real_root_multiplicity,
    roots_in_class,
)
from clifflag.classpoints import (
    quaternion_class_points,
    quaternion_from_parts,
    r03_cone_point,
    rational_unit_vectors,
    vector_part,
)
from clifflag.multivector import from_quaternion_pair, to_quaternion_pair
from clifflag.poly import RootSet, _divide_out, _split
from util import (
    horner,
    rand_class_params,
    rand_cone_point_r03,
    rand_fraction,
    rand_multivector,
    rand_zero_divisor,
)

H = QUATERNIONS
ONE_H = Multivector.one(H)
ZERO_H = Multivector.zero(H)
I = Multivector.basis(H, 1)
J = Multivector.basis(H, 2)
K = Multivector.basis(H, 1, 2)
S = ConjugacyClassId.sphere(0, 1)


def quat(a=0, b=0, c=0, d=0):
    return Multivector(H, (Fraction(a), Fraction(b), Fraction(c), Fraction(d)))


def r03(*coords):
    return Multivector(R03, [Fraction(c) for c in coords])


# the degree-3 polynomial interpolating the five-point quaternionic example
P_FIVE = Polynomial(H, (ONE_H, ZERO_H, ONE_H, I))


def test_eval_known_values():
    assert P_FIVE(I) == 1
    assert P_FIVE(ONE_H + I) == -1
    assert P_FIVE(J) == K
    assert P_FIVE(K) == -J
    assert Polynomial.zero(H)(quat(1, 2, 3, 4)) == 0


def test_star_product_known_values():
    q = Polynomial.x_minus(ZERO_H) * Polynomial.x_minus(ONE_H + I)
    assert q == Polynomial(H, (ZERO_H, -(ONE_H + I), ONE_H))
    cubic = Polynomial.from_scalars(H, (1, 0, 1)) * Polynomial.identity(H)
    assert cubic == Polynomial(H, (ZERO_H, ONE_H, ZERO_H, ONE_H))
    assert P_FIVE * Polynomial.one(H) == P_FIVE


def test_star_product_degree():
    rng = random.Random(20)
    for _ in range(30):
        p = Polynomial(R03, [rand_multivector(rng, R03, 2) for _ in range(rng.randint(1, 3))])
        q = Polynomial(R03, [rand_multivector(rng, R03, 2) for _ in range(rng.randint(1, 3))])
        if p.degree is None or q.degree is None:
            continue
        prod = p * q
        assert prod.degree is None or prod.degree <= p.degree + q.degree
        if p.leading.is_invertible() or q.leading.is_invertible():
            assert prod.degree == p.degree + q.degree


def test_product_evaluation_identity_real_coefficients():
    rng = random.Random(21)
    for _ in range(20):
        p = Polynomial.from_scalars(R03, [rng.randint(-4, 4) for _ in range(3)])
        q = Polynomial(R03, [rand_multivector(rng, R03) for _ in range(3)])
        x = rand_multivector(rng, R03)
        assert (p * q)(x) == p(x) * q(x)


def test_product_evaluation_identity_random():
    rng = random.Random(22)
    for sig in (H, R03):
        done = 0
        while done < 100:
            p = Polynomial(sig, [rand_multivector(rng, sig, 3) for _ in range(rng.randint(1, 4))])
            q = Polynomial(sig, [rand_multivector(rng, sig, 3) for _ in range(rng.randint(1, 4))])
            x = rand_multivector(rng, sig, 3)
            if not p(x).is_invertible():
                continue
            lhs = (p * q)(x)
            assert eval_of_product(p, q, x) == lhs
            done += 1


def test_product_evaluation_identity_trivial_q():
    rng = random.Random(23)
    p = Polynomial(R03, [rand_multivector(rng, R03) for _ in range(3)])
    x = rand_multivector(rng, R03)
    if p(x).is_invertible():
        assert eval_of_product(p, Polynomial.one(R03), x) == p(x)


def test_product_evaluation_rejects_zero_divisor_value():
    p = Polynomial.constant(r03(0, 1, 0, 0, 0, 0, -1, 0))  # e1 - e23 everywhere
    with pytest.raises(NotInvertible):
        eval_of_product(p, Polynomial.one(R03), Multivector.zero(R03))


def test_append_root_r03_example():
    e1 = Multivector.basis(R03, 1)
    x2 = Multivector.basis(R03, 2) + Multivector.basis(R03, 2, 3)
    p3 = append_root(Polynomial.x_minus(e1), x2)
    a1 = r03(0, Fraction(1, 5), Fraction(-3, 5), 0, 0, Fraction(2, 5), Fraction(-1, 5), 0)
    a0 = r03(Fraction(6, 5), 0, 0, Fraction(3, 5), Fraction(2, 5), 0, 0, Fraction(1, 5))
    assert p3 == Polynomial(R03, (a0, a1, Multivector.one(R03)))


def test_append_root_quaternion_example():
    q = Polynomial.x_minus(ZERO_H) * Polynomial.x_minus(ONE_H + I)
    p31 = append_root(q, J)
    assert p31 == Polynomial(H, (ZERO_H, -quat(-2, 2, -3, 1) / 3, quat(-3, -1, -1, 2) / 3, ONE_H))
    assert p31(ZERO_H) == 0 and p31(ONE_H + I) == 0 and p31(J) == 0


def test_append_root_real_point():
    alpha = Multivector.scalar(R03, Fraction(-7, 2))
    assert append_root(Polynomial.one(R03), alpha) == Polynomial.x_minus(alpha)


def test_append_root_keeps_previous_roots_and_invertibility():
    rng = random.Random(26)
    for _ in range(20):
        params = rand_class_params(rng, 3)
        points = [rand_cone_point_r03(rng, a, b) for a, b in params]
        t = Polynomial.one(R03)
        for y in points:
            t = append_root(t, y)
        for y in points:
            assert t(y) == 0
        # invertible off the prescribed classes where the chain stayed invertible
        probe = rand_cone_point_r03(rng)
        if probe.conjugacy_class() not in [p.conjugacy_class() for p in points]:
            assert t(probe).is_invertible()


def test_characteristic_poly_known():
    assert characteristic_poly(S, H) == Polynomial.from_scalars(H, (1, 0, 1))
    assert characteristic_poly(ConjugacyClassId.real(-1), H) == Polynomial.from_scalars(H, (1, 1))
    c = (ONE_H + I).conjugacy_class()
    assert characteristic_poly(c, H) == Polynomial.from_scalars(H, (2, -2, 1))


def test_characteristic_poly_annihilates_class():
    rng = random.Random(27)
    for _ in range(20):
        x = rand_cone_point_r03(rng)
        delta = characteristic_poly(x.conjugacy_class(), R03)
        assert delta(x) == 0


def test_affine_restriction_whole_sphere_vanishing():
    ar = affine_restriction(Polynomial.from_scalars(H, (1, 0, 1)), S)
    assert not ar.a and not ar.b


def test_affine_restriction_of_interpolant():
    ar = affine_restriction(P_FIVE, S)
    assert ar.a == -I
    assert I * ar.a + ar.b == 1
    assert ar.b == ONE_H - I * ar.a


def test_affine_restriction_matches_eval_on_class_points():
    rng = random.Random(28)
    units = rational_unit_vectors(9)
    for _ in range(100):
        alpha = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        beta = Fraction(rng.randint(1, 4), rng.randint(1, 2))
        cls = ConjugacyClassId.sphere(2 * alpha, alpha * alpha + beta * beta)
        p = Polynomial(H, [rand_multivector(rng, H) for _ in range(rng.randint(1, 5))])
        ar = affine_restriction(p, cls)
        for v in rng.sample(units, 3):
            x = quaternion_from_parts(alpha, [beta * c for c in v])
            assert p(x) == ar(x)


def affine_restriction_by_powers(p, cls_id):
    # reference: real A_h, B_h with x^h = A_h + x B_h on the class, from
    # A_0 = 1, B_0 = 0, A_{h+1} = -n B_h, B_{h+1} = A_h + t B_h; then
    # a = sum B_h a_h and b = sum A_h a_h
    a = b = Multivector.zero(p.sig)
    big_a, big_b = Fraction(1), Fraction(0)
    for coeff in p.coeffs:
        a, b = a + big_b * coeff, b + big_a * coeff
        big_a, big_b = -cls_id.n * big_b, big_a + cls_id.t * big_b
    return a, b


def test_affine_restriction_equals_power_recursion():
    rng = random.Random(33)
    for sig in (H, R03):
        for _ in range(40):
            p = Polynomial(sig, [rand_multivector(rng, sig) for _ in range(rng.randint(0, 7))])
            alpha = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            beta = Fraction(rng.randint(1, 4), rng.randint(1, 2))
            sphere = ConjugacyClassId.sphere(2 * alpha, alpha * alpha + beta * beta)
            for cls in (sphere, ConjugacyClassId.real(alpha)):
                ar = affine_restriction(p, cls)
                assert (ar.a.coeffs, ar.b.coeffs) == tuple(
                    x.coeffs for x in affine_restriction_by_powers(p, cls)
                )


def _solve_affine_reference(a, b, cls_id):
    # x a + b = 0 on one quaternionic class, in Fraction coordinates
    if not a:
        return RootSet("empty" if b else "whole_class", cls_id)
    x = -b * a.inverse()
    return RootSet("points", cls_id, (x,)) if cls_id.contains(x) else RootSet("empty", cls_id)


def roots_in_class_reference(p, cls_id):
    # reference: the root search on Multivector coefficients, through the
    # remainder modulo Delta and the split of a and b, not of P, with
    # values from the Multivector Horner loop
    if cls_id.is_real:
        alpha = Multivector.scalar(p.sig, cls_id.alpha)
        return RootSet("empty", cls_id) if horner(p, alpha) else RootSet("points", cls_id, (alpha,))
    _, rem = divide_by_real(p, Polynomial.from_scalars(p.sig, (cls_id.n, -cls_id.t, 1)))
    a, b = rem.coefficient(1), rem.coefficient(0)
    if p.sig == H:
        return _solve_affine_reference(a, b, cls_id)
    plus, minus = (
        _solve_affine_reference(a_half, b_half, cls_id)
        for a_half, b_half in zip(to_quaternion_pair(a), to_quaternion_pair(b))
    )
    if plus.is_empty or minus.is_empty:
        return RootSet("empty", cls_id)
    if plus.kind == minus.kind == "points":
        return RootSet("points", cls_id, (from_quaternion_pair(plus.points[0], minus.points[0]),))
    if plus.kind == minus.kind:
        return RootSet("whole_class", cls_id)
    pinned_plus = plus.kind == "points"
    (pinned,) = plus.points or minus.points
    frees = quaternion_class_points(quaternion_from_parts(cls_id.t / 2, vector_part(pinned)), count=12)
    c = pinned.coeffs
    reps = []
    for free in [Multivector(H, (c[0], c[1], c[2], -c[3]))] + frees:
        x = from_quaternion_pair(*((pinned, free) if pinned_plus else (free, pinned)))
        if x not in reps:
            assert not horner(p, x)
            reps.append(x)
    return RootSet("points", cls_id, tuple(reps), exhaustive=False)


def multiplicity_reference(p, divisor):
    # reference: (s, cofactor) by repeated Multivector long division
    if not p:
        raise ValueError("zero polynomial has no finite multiplicity")
    s = 0
    quotient, remainder = divide_by_real(p, divisor)
    while not remainder:
        s, p = s + 1, quotient
        quotient, remainder = divide_by_real(p, divisor)
    return s, p


def census_reference(p, witnessed_classes):
    # reference: multiplicities by repeated long division for every class,
    # then the reference root search on the spheres Delta does not divide
    r = s = k = 0
    for cls_id in dict.fromkeys(witnessed_classes):
        m, _ = multiplicity_reference(p, characteristic_poly(cls_id, p.sig))
        if cls_id.is_real:
            r += m
        elif m:
            s += m
        else:
            roots = roots_in_class_reference(p, cls_id)
            assert roots.kind != "whole_class"
            k += sum(1 for x in roots.points if x.is_paravector())
    return r, s, k


# unit vectors with nonzero third coordinate too, so that a pinned half's
# paravector mate differs from the half itself
_UNITS = rational_unit_vectors(40)


def _sphere(alpha, beta):
    return ConjugacyClassId.sphere(2 * alpha, alpha * alpha + beta * beta)


def _root_search_cases(sig, seed):
    # (polynomial, probe classes): products of root factors, the same times
    # a central idempotent (R(0,3): a sampled family on each half) and times
    # a class characteristic polynomial; then zero and constants. Probes are
    # the polynomial's own classes, random spheres and real classes.
    rng = random.Random(seed)
    one = Multivector.one(sig)
    idempotents = []
    if sig == R03:
        e123 = Multivector.basis(R03, 1, 2, 3)
        idempotents = [(one + e123) / 2, (one - e123) / 2]
    cases = []
    for degree in (1, 2, 3):
        params = rand_class_params(rng, degree + 1)
        extra = _sphere(*params.pop())
        if sig == R03:
            points = [r03_cone_point(a, b, *rng.sample(_UNITS, 2)) for a, b in params]
        else:
            points = [quaternion_from_parts(a, [b * c for c in rng.choice(_UNITS)]) for a, b in params]
        own = [_sphere(a, b) for a, b in params]
        alpha = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        product = Polynomial.one(sig)
        for y in points:
            product = append_root(product, y)
        polys = [product, append_root(product, Multivector.scalar(sig, alpha))]
        polys += [product * e for e in idempotents]
        polys += [q * characteristic_poly(extra, sig) for q in list(polys)]
        probes = own + [extra, ConjugacyClassId.real(alpha), ConjugacyClassId.real(alpha + 1)]
        probes += [_sphere(rand_fraction(rng, 3), Fraction(rng.randint(1, 3), 2)) for _ in range(3)]
        cases += [(q, probes) for q in polys]
    probes = [S, ConjugacyClassId.real(0), ConjugacyClassId.real(1), _sphere(1, 2)]
    constants = [Multivector.zero(sig), one, rand_multivector(rng, sig)] + idempotents
    cases += [(Polynomial.constant(c), probes) for c in constants]
    return cases


@pytest.mark.parametrize("sig", [H, R03], ids=["H", "R03"])
@pytest.mark.parametrize("seed", [1, 2])
def test_roots_in_class_equals_multivector_reference(sig, seed):
    kinds = set()
    for p, probes in _root_search_cases(sig, seed):
        for cls_id in probes:
            found = roots_in_class(p, cls_id)
            # kind, class, exhaustive and the points in order
            assert found == roots_in_class_reference(p, cls_id)
            kinds.add((found.kind, found.exhaustive))
    # every outcome occurs: sampled families only where zero divisors exist
    expected = {("empty", True), ("points", True), ("whole_class", True)}
    if sig == R03:
        expected.add(("points", False))
    assert kinds == expected


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_census_equals_reference(seed):
    # the witnessed list names some classes twice; each counts once
    for p, probes in _root_search_cases(R03, seed):
        witnessed = probes + probes[::-2]
        if not p:
            with pytest.raises(ValueError, match="no finite multiplicity"):
                paravector_root_census(p, witnessed)
            continue
        assert paravector_root_census(p, witnessed) == census_reference(p, witnessed)


def _family_cases(seed):
    # (polynomial, probe classes) as the r03-roots benchmark builds its
    # families: products of root factors at cone points of degree 1 to 5,
    # times (1 + e123)/2, probed at their own classes
    rng = random.Random(seed)
    idempotent = (Multivector.one(R03) + Multivector.basis(R03, 1, 2, 3)) / 2
    cases = []
    for degree in range(1, 6):
        params = rand_class_params(rng, degree)
        p = Polynomial.one(R03)
        for a, b in params:
            p = append_root(p, r03_cone_point(a, b, *rng.sample(_UNITS, 2)))
        cases.append((p * idempotent, [_sphere(a, b) for a, b in params]))
    return cases


@pytest.mark.parametrize("seed", [1, 2])
def test_sampled_families_hold_one_paravector(seed):
    # the census counts a sampled family as one paravector root without
    # looking at its points: every family the root search samples holds
    # exactly one
    families = 0
    for p, probes in _root_search_cases(R03, seed) + _family_cases(seed):
        for cls_id in probes:
            found = roots_in_class(p, cls_id)
            if not found.exhaustive:
                families += 1
                assert sum(x.is_paravector() for x in found.points) == 1
    assert families >= 15


def _count_calls(monkeypatch, owner, names):
    # calls of each named attribute of owner, by name
    calls = dict.fromkeys(names, 0)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    return calls


@pytest.mark.parametrize("seed", [1, 2])
def test_census_builds_no_roots(seed, monkeypatch):
    # the census counts on the kernel rows: no root search, no sampled
    # class points, no joined root, no RootSet, and no evaluation through
    # Polynomial.__call__ for a real class
    cases = [(p, probes) for p, probes in _root_search_cases(R03, seed) if p]
    cases += _family_cases(seed)
    want = [census_reference(p, probes) for p, probes in cases]
    names = ("roots_in_class", "quaternion_class_points", "_from_halves", "RootSet")
    calls = _count_calls(monkeypatch, sys.modules["clifflag.poly"], names)
    evaluations = _count_calls(monkeypatch, Polynomial, ("__call__",))
    assert [paravector_root_census(p, probes) for p, probes in cases] == want
    assert calls == dict.fromkeys(names, 0)
    assert evaluations == {"__call__": 0}


def test_real_probe_evaluates_on_the_kernel_rows(monkeypatch):
    # a real class is probed on the kept rows, not through Polynomial.__call__
    alpha = Fraction(-2, 3)
    for sig in (H, R03):
        y = Multivector.parse("1/2 + e1 - 3 e2", sig)
        p = Polynomial.x_minus(y) * Polynomial.from_scalars(sig, (-alpha, 1))
        evaluations = _count_calls(monkeypatch, Polynomial, ("__call__",))
        assert roots_in_class(p, ConjugacyClassId.real(alpha)).points == (Multivector.scalar(sig, alpha),)
        assert roots_in_class(p, ConjugacyClassId.real(alpha + 1)).is_empty
        assert evaluations == {"__call__": 0}
        monkeypatch.undo()


def test_only_the_cofactor_is_joined(monkeypatch):
    # real_root_multiplicity returns s alone and reduces nothing;
    # factor_out_characteristic reduces each coefficient of its cofactor Q
    # once
    cls_id = _sphere(Fraction(1, 2), Fraction(3, 2))
    alpha = Fraction(2, 3)
    for sig in (H, R03):
        linear = Polynomial.from_scalars(sig, (-alpha, 1))
        p = Polynomial.x_minus(Multivector.parse("1/3 + 2 e2", sig)) * linear * linear
        p = p * characteristic_poly(cls_id, sig)
        reductions = _count_calls(monkeypatch, sys.modules["clifflag.poly"].qk, ("_reduce",))
        assert real_root_multiplicity(p, alpha) == 2
        assert reductions == {"_reduce": 0}
        s, cofactor = factor_out_characteristic(p, cls_id)
        assert s == 1 and cofactor.degree == 3
        assert reductions == {"_reduce": 4}
        monkeypatch.undo()


def _multiplicities(p, cls_id):
    # (s, cofactor) from the public names, the cofactor of a real class
    # alpha = u / v from _divide_out, which real_root_multiplicity reads s
    # from: the rows of its halves divided by (v X - u)^s, times v^s over
    # den, each coefficient built from Fractions and, in R(0,3), joined
    # from its two quaternion halves by from_quaternion_pair
    if not cls_id.is_real:
        return factor_out_characteristic(p, cls_id)
    alpha = cls_id.alpha
    s, halves, den = _divide_out(p, (-alpha.numerator, alpha.denominator))
    assert real_root_multiplicity(p, alpha) == s
    f = Fraction(alpha.denominator**s, den)
    half_sig = H if p.sig == R03 else p.sig
    parts = [[Multivector(half_sig, [f * n for n in row]) for row in rows] for rows in halves]
    coeffs = [from_quaternion_pair(*c) if p.sig == R03 else c[0] for c in zip(*parts)]
    return s, Polynomial(p.sig, coeffs)


@pytest.mark.parametrize("sig", [H, R03], ids=["H", "R03"])
@pytest.mark.parametrize("seed", [1, 2])
def test_multiplicities_equal_repeated_long_division(sig, seed):
    # division of each blade coordinate on integers against repeated
    # Multivector long division, s and cofactor, on every probe of the
    # seeded polynomials, each also times (X - 2/3)^2: a double real root
    # with denominator 3
    alpha = Fraction(2, 3)
    linear = Polynomial.from_scalars(sig, (-alpha, 1))
    found = set()
    for p, probes in _root_search_cases(sig, seed):
        if not p:
            continue
        for q in (p, p * linear * linear):
            for cls_id in probes + [ConjugacyClassId.real(alpha)]:
                want = multiplicity_reference(q, characteristic_poly(cls_id, sig))
                assert _multiplicities(q, cls_id) == want
                found.add((cls_id.is_real, want[0]))
    assert {(True, 0), (True, 1), (True, 2), (False, 0), (False, 1)} <= found


def test_halves_holding_delta_to_different_powers():
    # in R(0,3) the plus half holds Delta once and the minus half twice:
    # s is the smaller power, and the cofactor keeps the minus half's Delta
    cls_id = _sphere(Fraction(1, 2), Fraction(3, 2))
    delta = characteristic_poly(cls_id, R03)
    one, e123 = Multivector.one(R03), Multivector.basis(R03, 1, 2, 3)
    plus, minus = (one + e123) / 2, (one - e123) / 2
    base = Polynomial.x_minus(Multivector.parse("1/3 + 2 e2 - e13", R03))
    p = base * delta * plus + base * delta * delta * minus
    want = (1, base * plus + base * delta * minus)
    assert factor_out_characteristic(p, cls_id) == want == multiplicity_reference(p, delta)


@pytest.mark.parametrize("sig", [H, R03], ids=["H", "R03"])
@pytest.mark.parametrize(
    "t, n",
    [(Fraction(1, 2), Fraction(5, 3)), (Fraction(-2, 3), Fraction(7, 4)), (Fraction(3, 4), Fraction(2, 9))],
)
def test_powers_of_a_class_quadratic_with_denominators(sig, t, n):
    # Delta^s for s = 2 and 3 on spheres whose t and n have different
    # denominators, so the key's leading coefficient L is above 1 and the
    # cofactor is scaled by L^s; in R(0,3) also with halves holding Delta
    # twice and three times; each also times (X + 1/3)^3, a real root whose
    # divisor 3 X + 1 leads with 3
    cls_id = ConjugacyClassId.sphere(t, n)
    assert cls_id._key[2] > 1
    delta = characteristic_poly(cls_id, sig)
    alpha = Fraction(-1, 3)
    linear = Polynomial.from_scalars(sig, (-alpha, 1))
    base = Polynomial.x_minus(Multivector.parse("1/2 + 2/3 e1 - e2 + 1/5 e12", sig))
    cases = [base * delta * delta, base * delta * delta * delta]
    if sig == R03:
        one, e123 = Multivector.one(R03), Multivector.basis(R03, 1, 2, 3)
        plus, minus = (one + e123) / 2, (one - e123) / 2
        cases.append(base * delta * delta * plus + base * delta * delta * delta * minus)
    for p in cases + [q * linear * linear * linear for q in cases]:
        want = multiplicity_reference(p, delta)
        assert want[0] in (2, 3)
        assert factor_out_characteristic(p, cls_id) == want
        r, cofactor = multiplicity_reference(p, linear)
        assert _multiplicities(p, ConjugacyClassId.real(alpha)) == (r, cofactor)
        if sig == R03:
            probes = [cls_id, ConjugacyClassId.real(alpha)]
            assert paravector_root_census(p, probes) == (r, want[0], 0)


@pytest.mark.parametrize(
    "sig",
    [Signature(0, 0), Signature(0, 1), Signature(1, 1), Signature(1, 2), Signature(0, 4)],
    ids=["R00", "R01", "R11", "R12", "R04"],
)
def test_multiplicities_outside_the_kernel_signatures(sig):
    # 1, 2, 4, 8 and 16 blade coordinates, R(1,2)'s 9-tuples as long as
    # R(0,3)'s; s and cofactor against repeated Multivector long division,
    # for Delta^2 on a sphere whose key leads with L = 6 and (X + 1/3)^2
    cls_id = ConjugacyClassId.sphere(Fraction(1, 2), Fraction(5, 3))
    assert cls_id._key[2] == 6
    alpha = Fraction(-1, 3)
    linear = Polynomial.from_scalars(sig, (-alpha, 1))
    delta = characteristic_poly(cls_id, sig)
    y = Multivector(sig, [Fraction((-1) ** h * (h + 1), h + 2) for h in range(sig.dim)])
    p = Polynomial.x_minus(y) * linear * linear * delta * delta
    got = factor_out_characteristic(p, cls_id)
    assert got == multiplicity_reference(p, delta) and got[0] == 2
    assert _multiplicities(p, ConjugacyClassId.real(alpha)) == multiplicity_reference(p, linear)
    assert real_root_multiplicity(p, alpha) == 2


@pytest.mark.parametrize("sig", [H, Signature(1, 1)], ids=["H", "R11"])
def test_zero_polynomial_refused_on_both_division_routes(sig):
    # the one division route refuses the zero polynomial for a sphere and
    # for a real root, whatever the signature: 4 coordinates here in both;
    # R(0,3) is test_zero_polynomial_has_no_finite_multiplicity
    zero = Polynomial.zero(sig)
    with pytest.raises(ValueError, match="no finite multiplicity"):
        factor_out_characteristic(zero, S)
    with pytest.raises(ValueError, match="no finite multiplicity"):
        real_root_multiplicity(zero, Fraction(1, 3))


def _count_divisions(monkeypatch):
    # one division pass divides each blade coordinate of P once
    kernel = sys.modules["clifflag.poly"].qk
    original = kernel.divide_columns
    passes = []

    def counting(columns, divisor):
        passes.append(divisor)
        return original(columns, divisor)

    monkeypatch.setattr(kernel, "divide_columns", counting)
    return passes


def test_census_divides_only_where_delta_divides(monkeypatch):
    # a sphere that Delta does not divide costs no division; one that it
    # divides costs s + 1 division passes to find the multiplicity s
    passes = _count_divisions(monkeypatch)
    rng = random.Random(34)
    (a0, b0), (a1, b1) = rand_class_params(rng, 2)
    y = Multivector.scalar(R03, a0) + Multivector.basis(R03, 1) * b0  # a paravector
    p = Polynomial.x_minus(y)
    assert paravector_root_census(p, [_sphere(a0, b0), _sphere(a1, b1)]) == (0, 0, 1)
    assert passes == []
    delta = characteristic_poly(_sphere(a1, b1), R03)
    assert paravector_root_census(p * delta, [_sphere(a1, b1)]) == (0, 1, 0)
    assert len(passes) == 2 and passes[0] == passes[1]


def test_census_searches_a_real_class_before_dividing(monkeypatch):
    # a real class whose alpha is not a root costs no division; a real root
    # of multiplicity r costs r + 1 division passes to find r
    passes = _count_divisions(monkeypatch)
    rng = random.Random(35)
    [(a0, b0)] = rand_class_params(rng, 1)
    y = Multivector.scalar(R03, a0) + Multivector.basis(R03, 1) * b0
    alpha = Fraction(1, 3)
    p = Polynomial.x_minus(y)
    assert paravector_root_census(p, [ConjugacyClassId.real(alpha)]) == (0, 0, 0)
    assert passes == []
    linear = Polynomial.from_scalars(R03, (-alpha, 1))
    p = p * linear * linear
    assert paravector_root_census(p, [ConjugacyClassId.real(alpha), _sphere(a0, b0)]) == (2, 0, 1)
    # 3 X - 1: the primitive integer divisor of X - 1/3
    assert passes == [(-1, 3)] * 3


def _count_reductions(monkeypatch):
    # the Horner reduction modulo a class quadratic, which both
    # affine_restriction and the root search's sphere_root run
    kernel = sys.modules["clifflag.poly"].qk
    original = kernel._remainder_numerators
    calls = []

    def counting(rows, key):
        calls.append(key)
        return original(rows, key)

    monkeypatch.setattr(kernel, "_remainder_numerators", counting)
    return calls


def test_sphere_probe_stops_at_its_first_empty_half(monkeypatch):
    # X - e1 has its plus half's only root in S, so a probe of Sphere(0, 4)
    # is empty after reducing the plus half; the minus half is never reduced
    calls = _count_reductions(monkeypatch)
    p = Polynomial.x_minus(Multivector.basis(R03, 1))
    assert roots_in_class(p, _sphere(0, 2)).is_empty
    assert len(calls) == 1
    calls.clear()
    assert roots_in_class(p, S) == RootSet("points", S, (Multivector.basis(R03, 1),))
    assert len(calls) == 2


def test_empty_sphere_probe_reduces_nothing(monkeypatch):
    # the class is decided on the remainder's unreduced numerators: a probe
    # without a root takes no gcd, inverse or product, and a root found is
    # one product per half, reduced once, where join puts its halves together
    names = ("_reduce", "_product", "inverse", "join")
    p = Polynomial.x_minus(Multivector.basis(R03, 1))  # both halves X - i
    q = Polynomial.x_minus(I)
    _split(p), _split(q)  # the rows are formed before counting
    calls = _count_calls(monkeypatch, sys.modules["clifflag.poly"].qk, names)
    # i has norm 1, not 4; and trace 0, not 2
    for cls_id in (_sphere(0, 2), ConjugacyClassId.sphere(2, 2)):
        assert roots_in_class(p, cls_id).is_empty
        assert roots_in_class(q, cls_id).is_empty
    assert calls == dict.fromkeys(names, 0)
    assert roots_in_class(q, S) == RootSet("points", S, (I,))
    assert calls == {**dict.fromkeys(names, 0), "_reduce": 1, "_product": 1, "join": 1}
    calls.update(dict.fromkeys(names, 0))
    assert roots_in_class(p, S) == RootSet("points", S, (Multivector.basis(R03, 1),))
    assert calls == {**dict.fromkeys(names, 0), "_reduce": 1, "_product": 2, "join": 1}


@pytest.mark.parametrize("seed", [1, 2])
def test_census_reduces_as_the_root_search_does(seed, monkeypatch):
    # the census searches each class as roots_in_class does: over the same
    # classes it makes exactly the root search's reductions, and a real
    # class makes none in either
    calls = _count_reductions(monkeypatch)
    for p, probes in _root_search_cases(R03, seed):
        if not p:
            continue
        classes = list(dict.fromkeys(probes))
        calls.clear()
        for cls_id in classes:
            roots_in_class(p, cls_id)
        searched = list(calls)
        calls.clear()
        paravector_root_census(p, probes)
        assert calls == searched
        assert len(calls) <= 2 * sum(not cls_id.is_real for cls_id in classes)


@pytest.mark.parametrize("sig", [H, R03], ids=["H", "R03"])
def test_each_polynomial_is_split_once(sig, monkeypatch):
    # the root search over 20 classes, the census over the same classes
    # (R(0,3) only), an affine restriction and an evaluation all read the
    # kernel rows the polynomial keeps: one split, not one per call
    rng = random.Random(20)
    params = rand_class_params(rng, 16)
    if sig == R03:
        roots = [r03_cone_point(a, b, *rng.sample(_UNITS, 2)) for a, b in params[:3]]
    else:
        roots = [quaternion_from_parts(a, [b * c for c in rng.choice(_UNITS)]) for a, b in params[:3]]
    roots.append(Multivector.scalar(sig, Fraction(1, 2)))
    p = characteristic_poly(_sphere(*params[3]), sig)
    for y in roots:
        p = append_root(p, y)
    p = Polynomial(sig, p.coeffs)  # a fresh value, its rows not yet formed
    classes = [_sphere(a, b) for a, b in params]
    classes += [ConjugacyClassId.real(Fraction(h, 2)) for h in range(-2, 2)]
    assert len(set(classes)) == 20

    kernel = sys.modules["clifflag.poly"].qk
    splits = []

    def counting(nums, count):
        splits.append(nums)
        return original(nums, count)

    original = kernel.split_rows
    monkeypatch.setattr(kernel, "split_rows", counting)
    found = [roots_in_class(p, cls_id) for cls_id in classes]
    assert sum(not rs.is_empty for rs in found) >= 5
    if sig == R03:
        r, s, _ = paravector_root_census(p, classes)
        assert (r, s) == (1, 1)
    affine_restriction(p, classes[0])
    assert p(roots[0]) == 0
    assert splits == [[c._num for c in p.coeffs]]


def _half_family():
    # (1 - e123) + X (e1 + e23) has a zero plus half, free over the class S,
    # and a minus half pinned at i: a sampled family
    e1 = Multivector.basis(R03, 1)
    e23 = Multivector.basis(R03, 2, 3)
    e123 = Multivector.basis(R03, 1, 2, 3)
    return Polynomial(R03, (Multivector.one(R03) - e123, e1 + e23))


def test_sampled_family_evaluates_the_pinned_half_once(monkeypatch):
    # the pinned half is the same for every candidate: one evaluation of it
    # plus one of the free half per candidate (two per candidate before)
    kernel = sys.modules["clifflag.poly"].qk
    original = kernel._horner
    calls = []

    def counting(rows, den, x):
        calls.append(x)
        return original(rows, den, x)

    monkeypatch.setattr(kernel, "_horner", counting)
    found = roots_in_class(_half_family(), S)
    assert found.kind == "points" and not found.exhaustive
    assert len(found.points) > 1
    assert len(calls) == len(found.points) + 1


def test_sampled_family_self_check_is_live(monkeypatch):
    # a pinned half that does not vanish at its point must still be caught
    kernel = sys.modules["clifflag.poly"].qk
    original = kernel._horner

    def pinned_misses(rows, den, x):
        if any(any(row) for row in rows):  # the free half is the zero polynomial
            return (1, 0, 0, 0, 1)
        return original(rows, den, x)

    monkeypatch.setattr(kernel, "_horner", pinned_misses)
    with pytest.raises(AssertionError, match="is not a root"):
        roots_in_class(_half_family(), S)


def test_sampled_families_build_one_multivector_each(monkeypatch):
    # (X - x1)(X - x2)(X - x3) (1 + e123)/2 has a zero minus half, free over
    # every class, and a plus half pinned at one point of each x_i's class:
    # one sampled family per probe. Candidates stay kernel tuples, so the
    # constructor runs at most once per family, not once per candidate.
    rng = random.Random(41)
    roots = [rand_cone_point_r03(rng) for _ in range(3)]
    p = Polynomial.one(R03)
    for x in roots:
        p = p * Polynomial.x_minus(x)
    p = p * ((Multivector.one(R03) + Multivector.basis(R03, 1, 2, 3)) / 2)
    classes = [x.conjugacy_class() for x in roots]
    calls = []
    original = Multivector.__init__

    def counting(self, *args):
        calls.append(args)
        original(self, *args)

    monkeypatch.setattr(Multivector, "__init__", counting)
    found = [roots_in_class(p, cls_id) for cls_id in classes]
    monkeypatch.undo()
    assert all(rs.kind == "points" and not rs.exhaustive and len(rs.points) > 1 for rs in found)
    assert len(calls) <= len(classes)
    for rs in found:
        assert all(p(x) == 0 and x.conjugacy_class() == rs.cls_id for x in rs.points)


def test_roots_in_class_quaternion_cases():
    rs = roots_in_class(Polynomial.from_scalars(H, (1, 0, 1)), S)
    assert rs.kind == "whole_class"
    x0 = ONE_H + I
    rs = roots_in_class(Polynomial.x_minus(x0), x0.conjugacy_class())
    assert rs.kind == "points" and rs.points == (x0,) and rs.exhaustive
    rs = roots_in_class(Polynomial.x_minus(x0), S)
    assert rs.is_empty
    rs = roots_in_class(Polynomial.constant(I), S)  # a = 0, b != 0
    assert rs.is_empty


def test_roots_in_class_real_class():
    p = Polynomial.x_minus(Multivector.scalar(H, 2))
    assert roots_in_class(p, ConjugacyClassId.real(2)).points == (Multivector.scalar(H, 2),)
    assert roots_in_class(p, ConjugacyClassId.real(1)).is_empty


def test_roots_in_class_r03_zero_divisor_family():
    # X (e1 + e23) + 1 - e123 kills e1 and e23 but not e2
    e1 = Multivector.basis(R03, 1)
    e2 = Multivector.basis(R03, 2)
    e23 = Multivector.basis(R03, 2, 3)
    e123 = Multivector.basis(R03, 1, 2, 3)
    p = Polynomial(R03, (Multivector.one(R03) - e123, e1 + e23))
    assert p(e1) == 0 and p(e23) == 0 and p(e2) != 0
    rs = roots_in_class(p, S)
    assert rs.kind == "points" and not rs.exhaustive
    assert e1 in rs.points and e23 in rs.points
    assert e2 not in rs.points
    for x in rs.points:
        assert p(x) == 0
        assert x.conjugacy_class() == S


def test_roots_in_class_r03_outcomes():
    # each quaternionic half is a point, the whole sphere or empty
    e1 = Multivector.basis(R03, 1)
    e23 = Multivector.basis(R03, 2, 3)
    e123 = Multivector.basis(R03, 1, 2, 3)
    one = Multivector.one(R03)
    assert roots_in_class(characteristic_poly(S, R03), S).kind == "whole_class"
    assert roots_in_class(Polynomial.constant(one), S).is_empty
    # 1 + e123 is zero in one half only: whole sphere there, empty in the other
    assert roots_in_class(Polynomial.constant(one + e123), S).is_empty
    # mirror of the zero-divisor family above: the other half is pinned
    p = Polynomial(R03, (one + e123, e1 - e23))
    rs = roots_in_class(p, S)
    assert rs.kind == "points" and not rs.exhaustive
    assert e1 in rs.points and -e23 in rs.points
    assert all(p(x) == 0 and x.conjugacy_class() == S for x in rs.points)


def test_roots_in_class_r03_unique_point():
    rng = random.Random(29)
    x0 = rand_cone_point_r03(rng)
    p = append_root(Polynomial.one(R03), x0)
    rs = roots_in_class(p, x0.conjugacy_class())
    assert rs.kind == "points" and rs.exhaustive and rs.points == (x0,)


def test_degree_one_roots_share_a_class_in_r03():
    # both solutions of a degree-one polynomial with zero-divisor slope
    # stay in a single conjugacy class
    rng = random.Random(30)
    for _ in range(25):
        a1 = rand_zero_divisor(rng)
        x0 = rand_cone_point_r03(rng)
        p = Polynomial(R03, (-(x0 * a1), a1))
        assert p(x0) == 0
        populated = []
        probe_classes = {x0.conjugacy_class()}
        while len(probe_classes) < 8:
            probe_classes.add(rand_cone_point_r03(rng).conjugacy_class())
        for cls in probe_classes:
            if not roots_in_class(p, cls).is_empty:
                populated.append(cls)
        assert populated == [x0.conjugacy_class()]


def test_divide_by_real():
    delta = Polynomial.from_scalars(H, (1, 0, 1))
    p = delta * Polynomial.x_minus(ONE_H)
    q, r = divide_by_real(p, delta)
    assert q == Polynomial.x_minus(ONE_H) and not r
    q, r = divide_by_real(Polynomial.x_minus(I), delta)
    assert not q and r == Polynomial.x_minus(I)
    with pytest.raises(ValueError):
        divide_by_real(p, Polynomial.x_minus(I))  # non-real divisor


def test_factor_out_characteristic():
    delta = Polynomial.from_scalars(H, (1, 0, 1))
    s, q = factor_out_characteristic(delta * Polynomial.x_minus(ONE_H), S)
    assert s == 1 and q == Polynomial.x_minus(ONE_H)
    s, q = factor_out_characteristic(delta, S)
    assert s == 1 and q == Polynomial.one(H)
    rng = random.Random(31)
    delta3 = characteristic_poly(S, R03)
    rest = Polynomial(R03, (rand_multivector(rng, R03), Multivector.one(R03)))
    s, q = factor_out_characteristic(delta3 * delta3 * rest, S)
    assert s >= 2


def test_real_root_multiplicity():
    p = Polynomial.x_minus(ONE_H) * Polynomial.x_minus(ONE_H) * Polynomial.x_minus(-ONE_H)
    assert real_root_multiplicity(p, 1) == 2
    assert real_root_multiplicity(p, -1) == 1
    assert real_root_multiplicity(p, 2) == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda zero: paravector_root_census(zero, [S]),
        lambda zero: factor_out_characteristic(zero, S),
        lambda zero: real_root_multiplicity(zero, 1),
    ],
    ids=["census", "factor_out_characteristic", "real_root_multiplicity"],
)
def test_zero_polynomial_has_no_finite_multiplicity(call):
    # every power of Delta and of X - alpha divides 0
    with pytest.raises(ValueError, match="no finite multiplicity"):
        call(Polynomial.zero(R03))
    assert roots_in_class(Polynomial.zero(R03), S).kind == "whole_class"
    assert roots_in_class(Polynomial.zero(R03), ConjugacyClassId.real(1)).kind == "points"


R01 = Signature(0, 1)
ONE_R03 = Multivector.one(R03)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: roots_in_class(Polynomial.one(R01), S), UnsupportedSignature, "root search"),
        (lambda: affine_restriction(Polynomial.one(R01), S), UnsupportedSignature, "affine"),
        (lambda: paravector_root_census(P_FIVE, [S]), WrongSignature, "root census"),
        (
            lambda: factor_out_characteristic(P_FIVE, ConjugacyClassId.real(1)),
            ValueError,
            "expected a sphere class",
        ),
        (lambda: Polynomial(H, (ONE_H, 1)), TypeError, "must be multivectors"),
        (lambda: Polynomial(H, (ONE_H, ONE_R03)), SignatureMismatch, "coefficient in"),
        (lambda: P_FIVE(ONE_R03), SignatureMismatch, "point in"),
        (lambda: P_FIVE + Polynomial.one(R03), SignatureMismatch, " vs "),
        (lambda: Polynomial.zero(H).leading, ValueError, "no leading coefficient"),
        (lambda: I / 0, ZeroDivisionError, "by zero scalar"),
    ],
    ids=[
        "roots_in_class-R01",
        "affine_restriction-R01",
        "census-H",
        "factor_out_characteristic-real-class",
        "coefficient-not-multivector",
        "coefficient-other-signature",
        "eval-other-signature",
        "add-other-signature",
        "leading-of-zero",
        "multivector-over-zero",
    ],
)
def test_refusals_are_named(call, error, match):
    with pytest.raises(error, match=match):
        call()


P_OPS = Polynomial.parse("X^2*(e1) + (1)", H)
Q_OPS = Polynomial.parse("X^1*(e2) + (3)", H)


@pytest.mark.parametrize(
    "value, text",
    [
        (P_OPS - Q_OPS, "X^2*(e1) + X^1*(-e2) + (-2)"),
        (-P_OPS, "X^2*(-e1) + (-1)"),
        (2 * P_OPS, "X^2*(2 e1) + (2)"),
        (1 - I, "1 - e1"),
    ],
    ids=["polynomial-sub", "polynomial-neg", "polynomial-rmul", "multivector-rsub"],
)
def test_operators_give_known_values(value, text):
    assert str(value) == text


def test_census_constructed_equality_case():
    one3 = Multivector.one(R03)
    p = Polynomial.x_minus(one3) * Polynomial.from_scalars(R03, (1, 0, 1))
    r, s, k = paravector_root_census(p, [ConjugacyClassId.real(1), S])
    assert (r, s, k) == (1, 1, 0)
    assert r + 2 * s + k == p.degree


def test_census_degree_one_zero_divisor_example():
    e1 = Multivector.basis(R03, 1)
    e23 = Multivector.basis(R03, 2, 3)
    e123 = Multivector.basis(R03, 1, 2, 3)
    p = Polynomial(R03, (Multivector.one(R03) - e123, e1 + e23))
    r, s, k = paravector_root_census(p, [S])
    assert (r, s, k) == (0, 0, 1)  # only e1 is a paravector root
    assert r + 2 * s + k <= p.degree


def test_census_bound_on_constructed_instances():
    rng = random.Random(32)
    one3 = Multivector.one(R03)
    for _ in range(20):
        reals = [rng.randint(-2, 2) for _ in range(rng.randint(0, 2))]
        n_spheres = rng.randint(0, 2)
        params = rand_class_params(rng, n_spheres + 1)[:n_spheres]
        p = Polynomial.one(R03)
        witnessed = []
        for alpha in reals:
            p = p * Polynomial.x_minus(Multivector.scalar(R03, alpha))
            witnessed.append(ConjugacyClassId.real(alpha))
        for a, b in params:
            cls = ConjugacyClassId.sphere(2 * a, a * a + b * b)
            p = p * characteristic_poly(cls, R03)
            witnessed.append(cls)
        extra = rand_cone_point_r03(rng)
        if extra.conjugacy_class() not in witnessed:
            p = append_root(p, extra)
            witnessed.append(extra.conjugacy_class())
        if p.degree == 0:
            continue
        r, s, k = paravector_root_census(p, witnessed)
        assert r + 2 * s + k <= p.degree


def test_root_count_bound_r20_negative_control():
    # a degree-one polynomial over R(2,0) with cone roots in two distinct
    # classes: the R(0,3) class-count machinery must not be trusted there
    s20 = Signature(2, 0)
    e1 = Multivector.basis(s20, 1)
    e2 = Multivector.basis(s20, 2)
    e12 = Multivector.basis(s20, 1, 2)
    p = Polynomial(s20, (e2 - Multivector.one(s20), e1 - e12))
    root_a = e12
    root_b = e1 / 3 + e12 * Fraction(2, 3)
    assert p(root_a) == 0 and p(root_b) == 0
    assert root_a.in_quadratic_cone() and root_b.in_quadratic_cone()
    assert root_a.conjugacy_class() != root_b.conjugacy_class()


def test_polynomial_text_round_trip():
    text = "X^3*(e12) + X^2*(1) + (1)"
    p = Polynomial.parse(text, H)
    assert str(p) == text
    assert Polynomial.parse(str(p), H) == p
    assert str(Polynomial.zero(H)) == "(0)"
    assert Polynomial.parse("X^2*(1) - (e1)", H) == Polynomial(H, (-I, ZERO_H, ONE_H))
    assert Polynomial.parse("X", H) == Polynomial.identity(H)
    assert Polynomial.parse("X^0*(5)", H) == Polynomial.constant(Multivector.scalar(H, 5))


def test_polynomial_parse_errors():
    with pytest.raises(ParseError):
        Polynomial.parse("X^*(1)", H)
    with pytest.raises(ParseError):
        Polynomial.parse("X^2(1)", H)
    with pytest.raises(ParseError):
        Polynomial.parse("(1", H)
    with pytest.raises(ParseError):
        Polynomial.parse("", H)
    # a trailing sign is refused, inside a coefficient as well
    for text in ("X^2*(1) +", "X^2*(1) -", "X^2*(1) + ", "+", "X^1*(1 -)", "(e1 +) + (1)"):
        with pytest.raises(ParseError, match="dangling sign"):
            Polynomial.parse(text, H)
    # only ASCII digits are numbers in a coefficient
    for text in ("(\u0663)", "X^1*(e\u0661)"):
        with pytest.raises(ParseError, match="cannot parse"):
            Polynomial.parse(text, H)


@pytest.mark.parametrize("text", ["X**2", "*1", "1*", "e1*", "2**e1", "X*(*2)"])
def test_stray_star_is_refused(text):
    # '*' stands after X or a power of X, or between a number and its blade:
    # 'X**2' is neither X^2 nor X 2
    with pytest.raises(ParseError, match="cannot parse"):
        Polynomial.parse(text, H)


def test_star_between_number_and_blade_still_parses():
    two_i = Multivector.parse("2 e1", H)
    assert Multivector.parse("2*e1", H) == two_i
    assert Polynomial.parse("2*e1", H) == Polynomial.constant(two_i)
    assert Polynomial.parse("X^2*e1", H) == Polynomial(H, (ZERO_H, ZERO_H, I))
    assert Polynomial.parse("X^2*2*e1 - 1/2 * e12", H) == Polynomial(H, (-K / 2, ZERO_H, two_i))


def test_polynomial_parse_is_linear_in_input():
    # trailing whitespace and many parenthesised terms are each read in one pass
    assert Polynomial.parse("(1)" + " " * 300_000, H) == Polynomial.constant(ONE_H)
    many = Polynomial.parse("+".join(["(1)"] * 20_000), H)
    assert many == Polynomial.constant(Multivector.scalar(H, 20_000))


def test_polynomial_parse_degree_cap():
    top = Polynomial.parse(f"X^{MAX_DEGREE}*(e1) + (1)", H)
    assert top.degree == MAX_DEGREE and top.leading == I
    with pytest.raises(ParseError, match=f"exponent {MAX_DEGREE + 1}"):
        Polynomial.parse(f"X^{MAX_DEGREE + 1}*(e1) + (1)", H)


def test_polynomial_parse_long_exponent():
    # int() refuses more than 4300 digits; leading zeros do not count
    with pytest.raises(ParseError, match="exceeds"):
        Polynomial.parse("X^" + "1" * 4301 + "*(1)", H)
    assert Polynomial.parse("X^0002*(1)", H).degree == 2
    assert Polynomial.parse("X^" + "0" * 5000 + "3*(1)", H).degree == 3
    # a non-ASCII digit is no exponent (int() would refuse it as well)
    with pytest.raises(ParseError, match="missing exponent"):
        Polynomial.parse("X^\u00b2*(1)", H)


def test_zero_polynomial_has_none_degree():
    assert Polynomial.zero(H).degree is None
    assert Polynomial.constant(ZERO_H).degree is None
    assert Polynomial(H, (ONE_H, ZERO_H)).degree == 0
