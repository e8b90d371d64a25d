"""Tests for exact multivector arithmetic, the quadratic cone and classes."""

import random
from fractions import Fraction

import pytest

from clifflag import (
    HARD_DIM_LIMIT,
    ConjugacyClassId,
    Multivector,
    NotInCone,
    NotInvertible,
    ParseError,
    Polynomial,
    QUATERNIONS,
    R03,
    Signature,
    SignatureMismatch,
    WrongSignature,
    from_quaternion_pair,
    same_class,
    to_quaternion_pair,
)
from util import (
    rand_multivector,
    rand_invertible,
    rand_cone_point_r03,
    rand_zero_divisor,
)

H = QUATERNIONS
I = Multivector.basis(H, 1)
J = Multivector.basis(H, 2)
K = Multivector.basis(H, 1, 2)


def test_defining_relations_quaternions():
    assert I * I == -1
    assert I * J == K
    assert K * K == -1
    assert J * I == -K


def test_unit_blade_is_identity():
    rng = random.Random(0)
    for sig in (H, R03, Signature(2, 0), Signature(1, 1)):
        x = rand_multivector(rng, sig)
        assert Multivector.one(sig) * x == x
        assert x * Multivector.one(sig) == x


def test_product_is_associative_and_bilinear():
    rng = random.Random(1)
    for sig in (R03, H, Signature(1, 3)):
        one = Multivector.one(sig)
        for _ in range(20):
            a, b, c = (rand_multivector(rng, sig, 3) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            assert one * a == a * one == a


def test_signature_mismatch_raises():
    with pytest.raises(SignatureMismatch):
        Multivector.one(H) * Multivector.one(R03)


@pytest.mark.parametrize("sig", [H, R03], ids=["H", "R03"])
def test_subtraction_takes_exact_scalars_on_either_side(sig):
    # ints and Fractions subtract from either side; a float is refused
    # with the operator and the operands in the order they were written
    x = Multivector.basis(sig, 1)
    for scalar in (1, Fraction(1, 2)):
        assert scalar - x == Multivector.scalar(sig, scalar) - x == -(x - scalar)
    with pytest.raises(TypeError, match=r"for -: 'float' and 'Multivector'"):
        0.5 - x
    with pytest.raises(TypeError, match=r"for -: 'Multivector' and 'float'"):
        x - 0.5


def test_conjugation_known_values():
    assert Multivector.scalar(H, 5).conjugate() == 5
    e1 = Multivector.basis(R03, 1)
    e12 = Multivector.basis(R03, 1, 2)
    e123 = Multivector.basis(R03, 1, 2, 3)
    assert (e1 + e12 + e123).conjugate() == -e1 - e12 + e123


def test_conjugation_is_anti_involution():
    rng = random.Random(2)
    for sig in (H, R03, Signature(0, 4), Signature(2, 0)):
        for _ in range(50):
            x = rand_multivector(rng, sig, 3)
            y = rand_multivector(rng, sig, 3)
            assert (x * y).conjugate() == y.conjugate() * x.conjugate()
            assert x.conjugate().conjugate() == x


def test_trace_norm_known_values():
    x = Multivector.scalar(H, 3)
    assert x.trace() == 6
    assert x.norm() == 9
    y = Multivector.basis(R03, 2) + Multivector.basis(R03, 2, 3)
    assert y.trace() == 0
    assert y.norm() == 2


def test_norm_invariant_under_conjugation():
    rng = random.Random(3)
    for _ in range(50):
        x = rand_multivector(rng, R03)
        assert x.norm() == x.conjugate().norm()


def test_trace_and_norm_are_central_in_r03():
    rng = random.Random(4)
    x = rand_multivector(rng, R03)
    t, n = x.trace(), x.norm()
    for _ in range(20):
        y = rand_multivector(rng, R03)
        assert t * y == y * t
        assert n * y == y * n


def test_phi_known_values():
    assert Multivector.basis(R03, 1).phi() == 0
    assert (Multivector.basis(R03, 1) + Multivector.basis(R03, 2, 3)).phi() == -2
    assert (Multivector.one(R03) + Multivector.basis(R03, 1, 2, 3)).phi() == 2


def test_phi_wrong_signature():
    with pytest.raises(WrongSignature):
        Multivector.one(H).phi()


def test_psi_zero_divisor_witness():
    x = Multivector.basis(R03, 1) - Multivector.basis(R03, 2, 3)
    assert x.psi_minus() == 0
    assert x.psi_plus() == 4
    assert not x.is_invertible()


def test_psi_of_one():
    one = Multivector.one(R03)
    assert one.psi_plus() == 1
    assert one.psi_minus() == 1


def test_psi_product_identity():
    rng = random.Random(5)
    for _ in range(50):
        x = rand_multivector(rng, R03)
        assert x.psi_plus() * x.psi_minus() == x.abs_squared() ** 2 - x.phi() ** 2
        assert x.psi_plus() == x.abs_squared() + x.phi()
        assert x.psi_minus() == x.abs_squared() - x.phi()


def test_psi_and_phi_closed_forms():
    # the coordinate formulas, written out once more as a reference
    rng = random.Random(6)
    for _ in range(50):
        c = rand_multivector(rng, R03).coeffs
        x = Multivector(R03, c)
        assert x.phi() == 2 * (c[0] * c[7] - c[1] * c[6] + c[2] * c[5] - c[3] * c[4])
        assert x.psi_plus() == (
            (c[0] + c[7]) ** 2 + (c[1] - c[6]) ** 2 + (c[2] + c[5]) ** 2 + (c[3] - c[4]) ** 2
        )
        assert x.psi_minus() == (
            (c[0] - c[7]) ** 2 + (c[1] + c[6]) ** 2 + (c[2] - c[5]) ** 2 + (c[3] + c[4]) ** 2
        )


def test_inverse_quaternion():
    x = Multivector.one(H) + I
    assert x.inverse() == (Multivector.one(H) - I) / 2
    assert x * x.inverse() == 1


def test_inverse_round_trip():
    rng = random.Random(6)
    for sig in (H, R03, Signature(0, 4), Signature(1, 1)):
        for _ in range(10):
            x = rand_invertible(rng, sig)
            assert x * x.inverse() == 1
            assert x.inverse() * x == 1


def test_not_invertible_cases():
    with pytest.raises(NotInvertible):
        (Multivector.basis(R03, 1) - Multivector.basis(R03, 2, 3)).inverse()
    with pytest.raises(NotInvertible):
        Multivector.zero(H).inverse()
    s20 = Signature(2, 0)
    with pytest.raises(NotInvertible):
        (Multivector.basis(s20, 1) - Multivector.basis(s20, 1, 2)).inverse()


def test_r03_inverse_error_names_the_element():
    # a zero divisor has one zero half; the error names x, not that half
    for text in ("e1 - e23", "e1 + e23", "1 - e123", "e2 + e13 + 3 + 3 e123"):
        x = Multivector.parse(text, R03)
        with pytest.raises(NotInvertible) as info:
            x.inverse()
        assert str(info.value) == str(x)


@pytest.mark.parametrize(
    "p,q",
    [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3), (1, 2), (2, 1), (3, 0),
     (0, 4), (1, 3), (2, 2), (3, 1), (4, 0)],
)
def test_left_multiplication_matrix_matches_blade_products(p, q):
    sig = Signature(p, q)
    rng = random.Random(f"left-matrix {p},{q}")
    for _ in range(3):
        x = rand_multivector(rng, sig)
        matrix = x.left_multiplication_matrix()
        for k in range(sig.dim):
            for j in range(sig.dim):
                assert matrix[k][j] == (x * Multivector.blade(sig, j)).coeffs[k]
        y = rand_multivector(rng, sig)
        product = [sum((a * b for a, b in zip(row, y.coeffs)), Fraction(0)) for row in matrix]
        assert product == list((x * y).coeffs)


def test_inverse_r13_pinned():
    # general-signature inverses run Faddeev-LeVerrier in the algebra; these
    # strings were pinned when they came from the exact linear solve
    s13 = Signature(1, 3)
    x = Multivector.parse("2 + e1 - e23 + 1/2 e1234", s13)
    assert str(x.inverse()) == (
        "136/337 - 36/337 e1 + 92/337 e23 - 64/337 e123 + 32/337 e14 - 18/337 e1234"
    )
    x = Multivector.parse("1 + e2 + 3/2 e13 - e124", s13)
    assert str(x.inverse()) == (
        "12/89 - 52/89 e2 + 30/89 e13 - 48/89 e123 - 32/89 e14 - 20/89 e124"
    )
    for text in ("1 + e1", "1 + e14"):
        with pytest.raises(NotInvertible):
            Multivector.parse(text, s13).inverse()


def test_invertibility_matches_psi_product():
    # invertible in R(0,3) iff psi+ psi- != 0, on random elements plus
    # forced zero divisors
    rng = random.Random(7)
    samples = [rand_multivector(rng, R03) for _ in range(150)]
    samples += [rand_zero_divisor(rng) for _ in range(50)]
    for x in samples:
        assert x.is_invertible() == (x.psi_plus() * x.psi_minus() != 0)


def test_every_quaternion_in_cone():
    rng = random.Random(8)
    for _ in range(50):
        assert rand_multivector(rng, H).in_quadratic_cone()


def test_cone_counterexamples():
    assert not Multivector.basis(R03, 1, 2, 3).in_quadratic_cone()
    s04 = Signature(0, 4)
    x = Multivector.basis(s04, 4) * Fraction(5, 3) - Multivector.basis(
        s04, 1, 2, 3, 4
    ) * Fraction(4, 3)
    assert not x.in_quadratic_cone()


def test_cone_strict_form_equals_relaxed_form_in_0q():
    # for q = 2, 3 the inequality 4n > t^2 is automatic off the reals
    rng = random.Random(9)
    for sig in (H, R03):
        samples = [rand_multivector(rng, sig) for _ in range(100)]
        samples.append(Multivector.scalar(sig, -2))
        samples.append(Multivector.zero(sig))
        for x in samples:
            assert x.in_quadratic_cone() == (
                x.is_scalar() or (x.trace().is_scalar() and x.norm().is_scalar())
            )


def test_r03_cone_is_cut_out_by_pseudoscalar_and_phi():
    rng = random.Random(10)
    for _ in range(100):
        x = rand_multivector(rng, R03)
        expected = x.coeffs[7] == 0 and x.phi() == 0
        assert (x.trace().is_scalar() and x.norm().is_scalar()) == expected


def test_class_known_pairs():
    assert same_class(I, J)
    assert same_class(Multivector.basis(R03, 1), Multivector.basis(R03, 2, 3))
    assert not same_class(Multivector.zero(H), Multivector.one(H))


def test_class_of_known_point():
    c = (Multivector.one(H) + I).conjugacy_class()
    assert c == ConjugacyClassId.sphere(2, 2)
    assert not c.is_real
    r = Multivector.scalar(H, Fraction(-3, 2)).conjugacy_class()
    assert r.is_real and r.alpha == Fraction(-3, 2)


def test_class_of_requires_cone():
    with pytest.raises(NotInCone):
        Multivector.basis(R03, 1, 2, 3).conjugacy_class()


def test_class_ids_reject_impossible_pairs():
    with pytest.raises(ValueError):
        ConjugacyClassId(Fraction(4), Fraction(1))
    with pytest.raises(ValueError):
        ConjugacyClassId.sphere(2, 1)


def test_distinct_class_differences_invertible_r03():
    # cone pairs in distinct classes always have invertible difference
    rng = random.Random(11)
    for _ in range(200):
        x = rand_cone_point_r03(rng)
        y = rand_cone_point_r03(rng)
        if x.conjugacy_class() == y.conjugacy_class():
            continue
        assert (x - y).is_invertible()


def test_conjugation_preserves_class_within_cone():
    rng = random.Random(12)
    for _ in range(50):
        x = rand_cone_point_r03(rng)
        a = rand_invertible(rng, R03)
        y = a * x * a.inverse()
        if y.in_quadratic_cone():
            assert same_class(x, y)


def test_conjugate_can_leave_cone_in_0_4():
    s04 = Signature(0, 4)
    a = Multivector.scalar(s04, 2) + Multivector.basis(s04, 1, 2, 3)
    e4 = Multivector.basis(s04, 4)
    assert e4.in_quadratic_cone()
    assert not (a.inverse() * e4 * a).in_quadratic_cone()


def test_split_known_values():
    assert to_quaternion_pair(Multivector.one(R03)) == (
        Multivector.one(H),
        Multivector.one(H),
    )
    plus, minus = to_quaternion_pair(Multivector.basis(R03, 1, 2, 3))
    assert plus == 1 and minus == -1


def test_split_merge_round_trip_and_homomorphism():
    rng = random.Random(13)
    for _ in range(50):
        x = rand_multivector(rng, R03)
        y = rand_multivector(rng, R03)
        assert from_quaternion_pair(*to_quaternion_pair(x)) == x
        xp, xm = to_quaternion_pair(x)
        yp, ym = to_quaternion_pair(y)
        pp, pm = to_quaternion_pair(x * y)
        assert pp == xp * yp
        assert pm == xm * ym
        assert to_quaternion_pair(x + y) == (xp + yp, xm + ym)
    assert to_quaternion_pair(Multivector.one(R03)) == (Multivector.one(H),) * 2


def test_invertible_iff_both_components_nonzero():
    rng = random.Random(14)
    samples = [rand_multivector(rng, R03) for _ in range(60)]
    samples += [rand_zero_divisor(rng) for _ in range(40)]
    for x in samples:
        plus, minus = to_quaternion_pair(x)
        both = bool(plus) and bool(minus)
        assert x.is_invertible() == both
        assert both == (x.psi_plus() * x.psi_minus() != 0)


def test_paravector_predicate():
    assert Multivector.one(R03).is_paravector()
    assert Multivector.basis(R03, 3).is_paravector()
    assert not Multivector.basis(R03, 2, 3).is_paravector()


def test_grade_projection():
    x = Multivector.parse("1 + 2 e1 + 3 e12 + 4 e123", R03)
    assert x.grade(1) == Multivector.parse("2 e1", R03)
    assert x.grade(0) == 1
    assert sum((x.grade(k) for k in range(4)), Multivector.zero(R03)) == x


def test_parse_print_round_trip():
    text = "3/2 + e1 - 2 e23 + 1/5 e123"
    x = Multivector.parse(text, R03)
    assert str(x) == text
    assert Multivector.parse(str(x), R03) == x
    assert str(Multivector.zero(R03)) == "0"
    assert Multivector.parse("-1", H) == -1
    assert Multivector.parse("2e12", H) == Multivector.basis(H, 1, 2) * 2


def test_parse_rejects_bad_blades():
    with pytest.raises(ParseError):
        Multivector.parse("e21", R03)
    with pytest.raises(ParseError):
        Multivector.parse("e0", R03)
    with pytest.raises(ParseError):
        Multivector.parse("e14", R03)
    with pytest.raises(ParseError):
        Multivector.parse("", R03)
    with pytest.raises(ParseError):
        Multivector.parse("1 + ?", R03)
    # a trailing sign is refused, also before whitespace or '*'
    for text in ("1 -", "1 +", "1 + ", "e1 -*", "1 - 2 +"):
        with pytest.raises(ParseError, match="dangling sign"):
            Multivector.parse(text, R03)
    # only ASCII digits are numbers or blade indices
    for text in ("\u0663", "e\u0661", "1/\u0663", "2 e1\u0662"):
        with pytest.raises(ParseError, match="cannot parse"):
            Multivector.parse(text, R03)


def test_parse_is_linear_in_whitespace():
    # a long run of ASCII whitespace, also at the end, is skipped in one pass
    run = " \t\n" * 100_000
    assert Multivector.parse("1" + run, H) == Multivector.one(H)
    assert Multivector.parse(run + "1" + run + "+ e1" + run, H) == Multivector.parse("1 + e1", H)


def test_parse_rejects_overlong_coefficient():
    # int() refuses more than 4300 digits, in a numerator or a denominator
    digits = "1" * 4301
    for text in (digits, "1/" + digits, "2 + " + digits + " e12"):
        with pytest.raises(ParseError, match="too long"):
            Multivector.parse(text, H)
        with pytest.raises(ParseError, match="too long"):
            Polynomial.parse(f"X^1*({text})", H)
    assert Multivector.parse("1/" + digits[1:], H) == Fraction(1, int(digits[1:]))


def test_signature_parts_must_be_ints():
    # a float part used to compare and hash equal to the int signature and
    # fail only at .dim; a bool printed as R(True,1); a str raised TypeError
    for p, q in ((0, 2.0), (True, 1), (0, False), ("0", 2), (Fraction(0), 2), (None, 3)):
        with pytest.raises(ValueError, match="^signature parts must be ints"):
            Signature(p, q)
    assert Signature(0, 2) == QUATERNIONS


def test_dimension_cap():
    assert HARD_DIM_LIMIT == 6
    assert Signature(0, 6).dim == 64
    for p, q in ((0, 7), (4, 3)):
        with pytest.raises(ValueError, match="^p\\+q = 7 exceeds the dimension cap 6$"):
            Signature(p, q)


def test_values_are_reusable_after_operations():
    # operations never mutate their operands
    x = Multivector.parse("1 + e1", H)
    before = x.coeffs
    _ = x * x + x - x * 3
    _ = x.conjugate(), x.inverse(), x.trace()
    assert x.coeffs == before
