"""Tests for the two Lagrange constructions and the linear-system oracle."""

import importlib
import random

import pytest

from clifflag import (
    CollinearityViolated,
    ConjugacyClassId,
    DuplicatePoint,
    InterpolationProblem,
    MAX_DEGREE,
    Multivector,
    MultiPointClassInR03,
    PointNotInCone,
    Polynomial,
    QUATERNIONS,
    R03,
    UnsupportedSignature,
    affine_restriction,
    brute_force_interpolate,
    first_collinearity_violation,
    group_by_class,
    interpolate,
    interpolate_quaternion,
    interpolate_r03,
    lagrange_basis,
    verify_interpolant,
)
from util import (
    rand_multivector,
    random_h_problem,
    random_h_problem_with_violation,
    random_r03_problem,
)

H = QUATERNIONS
ONE = Multivector.one(H)
ZERO = Multivector.zero(H)
I = Multivector.basis(H, 1)
J = Multivector.basis(H, 2)
K = Multivector.basis(H, 1, 2)

FIVE_POINTS = InterpolationProblem.from_pairs(
    H, [(ZERO, ONE), (ONE + I, -ONE), (I, ONE), (J, K), (K, -J)]
)
FIVE_POINTS_P = Polynomial(H, (ONE, ZERO, ONE, I))

E1 = Multivector.basis(R03, 1)
X2 = Multivector.basis(R03, 2) + Multivector.basis(R03, 2, 3)
THREE_POINTS = InterpolationProblem.from_pairs(
    R03,
    [
        (E1, Multivector.one(R03)),
        (X2, Multivector.basis(R03, 2, 3) * 2),
        (Multivector.scalar(R03, -1), E1),
    ],
)


def test_grouping_five_points():
    grouping = group_by_class(FIVE_POINTS)
    assert [g.size for g in grouping.groups] == [1, 1, 3]
    assert grouping.degree_bound == 3
    multi = grouping.groups[2]
    assert multi.points == (I, J, K)
    assert multi.cls_id == ConjugacyClassId.sphere(0, 1)


def test_grouping_single_point():
    grouping = group_by_class(InterpolationProblem.from_pairs(H, [(I, K)]))
    assert grouping.degree_bound == 0


def test_grouping_errors():
    with pytest.raises(MultiPointClassInR03):
        group_by_class(
            InterpolationProblem.from_pairs(
                R03, [(E1, Multivector.one(R03)), (Multivector.basis(R03, 2, 3), E1)]
            )
        )
    with pytest.raises(PointNotInCone):
        group_by_class(
            InterpolationProblem.from_pairs(R03, [(Multivector.basis(R03, 1, 2, 3), E1)])
        )
    with pytest.raises(DuplicatePoint):
        group_by_class(InterpolationProblem.from_pairs(H, [(I, ONE), (I, K)]))
    with pytest.raises(UnsupportedSignature):
        from clifflag import Signature

        group_by_class(
            InterpolationProblem.from_pairs(
                Signature(0, 4),
                [(Multivector.basis(Signature(0, 4), 4), Multivector.one(Signature(0, 4)))],
            )
        )


def test_collinearity_of_five_point_group():
    grouping = group_by_class(FIVE_POINTS)
    group = grouping.groups[2]
    assert first_collinearity_violation(group) is None
    slope = (group.points[1] - group.points[0]).inverse() * (
        group.values[1] - group.values[0]
    )
    assert slope == -I


def test_collinearity_violation_reported_at_first_bad_index():
    bad = InterpolationProblem.from_pairs(
        H, [(ZERO, ONE), (ONE + I, -ONE), (I, ONE), (J, K), (K, J)]
    )
    group = [g for g in group_by_class(bad).groups if g.size == 3][0]
    assert first_collinearity_violation(group) == 3


def test_collinearity_vacuous_for_small_groups():
    grouping = group_by_class(InterpolationProblem.from_pairs(H, [(I, ONE), (J, K)]))
    assert first_collinearity_violation(grouping.groups[0]) is None


def test_five_point_interpolation():
    p = interpolate_quaternion(FIVE_POINTS)
    assert p == FIVE_POINTS_P
    assert verify_interpolant(p, FIVE_POINTS)


def test_five_point_basis_nodes():
    basis = lagrange_basis(FIVE_POINTS)
    assert [node for node, _ in basis] == [ZERO, ONE + I, I, J]
    for node, poly in basis:
        assert poly(node) == 1
        for other, _ in basis:
            if other != node:
                assert poly(other) == 0


def test_single_point_gives_constant():
    assert interpolate(InterpolationProblem.from_pairs(H, [(I, K)])) == Polynomial.constant(K)
    w = rand_multivector(random.Random(40), R03)
    assert interpolate(InterpolationProblem.from_pairs(R03, [(E1, w)])) == Polynomial.constant(w)


def test_two_points_one_class():
    problem = InterpolationProblem.from_pairs(H, [(I, ONE), (J, K)])
    p = interpolate(problem)
    assert p.degree == 1
    assert verify_interpolant(p, problem)
    oracle = brute_force_interpolate(problem)
    assert oracle.kind == "unique" and oracle.polynomial == p


def test_collinearity_violation_raises_and_oracle_agrees():
    bad = InterpolationProblem.from_pairs(
        H, [(ZERO, ONE), (ONE + I, -ONE), (I, ONE), (J, K), (K, J)]
    )
    with pytest.raises(CollinearityViolated) as info:
        interpolate(bad)
    assert info.value.h == 3
    assert brute_force_interpolate(bad).kind == "none"


def test_three_point_r03_interpolation():
    p = interpolate_r03(THREE_POINTS)
    assert verify_interpolant(p, THREE_POINTS)
    assert p.degree == 2
    oracle = brute_force_interpolate(THREE_POINTS)
    assert oracle.kind == "unique" and oracle.polynomial == p


def test_each_construction_groups_once(monkeypatch):
    # R(0,3) runs as two quaternion frames without regrouping the halves
    module = importlib.import_module("clifflag.interpolate")
    real, calls = module.group_by_class, []
    monkeypatch.setattr(
        module, "group_by_class", lambda problem: calls.append(problem) or real(problem)
    )
    r03_six = random_r03_problem(random.Random("group once"), n_points=6)
    for problem in (FIVE_POINTS, THREE_POINTS, r03_six):
        for construct in (interpolate, lagrange_basis):
            calls.clear()
            construct(problem)
            assert calls == [problem]


def test_interpolate_dispatch_checks_signature():
    with pytest.raises(UnsupportedSignature):
        interpolate_quaternion(THREE_POINTS)
    with pytest.raises(UnsupportedSignature):
        interpolate_r03(FIVE_POINTS)


def test_empty_problem():
    with pytest.raises(ValueError):
        interpolate(InterpolationProblem.from_pairs(H, []))
    oracle = brute_force_interpolate(InterpolationProblem.from_pairs(H, []))
    assert oracle.kind == "affine_family"


def test_oracle_unique_on_five_points():
    oracle = brute_force_interpolate(FIVE_POINTS)
    assert oracle.kind == "unique"
    assert oracle.polynomial == FIVE_POINTS_P


def test_oracle_affine_family_above_bound():
    oracle = brute_force_interpolate(FIVE_POINTS, max_degree=5)
    assert oracle.kind == "affine_family"
    assert verify_interpolant(oracle.polynomial, FIVE_POINTS)


def test_oracle_degree_above_cap_rejected_before_work(monkeypatch):
    # the library oracle takes the CLI's --max-degree cap; no system is built
    def build_system(*args):
        raise AssertionError("the oracle started building a system")

    module = importlib.import_module("clifflag.interpolate")
    monkeypatch.setattr(module, "_split_oracle", build_system)
    monkeypatch.setattr(module, "_coordinate_oracle", build_system)
    with pytest.raises(ValueError, match=f"^max_degree {MAX_DEGREE + 1} exceeds {MAX_DEGREE}$"):
        brute_force_interpolate(FIVE_POINTS, max_degree=MAX_DEGREE + 1)


def test_verify_interpolant():
    assert verify_interpolant(FIVE_POINTS_P, FIVE_POINTS)
    assert not verify_interpolant(Polynomial.zero(H), FIVE_POINTS)


def test_permutation_invariance_five_points():
    for order in ([4, 3, 2, 1, 0], [2, 0, 4, 1, 3], [1, 4, 0, 3, 2]):
        assert interpolate(FIVE_POINTS.permuted(order)) == FIVE_POINTS_P
    for order in ([2, 0, 1], [1, 2, 0]):
        assert interpolate(THREE_POINTS.permuted(order)) == interpolate(THREE_POINTS)


def test_random_problems_match_oracle_quaternions():
    rng = random.Random(41)
    for _ in range(30):
        problem = random_h_problem(rng)
        p = interpolate(problem)
        assert verify_interpolant(p, problem)
        assert p.degree is None or p.degree <= group_by_class(problem).degree_bound
        oracle = brute_force_interpolate(problem)
        assert oracle.kind == "unique"
        assert oracle.polynomial == p


def test_random_problems_match_oracle_r03():
    rng = random.Random(42)
    for _ in range(30):
        problem = random_r03_problem(rng)
        p = interpolate(problem)
        assert verify_interpolant(p, problem)
        assert p.degree is None or p.degree <= group_by_class(problem).degree_bound
        oracle = brute_force_interpolate(problem)
        assert oracle.kind == "unique"
        assert oracle.polynomial == p


def test_random_violations_yield_no_solution():
    rng = random.Random(43)
    for _ in range(10):
        problem = random_h_problem_with_violation(rng)
        with pytest.raises(CollinearityViolated):
            interpolate(problem)
        assert brute_force_interpolate(problem).kind == "none"


def test_affine_restriction_matches_slope_formula():
    # on any class holding >= 2 data points, the interpolant restricts to
    # x a + b with a the difference-quotient slope of the first two points
    rng = random.Random(44)
    checked = 0
    while checked < 10:
        problem = random_h_problem(rng, force_triple=True)
        p = interpolate(problem)
        grouping = group_by_class(problem)
        for g in grouping.groups:
            if g.size < 2:
                continue
            restriction = affine_restriction(p, g.cls_id)
            a = (g.points[1] - g.points[0]).inverse() * (g.values[1] - g.values[0])
            assert restriction.a == a
            assert restriction.b == g.values[0] - g.points[0] * a
            checked += 1
