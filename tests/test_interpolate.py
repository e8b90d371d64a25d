"""Tests for the two Lagrange constructions and the linear-system oracle."""

import copy
import importlib
import json
import pickle
import random
import re

import pytest

from clifflag import (
    CollinearityViolated,
    ConjugacyClassId,
    DuplicatePoint,
    InterpolationProblem,
    MAX_DEGREE,
    Multivector,
    MultiPointClassInR03,
    OracleResult,
    PointNotInCone,
    Polynomial,
    QUATERNIONS,
    R03,
    Signature,
    SignatureMismatch,
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
from clifflag.cli import main
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


def assert_refused_alike(error, problem):
    """group_by_class and the oracle's default bound raise the same error;
    the oracle names its own reason for a signature outside H and R(0,3)."""
    messages = []
    for run in (group_by_class, brute_force_interpolate):
        with pytest.raises(error) as exc:
            run(problem)
        messages.append(str(exc.value))
    assert error is UnsupportedSignature or messages[0] == messages[1]


def test_grouping_errors():
    r04 = Signature(0, 4)
    for error, sig, pairs in (
        (MultiPointClassInR03, R03, [(E1, Multivector.one(R03)), (Multivector.basis(R03, 2, 3), E1)]),
        (PointNotInCone, R03, [(Multivector.basis(R03, 1, 2, 3), E1)]),
        (DuplicatePoint, H, [(I, ONE), (I, K)]),
        (UnsupportedSignature, r04, [(Multivector.basis(r04, 4), Multivector.one(r04))]),
    ):
        assert_refused_alike(error, InterpolationProblem.from_pairs(sig, pairs))


# one class, trace 1 and norm 1/2, over the reduced denominators 2 and 10
SAME_CLASS_TEXTS = ("1/2 + 1/2 e1", "1/2 + 3/10 e1 + 2/5 e2")


def test_grouping_keys_classes_on_trace_and_norm_in_lowest_terms(tmp_path, capsys):
    points = [Multivector.parse(text, H) for text in SAME_CLASS_TEXTS]
    assert [x._num[-1] for x in points] == [2, 10]
    grouping = group_by_class(InterpolationProblem.from_pairs(H, [(points[0], ONE), (I, K), (points[1], J)]))
    assert [g.size for g in grouping.groups] == [1, 2]
    group = grouping.groups[1]
    assert group.points == tuple(points) and group.values == (ONE, J)
    for x in points:
        assert group.cls_id == x.conjugacy_class()
    # the same layout in R(0,3), from the library and from the CLI
    r03_points = [Multivector.parse(text, R03) for text in SAME_CLASS_TEXTS]
    with pytest.raises(MultiPointClassInR03):
        group_by_class(InterpolationProblem.from_pairs(R03, [(x, E1) for x in r03_points]))
    path = tmp_path / "problem.json"
    doc = {"signature": {"p": 0, "q": 3}, "points": list(SAME_CLASS_TEXTS), "values": ["1", "e1"]}
    path.write_text(json.dumps(doc))
    assert main(["interpolate", str(path)]) == 4
    assert "R(0,3) allows one" in capsys.readouterr().err


def test_duplicate_point_is_refused_before_a_later_point_off_the_cone():
    off_cone = Multivector.basis(R03, 1, 2, 3)
    duplicate_first = InterpolationProblem.from_pairs(R03, [(E1, E1), (E1, E1), (off_cone, E1)])
    assert_refused_alike(DuplicatePoint, duplicate_first)
    off_cone_first = InterpolationProblem.from_pairs(R03, [(E1, E1), (off_cone, E1), (E1, E1)])
    assert_refused_alike(PointNotInCone, off_cone_first)


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


def test_collinearity_violation_names_the_group_after_singletons_first():
    # the input lists the class of I (three points, on the slope) before the
    # singleton 0; the class of 1 + I breaks its slope at its fourth point.
    # Singletons come first, so the broken class is group 3
    on_slope = [(x, x * K + J) for x in (I, J, K)]
    off_slope = [(ONE + x, ONE + x) for x in (I, J, K)] + [(ONE - I, ZERO)]
    bad = InterpolationProblem.from_pairs(H, [on_slope[0], (ZERO, ONE), *on_slope[1:], *off_slope])
    for construct in (interpolate, lagrange_basis):
        with pytest.raises(CollinearityViolated) as info:
            construct(bad)
        assert (info.value.group_index, info.value.h, info.value.representative) == (3, 4, ONE + I)
    groups = group_by_class(bad).groups
    assert [g.size for g in groups] == [1, 3, 4]
    assert [first_collinearity_violation(g) for g in groups] == [None, None, 4]


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


def test_collinearity_violation_copies_and_pickles():
    # the exception has its own constructor, so its copies must be rebuilt
    # from its fields, not from the message alone
    bad = InterpolationProblem.from_pairs(
        H, [(ZERO, ONE), (ONE + I, -ONE), (I, ONE), (J, K), (K, J)]
    )
    with pytest.raises(CollinearityViolated) as info:
        interpolate(bad)
    for e in (info.value, CollinearityViolated(2, 5)):
        copies = [copy.copy(e), copy.deepcopy(e)]
        copies += [pickle.loads(pickle.dumps(e, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies:
            assert type(c) is CollinearityViolated
            assert (c.group_index, c.h, c.representative) == (e.group_index, e.h, e.representative)
            assert str(c) == str(e)


def test_three_point_r03_interpolation():
    p = interpolate_r03(THREE_POINTS)
    assert verify_interpolant(p, THREE_POINTS)
    assert p.degree == 2
    oracle = brute_force_interpolate(THREE_POINTS)
    assert oracle.kind == "unique" and oracle.polynomial == p


def test_each_construction_groups_once(monkeypatch):
    # R(0,3) runs as two quaternion frames without regrouping the halves
    module = importlib.import_module("clifflag.interpolate")
    real, calls = module._class_layout, []
    monkeypatch.setattr(
        module, "_class_layout", lambda problem: calls.append(problem) or real(problem)
    )
    r03_six = random_r03_problem(random.Random("group once"), n_points=6)
    for problem in (FIVE_POINTS, THREE_POINTS, r03_six):
        for construct in (interpolate, lagrange_basis):
            calls.clear()
            construct(problem)
            assert calls == [problem]


def test_constructions_build_no_class_records(monkeypatch):
    # the construction files points by class key: no ClassGroup and no
    # ConjugacyClassId, which only group_by_class and conjugacy_class build
    r03_six = random_r03_problem(random.Random("no records"), n_points=6)
    problems = (FIVE_POINTS, THREE_POINTS, r03_six)
    want = [(interpolate(problem), lagrange_basis(problem)) for problem in problems]

    def refuse(*args):
        raise AssertionError("the construction built a class record")

    module = importlib.import_module("clifflag.interpolate")
    monkeypatch.setattr(module.ClassGroup, "__init__", refuse)
    monkeypatch.setattr(ConjugacyClassId, "__init__", refuse)
    assert [(interpolate(problem), lagrange_basis(problem)) for problem in problems] == want


def test_interpolate_dispatch_checks_signature():
    with pytest.raises(UnsupportedSignature):
        interpolate_quaternion(THREE_POINTS)
    with pytest.raises(UnsupportedSignature):
        interpolate_r03(FIVE_POINTS)


def test_mixed_signature_pairs_rejected_before_work(monkeypatch):
    # a point or a value outside the problem's signature is named, not read
    # as an element of another algebra
    def build_system(*args):
        raise AssertionError("the oracle started building a system")

    module = importlib.import_module("clifflag.interpolate")
    monkeypatch.setattr(module, "_split_oracle", build_system)
    monkeypatch.setattr(module, "_coordinate_oracle", build_system)
    one, e3 = Multivector.one(R03), Multivector.basis(R03, 3)
    cases = [
        # an R(0,3) problem whose first point is the quaternion i = e1
        (R03, [(I, one), (Multivector.scalar(R03, 2), Multivector.basis(R03, 2))]),
        # an H problem whose first value is 1 + e3 in R(0,3)
        (H, [(I, one + e3), (Multivector.scalar(H, 2), J)]),
    ]
    runs = [
        interpolate,
        lagrange_basis,
        group_by_class,
        brute_force_interpolate,
        lambda problem: brute_force_interpolate(problem, max_degree=2),
    ]
    for sig, pairs in cases:
        problem = InterpolationProblem.from_pairs(sig, pairs)
        x, w = pairs[0]
        for run in runs:
            with pytest.raises(SignatureMismatch, match=re.escape(f"pair ({x}, {w})")):
                run(problem)


def test_empty_problem():
    # both constructions refuse it, in either signature
    for sig in (H, R03):
        for construct in (interpolate, lagrange_basis):
            with pytest.raises(ValueError, match="^cannot interpolate an empty problem$"):
                construct(InterpolationProblem.from_pairs(sig, []))
    oracle = brute_force_interpolate(InterpolationProblem.from_pairs(H, []))
    assert oracle.kind == "affine_family"


@pytest.mark.parametrize("sig", [H, R03, Signature(0, 1), Signature(1, 1)], ids=str)
def test_empty_problem_degree_checked_before_the_empty_answer(sig):
    # the range, and the need for max_degree outside H and R(0,3), hold
    # for an empty problem as they hold for any other
    empty = InterpolationProblem.from_pairs(sig, [])
    with pytest.raises(ValueError, match="^max_degree must be non-negative$"):
        brute_force_interpolate(empty, max_degree=-3)
    with pytest.raises(ValueError, match=f"^max_degree 5000 exceeds {MAX_DEGREE}$"):
        brute_force_interpolate(empty, max_degree=5000)
    want = OracleResult("affine_family", Polynomial.zero(sig))
    assert brute_force_interpolate(empty, max_degree=0) == want
    assert brute_force_interpolate(empty, max_degree=MAX_DEGREE) == want
    if sig in (H, R03):
        assert brute_force_interpolate(empty) == want
    else:
        with pytest.raises(UnsupportedSignature, match="^max_degree is required in "):
            brute_force_interpolate(empty)


def test_oracle_unique_on_five_points():
    oracle = brute_force_interpolate(FIVE_POINTS)
    assert oracle.kind == "unique"
    assert oracle.polynomial == FIVE_POINTS_P


def test_oracle_default_bound_builds_no_class_groups(monkeypatch):
    # the bound comes from the class layout, with no ClassGroup records
    module = importlib.import_module("clifflag.interpolate")

    def refuse(*args):
        raise AssertionError("the default bound built class groups")

    monkeypatch.setattr(module, "group_by_class", refuse)
    monkeypatch.setattr(module, "ClassGroup", refuse)
    assert brute_force_interpolate(FIVE_POINTS) == brute_force_interpolate(FIVE_POINTS, max_degree=3)
    assert brute_force_interpolate(THREE_POINTS).kind == "unique"


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


@pytest.mark.parametrize("degree", [True, 1.5, 2.0, "2"], ids=["bool", "float", "whole-float", "str"])
def test_oracle_degree_of_another_type_rejected_before_work(monkeypatch, degree):
    # a bool is an int subclass, and a float or a string would fail deep in
    # the row build; each is refused by name, before the class layout
    def work(*args):
        raise AssertionError("the oracle started work")

    module = importlib.import_module("clifflag.interpolate")
    for name in ("_class_layout", "_split_oracle", "_coordinate_oracle"):
        monkeypatch.setattr(module, name, work)
    message = f"^max_degree must be an int or None, got {re.escape(repr(degree))}$"
    for problem in (FIVE_POINTS, THREE_POINTS, InterpolationProblem.from_pairs(H, [])):
        with pytest.raises(ValueError, match=message):
            brute_force_interpolate(problem, degree)


def test_oracle_negative_degree_rejected():
    with pytest.raises(ValueError, match="^max_degree must be non-negative$"):
        brute_force_interpolate(FIVE_POINTS, -1)


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
