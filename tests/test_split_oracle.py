"""The oracle on the H (+) H split against the coordinate route.

In H and R(0,3), `brute_force_interpolate` solves one system per half of
the split, on the integer quaternion kernel that the construction uses
too. The coordinate route (`_coordinate_oracle`), one system in the blade
coordinates, shares no code with the kernel, so it stays the referee:
kinds and polynomials must be equal, Fraction for Fraction, on seeded
problems of all three kinds, with zero-divisor pairs and degrees below,
at and above the construction's bound.
"""

import importlib
import random
from collections import Counter

from clifflag import (
    InterpolationProblem,
    Multivector,
    QUATERNIONS,
    R03,
    Signature,
    brute_force_interpolate,
    verify_interpolant,
)
from util import (
    count_products,
    rand_multivector,
    rand_zero_divisor,
    random_h_problem,
    random_h_problem_with_violation,
    random_r03_problem,
)

ORACLE = importlib.import_module("clifflag.interpolate")


def with_zero_divisor_pair(rng, problem):
    """The problem plus a point whose difference to its first point is a
    zero divisor, so the two points share one half of the split."""
    x, _ = problem.pairs[0]
    extra = (x + rand_zero_divisor(rng), rand_multivector(rng, R03, 3))
    return InterpolationProblem.from_pairs(R03, [*problem.pairs, extra])


def seeded_problems(rng):
    for _ in range(12):
        yield random_h_problem(rng)
        yield random_h_problem_with_violation(rng)
        problem = random_r03_problem(rng, rng.randint(1, 4))
        yield problem
        yield with_zero_divisor_pair(rng, problem)


def count_coordinate_route(monkeypatch):
    real, calls = ORACLE._coordinate_oracle, []

    def counted(problem, max_degree):
        calls.append(problem)
        return real(problem, max_degree)

    monkeypatch.setattr(ORACLE, "_coordinate_oracle", counted)
    return calls


def test_split_equals_coordinate_route_on_all_kinds():
    rng = random.Random("split oracle")
    kinds = Counter()
    for problem in seeded_problems(rng):
        n = len(problem.pairs)
        for degree in range(max(0, n - 3), n + 2):
            got = brute_force_interpolate(problem, degree)
            assert got == ORACLE._coordinate_oracle(problem, degree)
            if got.polynomial is not None:
                assert verify_interpolant(got.polynomial, problem)
            kinds[problem.sig, got.kind] += 1
    for sig in (QUATERNIONS, R03):
        for kind in ("unique", "none", "affine_family"):
            assert kinds[sig, kind] >= 5, (sig, kind, kinds)


def test_split_equals_coordinate_route_at_the_bound():
    rng = random.Random("split oracle bound")
    for problem in seeded_problems(rng):
        bound = len(problem.pairs) - 1 if problem.sig == R03 else None
        got = brute_force_interpolate(problem, bound)
        if bound is None:
            bound = ORACLE.group_by_class(problem).degree_bound
        assert got == ORACLE._coordinate_oracle(problem, bound)


def test_r03_family_takes_the_coordinate_route(monkeypatch):
    # a half with many solutions sends the whole R(0,3) problem to the
    # coordinate route, so its particular solution is that route's
    problem = random_r03_problem(random.Random("family"), n_points=3)
    reference = ORACLE._coordinate_oracle(problem, 4)
    calls = count_coordinate_route(monkeypatch)
    result = brute_force_interpolate(problem, 4)
    assert calls == [problem]
    assert result.kind == "affine_family"
    assert result == reference


def test_h_family_and_r03_unique_or_none_stay_on_the_split(monkeypatch):
    rng = random.Random("stay on split")
    h = random_h_problem(rng, sizes=(2, 1))
    r03 = random_r03_problem(rng, n_points=4)
    r03_zero_divisor = with_zero_divisor_pair(rng, r03)
    calls = count_coordinate_route(monkeypatch)
    assert brute_force_interpolate(h, 4).kind == "affine_family"
    assert brute_force_interpolate(r03).kind == "unique"
    assert brute_force_interpolate(r03_zero_divisor, 3).kind == "none"
    assert calls == []


def test_split_rows_make_no_multivector_products(monkeypatch):
    rng = random.Random("no products")
    problems = [
        (random_h_problem(rng, sizes=(3, 1, 2)), None),
        (random_h_problem_with_violation(rng), None),
        (random_h_problem(rng, sizes=(3, 2)), 5),
        (random_r03_problem(rng, n_points=5), None),
    ]
    calls = count_products(monkeypatch)
    for problem, degree in problems:
        brute_force_interpolate(problem, degree)
    assert calls == []


def test_other_signatures_take_the_coordinate_route(monkeypatch):
    sig = Signature(1, 1)
    e1 = Multivector.basis(sig, 1)
    one = Multivector.one(sig)
    problem = InterpolationProblem.from_pairs(sig, [(one, e1), (-one, one)])
    calls = count_coordinate_route(monkeypatch)
    result = brute_force_interpolate(problem, 1)
    assert calls == [problem]
    assert result.kind == "unique" and verify_interpolant(result.polynomial, problem)


def count_real_solves(monkeypatch):
    real, calls = ORACLE.solve_exact, []

    def counted(rows, rhs):
        calls.append(len(rows))
        return real(rows, rhs)

    monkeypatch.setattr(ORACLE, "solve_exact", counted)
    return calls


def test_split_halves_are_solved_over_h_without_real_solves(monkeypatch):
    # H problems of every kind, and R(0,3) problems whose kind is unique or
    # none, are eliminated over H; an R(0,3) family and every other
    # signature still solve a real system in the blade coordinates
    rng = random.Random("no real solves")
    calls = count_real_solves(monkeypatch)
    kinds = Counter()
    for _ in range(4):
        h = random_h_problem(rng)
        bound = ORACLE.group_by_class(h).degree_bound
        r03 = random_r03_problem(rng, rng.randint(1, 4))
        for problem, degree in (
            (h, None),
            (h, bound + 1),
            (random_h_problem_with_violation(rng), None),
            (r03, None),
            (with_zero_divisor_pair(rng, r03), len(r03.pairs)),
        ):
            kinds[problem.sig, brute_force_interpolate(problem, degree).kind] += 1
    assert calls == []
    assert set(kinds) == {
        (QUATERNIONS, "unique"),
        (QUATERNIONS, "affine_family"),
        (QUATERNIONS, "none"),
        (R03, "unique"),
        (R03, "none"),
    }, kinds

    family = random_r03_problem(rng, n_points=3)
    assert brute_force_interpolate(family, 4).kind == "affine_family"
    assert calls == [8 * 3]
    sig = Signature(1, 1)
    one = Multivector.one(sig)
    other = InterpolationProblem.from_pairs(sig, [(one, Multivector.basis(sig, 1)), (-one, one)])
    brute_force_interpolate(other, 1)
    assert calls == [8 * 3, 4 * 2]
