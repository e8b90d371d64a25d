"""The oracle on the H (+) H split against the coordinate route.

In H and R(0,3), `brute_force_interpolate` solves one system per half of
the split, on the integer quaternion kernel that the construction uses
too, for every kind of result. The coordinate route (`_coordinate_oracle`),
one system in the blade coordinates, shares no code with the kernel, so
it stays the referee: kinds must be equal on seeded problems of all three
kinds, with zero-divisor pairs and degrees below, at and above the
construction's bound. Polynomials must be equal, Fraction for Fraction, in
H and wherever both halves of an R(0,3) problem leave the same unknowns
free. An R(0,3) family whose halves do not (a point sharing one half with
another, at an equal half-value) keeps each half's own particular
solution, so there the referee is the coordinate route on each half's H
problem.
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
    from_quaternion_pair,
    to_quaternion_pair,
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


U = Multivector.parse("1 + e1 + e2", QUATERNIONS)


def with_shared_plus_half(rng, problem):
    """The problem plus a point y in its first point x's class that shares
    x's plus half, (x+, u x- u^-1) for u = 1 + e1 + e2, whose value shares
    the first value's plus half: the plus half repeats a node at an equal
    value, so the halves leave different unknowns free."""
    x, w = problem.pairs[0]
    x_plus, x_minus = to_quaternion_pair(x)
    y = from_quaternion_pair(x_plus, U * x_minus * U.inverse())
    value = from_quaternion_pair(to_quaternion_pair(w)[0], rand_multivector(rng, QUATERNIONS, 3))
    return InterpolationProblem.from_pairs(R03, [*problem.pairs, (y, value)])


def assert_each_half_is_its_h_solution(result, problem, degree):
    """Each half of every coefficient of an R(0,3) result is the coordinate
    route's solution of that half's H problem."""
    points = [to_quaternion_pair(x) for x in problem.points]
    values = [to_quaternion_pair(w) for w in problem.values]
    for i, (xs, ws) in enumerate(zip(zip(*points), zip(*values))):
        half = InterpolationProblem.from_pairs(QUATERNIONS, zip(xs, ws))
        want = ORACLE._coordinate_oracle(half, degree)
        assert want.kind != "none"
        for h in range(degree + 1):
            got = to_quaternion_pair(result.polynomial.coefficient(h))[i]
            assert got == want.polynomial.coefficient(h)


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


def test_r03_family_stays_on_the_split(monkeypatch):
    # a half with many solutions keeps the R(0,3) problem on the split, and
    # each half of the family's particular solution is that half's own
    problem = random_r03_problem(random.Random("family"), n_points=3)
    calls = count_coordinate_route(monkeypatch)
    result = brute_force_interpolate(problem, 4)
    assert calls == []
    assert result.kind == "affine_family"
    assert_each_half_is_its_h_solution(result, problem, 4)


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
    # H and R(0,3) problems of every kind are eliminated over H; only the
    # other signatures solve a real system in the blade coordinates
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
    assert calls == []
    sig = Signature(1, 1)
    one = Multivector.one(sig)
    other = InterpolationProblem.from_pairs(sig, [(one, Multivector.basis(sig, 1)), (-one, one)])
    brute_force_interpolate(other, 1)
    assert calls == [4 * 2]


def test_shared_half_families_keep_each_halfs_solution(monkeypatch):
    # the plus half repeats a node, so it has a family at degrees n - 1 and
    # n where the minus half may not: the kind is still the coordinate
    # route's, the polynomial interpolates, each half is that half's own H
    # solution, and no real system is solved
    rng = random.Random("shared half")
    calls = count_real_solves(monkeypatch)
    for _ in range(10):
        problem = with_shared_plus_half(rng, random_r03_problem(rng))
        n = len(problem.pairs)
        for degree in (n - 1, n):
            calls.clear()
            result = brute_force_interpolate(problem, degree)
            assert calls == []
            assert result.kind == ORACLE._coordinate_oracle(problem, degree).kind
            assert verify_interpolant(result.polynomial, problem)
            assert_each_half_is_its_h_solution(result, problem, degree)
