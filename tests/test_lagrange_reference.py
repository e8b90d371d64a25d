"""The paper's product construction as the reference for the Newton frame.

`interpolate` and `lagrange_basis` share one Newton frame. The reference
below builds each basis polynomial the way the paper does: a chain of root
appends over the other nodes, times Delta, the product of the
characteristic polynomials of the other multi-point classes, normalised
at its node. The interpolant is unique within the degree bound, so the
two constructions and the oracle's unique solution must agree literally.
"""

import itertools
import random

import pytest

from clifflag import (
    CollinearityViolated,
    Polynomial,
    append_root,
    brute_force_interpolate,
    characteristic_poly,
    first_collinearity_violation,
    group_by_class,
    interpolate,
    lagrange_basis,
    verify_interpolant,
)
from util import random_h_problem, random_r03_problem


def _append_chain(sig, roots):
    t = Polynomial.one(sig)
    for y in roots:
        t = append_root(t, y)
    return t


def _characteristic_product(groups, sig):
    """Product of the groups' characteristic polynomials; None for no groups."""
    delta = None
    for g in groups:
        chi = characteristic_poly(g.cls_id, sig)
        delta = chi if delta is None else delta * chi
    return delta


def reference_triplets(problem):
    """(node, value, basis polynomial) for every node, by the product form.

    Singleton classes come first, then the first two points of each
    multi-point class. A basis polynomial is L * L(node)^-1 with
    L = Delta * P: P vanishes at the other singleton nodes and, for a
    multi-point node, at its class partner; Delta is left out when there
    are no other multi-point classes.
    """
    grouping = group_by_class(problem)
    for j, g in enumerate(grouping.groups, start=1):
        h = first_collinearity_violation(g)
        if h is not None:
            raise CollinearityViolated(j, h, g.points[0])
    sig = grouping.sig
    singles = [g for g in grouping.groups if g.size == 1]
    multis = [g for g in grouping.groups if g.size > 1]
    anchors = [g.points[0] for g in singles]

    def basis(node, value, roots, delta):
        l_star = _append_chain(sig, roots)
        if delta is not None:
            l_star = delta * l_star
        return node, value, l_star * l_star(node).inverse()

    delta_all = _characteristic_product(multis, sig)
    triplets = [
        basis(g.points[0], g.values[0], anchors[:j] + anchors[j + 1 :], delta_all)
        for j, g in enumerate(singles)
    ]
    for k, g in enumerate(multis):
        delta_others = _characteristic_product(multis[:k] + multis[k + 1 :], sig)
        for ell in (0, 1):
            roots = anchors + [g.points[1 - ell]]
            triplets.append(basis(g.points[ell], g.values[ell], roots, delta_others))
    return triplets


def reference_interpolant(problem):
    total = Polynomial.zero(problem.sig)
    for _, value, poly in reference_triplets(problem):
        total = total + poly * value
    return total


def assert_newton_equals_lagrange_equals_oracle(problem):
    triplets = reference_triplets(problem)
    assert lagrange_basis(problem) == tuple((node, poly) for node, _, poly in triplets)
    p = interpolate(problem)
    assert p == reference_interpolant(problem)
    assert verify_interpolant(p, problem)
    oracle = brute_force_interpolate(problem)
    assert oracle.kind == "unique"
    assert oracle.polynomial == p


# every ordered choice of 1-3 classes holding 1-3 points each
H_SIZES = [sizes for n in (1, 2, 3) for sizes in itertools.product((1, 2, 3), repeat=n)]


@pytest.mark.parametrize("sizes", H_SIZES, ids=lambda s: "-".join(map(str, s)))
def test_quaternion_newton_equals_lagrange_equals_oracle(sizes):
    rng = random.Random(f"h:{sizes}")
    assert_newton_equals_lagrange_equals_oracle(random_h_problem(rng, sizes=sizes))


@pytest.mark.parametrize("n_points", range(1, 11))
def test_r03_newton_equals_lagrange_equals_oracle(n_points):
    rng = random.Random(f"r03:{n_points}")
    for _ in range(2):
        problem = random_r03_problem(rng, n_points=n_points)
        assert_newton_equals_lagrange_equals_oracle(problem)


def test_reference_reproduces_the_five_point_example():
    # the worked example of the acceptance checklist, through the reference
    from test_interpolate import FIVE_POINTS, FIVE_POINTS_P

    assert reference_interpolant(FIVE_POINTS) == FIVE_POINTS_P
    assert_newton_equals_lagrange_equals_oracle(FIVE_POINTS)


@pytest.mark.parametrize("n_points", (15, 20))
def test_r03_newton_equals_oracle_at_larger_sizes(n_points):
    # beyond the product reference's range: the frame against the oracle
    problem = random_r03_problem(random.Random(f"r03-large:{n_points}"), n_points=n_points)
    p = interpolate(problem)
    oracle = brute_force_interpolate(problem)
    assert oracle.kind == "unique"
    assert oracle.polynomial == p
    assert verify_interpolant(p, problem)
