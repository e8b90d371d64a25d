"""Exact Lagrange interpolation over the quaternions and over R_{0,3}.

Given pairwise distinct quadratic-cone points with prescribed values, one
construction serves both algebras: it builds a basis polynomial per
interpolation node — equal to 1 there and vanishing at every other node —
and sums them against the values. Nodes are grouped by conjugacy class:

* quaternions: every class may carry any number of points, but from the
  third one on the data must satisfy the collinearity condition
  (x_h - x_1)^-1 (w_h - w_1) = (x_2 - x_1)^-1 (w_2 - w_1), because any
  polynomial restricted to a class sphere is an affine map. Only the
  first two points per class enter the construction, and each
  multi-point class contributes its characteristic polynomial to the
  basis polynomials of the other classes; the degree bound is
  d = -1 + sum of min(group size, 2).

* R_{0,3}: zero divisors force one point per class, so the construction
  reduces to its singleton case; the degree bound is m - 1 for m points.

A brute-force oracle solves the same problem as an exact rational linear
system in the coefficient coordinates, classifying existence and
uniqueness independently of the construction above.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CollinearityViolated,
    DuplicatePoint,
    InternalNonInvertible,
    MultiPointClassInR03,
    NotInvertible,
    PointNotInCone,
    UnsupportedSignature,
)
from .linsolve import solve_exact
from .multivector import QUATERNIONS, R03, ConjugacyClassId, Multivector, Signature
from .poly import Polynomial, append_root, characteristic_poly


@dataclass(frozen=True)
class InterpolationProblem:
    """Ordered (point, value) pairs over one signature."""

    sig: Signature
    pairs: tuple[tuple[Multivector, Multivector], ...]

    @classmethod
    def from_pairs(cls, sig: Signature, pairs) -> InterpolationProblem:
        return cls(sig, tuple((x, w) for x, w in pairs))

    @property
    def points(self) -> tuple[Multivector, ...]:
        return tuple(x for x, _ in self.pairs)

    @property
    def values(self) -> tuple[Multivector, ...]:
        return tuple(w for _, w in self.pairs)

    def permuted(self, order) -> InterpolationProblem:
        return InterpolationProblem(self.sig, tuple(self.pairs[i] for i in order))


@dataclass(frozen=True)
class ClassGroup:
    """The data points sharing one conjugacy class, in input order."""

    cls_id: ConjugacyClassId
    points: tuple[Multivector, ...]
    values: tuple[Multivector, ...]

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def capped_size(self) -> int:
        return min(self.size, 2)


@dataclass(frozen=True)
class ClassGrouping:
    """Class groups of a problem, singleton classes first."""

    sig: Signature
    groups: tuple[ClassGroup, ...]

    @property
    def degree_bound(self) -> int:
        """Target degree: -1 + sum of capped group sizes."""
        return -1 + sum(g.capped_size for g in self.groups)


def group_by_class(problem: InterpolationProblem) -> ClassGrouping:
    """Validate a problem and group its pairs by conjugacy class.

    Points must be pairwise distinct cone elements of R_{0,2} or R_{0,3};
    in R_{0,3} no class may carry two points. Singleton classes come
    first, then multi-point classes, preserving first appearance within
    each block.
    """
    if problem.sig not in (QUATERNIONS, R03):
        raise UnsupportedSignature(f"interpolation not available in {problem.sig}")
    seen = set()
    ordered: dict[ConjugacyClassId, list[int]] = {}
    for idx, (x, _) in enumerate(problem.pairs):
        if x in seen:
            raise DuplicatePoint(f"point {x} appears twice")
        seen.add(x)
        if not x.in_quadratic_cone():
            raise PointNotInCone(f"point {x} is outside the quadratic cone")
        ordered.setdefault(x.conjugacy_class(), []).append(idx)
    groups = [
        ClassGroup(
            cls_id,
            tuple(problem.pairs[i][0] for i in idxs),
            tuple(problem.pairs[i][1] for i in idxs),
        )
        for cls_id, idxs in ordered.items()
    ]
    if problem.sig == R03:
        for g in groups:
            if g.size > 1:
                raise MultiPointClassInR03(
                    f"class {g.cls_id} holds {g.size} points; R(0,3) allows one"
                )
    groups.sort(key=lambda g: g.size > 1)  # stable: singletons first
    return ClassGrouping(problem.sig, tuple(groups))


def first_collinearity_violation(group: ClassGroup):
    """Index h (1-based, h >= 3) of the first point whose value breaks the
    common-slope condition of its class, or None. Groups of size <= 2 are
    vacuously consistent."""
    if group.size <= 2:
        return None
    x1, w1 = group.points[0], group.values[0]
    slope = (group.points[1] - x1).inverse() * (group.values[1] - w1)
    for h in range(2, group.size):
        if (group.points[h] - x1).inverse() * (group.values[h] - w1) != slope:
            return h + 1
    return None


def _append_chain(sig: Signature, roots) -> Polynomial:
    t = Polynomial.one(sig)
    for y in roots:
        t = append_root(t, y)
    return t


def _characteristic_product(groups, sig: Signature) -> Polynomial | None:
    """Product of the groups' characteristic polynomials; None for no groups."""
    delta = None
    for g in groups:
        chi = characteristic_poly(g.cls_id, sig)
        delta = chi if delta is None else delta * chi
    return delta


def _lagrange_triplets(problem: InterpolationProblem):
    """(node, value, basis polynomial) for every node the construction uses.

    Singleton classes come first, then the first two points of each
    multi-point class (there are none in R_{0,3}). A basis polynomial is
    L * L(node)^-1 with L = Delta * P: P vanishes at the other singleton
    nodes and, for a multi-point node, at its class partner; Delta is the
    product of the characteristic polynomials of the other multi-point
    classes, left out when there are none.
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
        try:
            l_star = _append_chain(sig, roots)
            if delta is not None:
                l_star = delta * l_star
            return node, value, l_star * l_star(node).inverse()
        except NotInvertible as exc:
            raise InternalNonInvertible(
                f"construction hit a non-invertible value for node {node}: {exc}"
            ) from exc

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


def lagrange_basis(problem: InterpolationProblem):
    """(node, basis polynomial) pairs: each polynomial is 1 at its node and
    0 at every other node used by the construction (first two per class in
    the quaternionic case)."""
    return tuple((node, poly) for node, _, poly in _lagrange_triplets(problem))


def interpolate(problem: InterpolationProblem) -> Polynomial:
    """The unique interpolating polynomial within the construction's degree bound."""
    if not problem.pairs:
        raise ValueError("cannot interpolate an empty problem")
    total = Polynomial.zero(problem.sig)
    for _, value, poly in _lagrange_triplets(problem):
        total = total + poly * value
    return total


def interpolate_quaternion(problem: InterpolationProblem) -> Polynomial:
    if problem.sig != QUATERNIONS:
        raise UnsupportedSignature(f"expected {QUATERNIONS}, got {problem.sig}")
    return interpolate(problem)


def interpolate_r03(problem: InterpolationProblem) -> Polynomial:
    if problem.sig != R03:
        raise UnsupportedSignature(f"expected {R03}, got {problem.sig}")
    return interpolate(problem)


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the linear-system oracle.

    kind is "unique", "none" or "affine_family"; `polynomial` is the
    solution (a particular one with free coordinates zeroed for
    "affine_family", None for "none").
    """

    kind: str
    polynomial: Polynomial | None


def brute_force_interpolate(
    problem: InterpolationProblem, max_degree: int | None = None
) -> OracleResult:
    """Solve the interpolation conditions as one exact linear system.

    Evaluation is real-linear in the 2^m (max_degree + 1) coefficient
    coordinates, so stacking one row per output coordinate per data pair
    and running exact elimination classifies the problem completely.
    """
    sig = problem.sig
    if not problem.pairs:
        return OracleResult("affine_family", Polynomial.zero(sig))
    if max_degree is None:
        max_degree = group_by_class(problem).degree_bound
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    dim = sig.dim

    rows = []
    rhs = []
    for x, w in problem.pairs:
        # block h of the rows is the matrix of a_h -> x^h a_h
        power = Multivector.one(sig)
        blocks = [power.left_multiplication_matrix()]
        for _ in range(max_degree):
            power = power * x
            blocks.append(power.left_multiplication_matrix())
        for out in range(dim):
            rows.append([v for block in blocks for v in block[out]])
        rhs.extend(w.coeffs)

    kind, solution = solve_exact(rows, rhs)
    if kind == "none":
        return OracleResult("none", None)
    coeffs = [
        Multivector(sig, solution[h * dim : (h + 1) * dim])
        for h in range(max_degree + 1)
    ]
    poly = Polynomial(sig, coeffs)
    return OracleResult("unique" if kind == "unique" else "affine_family", poly)


def verify_interpolant(poly: Polynomial, problem: InterpolationProblem) -> bool:
    """Exact check that the polynomial reproduces every prescribed value."""
    return all(poly(x) == w for x, w in problem.pairs)
