"""Exact Lagrange interpolation over the quaternions and over R_{0,3}.

Given pairwise distinct quadratic-cone points with prescribed values, one
quaternion Newton frame serves both algebras. Nodes are taken in a fixed
order, and node i gets T_i, the product of root appends over the nodes
before it, together with T_i(x_i)^-1. Evaluation is right-linear,
(T c)(x) = T(x) c for a constant c, so the interpolant is built node by
node as P += T_i T_i(x_i)^-1 (w_i - P(x_i)). The basis polynomial of a
node is the same sum over indicator data (1 at that node, 0 elsewhere).
The interpolant is unique within the degree bound, so both equal the
paper's product construction, which the tests keep as their reference.

R_{0,3} is H (+) H through the central idempotents (1 +- e123)/2. The
projections are ring homomorphisms and keep a cone point's trace and
norm, so an R_{0,3} problem runs as two quaternion frames over the split
nodes and values, recombined coefficient by coefficient. The frame works
on the kernel tuples that ``Multivector`` stores (see
``clifflag._quaternion``), so nothing is converted on the way in or out.
Nodes are grouped by conjugacy class, on the caller's problem:

* quaternions: every class may carry any number of points, but from the
  third one on the data must satisfy the collinearity condition
  (x_h - x_1)^-1 (w_h - w_1) = (x_2 - x_1)^-1 (w_2 - w_1), because any
  polynomial restricted to a class sphere is an affine map. Only the
  first two points per class are nodes; once T holds both, it vanishes
  on their whole sphere. The degree bound is
  d = -1 + sum of min(group size, 2).

* R_{0,3}: zero divisors force one point per class, so every point is a
  node; the degree bound is m - 1 for m points.

A brute-force oracle solves the same problem as exact rational linear
systems in the coefficient coordinates, classifying existence and
uniqueness independently of the construction above. In H and R_{0,3} it
solves one system per half of the split, with integer rows built on the
same quaternion kernel; every other signature, and an R_{0,3} problem
with a family of solutions, takes one system in the blade coordinates,
which the tests keep as the referee of the split.

The package attribute ``clifflag.interpolate`` is the function
:func:`interpolate`, which shadows this submodule; reach the module with
``importlib.import_module("clifflag.interpolate")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import lcm

from .errors import (
    CollinearityViolated,
    DuplicatePoint,
    InternalNonInvertible,
    MultiPointClassInR03,
    NotInCone,
    NotInvertible,
    PointNotInCone,
    UnsupportedSignature,
)
from ._quaternion import ONE, ZERO, NewtonFrame, left_rows, mul, split
from .linsolve import solve_exact
from .multivector import (
    QUATERNIONS,
    R03,
    ConjugacyClassId,
    Multivector,
    Signature,
    _from_halves,
)
from .poly import MAX_DEGREE, Polynomial


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
        try:
            cls_id = x.conjugacy_class()
        except NotInCone:
            raise PointNotInCone(f"point {x} is outside the quadratic cone") from None
        ordered.setdefault(cls_id, []).append(idx)
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


def _nodes(problem: InterpolationProblem):
    """The construction's nodes and their values, in order.

    Singleton classes come first, then the first two points of each
    multi-point class (there are none in R_{0,3}).
    """
    grouping = group_by_class(problem)
    for j, g in enumerate(grouping.groups, start=1):
        h = first_collinearity_violation(g)
        if h is not None:
            raise CollinearityViolated(j, h, g.points[0])
    nodes, values = [], []
    for g in grouping.groups:
        nodes.extend(g.points[:2])
        values.extend(g.values[:2])
    return nodes, values


def _newton_frames(sig: Signature, nodes):
    """One quaternion Newton frame per component, over the same nodes."""
    frames = [NewtonFrame() for _ in range(2 if sig == R03 else 1)]
    for node in nodes:
        try:
            for frame, half in zip(frames, split(node._num)):
                frame.add_node(half)
        except NotInvertible as exc:
            raise InternalNonInvertible(
                f"construction hit a non-invertible value for node {node}: {exc}"
            ) from exc
    return frames


def _newton(frames, values) -> Polynomial:
    """The polynomial within the degree bound taking ``values`` at the frames'
    nodes, solved per component and recombined coefficient by coefficient."""
    columns = zip(*(split(w._num) for w in values))
    components = [frame.solve(column) for frame, column in zip(frames, columns)]
    return Polynomial(values[0].sig, map(_from_halves, zip_longest(*components, fillvalue=ZERO)))


def lagrange_basis(problem: InterpolationProblem):
    """(node, basis polynomial) pairs: each polynomial is 1 at its node and
    0 at every other node used by the construction (first two per class in
    the quaternionic case)."""
    nodes, _ = _nodes(problem)
    frames = _newton_frames(problem.sig, nodes)
    one, zero = Multivector.one(problem.sig), Multivector.zero(problem.sig)
    return tuple(
        (node, _newton(frames, [one if k == j else zero for k in range(len(nodes))]))
        for j, node in enumerate(nodes)
    )


def interpolate(problem: InterpolationProblem) -> Polynomial:
    """The unique interpolating polynomial within the construction's degree bound."""
    if not problem.pairs:
        raise ValueError("cannot interpolate an empty problem")
    nodes, values = _nodes(problem)
    return _newton(_newton_frames(problem.sig, nodes), values)


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
    """Solve the interpolation conditions as exact linear systems.

    Evaluation is real-linear in the coefficient coordinates, so stacking
    one row per output coordinate per data pair and running exact
    elimination classifies the problem completely. In H and R_{0,3} the
    coordinates are those of the H (+) H split: one system of
    4 (max_degree + 1) unknowns per half (see :func:`_split_oracle`).
    Every other signature, and an R_{0,3} problem with a whole family of
    solutions, solves one system in the 2^m (max_degree + 1) blade
    coordinates (:func:`_coordinate_oracle`). ``max_degree`` defaults to
    the construction's degree bound and must lie in 0..MAX_DEGREE, the
    CLI's ``--max-degree`` cap; each degree costs one power per point.
    """
    sig = problem.sig
    if not problem.pairs:
        return OracleResult("affine_family", Polynomial.zero(sig))
    if max_degree is None:
        max_degree = group_by_class(problem).degree_bound
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    if max_degree > MAX_DEGREE:
        raise ValueError(f"max_degree {max_degree} exceeds {MAX_DEGREE}")
    if sig in (QUATERNIONS, R03):
        result = _split_oracle(problem, max_degree)
        if result is not None:
            return result
    return _coordinate_oracle(problem, max_degree)


def _split_oracle(problem: InterpolationProblem, max_degree: int) -> OracleResult | None:
    """The oracle on the halves of the split; None for an R_{0,3} family.

    The split is a ring isomorphism, so the R_{0,3} system decouples into
    one system per half: it has no solution if either half has none, and
    one if both have one. When a half has many, the particular solution
    would depend on the basis, so the caller takes the coordinate route
    and the R_{0,3} family keeps that route's particular solution. H has
    one half in the blade coordinates themselves: its rows are positive
    multiples of the coordinate route's, with the same reduced row echelon
    form, so all three kinds agree with that route.
    """
    points = [split(x._num) for x in problem.points]
    values = [split(w._num) for w in problem.values]
    kinds, solutions = set(), []
    for half_points, half_values in zip(zip(*points), zip(*values)):
        kind, solution = _solve_half(half_points, half_values, max_degree)
        if kind == "none":
            return OracleResult("none", None)
        kinds.add(kind)
        solutions.append(solution)
    unique = kinds == {"unique"}
    if not unique and problem.sig == R03:
        return None
    coeffs = (
        _from_halves([Multivector(QUATERNIONS, s[4 * h : 4 * h + 4])._num for s in solutions])
        for h in range(max_degree + 1)
    )
    return OracleResult("unique" if unique else "affine_family", Polynomial(problem.sig, coeffs))


def _solve_half(points, values, max_degree: int):
    """``solve_exact`` on one half: block h of a pair's rows is the matrix of
    a_h -> x^h a_h, and each pair's four rows share one lcm that makes them
    integer."""
    rows = []
    rhs = []
    for x, w in zip(points, values):
        powers = [ONE]
        for _ in range(max_degree):
            powers.append(mul(powers[-1], x))
        scale = lcm(w[4], *(power[4] for power in powers))
        blocks = [left_rows(power, scale // power[4]) for power in powers]
        for out in range(4):
            rows.append([v for block in blocks for v in block[out]])
        rhs.extend(v * (scale // w[4]) for v in w[:4])
    return solve_exact(rows, rhs)


def _coordinate_oracle(problem: InterpolationProblem, max_degree: int) -> OracleResult:
    """The oracle as one system in the blade coordinates of any signature."""
    sig = problem.sig
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
