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
nodes and values, and the two solved halves are joined coefficient by
coefficient over one common denominator. The frame works on the integer
numerators that ``Multivector`` stores (see ``clifflag._quaternion``):
each node and value enters as its halves over its own denominator, with
no gcd, and each coefficient of the result is reduced once, so nothing
is converted on the way in or out. Nodes are filed by conjugacy class,
on the caller's problem, keyed by the class's primitive integer quadratic
read off the same halves (``clifflag._quaternion.class_key``); no class
id is built, and :func:`group_by_class` wraps the same layout into
``ClassGroup`` records for its callers alone:

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
solves one system per half of the split, over H itself: one equation per
point in the D + 1 quaternion unknowns, eliminated on the kernel
(``clifflag._quaternion.solve_left``). Every other signature takes one
real system in the blade coordinates (``clifflag.linsolve.solve_exact``),
which the tests keep as the referee of the split. The route depends on
the signature alone, never on the kind of the result.

The package attribute ``clifflag.interpolate`` is the function
:func:`interpolate`, which shadows this submodule; reach the module with
``importlib.import_module("clifflag.interpolate")``.
"""

from __future__ import annotations

from .errors import (
    CollinearityViolated,
    DuplicatePoint,
    InternalNonInvertible,
    MultiPointClassInR03,
    NotInvertible,
    PointNotInCone,
    SignatureMismatch,
    UnsupportedSignature,
)
from ._quaternion import NewtonFrame, class_key, join_rows, solve_left, split
from .linsolve import solve_exact
from .multivector import (
    QUATERNIONS,
    R03,
    ConjugacyClassId,
    Multivector,
    Signature,
    _Value,
    _class_of,
    _set,
)
from .poly import MAX_DEGREE, Polynomial


class InterpolationProblem(_Value):
    """Ordered (point, value) pairs over one signature."""

    __slots__ = ("sig", "pairs")

    def __init__(self, sig: Signature, pairs: tuple[tuple[Multivector, Multivector], ...]):
        _set(self, "sig", sig)
        _set(self, "pairs", pairs)

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


class ClassGroup(_Value):
    """The data points sharing one conjugacy class, in input order."""

    __slots__ = ("cls_id", "points", "values")

    def __init__(
        self,
        cls_id: ConjugacyClassId,
        points: tuple[Multivector, ...],
        values: tuple[Multivector, ...],
    ):
        _set(self, "cls_id", cls_id)
        _set(self, "points", points)
        _set(self, "values", values)

    @property
    def size(self) -> int:
        return len(self.points)


class ClassGrouping(_Value):
    """Class groups of a problem, singleton classes first."""

    __slots__ = ("sig", "groups")

    def __init__(self, sig: Signature, groups: tuple[ClassGroup, ...]):
        _set(self, "sig", sig)
        _set(self, "groups", groups)

    @property
    def degree_bound(self) -> int:
        """Target degree: -1 + sum of capped group sizes."""
        return _degree_bound(g.size for g in self.groups)


def _degree_bound(sizes) -> int:
    """The construction's degree bound for classes of these sizes."""
    return -1 + sum(min(size, 2) for size in sizes)


def _problem_degree_bound(problem: InterpolationProblem) -> int:
    """The construction's degree bound of a problem in H or R_{0,3}, read
    off its class layout without building a class group."""
    return _degree_bound(len(pairs) for _, pairs in _class_layout(problem))


def _check_signatures(problem: InterpolationProblem) -> None:
    """Raise SignatureMismatch for the first pair not wholly in ``problem.sig``."""
    for x, w in problem.pairs:
        if x.sig != problem.sig or w.sig != problem.sig:
            raise SignatureMismatch(
                f"pair ({x}, {w}) has its point in {x.sig} and its value in {w.sig}; "
                f"the problem is in {problem.sig}"
            )


def _class_layout(problem: InterpolationProblem) -> list[tuple[tuple, list]]:
    """The checks of :func:`group_by_class`; (class key, pairs) per class,
    singleton classes first, each block and each class in input order."""
    if problem.sig not in (QUATERNIONS, R03):
        raise UnsupportedSignature(f"interpolation not available in {problem.sig}")
    _check_signatures(problem)
    seen = set()
    layout: dict[tuple, list[tuple[Multivector, Multivector]]] = {}
    for x, w in problem.pairs:
        a = x._num
        if a in seen:
            raise DuplicatePoint(f"point {x} appears twice")
        seen.add(a)
        key = class_key(a)
        if key is None:
            raise PointNotInCone(f"point {x} is outside the quadratic cone")
        layout.setdefault(key, []).append((x, w))
    if problem.sig == R03:
        for key, pairs in layout.items():
            if len(pairs) > 1:
                raise MultiPointClassInR03(
                    f"class {_class_of(key)} holds {len(pairs)} points; R(0,3) allows one"
                )
    return sorted(layout.items(), key=lambda item: len(item[1]) > 1)  # stable


def group_by_class(problem: InterpolationProblem) -> ClassGrouping:
    """Validate a problem and group its pairs by conjugacy class.

    Every point and value must lie in the problem's signature, and points
    must be pairwise distinct cone elements of R_{0,2} or R_{0,3};
    in R_{0,3} no class may carry two points. Singleton classes come
    first, then multi-point classes, preserving first appearance within
    each block.
    """
    layout = _class_layout(problem)
    groups = tuple(ClassGroup(_class_of(key), *map(tuple, zip(*pairs))) for key, pairs in layout)
    return ClassGrouping(problem.sig, groups)


def _collinearity_violation(pairs):
    """:func:`first_collinearity_violation` on one class's (point, value) pairs."""
    if len(pairs) <= 2:
        return None
    (x1, w1), (x2, w2) = pairs[:2]
    slope = (x2 - x1).inverse() * (w2 - w1)
    for h, (x, w) in enumerate(pairs[2:], start=3):
        if (x - x1).inverse() * (w - w1) != slope:
            return h
    return None


def first_collinearity_violation(group: ClassGroup):
    """Index h (1-based, h >= 3) of the first point whose value breaks the
    common-slope condition of its class, or None. Groups of size <= 2 are
    vacuously consistent."""
    return _collinearity_violation(tuple(zip(group.points, group.values)))


def _frames(problem: InterpolationProblem):
    """The construction's nodes, their values, and one quaternion Newton
    frame per component over those nodes.

    The classes come from :func:`_class_layout`, so no class id is built:
    singleton classes first, then the first two points of each multi-point
    class (there are none in R_{0,3}). Every class passes the collinearity
    check before any frame is built. An empty problem is refused first.
    """
    if not problem.pairs:
        raise ValueError("cannot interpolate an empty problem")
    layout = _class_layout(problem)
    for j, (_, pairs) in enumerate(layout, start=1):
        h = _collinearity_violation(pairs)
        if h is not None:
            raise CollinearityViolated(j, h, pairs[0][0])
    nodes, values = [], []
    for _, pairs in layout:
        for x, w in pairs[:2]:
            nodes.append(x)
            values.append(w)
    frames = [NewtonFrame() for _ in range(2 if problem.sig == R03 else 1)]
    for node in nodes:
        try:
            for frame, half in zip(frames, split(node._num)):
                frame.add_node(half)
        except NotInvertible as exc:
            raise InternalNonInvertible(
                f"construction hit a non-invertible value for node {node}: {exc}"
            ) from exc
    return nodes, values, frames


def _newton(frames, values) -> Polynomial:
    """The polynomial within the degree bound taking ``values`` at the frames'
    nodes, solved per component and joined once per coefficient."""
    columns = zip(*(split(w._num) for w in values))
    sig = values[0].sig
    coeffs = join_rows([frame.solve(column) for frame, column in zip(frames, columns)])
    return Polynomial(sig, [Multivector._wrap(sig, c) for c in coeffs])


def lagrange_basis(problem: InterpolationProblem):
    """(node, basis polynomial) pairs: each polynomial is 1 at its node and
    0 at every other node used by the construction (first two per class in
    the quaternionic case)."""
    nodes, _, frames = _frames(problem)
    one, zero = Multivector.one(problem.sig), Multivector.zero(problem.sig)
    return tuple(
        (node, _newton(frames, [one if k == j else zero for k in range(len(nodes))]))
        for j, node in enumerate(nodes)
    )


def interpolate(problem: InterpolationProblem) -> Polynomial:
    """The unique interpolating polynomial within the construction's degree bound."""
    _, values, frames = _frames(problem)
    return _newton(frames, values)


def interpolate_quaternion(problem: InterpolationProblem) -> Polynomial:
    if problem.sig != QUATERNIONS:
        raise UnsupportedSignature(f"expected {QUATERNIONS}, got {problem.sig}")
    return interpolate(problem)


def interpolate_r03(problem: InterpolationProblem) -> Polynomial:
    if problem.sig != R03:
        raise UnsupportedSignature(f"expected {R03}, got {problem.sig}")
    return interpolate(problem)


class OracleResult(_Value):
    """Outcome of the linear-system oracle.

    kind is "unique", "none" or "affine_family"; `polynomial` is the
    solution, None for "none". For "affine_family" it is one particular
    solution: with every free quaternion unknown of each half of the
    split zero in H and R_{0,3} (for H these are exactly the free blade
    coordinates), and with every free blade coordinate zero in the other
    signatures.
    """

    __slots__ = ("kind", "polynomial")

    def __init__(self, kind: str, polynomial: Polynomial | None):
        _set(self, "kind", kind)
        _set(self, "polynomial", polynomial)


def brute_force_interpolate(
    problem: InterpolationProblem, max_degree: int | None = None
) -> OracleResult:
    """Solve the interpolation conditions as exact linear systems.

    Evaluation is real-linear in the coefficient coordinates, so stacking
    one row per output coordinate per data pair and running exact
    elimination classifies the problem completely. In H and R_{0,3} the
    unknowns are the quaternion coefficients of each half of the H (+) H
    split: one system over H of max_degree + 1 unknowns and one equation
    per pair, for each half (see :func:`_split_oracle`). Every other
    signature solves one real system in the 2^m (max_degree + 1) blade
    coordinates (:func:`_coordinate_oracle`). The signature alone picks
    the route, for every kind. ``max_degree`` defaults to the
    construction's degree bound, which exists only in H and R_{0,3}: every
    other signature requires it, and raises UnsupportedSignature without
    it. It must be an ``int`` (not a ``bool``) in 0..MAX_DEGREE, the CLI's
    ``--max-degree`` cap; each degree costs one power per point. An empty
    problem passes these checks too, then gives the zero "affine_family".
    """
    if max_degree is not None and type(max_degree) is not int:  # bool is an int subclass
        raise ValueError(f"max_degree must be an int or None, got {max_degree!r}")
    sig = problem.sig
    _check_signatures(problem)
    if max_degree is None:
        if sig not in (QUATERNIONS, R03):
            raise UnsupportedSignature(f"max_degree is required in {sig}, outside H and R(0,3)")
        max_degree = max(_problem_degree_bound(problem), 0)  # -1 for no points
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    if max_degree > MAX_DEGREE:
        raise ValueError(f"max_degree {max_degree} exceeds {MAX_DEGREE}")
    if not problem.pairs:
        return OracleResult("affine_family", Polynomial.zero(sig))
    if sig in (QUATERNIONS, R03):
        return _split_oracle(problem, max_degree)
    return _coordinate_oracle(problem, max_degree)


def _split_oracle(problem: InterpolationProblem, max_degree: int) -> OracleResult:
    """The oracle on the halves of the split.

    The split is a ring isomorphism, so the R_{0,3} system decouples into
    one system per half: it has no solution if either half has none, one
    if both have one, and a family otherwise, so the kind is the
    coordinate route's.

    Each half is eliminated over H (:func:`clifflag._quaternion.solve_left`),
    which gives the kind and the particular solution of the real system
    of the half's 4x4 blocks: that system's pivot columns come in whole
    blocks, one per quaternionic pivot, so its free real coordinates are
    the free quaternion unknowns, and the particular solution sets them
    to zero. For H that real system is the coordinate route's own, so
    the polynomial agrees with that route for all three kinds. An R_{0,3}
    family joins the two halves' particular solutions; that is the
    coordinate route's too wherever both halves leave the same unknowns
    free, and may differ where they do not. Points and values enter as
    their halves over their own denominators (:func:`split`), and the
    solved halves leave as the construction's do, one gcd per
    coefficient (:func:`join_rows`).
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
    sig = problem.sig
    poly = Polynomial(sig, [Multivector._wrap(sig, c) for c in join_rows(solutions)])
    return OracleResult("unique" if kinds == {"unique"} else "affine_family", poly)


def _solve_half(points, values, max_degree: int):
    """``solve_left`` on one half: a pair's equation sum_h x^h a_h = w,
    times w_d x_d^D to make it integer.

    With x = n / x_d and w = m / w_d, entry h of the row is
    w_d x_d^(D-h) n^h and its right-hand side is x_d^D m: the powers n^h
    are running Hamilton products of integers, not reduced, so a row costs
    no gcd and no lcm. The row is a positive multiple of the row of
    reduced powers over their lcm, and ``solve_left`` opens by dividing
    each row by its content, which gives both the same primitive row.
    """
    rows = []
    for (n0, n1, n2, n3, xd), (m0, m1, m2, m3, wd) in zip(points, values):
        scales = [wd]  # w_d x_d^k
        for _ in range(max_degree):
            scales.append(scales[-1] * xd)
        row = [(scales.pop(), 0, 0, 0)]
        p0, p1, p2, p3 = 1, 0, 0, 0  # n^h
        for s in reversed(scales):
            p0, p1, p2, p3 = (
                p0 * n0 - p1 * n1 - p2 * n2 - p3 * n3,
                p0 * n1 + p1 * n0 + p2 * n3 - p3 * n2,
                p0 * n2 - p1 * n3 + p2 * n0 + p3 * n1,
                p0 * n3 + p1 * n2 - p2 * n1 + p3 * n0,
            )
            row.append((s * p0, s * p1, s * p2, s * p3))
        top = xd**max_degree
        row.append((top * m0, top * m1, top * m2, top * m3))
        rows.append(row)
    return solve_left(rows)


def _coordinate_oracle(problem: InterpolationProblem, max_degree: int) -> OracleResult:
    """The oracle as one system in the blade coordinates of any signature."""
    sig = problem.sig
    dim = sig.dim
    rows, rhs = [], []
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
    coeffs = [Multivector(sig, solution[h * dim : (h + 1) * dim]) for h in range(max_degree + 1)]
    poly = Polynomial(sig, coeffs)
    return OracleResult("unique" if kind == "unique" else "affine_family", poly)


def verify_interpolant(poly: Polynomial, problem: InterpolationProblem) -> bool:
    """Exact check that the polynomial reproduces every prescribed value."""
    return all(poly(x) == w for x, w in problem.pairs)
