"""Shared deterministic generators for the test suite."""

from fractions import Fraction
import random

from clifflag import (
    InterpolationProblem,
    Multivector,
    QUATERNIONS,
    R03,
    Signature,
    from_quaternion_pair,
)
from clifflag.classpoints import (
    quaternion_from_parts,
    r03_cone_point,
    rational_unit_vectors,
)

UNITS = rational_unit_vectors(12)


def rand_fraction(rng: random.Random, span: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def rand_multivector(rng: random.Random, sig: Signature, span: int = 4) -> Multivector:
    return Multivector(sig, [rand_fraction(rng, span) for _ in range(sig.dim)])


def rand_nonzero(rng: random.Random, sig: Signature) -> Multivector:
    while True:
        x = rand_multivector(rng, sig)
        if x:
            return x


def rand_invertible(rng: random.Random, sig: Signature) -> Multivector:
    while True:
        x = rand_multivector(rng, sig)
        if x.is_invertible():
            return x


def rand_zero_divisor(rng: random.Random) -> Multivector:
    """A nonzero non-invertible element of R(0,3): one split component zero."""
    h = rand_nonzero(rng, QUATERNIONS)
    zero = Multivector.zero(QUATERNIONS)
    return (
        from_quaternion_pair(h, zero)
        if rng.random() < 0.5
        else from_quaternion_pair(zero, h)
    )


def rand_class_params(rng: random.Random, count: int):
    """Pairwise distinct (alpha, beta) pairs, beta > 0, hence distinct classes."""
    params = set()
    while len(params) < count:
        alpha = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        beta = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        params.add((alpha, beta))
    return sorted(params)


def rand_cone_point_r03(rng: random.Random, alpha=None, beta=None) -> Multivector:
    if alpha is None:
        alpha = rand_fraction(rng, 3)
    if beta is None:
        beta = Fraction(rng.randint(1, 4), rng.randint(1, 2))
    return r03_cone_point(alpha, beta, rng.choice(UNITS), rng.choice(UNITS))


def random_h_problem(
    rng: random.Random, force_triple: bool = False, sizes=None
) -> InterpolationProblem:
    """A feasible quaternionic problem; triple-point classes get values built
    from the class's affine slope so the collinearity condition holds.
    `sizes` fixes the number of points per class (random by default)."""
    n_classes = len(sizes) if sizes else rng.randint(1, 3)
    params = rand_class_params(rng, n_classes)
    pairs = []
    for gi, (alpha, beta) in enumerate(params):
        if sizes:
            size = sizes[gi]
        else:
            size = 3 if force_triple and gi == 0 else rng.choice((1, 1, 2, 3))
        vecs = rng.sample(UNITS, size)
        pts = [quaternion_from_parts(alpha, [beta * c for c in v]) for v in vecs]
        vals = [rand_multivector(rng, QUATERNIONS, 3) for _ in range(min(size, 2))]
        if size >= 3:
            slope = (pts[1] - pts[0]).inverse() * (vals[1] - vals[0])
            offset = vals[0] - pts[0] * slope
            vals += [pts[h] * slope + offset for h in range(2, size)]
        pairs.extend(zip(pts, vals))
    rng.shuffle(pairs)
    return InterpolationProblem.from_pairs(QUATERNIONS, pairs)


def random_h_problem_with_violation(rng: random.Random) -> InterpolationProblem:
    """A quaternionic problem with one triple-point class whose third value
    breaks the common slope."""
    problem = random_h_problem(rng, force_triple=True)
    pairs = list(problem.pairs)
    by_class = {}
    for idx, (x, _) in enumerate(pairs):
        by_class.setdefault(x.conjugacy_class(), []).append(idx)
    triple = next(idxs for idxs in by_class.values() if len(idxs) >= 3)
    idx = triple[2]
    x, w = pairs[idx]
    pairs[idx] = (x, w + Multivector.one(QUATERNIONS))
    return InterpolationProblem.from_pairs(QUATERNIONS, pairs)


def random_r03_problem(rng: random.Random, n_points=None) -> InterpolationProblem:
    if n_points is None:
        n_points = rng.randint(1, 4)
    pairs = []
    for alpha, beta in rand_class_params(rng, n_points):
        up, um = rng.sample(UNITS, 2)
        pairs.append((r03_cone_point(alpha, beta, up, um), rand_multivector(rng, R03, 3)))
    rng.shuffle(pairs)
    return InterpolationProblem.from_pairs(R03, pairs)


def horner(p, x: Multivector) -> Multivector:
    """P(x) = sum_h x^h a_h by Horner's rule on Multivector products: the
    reference for ``Polynomial.__call__``, which runs on the quaternion
    kernel in H and R(0,3)."""
    acc = Multivector.zero(p.sig)
    for a in reversed(p.coeffs):
        acc = x * acc + a
    return acc


def count_products(monkeypatch):
    """Record every geometric product (a multivector times a multivector)."""
    real_mul, calls = Multivector.__mul__, []

    def counted(a, b):
        if isinstance(b, Multivector):
            calls.append((a, b))
        return real_mul(a, b)

    monkeypatch.setattr(Multivector, "__mul__", counted)
    return calls
