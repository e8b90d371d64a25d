"""The integer quaternion kernel against Multivector and Polynomial.

The kernel stores a quaternion as four integer numerators over one
denominator, which is also what a quaternionic Multivector stores; every
operation must give the same exact value as the generic blade-table
arithmetic of R(0,2), in lowest terms. The root search, the Newton
frame and Polynomial evaluation read a polynomial as integer rows over
one denominator, half by half; evaluation on such rows, and
Polynomial evaluation in H and R(0,3), are checked against Horner's rule
on Multivector products (``util.horner``), the remainder modulo a class
quadratic against Multivector division, and the frame's rows for a zero
content after every step. Derandomized, so the suite stays deterministic.
"""

import importlib
import json
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clifflag import (
    ConjugacyClassId,
    InterpolationProblem,
    Multivector,
    NotInvertible,
    Polynomial,
    QUATERNIONS,
    R03,
    affine_restriction,
    append_root,
    brute_force_interpolate,
    divide_by_real,
    from_quaternion_pair,
    interpolate,
    to_quaternion_pair,
)
from clifflag import _quaternion as hk
from clifflag.linsolve import solve_exact
from clifflag.poly import _split
from util import horner, random_h_problem, random_r03_problem

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=80, deadline=None)

# Small values take the zero, unit and equal-denominator branches.
BIG = 2**256
numerators = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))
denominators = st.one_of(st.integers(1, 6), st.integers(1, BIG))
fractions = st.builds(Fraction, numerators, denominators)
quaternions = st.lists(fractions, min_size=4, max_size=4).map(
    lambda coeffs: Multivector(QUATERNIONS, coeffs)
)
r03_elements = st.lists(fractions, min_size=8, max_size=8).map(lambda coeffs: Multivector(R03, coeffs))


def assert_reduced(a):
    assert a[4] > 0 and gcd(*a) == 1


def as_kernel(x):
    a = x._num
    assert_reduced(a)
    return a


@PROPERTY_SETTINGS
@given(quaternions, quaternions)
def test_product_and_sums_match(x, y):
    a, b = as_kernel(x), as_kernel(y)
    for got, want in (
        (hk.add(a, b), x + y),
        (hk.neg(a), -x),
    ):
        assert_reduced(got)
        assert got == want._num


@PROPERTY_SETTINGS
@given(quaternions)
def test_inverse_matches(x):
    # a kernel result, left unreduced over a positive denominator
    if not x:
        with pytest.raises(NotInvertible):
            hk.inverse(as_kernel(x))
        return
    got = hk.inverse(as_kernel(x))
    assert got[4] > 0
    assert hk._reduce(*got) == x.inverse()._num


@PROPERTY_SETTINGS
@given(quaternions, fractions)
def test_scale_matches(x, q):
    got = hk.scale(as_kernel(x), q)
    assert_reduced(got)
    assert got == (x * q)._num


@PROPERTY_SETTINGS
@given(st.one_of(quaternions, r03_elements), st.integers(1, 12))
def test_split_and_join_invert_each_other(x, k):
    # split keeps x's own denominator and takes no gcd; join reduces once,
    # so halves scaled by any k >= 1 join to x in lowest terms
    halves = hk.split(x._num)
    assert len(halves) == (2 if x.sig == R03 else 1)
    assert all(half[4] == x._num[-1] for half in halves)
    assert hk.join(halves) == x._num
    assert hk.join([scaled(half, k) for half in halves]) == x._num


@PROPERTY_SETTINGS
@given(r03_elements)
@example(Multivector.parse("1/2 + 1/2 e123", R03))  # the minus half is zero
@example(Multivector.parse("1/4 e1 + 1/3 e2 + 1/4 e23", R03))  # gcds 4 and 2
def test_split_is_the_quaternion_pair_in_lowest_terms(x):
    # to_quaternion_pair reduces the kernel's unreduced halves once each
    pair = tuple(h._num for h in to_quaternion_pair(x))
    assert pair == tuple(hk._reduce(*half) for half in hk.split(x._num))
    for half in pair:
        assert_reduced(half)


def product4(a, b):
    """The product of two integer quaternions, through Multivector."""
    return tuple(int(c) for c in (Multivector(QUATERNIONS, a) * Multivector(QUATERNIONS, b)).coeffs)


Q0 = (0, 0, 0, 0)
small_or_big = st.one_of(st.integers(-3, 3), st.integers(-(2**64), 2**64))
int_quaternions = st.tuples(*[small_or_big] * 4)


def left_sum(factors, quaternions):
    return tuple(map(sum, zip(Q0, *(product4(f, q) for f, q in zip(factors, quaternions)))))


@st.composite
def left_systems(draw):
    """Rows [r_0, ..., r_(n-1) | w] of integer quaternions: m and n from 1
    to 5 each, zero entries and zero columns, a column that is a right
    multiple of an earlier one, a right-hand side made from a solution or
    drawn, and rows that are left combinations of others, inserted
    anywhere, one in four made inconsistent."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = st.one_of(st.just(Q0), int_quaternions)
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        for row in rows:
            row[j] = Q0
    if n > 1 and draw(st.booleans()):
        earlier, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        q = draw(int_quaternions)
        for row in rows:
            row[j] = product4(row[earlier], q)
    if draw(st.booleans()):
        solution = draw(st.lists(int_quaternions, min_size=n, max_size=n))
        for row in rows:
            row.append(left_sum(row, solution))
    else:
        for row in rows:
            row.append(draw(int_quaternions))
    for _ in range(draw(st.integers(0, 3))):
        picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=2))
        factors = [draw(int_quaternions) for _ in picks]
        row = [left_sum(factors, [rows[i][h] for i in picks]) for h in range(n + 1)]
        if draw(st.integers(0, 3)) == 3:
            row[n] = (row[n][0] + 1, *row[n][1:])
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


def real_expansion(rows):
    """Four real rows per row: block h is the left-multiplication matrix of r_h."""
    real, rhs = [], []
    for *coeffs, w in rows:
        blocks = [Multivector(QUATERNIONS, r).left_multiplication_matrix() for r in coeffs]
        for k in range(4):
            real.append([v for block in blocks for v in block[k]])
        rhs.extend(w)
    return real, rhs


I, J, K = (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
R1, R2, R3 = (1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0)


def power_rows(points, coeffs, scales):
    """Oracle-shaped rows [s, s x, ..., s x^D | s P(x)] of integer points x,
    with P = sum_h X^h coeffs[h] and a positive integer s per row."""
    rows = []
    for x, s in zip(points, scales):
        powers = [R1]
        for _ in coeffs[1:]:
            powers.append(product4(powers[-1], x))
        row = [*powers, left_sum(powers, coeffs)]
        rows.append([tuple(s * v for v in q) for q in row])
    return rows


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(left_systems())
@example([[(1, 0, 0, 0), I, (2, 0, 0, 0)]])  # m < n: many
@example([[(1, 2, 0, 0), (1, 0, 0, 0)], [(3, 0, 0, 1), K], [(0, 1, 1, 0), (0, 2, 0, 0)]])  # m > n: none
@example([[(1, 0, 0, 0), (1, 0, 0, 0)], [(2, 0, 0, 0), (3, 0, 0, 0)]])  # none
@example([[Q0, I, Q0, J], [Q0, J, K, (1, 0, 0, 0)]])  # a zero column and a pivot after a free one
@example([[(0, 2, 0, 0), (0, 0, 1, -1), (-1, 0, 0, 1)], [I, J, K], [K, I, J]])  # row 0 = row 1 + j row 2
@example([[R2, I, R1], [R3, (1, 1, 0, 0), J]])  # a real positive pivot over a real multiplier
@example([[(-4, 0, 0, 0), (0, 2, 0, 0), (6, 0, 0, 2)], [I, K, J]])  # a real negative pivot, content 2
@example([[(1, 1, 0, 0), J, R1], [R3, K, I], [(-2, 0, 0, 0), R1, Q0]])  # real multipliers, non-real pivot
# a row twice another, then a zero column skipped before a non-real pivot in a later row
@example([[R1, I, Q0, R1], [R2, (0, 2, 0, 0), Q0, R2], [R1, I, (0, 1, 1, 0), K]])
# column 0 real and positive, then powers of each row's point: unique with
# m = n, and with m > n on data from one polynomial
@example(power_rows([(1, 1, 0, 0), (0, 0, 2, -1), (3, 0, 0, 0)], [R1, I, J], [1, 3, 2]))
@example(power_rows([(1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 2, 0), (2, 1, 1, 1)], [J, K, R2], [2, 1, 5, 1]))
def test_solve_left_equals_solve_exact_on_the_real_expansion(rows):
    kind, solution = solve_exact(*real_expansion(rows))
    got_kind, got = hk.solve_left(rows)
    assert got_kind == kind
    if kind == "none":
        assert got is None
        return
    # the unknowns as integer rows over one denominator in lowest terms,
    # which join_rows reduces one by one
    num, den = got
    assert den > 0 and gcd(den, *(v for q in num for v in q)) == 1
    assert [Fraction(v, den) for q in num for v in q] == solution
    for q in hk.join_rows([got]):
        assert_reduced(q)


def reduced_power_row(x, w, max_degree):
    """The oracle's row [x^0, ..., x^D | w] of reduced powers over their
    lcm, the powers as Multivector products in H: the reference for the
    rows of unreduced powers."""
    point = Multivector(QUATERNIONS, [Fraction(v, x[4]) for v in x[:4]])
    row = [Multivector.one(QUATERNIONS)]
    for _ in range(max_degree):
        row.append(row[-1] * point)
    row = [q._num for q in row] + [w]
    scale = lcm(*(q[4] for q in row))
    return [tuple(map((scale // q[4]).__mul__, q[:4])) for q in row]


def test_oracle_rows_are_the_reduced_power_rows_up_to_content(monkeypatch):
    # points and values over unrelated denominators, a zero point and a
    # zero value among them; each row that _solve_half hands to solve_left
    # has the primitive row of the reference
    oracle = importlib.import_module("clifflag.interpolate")
    seen = []

    def recording(rows):
        seen.append(rows)
        return hk.solve_left(rows)

    monkeypatch.setattr(oracle, "solve_left", recording)
    rng = random.Random("oracle rows")
    primes = (1, 2, 3, 5, 7, 11, 13, 49, 125)

    def kernel_point():
        coeffs = [Fraction(rng.randint(-9, 9), rng.choice(primes)) for _ in range(4)]
        return Multivector(QUATERNIONS, coeffs)._num

    for max_degree in range(6):
        for _ in range(4):
            points = [kernel_point() for _ in range(rng.randint(1, 5))] + [(0, 0, 0, 0, 1)]
            values = [(0, 0, 0, 0, 1)] + [kernel_point() for _ in points[1:]]
            seen.clear()
            oracle._solve_half(points, values, max_degree)
            (rows,) = seen
            assert len(rows) == len(points)
            for row, x, w in zip(rows, points, values):
                assert len(row) == max_degree + 2
                assert hk._primitive(row)[0] == hk._primitive(reduced_power_row(x, w, max_degree))[0]


def class_quadratic(t, n):
    """(N, M, L): L (X^2 - t X + n), constant term first, for L the lcm of
    the denominators of t and n."""
    L = lcm(t.denominator, n.denominator)
    return int(n * L), int(-t * L), L


@PROPERTY_SETTINGS
@given(quaternions)
def test_class_test_matches_trace_and_norm(x):
    # the class key is the quadratic L (X^2 - t X + n) of the element's own
    # trace t and norm n, also read off a tuple that is not in lowest terms;
    # an R(0,3) cone point with halves x and x with its vector part rotated
    # has the same trace and norm, so the same key
    t, n = 2 * x.scalar_part(), x.norm().scalar_part()
    x0, x1, x2, x3 = x.coeffs
    cone_point = from_quaternion_pair(x, Multivector(QUATERNIONS, (x0, x2, x3, x1)))
    for a in (as_kernel(x), cone_point._num):
        assert hk.class_key(a) == class_quadratic(t, n)
        assert hk.class_key(tuple(6 * c for c in a)) == class_quadratic(t, n)


def halves_of(x):
    return to_quaternion_pair(x) if x.sig == R03 else (x,)


def kernel_rows(p):
    """P's halves as integer rows over one denominator, from Fraction coordinates."""
    pairs = [halves_of(c) for c in p.coeffs]
    den = lcm(*(x.denominator for pair in pairs for h in pair for x in h.coeffs))
    count = 2 if p.sig == R03 else 1
    return [[tuple(int(x * den) for x in pair[i].coeffs) for pair in pairs] for i in range(count)], den


polynomials = st.one_of(
    st.lists(quaternions, max_size=11).map(lambda cs: Polynomial(QUATERNIONS, cs)),
    st.lists(r03_elements, max_size=11).map(lambda cs: Polynomial(R03, cs)),
)


@PROPERTY_SETTINGS
@given(polynomials, fractions, fractions)
@example(Polynomial.zero(R03), Fraction(1, 2), Fraction(1, 3))
@example(Polynomial.constant(Multivector.parse("1/2 - 3 e1 + 1/5 e123", R03)), Fraction(1, 2), Fraction(2, 3))
@example(Polynomial.parse("X^10*(1/3 e1) + X^3*(1/7) + (2)", R03), Fraction(-3, 4), Fraction(5, 6))
@example(Polynomial.parse("X^2*(e1) + (1/2)", QUATERNIONS), Fraction(1), Fraction(1, 4))  # a real class
def test_remainder_matches_division(p, t, n):
    # the kernel's remainder, joined by affine_restriction, against long
    # division: one half for H, two for R(0,3); t and n with denominators
    # of their own, degrees 0 to 10 and the zero polynomial. A drawn n
    # below t^2/4 is moved into the cone, where classes live.
    if 4 * n < t * t:
        n = t * t / 4 + abs(n)
    restriction = affine_restriction(p, ConjugacyClassId(t, n))
    _, rem = divide_by_real(p, Polynomial.from_scalars(p.sig, (n, -t, 1)))
    assert restriction.b._num == rem.coefficient(0)._num
    assert restriction.a._num == rem.coefficient(1)._num


def sphere_root_reference(p, t, n):
    """Per half, the root of x a + b = 0 in the class (t, n), from the
    reduced remainder b + X a of long division, as Multivector products in
    H: x = -b conj(a) / |a|^2."""
    _, rem = divide_by_real(p, Polynomial.from_scalars(p.sig, (n, -t, 1)))
    roots = []
    for b, a in zip(halves_of(rem.coefficient(0)), halves_of(rem.coefficient(1))):
        if not a:
            roots.append(None if not b else False)
            continue
        x = -(b * a.conjugate()) / a.norm().scalar_part()
        member = 2 * x.scalar_part() == t and x.norm().scalar_part() == n
        roots.append(x._num if member else False)
    return roots


_Y = Multivector.parse("1/2 + 1/3 e1 - 2/5 e12 + e2", QUATERNIONS)


@PROPERTY_SETTINGS
@given(polynomials, fractions, fractions)
@example(Polynomial.zero(R03), Fraction(1, 2), Fraction(1, 3))  # the whole sphere
@example(Polynomial.constant(Multivector.parse("2 - e13", R03)), Fraction(0), Fraction(1))  # a = 0 != b
@example(Polynomial.x_minus(Multivector.parse("e1 + 1/2 e3", R03)), Fraction(0), Fraction(5, 4))  # halves i -+ 1/2 k
@example(  # a root of X^2 - X (y + z) + y z in y's class, over unreduced numerators
    Polynomial.x_minus(_Y) * Polynomial.x_minus(Multivector.parse("3 - 1/7 e2", QUATERNIONS)),
    2 * _Y.scalar_part(),
    _Y.norm().scalar_part(),
)
@example(Polynomial.x_minus(Multivector.basis(QUATERNIONS, 1)), Fraction(1), Fraction(1))  # right norm, wrong trace
@example(Polynomial.x_minus(Multivector.basis(QUATERNIONS, 1)), Fraction(0), Fraction(2))  # right trace, wrong norm
def test_sphere_root_matches_the_reduced_candidate(p, t, n):
    # deciding the class on the unreduced numerators gives what reducing b
    # and a, forming -b a^-1 and testing its class gives, half by half; a
    # root found is left unreduced
    halves, _ = kernel_rows(p)
    for rows, want in zip(halves, sphere_root_reference(p, t, n), strict=True):
        got = hk.sphere_root(rows, class_quadratic(t, n))
        assert type(got) is type(want)
        assert (hk._reduce(*got) if want else got) == want


@PROPERTY_SETTINGS
@given(polynomials)
@example(Polynomial(R03, [Multivector.parse("1/2 + 1/2 e123", R03)] * 2))  # halves 1 and 0
def test_polynomial_split_is_rows_over_one_denominator(p):
    # one lcm over P's denominators, and no gcd per row; the rows are kept
    # in P and handed out as tuples all the way down, so no caller can
    # change them
    split = _split(p)
    assert _split(p) is split
    halves, den = split
    assert den == lcm(*(c._num[-1] for c in p.coeffs))
    assert len(halves) == (2 if p.sig == R03 else 1)
    assert type(halves) is tuple
    for i, half in enumerate(halves):
        assert type(half) is tuple and all(type(row) is tuple for row in half)
        assert all(type(v) is int for row in half for v in row)
        assert [hk._reduce(*row, den) for row in half] == [halves_of(c)[i]._num for c in p.coeffs]


@PROPERTY_SETTINGS
@given(st.lists(quaternions, max_size=5), quaternions)
def test_evaluation_matches(coeffs, x):
    # the coefficients over their lcm, a zero top coefficient kept
    den = lcm(*(as_kernel(c)[4] for c in coeffs))
    rows = [tuple(int(v * den) for v in c.coeffs) for c in coeffs]
    got = hk.join([hk._horner(rows, den, as_kernel(x))])
    assert_reduced(got)
    assert got == horner(Polynomial(QUATERNIONS, coeffs), x)._num


def coefficients_and_point(elements, sig):
    """Up to eleven coefficients, zero ones (a zero top one too) among them,
    and a point, all in sig."""
    coeffs = st.lists(st.one_of(st.just(Multivector.zero(sig)), elements), max_size=11)
    return st.tuples(coeffs, elements)


H_ZERO, R03_ZERO = Multivector.zero(QUATERNIONS), Multivector.zero(R03)
R03_IDEMPOTENT = Multivector.parse("1/2 + 1/2 e123", R03)


@PROPERTY_SETTINGS
@given(
    st.one_of(
        coefficients_and_point(quaternions, QUATERNIONS),
        coefficients_and_point(r03_elements, R03),
    )
)
@example(([], Multivector.parse("1/2 - e12", QUATERNIONS)))  # the zero polynomial
@example(([], R03_IDEMPOTENT))
# a zero top coefficient
@example(([Multivector.parse("2 - 1/3 e2", QUATERNIONS), H_ZERO], H_ZERO))
@example(([Multivector.parse("1/2 e3", R03), R03_IDEMPOTENT, R03_ZERO, R03_ZERO], R03_IDEMPOTENT))
def test_polynomial_call_matches_multivector_horner(case):
    # the kernel evaluation of Polynomial.__call__, on the rows P keeps,
    # against Horner's rule on Multivector products; a second call reuses
    # the rows and gives the same value
    coeffs, x = case
    p = Polynomial(x.sig, coeffs)
    want = horner(p, x)
    for _ in range(2):
        got = p(x)
        assert type(got) is Multivector and got.sig == x.sig
        assert got._num == want._num


def test_frame_polynomials_are_the_append_root_chain():
    # T_i of the frame is append_root over the earlier nodes, in order; the
    # frame keeps T_i(x_i) unreduced, with the squared norm of its
    # numerators, and that tuple reduces to T_i(x_i) and inverts to its
    # inverse
    rng = random.Random("frame")
    for _ in range(10):
        nodes = [x for x, _ in random_h_problem(rng, sizes=(1, 1, 1, 1)).pairs]
        frame = hk.NewtonFrame()
        chain = Polynomial.one(QUATERNIONS)
        for i, node in enumerate(nodes):
            frame.add_node(node._num)
            if i:
                chain = append_root(chain, nodes[i - 1])
            _, t, den, tx, norm = frame.nodes[-1]
            assert [hk._reduce(*row, den) for row in t] == [c._num for c in chain.coeffs]
            value = horner(chain, node)
            assert hk._reduce(*tx) == value._num
            assert norm == sum(v * v for v in tx[:4])
            assert hk._reduce(*hk.inverse(tx)) == value.inverse()._num


def as_polynomial(rows, den):
    return Polynomial(QUATERNIONS, [Multivector(QUATERNIONS, [Fraction(v, den) for v in row]) for row in rows])


@st.composite
def rows_over_one_denominator(draw):
    """(rows, den): up to six integer 4-tuples over one denominator, with
    zero rows, a zero top row, the empty list, and rows and den that share
    a factor."""
    rows = draw(st.lists(st.one_of(st.just(Q0), int_quaternions), max_size=6))
    den = draw(st.one_of(st.integers(1, 6), st.integers(1, 2**64)))
    if draw(st.booleans()):
        factor = draw(st.integers(2, 12))
        rows = [tuple(factor * v for v in row) for row in rows]
        den *= factor
    if rows and draw(st.booleans()):
        rows[-1] = Q0
    return rows, den


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(rows_over_one_denominator(), quaternions)
@example(([], 3), Multivector.parse("1/2 + e1", QUATERNIONS))  # the empty list
@example(([Q0, Q0], 5), Multivector.parse("e12", QUATERNIONS))  # zero rows
@example(([(6, 0, 4, 2), Q0], 4), Multivector.parse("1/2 e2", QUATERNIONS))  # a zero top row
@example(([(2, 4, 6, 8), (6, 0, 0, 2)], 10), Multivector.parse("1/3 + 2/3 e1", QUATERNIONS))  # factor 2
def test_evaluate_on_rows_over_one_denominator_matches_polynomial(rows_den, x):
    rows, den = rows_den
    got = hk.join([hk._horner(rows, den, as_kernel(x))])
    assert_reduced(got)
    assert got == horner(as_polynomial(rows, den), x)._num


def assert_primitive(rows, den):
    assert den > 0 and gcd(den, *(v for row in rows for v in row)) == 1


def h_pairs(*texts):
    return [(Multivector.parse(x, QUATERNIONS), Multivector.parse(w, QUATERNIONS)) for x, w in texts]


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(st.lists(st.tuples(quaternions, quaternions), min_size=1, max_size=6))
@example(h_pairs(("1/2", "1"), ("e1", "0"), ("1 + e2", "2/3 e12"), ("3/4 e12", "1")))
@example(h_pairs(("e1", "1"), ("2", "e2"), ("e1", "0")))  # a repeated node stops the frame
def test_frame_rows_are_primitive_after_every_step(pairs):
    # every T that add_node builds and every P that solve reads at a node
    # is integer rows over a positive denominator with no common factor,
    # and so is the P that solve returns
    seen = []
    original = hk._horner

    def recording(rows, den, x):
        seen.append((list(rows), den))
        return original(rows, den, x)

    frame = hk.NewtonFrame()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hk, "_horner", recording)
        for x, _ in pairs:
            try:
                frame.add_node(as_kernel(x))
            except NotInvertible:  # x is a root of the frame so far
                seen.pop()  # the zero T(x) that add_node refused
                break
        assert len(seen) == len(frame.nodes)
        values = [as_kernel(w) for _, w in pairs[: len(frame.nodes)]]
        rows, den = frame.solve(values)
    assert len(seen) == 2 * len(frame.nodes)
    for _, t, den_t, _, _ in frame.nodes:
        assert_primitive(t, den_t)
    for seen_rows, seen_den in seen:
        assert_primitive(seen_rows, seen_den)
    assert_primitive(rows, den)
    got = hk.join_rows([(rows, den)])
    for q in got:
        assert_reduced(q)
    p = Polynomial(QUATERNIONS, [Multivector(QUATERNIONS, [Fraction(v, q[4]) for v in q[:4]]) for q in got])
    for (x, _), w in zip(pairs, values):
        assert p(x)._num == w


def scaled(a, k):
    return tuple(k * v for v in a)


def solved(nodes, values):
    """The reduced coefficients of the frames over ``nodes`` that take
    ``values``, one frame per half; None once a node is a root of the
    frame so far."""
    frames = [hk.NewtonFrame() for _ in nodes[0]]
    try:
        for halves in nodes:
            for frame, half in zip(frames, halves):
                frame.add_node(half)
    except NotInvertible:
        return None
    return hk.join_rows([frame.solve(column) for frame, column in zip(frames, zip(*values))])


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(
    st.lists(
        st.tuples(quaternions, quaternions, st.integers(2, 12), st.integers(2, 2**64)),
        min_size=1,
        max_size=6,
    )
)
@example([(x, w, 2, 3) for x, w in h_pairs(("1/2", "1"), ("e1", "0"), ("1 + e2", "2/3 e12"))])
@example([(x, w, 2, 2) for x, w in h_pairs(("e1", "1"), ("2", "e2"), ("e1", "0"))])  # a repeated node
def test_frame_on_unreduced_tuples_matches_reduced(cases):
    # nodes and values scaled by k >= 2 stand for the same quaternions, so
    # the frame gives the same reduced coefficients, and refuses the same
    # repeated node
    nodes = [(as_kernel(x),) for x, _, _, _ in cases]
    values = [(as_kernel(w),) for _, w, _, _ in cases]
    want = solved(nodes, values)
    got = solved(
        [(scaled(x, k),) for (x,), (_, _, k, _) in zip(nodes, cases)],
        [(scaled(w, k),) for (w,), (_, _, _, k) in zip(values, cases)],
    )
    assert got == want


# a cone point whose two halves over its denominator 2, (2, 2, 0, 0) and
# (2, 0, 2, 0), share the factor 2
R03_EVEN_HALVES = Multivector.parse("1 + 1/2 e1 + 1/2 e2 - 1/2 e13 - 1/2 e23", R03)


def reduced_split(a):
    return tuple(hk._reduce(*half) for half in hk.split(a))


def test_r03_frames_on_unreduced_halves_match_reduced():
    assert [gcd(*h) for h in hk.split(R03_EVEN_HALVES._num)] == [2, 2]
    rng = random.Random("unreduced halves")
    for _ in range(10):
        problem = random_r03_problem(rng, 4)
        pairs = [(R03_EVEN_HALVES, Multivector.parse("1/2 e123 + e3", R03)), *problem.pairs]
        if any(x.conjugacy_class() == R03_EVEN_HALVES.conjugacy_class() for x, _ in problem.pairs):
            continue
        want, got = (
            solved([split(x._num) for x, _ in pairs], [split(w._num) for _, w in pairs])
            for split in (reduced_split, hk.split)
        )
        assert got is not None and got == want
        p = Polynomial(R03, [Multivector._wrap(R03, c) for c in got])
        assert p == interpolate(InterpolationProblem.from_pairs(R03, pairs))
        assert all(p(x) == w for x, w in pairs)


def test_each_value_leaves_the_kernel_with_one_reduction(monkeypatch):
    # values cross into the kernel unreduced (split, split_rows), stay
    # unreduced inside it, and each coefficient is reduced once on the way
    # out (join, join_rows): an R(0,3) evaluation, forming P's rows on the
    # way, and an R(0,3) inverse take one gcd each, and the oracle one per
    # coefficient of its result
    doc = json.loads((Path(__file__).parent / "data" / "r03_three_point.json").read_text())
    pairs = zip(doc["points"], doc["values"])
    problem = InterpolationProblem.from_pairs(
        R03, [(Multivector.parse(x, R03), Multivector.parse(w, R03)) for x, w in pairs]
    )
    p = interpolate(problem)
    x = R03_EVEN_HALVES
    want_value, want_inverse = horner(p, x), x.inverse()
    calls = []
    original = hk._reduce

    def counting(*a):
        calls.append(a)
        return original(*a)

    monkeypatch.setattr(hk, "_reduce", counting)
    value = p(x)
    assert len(calls) == 1
    calls.clear()
    inverse = x.inverse()
    assert len(calls) == 1
    calls.clear()
    result = brute_force_interpolate(problem)
    assert len(calls) == len(result.polynomial.coeffs) == 3
    monkeypatch.undo()
    assert value == want_value and inverse == want_inverse
    assert result.kind == "unique" and result.polynomial == p
