"""The fraction-free solver against Gauss-Jordan elimination on Fractions.

`gauss_jordan` is the reference: it reduces [A | b] to reduced row echelon
form over the rationals and reads the particular solution off it, every
free variable zero. `solve_exact` must return the same kind and the same
solution, Fraction for Fraction.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clifflag.linsolve import _integer_row, solve_exact

_ZERO = Fraction(0)


def gauss_jordan(rows, rhs):
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]

    pivot_cols = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break

    for i in range(r, m):
        if a[i][n]:
            return "none", None

    solution = [_ZERO] * n
    for row, c in enumerate(pivot_cols):
        solution[c] = a[row][n]
    kind = "unique" if len(pivot_cols) == n else "many"
    return kind, solution


def assert_matches_reference(rows, rhs):
    kind, solution = solve_exact(rows, rhs)
    assert (kind, solution) == gauss_jordan(rows, rhs)
    if solution is not None:
        assert all(isinstance(v, Fraction) for v in solution)
        for row, b in zip(rows, rhs):
            assert sum((Fraction(v) * x for v, x in zip(row, solution)), _ZERO) == b
    return kind


F = Fraction

NAMED_SYSTEMS = {
    "full rank": ([[2, -1, 0], [F(1, 3), 4, -1], [0, F(-5, 2), 7]], [1, F(-2, 3), 5], "unique"),
    "repeated row": ([[1, F(1, 2), -3], [1, F(1, 2), -3], [0, 2, F(1, 5)]], [4, 4, -1], "many"),
    "combined row": (
        [[1, -2, F(3, 4)], [F(-1, 2), 5, 1], [0, 8, F(11, 4)]],
        [F(1, 3), -1, F(-5, 3)],
        "many",
    ),
    "inconsistent": ([[1, -2, F(3, 4)], [2, -4, F(3, 2)]], [1, 3], "none"),
    "tall": ([[1, 0], [0, -1], [F(1, 2), F(1, 2)], [3, -3]], [F(2, 7), F(-1, 7), F(3, 14), F(3, 7)], "unique"),
    "tall inconsistent": ([[1, 0], [0, 1], [1, 1]], [1, 1, 3], "none"),
    "wide": ([[F(-1, 3), 2, 0, 5], [0, 0, F(7, 2), -1]], [1, F(-9, 4)], "many"),
    "zero, consistent": ([[0, 0, 0], [0, 0, 0]], [0, 0], "many"),
    "zero, inconsistent": ([[0, 0], [0, 0]], [0, F(-1, 2)], "none"),
    "late pivot": ([[0, 0, 3], [0, -2, 1], [0, 4, -2]], [6, F(1, 2), -1], "many"),
    "no equations": ([], [], "unique"),
    "no unknowns": ([[], []], [0, 1], "none"),
}


@pytest.mark.parametrize("name", sorted(NAMED_SYSTEMS))
def test_named_systems_match_reference(name):
    rows, rhs, kind = NAMED_SYSTEMS[name]
    assert assert_matches_reference(rows, rhs) == kind


def test_unique_solution_value():
    kind, solution = solve_exact([[2, 1], [1, -1]], [F(1, 2), 3])
    assert kind == "unique"
    assert solution == [F(7, 6), F(-11, 6)]


def test_particular_solution_sets_free_variables_to_zero():
    # x0 + x1 + x2 = 6 and x2 = 1: x1 is free, so x = (5, 0, 1)
    kind, solution = solve_exact([[1, 1, 1], [0, 0, 1]], [6, 1])
    assert kind == "many"
    assert solution == [5, 0, 1]


entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
)
nonzero = st.builds(Fraction, st.integers(1, 9), st.integers(1, 6)).flatmap(
    lambda v: st.sampled_from([v, -v])
)


@st.composite
def systems(draw):
    """Random m x n systems, then rows that are multiples or combinations of
    earlier ones; a combination's right-hand side is shifted off the
    combined value one time in four, which usually makes it inconsistent."""
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, 6))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    rhs = draw(st.lists(entries, min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 3)) if m else 0):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        a, b = draw(entries), draw(entries)
        row = [a * u + b * v for u, v in zip(rows[i], rows[j])]
        value = a * rhs[i] + b * rhs[j]
        if draw(st.integers(0, 3)) == 0:
            value += draw(nonzero)
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, row)
        rhs.insert(at, value)
    return rows, rhs


@settings(derandomize=True, max_examples=200, deadline=None)
@given(systems())
# column 0 is zero, so column 1's pivot is popped from below the first row
@example(([[0, 0, 1], [0, 2, F(-1, 3)], [0, 1, 3]], [1, 2, F(25, 6)]))
# the repeated row leaves a zero tail, and its unknown is free
@example(([[2, -1, F(1, 3)], [0, F(5, 2), 1], [2, -1, F(1, 3)]], [1, -2, 1]))
# the rows left after the pivot are zero but for the right-hand side
@example(([[1, 2, 0], [F(1, 2), 1, 0], [3, 6, 0]], [1, 1, 3]))
def test_solver_matches_gauss_jordan(system):
    assert_matches_reference(*system)


int_entries = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**80), 2**80))


@st.composite
def integer_systems(draw):
    """Systems with int entries, as the oracle's split rows are, including
    repeated and combined rows."""
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, 6))
    rows = [draw(st.lists(int_entries, min_size=n, max_size=n)) for _ in range(m)]
    rhs = draw(st.lists(int_entries, min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 3)) if m else 0):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([a * u + b * v for u, v in zip(rows[i], rows[j])])
        rhs.append(a * rhs[i] + b * rhs[j] + draw(st.sampled_from([0, 0, 0, 1])))
    return rows, rhs


@settings(derandomize=True, max_examples=200, deadline=None)
@given(integer_systems())
def test_solver_on_int_rows_matches_gauss_jordan(system):
    assert_matches_reference(*system)


def test_int_rows_are_only_divided_by_their_content():
    row = _integer_row([6, -4, 0, 10])
    assert row == [3, -2, 0, 5] and all(type(v) is int for v in row)
    assert _integer_row([F(1, 2), 3, F(-1, 3)]) == [3, 18, -2]
