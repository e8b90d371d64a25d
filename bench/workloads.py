"""Seeded inputs, timed operations and exact output checks for the benchmark.

Each workload builds a pool of `Case`s from its seed. A case holds one
operation (`run`, the only code that is timed) and the check of its result
(`check`, run right after the timed span). The generators live here on purpose,
not in the test helpers, so that editing a test cannot silently change what
is measured. They use only the library's value types and constructors.

Every call into the library goes through the package attributes at call
time (`cl.interpolate(...)`, `cl.roots_in_class(...)`), so the traced run's
wrappers, which rebind those attributes, see every top-level call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import clifflag as cl
import clifflag.cli as cl_cli

H = cl.QUATERNIONS
R03 = cl.R03
R13 = cl.Signature(1, 3)


class Mismatch(Exception):
    """An operation returned a result that fails its exact check."""


@dataclass
class Case:
    """One seeded input: the timed operation and the check of its result."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str]  # returns the canonical result text or raises Mismatch
    in_process: Callable[[], Any] | None = None  # variant of `run` for the traced run


@dataclass
class Workload:
    name: str
    cases: list[Case]
    cycle: int  # cases per full cycle of the mix; the traced pass runs one cycle
    info: dict = field(default_factory=dict)
    cli: CliRunner | None = None  # set when the operations are CLI processes


def expect(cond: bool, message: str):
    if not cond:
        raise Mismatch(message)


# ---- value generators --------------------------------------------------------

_PARAMS = tuple(
    Fraction(a, b)
    for a, b in ((0, 1), (1, 1), (-1, 1), (1, 2), (-1, 2), (2, 1), (-2, 1), (1, 3), (-1, 3), (3, 1))
)


def _unit_vectors() -> list[tuple[Fraction, Fraction, Fraction]]:
    # stereographic projection of rational (u, v) gives rational unit vectors
    out = []
    for u in _PARAMS:
        for v in _PARAMS:
            d = 1 + u * u + v * v
            vec = ((1 - u * u - v * v) / d, 2 * u / d, 2 * v / d)
            if vec not in out:
                out.append(vec)
    return out[:24]


UNITS = _unit_vectors()


def rand_fraction(rng: random.Random, span: int) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def rand_value(rng: random.Random, sig) -> cl.Multivector:
    return cl.Multivector(sig, [rand_fraction(rng, 3) for _ in range(sig.dim)])


def class_params(rng: random.Random, count: int, alpha_min=None) -> list[tuple[Fraction, Fraction]]:
    """Pairwise distinct (alpha, beta), beta > 0: distinct sphere classes
    with trace 2 alpha and norm alpha^2 + beta^2."""
    params: list[tuple[Fraction, Fraction]] = []
    while len(params) < count:
        alpha = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        if alpha_min is not None and alpha < alpha_min:
            continue
        beta = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        if (alpha, beta) not in params:
            params.append((alpha, beta))
    return params


def quaternion(alpha, beta, unit) -> cl.Multivector:
    """alpha + beta (u1 i + u2 j + u3 k), with i = e1, j = e2, k = e12."""
    return cl.Multivector(H, (alpha, beta * unit[0], beta * unit[1], beta * unit[2]))


def r03_cone_point(alpha, beta, unit_plus, unit_minus) -> cl.Multivector:
    """The R(0,3) element whose components along the central idempotents
    (1 +/- e123)/2 are alpha + beta u+ and alpha + beta u-; it lies in the
    quadratic cone, in the class with trace 2 alpha and norm alpha^2 + beta^2."""
    p = (alpha, beta * unit_plus[0], beta * unit_plus[1], beta * unit_plus[2])
    m = (alpha, beta * unit_minus[0], beta * unit_minus[1], beta * unit_minus[2])
    half = Fraction(1, 2)
    coords = (
        (p[0] + m[0]) * half,  # 1
        (p[1] + m[1]) * half,  # e1
        (p[2] + m[2]) * half,  # e2
        (p[3] + m[3]) * half,  # e12
        (m[3] - p[3]) * half,  # e3
        (p[2] - m[2]) * half,  # e13
        (m[1] - p[1]) * half,  # e23
        (p[0] - m[0]) * half,  # e123
    )
    return cl.Multivector(R03, coords)


def sphere_class(alpha, beta) -> cl.ConjugacyClassId:
    return cl.ConjugacyClassId.sphere(2 * alpha, alpha * alpha + beta * beta)


def r03_problem(rng: random.Random, n_points: int) -> cl.InterpolationProblem:
    """n points of R(0,3), one per distinct class, with random values."""
    pairs = []
    for alpha, beta in class_params(rng, n_points):
        up, um = rng.sample(UNITS, 2)
        pairs.append((r03_cone_point(alpha, beta, up, um), rand_value(rng, R03)))
    rng.shuffle(pairs)
    return cl.InterpolationProblem.from_pairs(R03, pairs)


def h_problem(rng: random.Random, sizes, broken: bool = False):
    """A quaternionic problem with one class per entry of `sizes`.

    Classes of three or more points take values x a + b, so the common-slope
    (collinearity) condition holds; with `broken`, the third point of the
    first such class gets one added to its value, which breaks it. Returns
    the problem and the construction's degree bound, -1 + sum min(size, 2).
    """
    pairs = []
    broke = False
    for (alpha, beta), size in zip(class_params(rng, len(sizes)), sizes):
        points = [quaternion(alpha, beta, u) for u in rng.sample(UNITS, size)]
        if size >= 3:
            a, b = rand_value(rng, H), rand_value(rng, H)
            values = [x * a + b for x in points]
            if broken and not broke:
                values[2] = values[2] + 1
                broke = True
        else:
            values = [rand_value(rng, H) for _ in points]
        pairs.extend(zip(points, values))
    if broken and not broke:
        raise ValueError("a broken problem needs a class of three or more points")
    rng.shuffle(pairs)
    bound = -1 + sum(min(size, 2) for size in sizes)
    return cl.InterpolationProblem.from_pairs(H, pairs), bound


# ---- r03-interpolate -----------------------------------------------------------

# Point counts of the pool, one cycle. The order interleaves small and
# large problems. Latencies cluster by size, and a quantile that falls on
# the edge between two clusters jumps from run to run. Four 7-point
# problems in ten put the median inside the 7-point cluster; two 10-point
# problems put the 90th percentile between the two of them.
INTERPOLATE_SIZES = (5, 10, 7, 6, 9, 7, 10, 7, 8, 7)


def check_interpolant(problem, poly) -> str:
    expect(isinstance(poly, cl.Polynomial) and poly.sig == problem.sig, "not a polynomial")
    expect(cl.verify_interpolant(poly, problem), "interpolant misses a prescribed value")
    bound = cl.group_by_class(problem).degree_bound
    expect(poly.degree is None or poly.degree <= bound, f"degree {poly.degree} > bound {bound}")
    return str(poly)


def r03_interpolate(seed: int) -> Workload:
    rng = random.Random(f"r03-interpolate:{seed}")
    cases = []
    for n in INTERPOLATE_SIZES:
        problem = r03_problem(rng, n)
        cases.append(
            Case(
                f"r03 n={n}",
                run=lambda p=problem: cl.interpolate(p),
                check=lambda poly, p=problem: check_interpolant(p, poly),
            )
        )
    info = {"signatures": ["R(0,3)"], "points": [min(INTERPOLATE_SIZES), max(INTERPOLATE_SIZES)]}
    return Workload("r03-interpolate", cases, len(cases), info)


# ---- oracle-classify -------------------------------------------------------------

# Class sizes of the H problems, one layout per class count; the first
# class is a collinear triple, so that a broken slope can be planted in it.
ORACLE_H_LAYOUTS = ((3,), (3, 2), (3, 1, 2))
# Latencies cluster by problem: three each of the three H layouts, then the
# R(0,3) problems. Six R(0,3) problems put the median of the fifteen in the
# middle of the (3, 1, 2) cluster, not on the edge of it.
ORACLE_R03_SIZES = (4, 4, 5, 5, 6, 7)


def check_oracle(problem, expected_kind: str, max_degree: int, result) -> str:
    expect(result.kind == expected_kind, f"kind {result.kind}, expected {expected_kind}")
    if expected_kind == "none":
        expect(result.polynomial is None, "'none' carries a polynomial")
        return "none"
    poly = result.polynomial
    expect(poly.degree is None or poly.degree <= max_degree, "degree above the asked bound")
    expect(cl.verify_interpolant(poly, problem), "oracle polynomial misses a value")
    return f"{result.kind}: {poly}"


def _oracle_case(label, problem, kind, bound, asked=None):
    # asked=None lets the oracle derive the construction's bound itself
    # (through group_by_class); `bound` is that bound, known from generation
    return Case(
        label,
        run=lambda: cl.brute_force_interpolate(problem, asked),
        check=lambda r: check_oracle(problem, kind, bound, r),
    )


def oracle_classify(seed: int) -> Workload:
    """The pool, one cycle: for 1, 2 and 3 classes one feasible H problem
    (unique), one with a broken slope (none) and one asked at bound + 2
    (affine_family); then R(0,3) problems of 4 to 7 points (unique)."""
    rng = random.Random(f"oracle-classify:{seed}")
    cases = []
    for sizes in ORACLE_H_LAYOUTS:
        problem, bound = h_problem(rng, sizes)
        cases.append(_oracle_case(f"H unique {sizes}", problem, "unique", bound))
        problem, bound = h_problem(rng, sizes, broken=True)
        cases.append(_oracle_case(f"H none {sizes}", problem, "none", bound))
        problem, bound = h_problem(rng, sizes)
        cases.append(_oracle_case(f"H affine {sizes}", problem, "affine_family", bound + 2, bound + 2))
    for n in ORACLE_R03_SIZES:
        problem = r03_problem(rng, n)
        cases.append(_oracle_case(f"r03 unique n={n}", problem, "unique", n - 1))
    info = {
        "signatures": ["R(0,2)", "R(0,3)"],
        "points": [3, max(ORACLE_R03_SIZES)],
        "h_layouts": [list(sizes) for sizes in ORACLE_H_LAYOUTS],
        "r03_points": list(ORACLE_R03_SIZES),
    }
    return Workload("oracle-classify", cases, len(cases), info)


# ---- r03-roots -------------------------------------------------------------------

ROOT_DEGREES = (1, 2, 3, 4, 5)
ROOT_PROBES = 20
ROOT_CYCLES = 2  # cycles in the pool
# (1 + e123)/2: right-multiplying by this central idempotent zeroes the
# minus component, so each prescribed class holds an infinite root family
# and the root search samples it through classpoints.
_IDEMPOTENT = cl.Multivector(R03, (Fraction(1, 2), 0, 0, 0, 0, 0, 0, Fraction(1, 2)))


def _root_case(rng: random.Random, degree: int, kind: str) -> Case:
    params = class_params(rng, degree + 1)
    extra_alpha, extra_beta = params.pop()
    points = [r03_cone_point(a, b, *rng.sample(UNITS, 2)) for a, b in params]
    prescribed = [sphere_class(a, b) for a, b in params]
    poly = cl.Polynomial.one(R03)
    for y in points:
        poly = cl.append_root(poly, y)
    probes = list(prescribed)
    min_r = min_s = min_k = 0
    if kind == "family":
        poly = poly * _IDEMPOTENT
        min_k = len(prescribed)  # every sampled family holds its paravector
    elif kind == "factors":
        # a real root and a whole sphere: census terms r and s
        alpha = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        poly = cl.append_root(poly, cl.Multivector.scalar(R03, alpha))
        whole = sphere_class(extra_alpha, extra_beta)
        poly = poly * cl.characteristic_poly(whole, R03)
        prescribed += [cl.ConjugacyClassId.real(alpha), whole]
        probes = list(prescribed)
        min_r, min_s = 1, 1
    while len(probes) < ROOT_PROBES:
        alpha = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        beta = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        probe = sphere_class(alpha, beta)
        if probe not in probes:
            probes.append(probe)
    rng.shuffle(probes)

    def run():
        found = [cl.roots_in_class(poly, c) for c in probes]
        return found, cl.paravector_root_census(poly, probes)

    def check(result) -> str:
        found, (r, s, k) = result
        degree = poly.degree
        populated = {rs.cls_id for rs in found if not rs.is_empty}
        expect(all(c in populated for c in prescribed), "a prescribed class has no root")
        expect(len(populated) <= degree, f"{len(populated)} populated classes > degree {degree}")
        expect(r + 2 * s + k <= degree, f"census r+2s+k = {r + 2 * s + k} > degree {degree}")
        expect(r >= min_r and s >= min_s and k >= min_k, f"census {(r, s, k)} misses a built root")
        lines = []
        for rs in found:
            for x in rs.points:
                expect(not poly(x), f"returned root {x} does not vanish")
                expect(rs.cls_id.contains(x), f"returned root {x} is outside its class")
            lines.append(f"{rs.cls_id}: {rs.kind} {int(rs.exhaustive)} {' | '.join(map(str, rs.points))}")
        lines.append(f"census {r} {s} {k}")
        return "\n".join(lines)

    return Case(f"roots {kind} d={degree}", run=run, check=check)


def r03_roots(seed: int) -> Workload:
    """Per cycle, for each degree 1..5: a product of root factors through
    cone points, the same times a central idempotent, and the same with an
    extra real root and a class characteristic factor."""
    rng = random.Random(f"r03-roots:{seed}")
    cases = []
    for _ in range(ROOT_CYCLES):
        for degree in ROOT_DEGREES:
            for kind in ("points", "family", "factors"):
                cases.append(_root_case(rng, degree, kind))
    info = {"signatures": ["R(0,3)"], "points": [min(ROOT_DEGREES), max(ROOT_DEGREES)], "probes": ROOT_PROBES}
    return Workload("r03-roots", cases, len(cases) // ROOT_CYCLES, info)


# ---- cli-session ------------------------------------------------------------------

# The two worked examples of the source, verbatim, with their interpolants.
FIVE_POINT_DOC = {
    "signature": {"p": 0, "q": 2},
    "points": ["0", "1 + e1", "e1", "e2", "e12"],
    "values": ["1", "-1", "1", "e12", "-e2"],
}
FIVE_POINT_RESULT = "X^3*(e1) + X^2*(1) + (1)"
THREE_POINT_DOC = {
    "signature": {"p": 0, "q": 3},
    "points": ["e1", "e2 + e23", "-1"],
    "values": ["1", "2 e23", "e1"],
}
THREE_POINT_RESULT = (
    "X^2*(2/15 e1 - 1/15 e2 + 2/3 e12 + 2/3 e3 + 4/15 e13 - 7/15 e23)"
    " + X^1*(2/15 - 13/15 e1 + 3/5 e2 + 11/15 e12 + 14/15 e3 - 2/5 e13"
    " - 7/15 e23 + 7/15 e123)"
    " + (2/15 + 2/3 e2 + 1/15 e12 + 4/15 e3 - 2/3 e13 + 7/15 e123)"
)


def problem_doc(problem) -> dict:
    sig = problem.sig
    return {
        "signature": {"p": sig.p, "q": sig.q},
        "points": [str(x) for x in problem.points],
        "values": [str(w) for w in problem.values],
    }


class CliRunner:
    """Runs `python -m clifflag.cli` from the source tree, one process at a time."""

    def __init__(self, root: str):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.peak_rss_kb = 0

    def subprocess(self, argv) -> tuple[int, str]:
        proc = subprocess.Popen(
            [sys.executable, "-m", "clifflag.cli", *argv],
            cwd=self.root,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        with proc.stdout:
            out = proc.stdout.read()
        # wait4 gives this child's own peak RSS; Popen.wait would not
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out.decode()

    @staticmethod
    def in_process(argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cl_cli.main(list(argv))
        return code, buf.getvalue()


def check_interpolate_output(result, n_points: int, first_line: str | None) -> str:
    code, out = result
    expect(code == 0, f"exit {code}: {out[-200:]}")
    lines = out.splitlines()
    if first_line is not None:
        expect(lines and lines[0] == first_line, "interpolant text differs from the worked result")
    residuals = [line for line in lines if line.startswith("residual at ")]
    expect(len(residuals) == n_points, f"{len(residuals)} residual lines for {n_points} points")
    expect(all(line.endswith(": 0") for line in residuals), "a residual is not 0")
    expect("oracle: AGREE" in lines, "oracle did not agree")
    return f"{code}\n{out}"


def check_exit(result, expected_code: int) -> str:
    code, out = result
    expect(code == expected_code, f"exit {code}, expected {expected_code}")
    expect(out.startswith("error: "), "no error message")
    return f"{code}\n{out}"


def check_lines(result, expected_lines) -> str:
    code, out = result
    expect(code == 0, f"exit {code}: {out[-200:]}")
    lines = out.splitlines()
    for line in expected_lines:
        expect(line in lines, f"missing line {line!r}")
    return f"{code}\n{out}"


def check_pairs(result, expected: dict) -> str:
    """Checks the invertibility verdict of each listed pair line."""
    code, out = result
    expect(code == 0, f"exit {code}: {out[-200:]}")
    seen = {}
    for line in out.splitlines():
        if line.startswith("pair ("):
            seen[line.split(":", 1)[0]] = line.rsplit("difference invertible: ", 1)[1]
    expect(len(seen) == len(expected), "wrong number of pair lines")
    for pair, verdict in expected.items():
        expect(seen.get(pair) == verdict, f"{pair}: invertible {seen.get(pair)}, expected {verdict}")
    return f"{code}\n{out}"


def _cli_case(label, runner: CliRunner, argv, check) -> Case:
    return Case(
        label,
        run=lambda: runner.subprocess(argv),
        check=check,
        in_process=lambda: runner.in_process(argv),
    )


# Cycles in the pool: each cycle takes the next H class layout and the next
# node of the worked H interpolant.
CLI_CYCLES = 3


def cli_session(seed: int, root: str, workdir: str) -> Workload:
    """Per cycle: interpolate --verify --oracle on both worked examples and
    on one seeded H file (class layouts as in oracle-classify, one per
    cycle) and one seeded 4-point R(0,3) file; one file that must exit 3
    and one that must exit 4; eval at a node of the worked H interpolant;
    diagnose in R(0,3) and in R(1,3). The layouts do not depend on the
    seed, so the costliest operations are the same kind in every run."""
    rng = random.Random(f"cli-session:{seed}")
    runner = CliRunner(root)

    def write(name, doc) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    five = write("five-point.json", FIVE_POINT_DOC)
    three = write("three-point.json", THREE_POINT_DOC)
    cases = []
    for c in range(CLI_CYCLES):
        cases.append(_cli_case(
            "worked H", runner, ["interpolate", five, "--verify", "--oracle"],
            lambda r: check_interpolate_output(r, 5, FIVE_POINT_RESULT),
        ))
        cases.append(_cli_case(
            "worked R(0,3)", runner, ["interpolate", three, "--verify", "--oracle"],
            lambda r: check_interpolate_output(r, 3, THREE_POINT_RESULT),
        ))
        sizes = ORACLE_H_LAYOUTS[c % len(ORACLE_H_LAYOUTS)]
        problem, _ = h_problem(rng, sizes)
        path = write(f"h-{c}.json", problem_doc(problem))
        cases.append(_cli_case(
            f"H {sizes}", runner, ["interpolate", path, "--verify", "--oracle"],
            lambda r, n=len(problem.pairs): check_interpolate_output(r, n, None),
        ))
        problem = r03_problem(rng, 4)
        path = write(f"r03-{c}.json", problem_doc(problem))
        cases.append(_cli_case(
            f"R(0,3) n={len(problem.pairs)}", runner, ["interpolate", path, "--verify", "--oracle"],
            lambda r, n=len(problem.pairs): check_interpolate_output(r, n, None),
        ))
        problem, _ = h_problem(rng, sizes, broken=True)
        path = write(f"exit3-{c}.json", problem_doc(problem))
        cases.append(_cli_case("exit 3", runner, ["interpolate", path], lambda r: check_exit(r, 3)))
        (alpha, beta), (alpha2, beta2) = class_params(rng, 2)
        pairs = [
            (r03_cone_point(alpha, beta, *rng.sample(UNITS, 2)), rand_value(rng, R03)),
            (r03_cone_point(alpha2, beta2, *rng.sample(UNITS, 2)), rand_value(rng, R03)),
            (r03_cone_point(alpha, beta, *rng.sample(UNITS, 2)), rand_value(rng, R03)),
        ]
        doc = problem_doc(cl.InterpolationProblem.from_pairs(R03, pairs))
        path = write(f"exit4-{c}.json", doc)
        cases.append(_cli_case("exit 4", runner, ["interpolate", path], lambda r: check_exit(r, 4)))
        node = c % len(FIVE_POINT_DOC["points"])
        cases.append(_cli_case(
            "eval H", runner,
            ["eval", "-s", "0,2", FIVE_POINT_RESULT, FIVE_POINT_DOC["points"][node]],
            lambda r, w=FIVE_POINT_DOC["values"][node]: check_lines(r, [w]),
        ))
        cases.append(_diagnose_r03_case(rng, runner))
        cases.append(_diagnose_r13_case(rng, runner))
    info = {"signatures": ["R(0,2)", "R(0,3)", "R(1,3)"], "points": [3, 6]}
    return Workload("cli-session", cases, len(cases) // CLI_CYCLES, info, runner)


def _diagnose_r03_case(rng, runner) -> Case:
    # e1 and e23 share Sphere(0, 1) and differ by a zero divisor; seeded
    # points sit in other, pairwise distinct classes, so every other
    # difference is invertible. A positive alpha keeps each text from
    # starting with '-', which argparse would take for an option.
    params = class_params(rng, 2, alpha_min=Fraction(1, 2))
    points = ["e1", "e23"] + [str(r03_cone_point(a, b, *rng.sample(UNITS, 2))) for a, b in params]
    expected = {}
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            expected[f"pair ({i + 1},{j + 1})"] = "no" if (i, j) == (0, 1) else "yes"
    return _cli_case(
        "diagnose R(0,3)", runner, ["diagnose", "-s", "0,3", *points],
        lambda r: check_pairs(r, expected),
    )


def _diagnose_r13_case(rng, runner) -> Case:
    # Points b + k for distinct scalars k (differences are nonzero reals,
    # invertible) and b + 1 + e1. Since e1^2 = +1 in R(1,3),
    # (b + k) - (b + 1 + e1) = (k - 1) - e1 is invertible iff (k - 1)^2 != 1,
    # that is iff k is neither 0 nor 2. Every verdict goes through the
    # general-signature inverse, a 16 x 16 exact linear solve.
    coords = [Fraction(rng.randint(1, 3))] + [rand_fraction(rng, 2) for _ in range(15)]
    base = cl.Multivector(R13, coords)
    shifts = [Fraction(0)] + rng.sample([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)], 3)
    points = [str(base + k) for k in shifts] + [str(base + 1 + cl.Multivector.basis(R13, 1))]
    expected = {}
    last = len(points) - 1
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if j == last:
                verdict = "no" if shifts[i] in (0, 2) else "yes"
            else:
                verdict = "yes"
            expected[f"pair ({i + 1},{j + 1})"] = verdict
    return _cli_case(
        "diagnose R(1,3)", runner, ["diagnose", "-s", "1,3", *points],
        lambda r: check_pairs(r, expected),
    )


NAMES = ("r03-interpolate", "oracle-classify", "r03-roots", "cli-session")
