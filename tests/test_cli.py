"""End-to-end tests for the command-line interface and its exit codes."""

import importlib
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from clifflag import (
    MAX_DEGREE,
    Multivector,
    OracleResult,
    ParseError,
    Polynomial,
    QUATERNIONS,
    R03,
)
from clifflag.cli import MAX_DECIMAL_DIGITS, MAX_POINTS, main

FIVE_POINT_DOC = {
    "signature": {"p": 0, "q": 2},
    "points": ["0", "1 + e1", "e1", "e2", "e12"],
    "values": ["1", "-1", "1", "e12", "-e2"],
}

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


def write(tmp_path, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_interpolate_five_points(tmp_path, capsys):
    code = main(["interpolate", write(tmp_path, FIVE_POINT_DOC)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "X^3*(e1) + X^2*(1) + (1)"


def test_checked_in_r03_problem_prints_the_paper_interpolant(capsys):
    # the file that CI interpolates with the installed console script
    path = Path(__file__).parent / "data" / "r03_three_point.json"
    assert json.loads(path.read_text()) == THREE_POINT_DOC
    assert main(["interpolate", str(path)]) == 0
    assert capsys.readouterr().out == THREE_POINT_RESULT + "\n"


def test_interpolate_verify_prints_zero_residuals(tmp_path, capsys):
    code = main(["interpolate", write(tmp_path, FIVE_POINT_DOC), "--verify"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    residuals = [line for line in lines if line.startswith("residual at ")]
    assert len(residuals) == 5
    assert all(line.endswith(": 0") for line in residuals)


def test_interpolate_oracle_agrees(tmp_path, capsys):
    code = main(["interpolate", write(tmp_path, FIVE_POINT_DOC), "--oracle"])
    assert code == 0
    assert "oracle: AGREE" in capsys.readouterr().out


def test_interpolate_oracle_above_bound(tmp_path, capsys):
    code = main(
        ["interpolate", write(tmp_path, FIVE_POINT_DOC), "--oracle", "--max-degree", "5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "AFFINE-FAMILY" in out and "solution lies in it" in out


@pytest.mark.parametrize("bound", ["0", "2"])
def test_interpolate_oracle_below_the_interpolant_degree(tmp_path, capsys, bound):
    # the interpolant X^3 e1 + X^2 + 1 is unique within degree 3, so no
    # polynomial of lower degree takes the five values: not a disagreement
    code = main(
        ["interpolate", write(tmp_path, FIVE_POINT_DOC), "--oracle", "--max-degree", bound]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"oracle: NONE at max degree {bound} (below the interpolant's degree 3)"
    )


def test_interpolate_oracle_without_solution_at_the_bound(tmp_path, capsys, monkeypatch):
    # at or above the interpolant's degree the interpolant itself solves the
    # system, so an oracle that finds none disagrees with the construction
    cli = importlib.import_module("clifflag.cli")
    monkeypatch.setattr(cli, "brute_force_interpolate", lambda *_: OracleResult("none", None))
    for extra in ([], ["--max-degree", "3"]):
        assert main(["interpolate", write(tmp_path, FIVE_POINT_DOC), "--oracle", *extra]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "oracle: DISAGREE (no solution found)"


def test_interpolate_oracle_groups_at_most_twice(tmp_path, capsys, monkeypatch):
    # once for the construction, and once more for the oracle's bound when
    # no --max-degree is given, read off the class layout; the
    # AFFINE-FAMILY line reuses that bound
    module = importlib.import_module("clifflag.interpolate")
    real, calls = module._class_layout, []
    counting = lambda problem: calls.append(problem) or real(problem)  # noqa: E731
    # the CLI need not hold the name; if it does, its calls count too
    for name in ("clifflag.interpolate", "clifflag.cli"):
        monkeypatch.setattr(importlib.import_module(name), "_class_layout", counting, raising=False)
    for doc, extra, expected in (
        (FIVE_POINT_DOC, [], 2),
        (THREE_POINT_DOC, [], 2),
        (FIVE_POINT_DOC, ["--max-degree", "5"], 1),
    ):
        calls.clear()
        assert main(["interpolate", write(tmp_path, doc), "--oracle", *extra]) == 0
        assert len(calls) == expected
    assert capsys.readouterr().out.splitlines()[-1] == (
        "oracle: AFFINE-FAMILY at max degree 5 "
        "(not unique, above the construction bound; solution lies in it)"
    )


def test_interpolate_three_points_r03(tmp_path, capsys):
    code = main(["interpolate", write(tmp_path, THREE_POINT_DOC), "--verify", "--oracle"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == THREE_POINT_RESULT
    assert all(line.endswith(": 0") for line in lines if line.startswith("residual"))
    assert lines[-1] == "oracle: AGREE"


def test_interpolate_single_pair(tmp_path, capsys):
    doc = {"signature": {"p": 0, "q": 2}, "points": ["e1"], "values": ["5 - e2"]}
    code = main(["interpolate", write(tmp_path, doc)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "(5 - e2)"


def test_interpolate_decimal_marked(tmp_path, capsys):
    code = main(["interpolate", write(tmp_path, THREE_POINT_DOC), "--decimal", "5"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [
        THREE_POINT_RESULT,
        "approx[5 digits] ~ "
        "X^2*(0.13333 e1 - 0.066667 e2 + 0.66667 e12 + 0.66667 e3 + 0.26667 e13"
        " - 0.46667 e23)"
        " + X^1*(0.13333 - 0.86667 e1 + 0.6 e2 + 0.73333 e12 + 0.93333 e3 - 0.4 e13"
        " - 0.46667 e23 + 0.46667 e123)"
        " + (0.13333 + 0.66667 e2 + 0.066667 e12 + 0.26667 e3 - 0.66667 e13"
        " + 0.46667 e123)",
    ]


def test_interpolate_decimal_five_points(tmp_path, capsys):
    code = main(["interpolate", write(tmp_path, FIVE_POINT_DOC), "--decimal", "5"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [
        "X^3*(e1) + X^2*(1) + (1)",
        "approx[5 digits] ~ X^3*(e1) + X^2*(1) + (1)",
    ]


def test_eval_five_point_interpolant(capsys):
    code = main(["eval", "-s", "0,2", "X^3*(e1) + X^2*(1) + (1)", "e1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1"


def test_eval_at_zero_gives_constant_term(capsys):
    code = main(["eval", "-s", "0,2", "X^3*(e1) + X^2*(1) + (1)", "0"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1"


def test_eval_three_point_interpolant_at_minus_one(capsys):
    code = main(["eval", "-s", "0,3", THREE_POINT_RESULT, "-1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "e1"


def test_eval_round_trip_canonical_forms():
    p = Polynomial.parse(THREE_POINT_RESULT, R03)
    assert str(p) == THREE_POINT_RESULT
    x = Multivector.parse("1 + e1", QUATERNIONS)
    assert Multivector.parse(str(x), QUATERNIONS) == x


def test_eval_prints_a_value_beyond_the_int_digit_cap(capsys):
    # a 26788-bit value: str() of an int that long raises ValueError, yet the
    # exact result is printed in full, with no process-wide setting changed
    poly, point = "X^1000*(99999999999999999999/7)", "123456789/987654321 + e12"
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert main(["eval", "-s", "0,2", poly, point]) == 0
    out = capsys.readouterr().out.strip()
    value = Polynomial.parse(poly, QUATERNIONS)(Multivector.parse(point, QUATERNIONS))
    assert max(c.denominator.bit_length() for c in value.coeffs) > 26000

    def decimal_text(q):
        num = str(Decimal(q.numerator))
        return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"

    assert out == value.format(decimal_text)
    assert str(Polynomial.constant(value)) == f"({out})"
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == cap


@pytest.mark.parametrize("limit", [0, 640])
def test_literal_cap_does_not_follow_the_int_digit_setting(limit, capsys):
    # 4300 digits per numerator and per denominator, with the interpreter's
    # cap on int-to-text conversion off (0) or at its least (640)
    sevens = (10**4300 - 1) // 9 * 7  # 4300 sevens, built without text
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_cap = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_cap(limit)
    try:
        assert Multivector.parse("7" * 4300, QUATERNIONS).coeffs[0] == sevens
        assert Multivector.parse(f"1/{'7' * 4300} e1", QUATERNIONS).coeffs[1] == Fraction(1, sevens)
        for text in ("7" * 4301, "1/" + "7" * 4301, "7" * 4301 + "/2"):
            with pytest.raises(ParseError, match=f"^coefficient of {len(text)} characters is too long$"):
                Multivector.parse(text, QUATERNIONS)
        assert main(["eval", "-s", "0,2", "X^1*(1)", "7" * 4301]) == 2
        assert main(["eval", "-s", "0,2", "X^1*(1)", "7" * 4300]) == 0
    finally:
        set_cap(cap)
    out, err = capsys.readouterr()
    assert err == "error: coefficient of 4301 characters is too long\n"
    assert out == "7" * 4300 + "\n"


def test_eval_accepts_surrounding_whitespace(capsys):
    assert main(["eval", "-s", "0,2", "X", " e1 "]) == 0
    assert main(["eval", "-s", "0,2", "X ^ 2 * ( 1 ) ", "e1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["e1", "-1"]


@pytest.mark.parametrize(
    "argv, last_line",
    [
        (["eval", "-s", "0,2", "X^3*(e1) + X^2*(1) + (1)", "--", "-e1"], "-1"),
        (["eval", "-s", "0,2", "--", "X", "-1/2"], "-1/2"),
        (["eval", "-s", "0,2", "--", "-X^2*(1)", "e1"], "1"),
        (["diagnose", "-s", "0,2", "--", "-e1", "e1"], "pair (1,2): same class: yes; difference invertible: yes"),
    ],
    ids=["eval-point", "eval-fraction", "eval-polynomial", "diagnose"],
)
def test_literals_starting_with_a_minus_follow_a_double_dash(argv, last_line, capsys):
    # argparse reads an argument that starts with '-' and is not a plain
    # negative number as an option; after '--' every argument is positional
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out.splitlines()[-1], captured.err) == (last_line, "")
    rest = [arg for arg in argv if arg != "--"]
    with pytest.raises(SystemExit) as exc:
        main(rest)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_diagnose_zero_divisor_pair(capsys):
    code = main(["diagnose", "-s", "0,3", "e1", "e23"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pair (1,2): same class: yes; difference invertible: no" in out
    assert "psi+ = 1  psi- = 1" in out


def test_diagnose_r20_pair(capsys):
    code = main(["diagnose", "-s", "2,0", "e12", "1/3 e1 + 2/3 e12"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pair (1,2): same class: no; difference invertible: no" in out


def test_diagnose_reals(capsys):
    code = main(["diagnose", "-s", "0,2", "0", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pair (1,2): same class: no; difference invertible: yes" in out


def test_diagnose_r06_pair_with_16_bit_denominators(capsys):
    # 64 coordinates over unrelated 16-bit denominators: the inverse of the
    # difference runs in the algebra, not as a 64 x 64 exact solve; CI runs
    # the same pair under a timeout
    points = (Path(__file__).parent / "data" / "r06_16bit_pair.txt").read_text().splitlines()
    assert main(["diagnose", "-s", "0,6", *points]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "pair (1,2): same class: -; difference invertible: yes"


def test_diagnose_point_outside_cone(capsys):
    code = main(["diagnose", "-s", "0,3", "e123"])
    assert code == 0
    out = capsys.readouterr().out
    assert "in quadratic cone: no" in out
    assert "class: -" in out


def test_exit_code_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    assert main(["interpolate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_bad_point_string(tmp_path, capsys):
    doc = {"signature": {"p": 0, "q": 2}, "points": ["e9"], "values": ["1"]}
    assert main(["interpolate", write(tmp_path, doc)]) == 2
    # every entry must be a JSON string: numbers, true and null are refused
    for points, values in (([0, 1], [1, 2]), (["0"], [True]), ([None], ["1"])):
        capsys.readouterr()
        doc = dict(doc, points=points, values=values)
        assert main(["interpolate", write(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "points and values must be arrays of strings" in captured.err


def test_exit_code_length_mismatch(tmp_path):
    doc = {"signature": {"p": 0, "q": 2}, "points": ["e1"], "values": []}
    assert main(["interpolate", write(tmp_path, doc)]) == 2


def test_point_count_above_cap_rejected_before_parsing(tmp_path, capsys):
    # unparseable texts: the count is checked before any point is read
    n = MAX_POINTS + 1
    doc = {"signature": {"p": 0, "q": 2}, "points": ["?"] * n, "values": ["?"] * n}
    assert main(["interpolate", write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"problem has {n} points; at most {MAX_POINTS} allowed" in captured.err


def test_diagnose_point_count_above_cap_rejected_before_parsing(capsys):
    # unparseable texts: the count is checked before any point is read
    n = MAX_POINTS + 1
    assert main(["diagnose", "-s", "0,2", *["?"] * n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"problem has {n} points; at most {MAX_POINTS} allowed" in captured.err
    # at the cap the points are read, and the first one fails to parse
    assert main(["diagnose", "-s", "0,2", *["?"] * MAX_POINTS]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot parse" in captured.err


def test_diagnose_work_bound_rejected_before_parsing(capsys):
    # n(n-1)/2 differences of dimension 64 each: R(0,6) takes at most 63
    # points, the work of MAX_POINTS points in H; unparseable texts show
    # that the bound is checked before any point is read
    assert main(["diagnose", "-s", "0,6", *["?"] * 64]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "diagnose takes at most 63 points in R(0,6), got 64" in captured.err
    assert main(["diagnose", "-s", "0,6", *["?"] * 63]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot parse" in captured.err


def test_exit_code_collinearity(tmp_path, capsys):
    doc = dict(FIVE_POINT_DOC, values=["1", "-1", "1", "e12", "e2"])
    assert main(["interpolate", write(tmp_path, doc)]) == 3
    err = capsys.readouterr().err
    assert "j=3" in err and "h=3" in err


def test_exit_code_multipoint_class(tmp_path, capsys):
    doc = {
        "signature": {"p": 0, "q": 3},
        "points": ["e1", "e23"],
        "values": ["1", "2"],
    }
    assert main(["interpolate", write(tmp_path, doc)]) == 4


SEVENS = "7" * 3000


def exact_decimal_text(q):
    num = str(Decimal(q.numerator))
    return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"


def test_exit_code_multipoint_class_past_the_int_digit_cap(tmp_path, capsys):
    # each literal is within the cap, yet the shared class's norm has about
    # 6000 digits; the message still names the class in full
    doc = {
        "signature": {"p": 0, "q": 3},
        "points": [f"{SEVENS} e1", f"{SEVENS} e2"],
        "values": ["1", "2"],
    }
    assert main(["interpolate", write(tmp_path, doc)]) == 4
    norm = exact_decimal_text(Fraction(int(SEVENS) ** 2))
    assert len(norm) > 5000
    assert capsys.readouterr().err == (
        f"error: class Sphere(t=0, n={norm}) holds 2 points; R(0,3) allows one\n"
    )


@pytest.mark.parametrize("sig", [QUATERNIONS, R03], ids=str)
def test_diagnose_class_past_the_int_digit_cap(sig, capsys):
    text = f"{SEVENS} e1"
    assert main(["diagnose", "-s", f"{sig.p},{sig.q}", text]) == 0
    x = Multivector.parse(text, sig)
    norm = exact_decimal_text(Fraction(int(SEVENS) ** 2))
    want = [f"point 1: {text}", "  in quadratic cone: yes"]
    if sig == R03:
        plus, minus = (exact_decimal_text(v) for v in (x.psi_plus(), x.psi_minus()))
        want.append(f"  psi+ = {plus}  psi- = {minus}")
    want.append(f"  class: Sphere(t=0, n={norm})")
    assert capsys.readouterr().out.splitlines() == want


def test_exit_code_eval_signature_mismatch(capsys):
    assert main(["eval", "-s", "0,2", "X^1*(e123)", "e1"]) == 2


def test_exit_code_bad_signature(capsys):
    assert main(["eval", "-s", "0", "X", "e1"]) == 2
    assert main(["eval", "-s", "0,9", "X", "e1"]) == 2


def test_eval_decimal_output(capsys):
    code = main(["eval", "-s", "0,2", "X^1*(1/3)", "1", "--decimal", "4"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "1/3"
    assert lines[1] == "approx[4 digits] ~ 0.3333"


def test_eval_decimal_output_with_blades(capsys):
    code = main(
        ["eval", "-s", "0,3", "X^1*(1/3 e1 - 2/7 e23) + (e12)", "1 + e1", "--decimal", "4"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [
        "-1/3 + 1/3 e1 + e12 - 2/7 e23 - 2/7 e123",
        "approx[4 digits] ~ -0.3333 + 0.3333 e1 + e12 - 0.2857 e23 - 0.2857 e123",
    ]


def test_exit_code_zero_denominator_in_eval(capsys):
    assert main(["eval", "-s", "0,2", "X^1*(1/0)", "1"]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_exit_code_zero_denominator_in_diagnose(capsys):
    assert main(["diagnose", "-s", "0,2", "1/0"]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_exit_code_zero_denominator_in_problem_file(tmp_path, capsys):
    doc = dict(FIVE_POINT_DOC, values=["1", "-1", "1/0", "e12", "-e2"])
    assert main(["interpolate", write(tmp_path, doc)]) == 2
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--decimal", "--max-degree"])
@pytest.mark.parametrize("value", ["-1", "x"])
def test_interpolate_bad_count_flag_rejected_before_work(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["interpolate", write(tmp_path, FIVE_POINT_DOC), "--oracle", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


@pytest.mark.parametrize("name", ["r03_three_point.json", "missing.json"])
def test_max_degree_without_oracle_rejected_before_work(name, capsys):
    # the flag bounds only the oracle; the file is not even read
    path = Path(__file__).parent / "data" / name
    assert main(["interpolate", str(path), "--max-degree", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-degree" in captured.err and "--oracle" in captured.err


def test_max_degree_above_cap_rejected_before_work(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            ["interpolate", write(tmp_path, FIVE_POINT_DOC), "--oracle",
             "--max-degree", str(MAX_DEGREE + 1)]
        )
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"must be at most {MAX_DEGREE}" in captured.err


def test_eval_exponent_above_cap_exits_2(capsys):
    assert main(["eval", "-s", "0,2", f"X^{MAX_DEGREE + 1}*(1)", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"exceeds {MAX_DEGREE}" in captured.err


def test_eval_stray_star_exits_2(capsys):
    # 'X**2' is neither X^2 (-1 at e1 in H) nor X 2 (2 e1): nothing is printed
    assert main(["eval", "-s", "0,2", "X**2", "e1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot parse 'X**2' at '*2'" in captured.err


def test_eval_negative_decimal_rejected_before_work(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "-s", "0,2", "X^1*(1/3)", "1", "--decimal", "-3"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


SRC = str(Path(__file__).resolve().parents[1] / "src")
CLI = ("-m", "clifflag.cli")


def run_fresh(*args):
    """Run `args` in a fresh interpreter with `src` on the import path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_signature_above_cap_exits_2(tmp_path, capsys):
    # the cap on p+q is the constant 6, whatever the command
    assert main(["eval", "-s", "0,7", "X^1*(1)", "e1"]) == 2
    assert main(["diagnose", "-s", "4,3", "e1"]) == 2
    doc = dict(FIVE_POINT_DOC, signature={"p": 0, "q": 7})
    assert main(["interpolate", write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("p+q = 7 exceeds the dimension cap 6") == 3


@pytest.mark.parametrize(
    "signature", [{"p": 0.9, "q": 2.7}, {"p": False, "q": 2}, {"p": 0, "q": "2"}]
)
def test_signature_entries_must_be_json_integers(tmp_path, signature):
    doc = dict(FIVE_POINT_DOC, signature=signature)
    done = run_fresh(*CLI, "interpolate", write(tmp_path, doc))
    assert (done.returncode, done.stdout) == (2, "")
    assert "signature entries must be integers" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "flags",
    [
        ["-s", "0,\u0662"],
        ["-s", "0,0_2"],
        ["-s", "+0,2"],
        ["-s", "0,2", "--decimal", "\u0663"],
        ["-s", "0,2", "--decimal", "1_0"],
        ["-s", "0,2", "--decimal", "+3"],
    ],
    ids=["s-arabic-digit", "s-underscore", "s-sign", "decimal-arabic-digit",
         "decimal-underscore", "decimal-sign"],
)
def test_number_flags_take_ascii_digits_only(flags):
    # int() reads non-ASCII digits, underscores and a sign; the flags do not
    done = run_fresh(*CLI, "eval", *flags, "X^1*(1/3)", "1")
    assert (done.returncode, done.stdout) == (2, "")
    assert "Traceback" not in done.stderr


def test_number_flags_allow_ascii_whitespace(capsys):
    assert main(["eval", "-s", " 0 ,\t2 ", "X^1*(1/3)", "1", "--decimal", " 3\n"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1/3", "approx[3 digits] ~ 0.333"]


@pytest.mark.parametrize("where", ["document", "points"])
def test_deeply_nested_problem_file_exits_2(tmp_path, capsys, where):
    # json.load raises RecursionError on deep nesting
    deep = "[" * 200_000 + "]" * 200_000
    text = deep if where == "document" else (
        '{"signature": {"p": 0, "q": 2}, "points": ' + deep + ', "values": ["1"]}'
    )
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main(["interpolate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too deeply" in captured.err


@pytest.mark.parametrize("where", ["point", "p", "negative-p"])
def test_long_json_integer_exits_2_naming_the_cap(tmp_path, capsys, where):
    # json.load's int() refuses more digits than the interpreter's cap with
    # advice to call sys.set_int_max_str_digits(), which no CLI user can
    big = ("-" if where == "negative-p" else "") + "9" * 5000
    signature = '{"p": 0, "q": 2}' if where == "point" else '{"p": %s, "q": 2}' % big
    point = big if where == "point" else '"1"'
    path = tmp_path / "big.json"
    path.write_text('{"signature": %s, "points": [%s], "values": ["1"]}' % (signature, point))
    assert main(["interpolate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: JSON integer of 5000 digits exceeds the cap of 4300 digits\n")


def test_problem_file_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    # a UTF-16 file opens with the byte-order mark FF FE, which UTF-8 refuses
    path = tmp_path / "utf16.json"
    path.write_bytes(json.dumps(FIVE_POINT_DOC).encode("utf-16"))
    assert main(["interpolate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: the file must be UTF-8 (")
    assert "byte 0xff in position 0" in err


@pytest.mark.parametrize("limit", [0, 640])
def test_json_integer_cap_does_not_follow_the_int_digit_setting(tmp_path, capsys, limit):
    # a problem file's integers take the literals' fixed cap of 4300 digits,
    # with the interpreter's cap on int-to-text conversion off (0) or at its
    # least (640); past the JSON step, a point must be a string and p + q of
    # 4301 digits is refused by name
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_cap = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    nines = "9" * 4300
    docs = [
        '{"signature": {"p": 0, "q": 2}, "points": [%s], "values": ["1"]}' % nines,
        '{"signature": {"p": %s, "q": 2}, "points": ["1"], "values": ["1"]}' % nines,
        '{"signature": {"p": 0, "q": 2}, "points": [%s9], "values": ["1"]}' % nines,
    ]
    set_cap(limit)
    try:
        codes = []
        for doc in docs:
            path = tmp_path / "problem.json"
            path.write_text(doc)
            codes.append(main(["interpolate", str(path)]))
    finally:
        set_cap(cap)
    assert codes == [2, 2, 2]
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: points and values must be arrays of strings",
        f"error: bad signature: p+q = 1{'0' * 4299}1 exceeds the dimension cap 6",
        "error: JSON integer of 4301 digits exceeds the cap of 4300 digits",
    ]


def test_decimal_digits_cap(tmp_path, capsys):
    eval_third = ["eval", "-s", "0,2", "X^1*(1/3)", "1"]
    for command in (eval_third, ["interpolate", write(tmp_path, FIVE_POINT_DOC)]):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--decimal", str(MAX_DECIMAL_DIGITS + 1)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"must be at most {MAX_DECIMAL_DIGITS}" in captured.err
    assert main([*eval_third, "--decimal", str(MAX_DECIMAL_DIGITS)]) == 0
    approx = capsys.readouterr().out.splitlines()[1]
    assert approx == f"approx[{MAX_DECIMAL_DIGITS} digits] ~ 0." + "3" * MAX_DECIMAL_DIGITS
