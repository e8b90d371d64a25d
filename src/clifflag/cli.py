"""Command-line front end: interpolate, eval and diagnose subcommands.

Problem files are JSON with an explicit signature (blade tokens such as
``e1`` do not determine one):

    {"signature": {"p": 0, "q": 2},
     "points": ["0", "1 + e1", "e1", "e2", "e12"],
     "values": ["1", "-1", "1", "e12", "-e2"]}

All output is exact; ``--decimal N`` appends one clearly marked line in the
same layout with every coefficient rounded to N significant digits. Count
flags are checked while the arguments are parsed. Exit codes: 0 success,
2 parse/input error, 3 collinearity violation, 4 repeated conjugacy class
in R(0,3).
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys
from math import isqrt

from .errors import (
    AlgebraError,
    CollinearityViolated,
    MultiPointClassInR03,
    ParseError,
)
from .interpolate import (
    InterpolationProblem,
    _problem_degree_bound,
    brute_force_interpolate,
    interpolate,
    verify_interpolant,
)
from .multivector import (
    MAX_LITERAL_DIGITS,
    QUATERNIONS,
    R03,
    Multivector,
    Signature,
    _exact_text,
    _literal_int,
    _tokens,
)
from .poly import MAX_DEGREE, Polynomial

# Largest number of points in a problem file or a diagnose call. A problem's
# degree bound is below its point count, so it stays within the cap on
# polynomial degrees.
MAX_POINTS = MAX_DEGREE + 1
# Largest work of a diagnose call, in pairs times dim^2 (one difference
# inverted per pair): that of MAX_POINTS points in H.
MAX_DIAGNOSE_WORK = MAX_POINTS * (MAX_POINTS - 1) // 2 * QUATERNIONS.dim**2
# Largest --decimal: every approximated coefficient is written with this
# many significant digits.
MAX_DECIMAL_DIGITS = 1000

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_COLLINEARITY = 3
EXIT_MULTIPOINT = 4


def _whole_number(text: str) -> int:
    # the rule for every number flag: one number token of the literal lexer
    # (ASCII digits, ASCII whitespace around them), without a sign or '/'
    tokens = _tokens(text)
    if len(tokens) != 1 or tokens[0][0] != "number" or "/" in tokens[0][1]:
        raise ValueError(f"expected ASCII digits, got {text!r}")
    return _literal_int(tokens[0][1])


def _parse_signature(text: str) -> Signature:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"signature must look like 'p,q', got {text!r}")
    try:
        p, q = _whole_number(parts[0]), _whole_number(parts[1])
    except ValueError:
        raise ParseError(f"signature must be two integers, got {text!r}") from None
    try:
        return Signature(p, q)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _decimal_str(value, digits: int) -> str:
    ctx = decimal.Context(prec=digits)
    return str(ctx.divide(decimal.Decimal(value.numerator), decimal.Decimal(value.denominator)))


def _count(text: str, cap: int) -> int:
    # argparse type body: a bad value exits 2 before any work is done
    try:
        value = _whole_number(text)
    except ValueError:
        message = f"expected an integer from 0 to {cap}, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None
    if value > cap:
        raise argparse.ArgumentTypeError(f"must be at most {cap}, got {value}")
    return value


def _degree(text: str) -> int:
    return _count(text, MAX_DEGREE)


def _digits(text: str) -> int:
    return _count(text, MAX_DECIMAL_DIGITS)


def _check_point_count(count: int) -> None:
    if count > MAX_POINTS:
        raise ParseError(f"problem has {count} points; at most {MAX_POINTS} allowed")


def _json_int(text: str) -> int:
    # json's parse_int: a JSON integer takes the literals' digit cap instead
    # of the interpreter's, whose error advises sys.set_int_max_str_digits()
    digits = text.lstrip("-")
    try:
        value = _literal_int(digits)
    except ValueError:
        message = f"JSON integer of {len(digits)} digits exceeds the cap of {MAX_LITERAL_DIGITS} digits"
        raise ParseError(message) from None
    return -value if text.startswith("-") else value


def _load_problem(path: str) -> InterpolationProblem:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_int=_json_int)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: the file must be UTF-8 ({exc})") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{path} nests arrays or objects too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("problem file must be a JSON object")
    try:
        sig_doc = doc["signature"]
        points = doc["points"]
        values = doc["values"]
    except KeyError as exc:
        raise ParseError(f"problem file is missing the {exc} key") from None
    if not isinstance(sig_doc, dict) or "p" not in sig_doc or "q" not in sig_doc:
        raise ParseError('signature must be an object like {"p": 0, "q": 2}')
    p, q = sig_doc["p"], sig_doc["q"]
    if type(p) is not int or type(q) is not int:  # bool is an int subclass
        raise ParseError(f"signature entries must be integers, got p={p!r}, q={q!r}")
    try:
        sig = Signature(p, q)
    except ValueError as exc:
        raise ParseError(f"bad signature: {exc}") from None
    if not (isinstance(points, list) and isinstance(values, list)) or not all(
        isinstance(text, str) for text in points + values
    ):
        raise ParseError("points and values must be arrays of strings")
    if len(points) != len(values) or not points:
        raise ParseError("points and values must have equal length >= 1")
    _check_point_count(len(points))
    pairs = [
        (Multivector.parse(x, sig), Multivector.parse(w, sig)) for x, w in zip(points, values)
    ]
    return InterpolationProblem.from_pairs(sig, pairs)


def cmd_interpolate(args) -> int:
    if args.max_degree is not None and not args.oracle:
        raise ParseError("--max-degree bounds only the oracle; pass it with --oracle")
    problem = _load_problem(args.file)
    poly = interpolate(problem)
    print(poly)
    if args.decimal:
        approx = poly.format(lambda v: _decimal_str(v, args.decimal))
        print(f"approx[{args.decimal} digits] ~ {approx}")
    if args.verify:
        for x, w in problem.pairs:
            print(f"residual at {x}: {poly(x) - w}")
    if args.oracle:
        bound = args.max_degree if args.max_degree is not None else _problem_degree_bound(problem)
        result = brute_force_interpolate(problem, bound)
        if result.kind == "unique":
            print("oracle: AGREE" if result.polynomial == poly else "oracle: DISAGREE")
        elif result.kind == "affine_family":
            member = verify_interpolant(result.polynomial, problem)
            status = "solution lies in it" if member else "DISAGREE"
            print(
                f"oracle: AFFINE-FAMILY at max degree {bound} "
                f"(not unique, above the construction bound; {status})"
            )
        elif poly and bound < poly.degree:
            # the interpolant is unique within the construction bound, so no
            # polynomial of lower degree takes the values
            print(
                f"oracle: NONE at max degree {bound} "
                f"(below the interpolant's degree {poly.degree})"
            )
        else:
            print("oracle: DISAGREE (no solution found)")
    return EXIT_OK


def cmd_eval(args) -> int:
    sig = _parse_signature(args.signature)
    poly = Polynomial.parse(args.polynomial, sig)
    point = Multivector.parse(args.point, sig)
    value = poly(point)
    print(value)
    if args.decimal:
        approx = value.format(lambda v: _decimal_str(v, args.decimal))
        print(f"approx[{args.decimal} digits] ~ {approx}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    sig = _parse_signature(args.signature)
    n = len(args.points)
    _check_point_count(n)
    # the pair loop inverts n(n-1)/2 differences: n(n-1)/2 <= work / dim^2
    cap = (1 + isqrt(1 + 8 * (MAX_DIAGNOSE_WORK // sig.dim**2))) // 2
    if n > cap:
        raise ParseError(f"diagnose takes at most {cap} points in {sig}, got {n}")
    points = [Multivector.parse(text, sig) for text in args.points]
    classes = [x._class_id() for x in points]  # None outside the cone
    for idx, (x, cls_id) in enumerate(zip(points, classes), start=1):
        print(f"point {idx}: {x}")
        print(f"  in quadratic cone: {'no' if cls_id is None else 'yes'}")
        if sig == R03:
            plus, minus = _exact_text(x.psi_plus()), _exact_text(x.psi_minus())
            print(f"  psi+ = {plus}  psi- = {minus}")
        print(f"  class: {'-' if cls_id is None else cls_id}")
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            x, y = points[a], points[b]
            if classes[a] is None or classes[b] is None:
                shared = "-"
            else:
                shared = "yes" if classes[a] == classes[b] else "no"
            invertible = "yes" if (x - y).is_invertible() else "no"
            print(
                f"pair ({a + 1},{b + 1}): same class: {shared}; "
                f"difference invertible: {invertible}"
            )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clifflag",
        description="Exact Clifford-algebra arithmetic and Lagrange interpolation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("interpolate", help="interpolate a JSON problem file")
    p_int.add_argument("file", help="problem file (JSON)")
    p_int.add_argument("--verify", action="store_true", help="print per-point residuals")
    p_int.add_argument(
        "--oracle", action="store_true", help="cross-check against the linear-system oracle"
    )
    p_int.add_argument(
        "--max-degree", type=_degree, default=None, metavar="D",
        help="oracle degree bound (default: the construction bound)",
    )
    p_int.add_argument(
        "--decimal", type=_digits, default=0, metavar="N",
        help="also print N-digit decimal approximations",
    )
    p_int.set_defaults(func=cmd_interpolate)

    p_eval = sub.add_parser("eval", help="evaluate a polynomial at a point")
    p_eval.add_argument("-s", "--signature", required=True, metavar="P,Q")
    p_eval.add_argument("polynomial", help="polynomial text, e.g. 'X^2*(1) + (e1)'")
    p_eval.add_argument("point", help="multivector text, e.g. '1 + e1'")
    p_eval.add_argument("--decimal", type=_digits, default=0, metavar="N")
    p_eval.set_defaults(func=cmd_eval)

    p_diag = sub.add_parser(
        "diagnose", help="cone membership, classes and invertibility of differences"
    )
    p_diag.add_argument("-s", "--signature", required=True, metavar="P,Q")
    p_diag.add_argument("points", nargs="+", help="multivector texts")
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CollinearityViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COLLINEARITY
    except MultiPointClassInR03 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MULTIPOINT
    except (ParseError, AlgebraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
