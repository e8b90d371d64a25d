"""Fuzzed command lines and problem files: the CLI never crashes.

Random `eval` and `diagnose` texts and random JSON problem documents are
fed to `clifflag.cli.main` in process. Every run must end with one of the
documented exit codes (0, 2, 3, 4); an exception escaping `main` fails the
test. Texts are built from grammar fragments plus a few hostile ones
(non-ASCII digits, zero denominators, bad blades), so most of them get past
the tokenizer and reach the algebra. Derandomized, so the suite stays
deterministic.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clifflag.cli import main

FUZZ_SETTINGS = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
EXIT_CODES = {0, 2, 3, 4}

H_BLADES = ["", "e1", "e2", "e12"]
R03_BLADES = H_BLADES + ["e3", "e13", "e23", "e123"]


def multivector_texts(blades=R03_BLADES):
    """Well-formed texts: signed terms, each a small coefficient and/or a blade."""
    terms = st.builds(
        lambda coeff, blade: f"{coeff} {blade}".strip() or "1",
        st.sampled_from(["", "0", "1", "2", "1/2", "3/4"]),
        st.sampled_from(blades),
    )
    return st.builds(
        lambda sign, first, rest: sign + first + "".join(f" {s} {t}" for s, t in rest),
        st.sampled_from(["", "-"]),
        terms,
        st.lists(st.tuples(st.sampled_from("+-"), terms), max_size=2),
    )


polynomial_texts = st.lists(
    st.builds("X^{}*({})".format, st.integers(0, 4), multivector_texts()), min_size=1, max_size=3
).map(" + ".join)
# Noise: grammar fragments and hostile ones glued at random.
FRAGMENTS = [
    "X", "^", "*", "(", ")", "+", "-", " ", "/", "0", "1", "2", "3", "1/2", "1/0",
    "e1", "e2", "e3", "e12", "e23", "e123", "e21", "e9", "e", "?", "\u0663", "e\u0661",
]
noise = st.lists(st.sampled_from(FRAGMENTS), max_size=12).map("".join)
texts = st.one_of(multivector_texts(), noise)

# Mostly small algebras, so each example stays cheap; the rest must be refused.
VALID_SIGNATURES = ["0,2", "0,3", "1,0", "1,1", "0,4", "2,2"]
signature_texts = st.one_of(
    st.sampled_from(VALID_SIGNATURES),
    st.sampled_from(VALID_SIGNATURES),
    st.sampled_from(VALID_SIGNATURES),
    st.sampled_from(["0,7", "4,3", "-1,2", "0", "a,b", "0,2,1", ""]),
)


@contextlib.contextmanager
def quiet():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


def exit_code(argv) -> int:
    with quiet():
        try:
            return main(argv)
        except SystemExit as exc:  # argparse refuses the arguments
            return exc.code


@FUZZ_SETTINGS
@given(signature_texts, st.one_of(polynomial_texts, noise), texts)
def test_fuzzed_eval_exits_cleanly(sig, poly, point):
    assert exit_code(["eval", "-s", sig, poly, point]) in EXIT_CODES


@FUZZ_SETTINGS
@given(signature_texts, st.lists(texts, min_size=1, max_size=4))
def test_fuzzed_diagnose_exits_cleanly(sig, points):
    assert exit_code(["diagnose", "-s", sig, *points]) in EXIT_CODES


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 8), st.floats(allow_nan=False), texts
)
signature_entries = st.one_of(st.integers(-1, 4), json_scalars)
signature_docs = st.one_of(
    st.fixed_dictionaries({"p": st.just(0), "q": st.sampled_from([2, 3])}),
    st.fixed_dictionaries({"p": signature_entries, "q": signature_entries}),
    json_scalars,
)


def problems(sig, points, values):
    """Documents with distinct point texts and as many value texts."""
    return st.integers(1, 5).flatmap(
        lambda n: st.fixed_dictionaries(
            {
                "signature": st.just(sig),
                "points": st.lists(points, min_size=n, max_size=n, unique=True),
                "values": st.lists(values, min_size=n, max_size=n),
            }
        )
    )


# Points that share a class (e1, e2, e12, -e1; 1 + e1, 1 + e2) reach exit codes 3 and 4.
H_POINTS = ["e1", "e2", "e12", "-e1", "1 + e1", "1 + e2", "2"]
R03_POINTS = H_POINTS + ["e3", "e23"]
well_formed = st.one_of(
    problems({"p": 0, "q": 2}, multivector_texts(H_BLADES), multivector_texts(H_BLADES)),
    problems({"p": 0, "q": 2}, st.sampled_from(H_POINTS), multivector_texts(H_BLADES)),
    problems({"p": 0, "q": 3}, multivector_texts(), multivector_texts()),
    problems({"p": 0, "q": 3}, st.sampled_from(R03_POINTS), multivector_texts()),
    problems({"p": 1, "q": 1}, multivector_texts(H_BLADES), multivector_texts(H_BLADES)),
)
entries = st.lists(st.one_of(texts, json_scalars), max_size=5)
malformed = st.one_of(
    st.fixed_dictionaries({"signature": signature_docs, "points": entries, "values": entries}),
    st.dictionaries(st.sampled_from(["signature", "points", "values"]), json_scalars),
    st.lists(json_scalars, max_size=3),
    json_scalars,
)
flags = st.lists(
    st.sampled_from(
        [
            ["--verify"],
            ["--oracle"],
            ["--max-degree", "3"],
            ["--max-degree", "6"],
            ["--decimal", "5"],
        ]
    ),
    max_size=3,
).map(lambda groups: sum(groups, []))


@pytest.fixture(scope="module")
def problem_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "problem.json"


@FUZZ_SETTINGS
@given(doc=well_formed, extra=flags)
def test_fuzzed_problem_file_exits_cleanly(problem_path, doc, extra):
    problem_path.write_text(json.dumps(doc))
    assert exit_code(["interpolate", str(problem_path), *extra]) in EXIT_CODES


@FUZZ_SETTINGS
@given(doc=malformed)
def test_malformed_problem_file_exits_cleanly(problem_path, doc):
    problem_path.write_text(json.dumps(doc))
    assert exit_code(["interpolate", str(problem_path)]) in EXIT_CODES
