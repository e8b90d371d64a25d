"""Every demo runs to completion against the package in src/ and prints
exactly its recorded output, tests/demo_output/<demo>.txt.

After a change that is meant to alter a demo's output, regenerate its file
with ``PYTHONPATH=src python demos/<demo>.py > tests/demo_output/<demo>.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = ROOT / "tests" / "demo_output"


def run_demo(path, text=True):
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(path)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=text,
        timeout=60,
    )


def test_every_demo_is_found():
    assert [p.name for p in DEMOS] == [
        "other_signatures.py",
        "quaternion_interpolation.py",
        "r03_interpolation.py",
        "root_structure.py",
        "zero_divisors.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(path):
    done = run_demo(path)
    assert done.returncode == 0, done.stderr


def test_quaternion_demo_prints_the_interpolant():
    done = run_demo(ROOT / "demos" / "quaternion_interpolation.py")
    lines = [line.strip() for line in done.stdout.splitlines()]
    assert "P(X) = X^3*(e1) + X^2*(1) + (1)" in lines


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_is_the_recorded_output(path):
    done = run_demo(path, text=False)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert done.stdout == (RECORDED / f"{path.stem}.txt").read_bytes()


def test_every_recorded_output_has_a_demo():
    assert sorted(p.stem for p in RECORDED.glob("*.txt")) == [p.stem for p in DEMOS]
