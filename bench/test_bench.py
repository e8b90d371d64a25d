"""Tests of the benchmark itself, on tiny runs.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads as wl  # noqa: E402

import clifflag  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def tiny(name, seed=1, trace=False, **kwargs):
    kwargs.setdefault("pass_ops", 2)
    if trace:
        kwargs.setdefault("passes", 1)
    else:
        kwargs.setdefault("max_passes", 1)
        kwargs.setdefault("setup_reps", 1)
    return run.run(name, seed, 60.0, trace, record=False, **kwargs)


def test_spec_lists_the_metrics_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", wl.NAMES)
def test_every_metric_is_reported_with_its_unit(name):
    for trace, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        report = tiny(name, trace=trace)["report"]
        assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
        assert list(report["metrics"]) == list(units)
        for metric, m in report["metrics"].items():
            assert m["unit"] == units[metric]
            assert isinstance(m["value"], (int, float))


def test_exact_counts_and_digest_repeat():
    first, second = (tiny("r03-roots", trace=True, passes=2) for _ in range(2))
    assert first["meta"]["exact_counts_repeat"] and second["meta"]["exact_counts_repeat"]
    for name in run.EXACT:
        assert first["report"]["metrics"][name] == second["report"]["metrics"][name], name
    assert first["report"]["metrics"]["classpoints.sample.calls"]["value"] > 0
    assert first["meta"]["digest"] == second["meta"]["digest"]


def test_wrong_result_counts_as_failed(monkeypatch):
    right = clifflag.interpolate

    def wrong(problem):
        return right(problem) + clifflag.Polynomial.one(problem.sig)

    monkeypatch.setattr(clifflag, "interpolate", wrong)
    out = tiny("r03-interpolate", pass_ops=1, max_passes=3)
    assert out["report"]["attempted"] == 3
    assert out["report"]["failed"] == 3
    assert not out["report"]["correct"]


@pytest.mark.parametrize(
    "check, result",
    [
        (lambda r: wl.check_exit(r, 3), (0, "X^1*(1)\n")),
        (lambda r: wl.check_exit(r, 3), (4, "error: repeated class\n")),
        (lambda r: wl.check_interpolate_output(r, 1, None), (0, "(1)\nresidual at 1: e1\noracle: AGREE\n")),
        (lambda r: wl.check_interpolate_output(r, 1, None), (0, "(1)\nresidual at 1: 0\noracle: DISAGREE\n")),
        (lambda r: wl.check_interpolate_output(r, 1, wl.FIVE_POINT_RESULT), (0, "(1)\nresidual at 1: 0\noracle: AGREE\n")),
        (lambda r: wl.check_pairs(r, {"pair (1,2)": "no"}), (0, "pair (1,2): same class: yes; difference invertible: yes\n")),
        (lambda r: wl.check_lines(r, ["e12"]), (0, "-e12\n")),
    ],
)
def test_cli_checks_reject_wrong_output(check, result):
    with pytest.raises(wl.Mismatch):
        check(result)


def test_other_seed_changes_inputs_not_metrics():
    one, two = tiny("r03-interpolate", seed=1), tiny("r03-interpolate", seed=2)
    assert one["meta"]["digest"] != two["meta"]["digest"]
    assert one["report"]["metrics"].keys() == two["report"]["metrics"].keys()
    again = tiny("r03-interpolate", seed=1)
    assert again["meta"]["digest"] == one["meta"]["digest"]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "r03-interpolate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
