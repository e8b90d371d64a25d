"""Benchmark of the clifflag library and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from
`src/`, nothing needs installing. Workloads (see bench/README.md):
r03-interpolate, oracle-classify, r03-roots and cli-session. Each is a
closed loop with one caller: the next operation starts when the previous
one has returned.

With --trace 0 the run times whole passes over the pool for about S
seconds, checks every result exactly right after its timed span, and
reports the end-to-end metrics.
With --trace 1 it alternates untraced and traced passes over one fixed
cycle of the workload for about S seconds and reports per-layer metrics.
Either way the last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The lines before it print every metric by name with its unit, plus the
run's metadata; each run is also appended to bench/out/runs.jsonl.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, SRC)  # the package is used from the source tree, not installed

SETUP_REPS = 7  # setup_s is the median of this many fresh-process setups
MIN_PASSES = 3  # the timed run makes at least this many passes over the pool
# Times of the calibration kernels on an undisturbed core of a 2-core Xeon
# cloud VM (CPython 3.11.7), rounded; every timing is scaled to them.
FRACTION_REF_S = 0.7e-3
SPAWN_REF_S = 12e-3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {}
for _layer in tracing.TIMED_LAYERS:
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.self_s"] = "s"
PER_LAYER.update({
    "poly.append_root.per_node": "appends/node",
    "poly.roots.nonempty_ratio": "ratio",
    "interpolate.construct.self_s": "s",
    "interpolate.construct.total_s": "s",
    "interpolate.group.calls": "count",
    "interpolate.group.self_s": "s",
    "interpolate.group.per_op": "calls/op",
    "interpolate.oracle_rows.self_s": "s",
    "interpolate.oracle.total_s": "s",
    "interpolate.result_max_bits": "bits",
    "linsolve.cells": "cells",
    "linsolve.entry_max_bits": "bits",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_ratio": "ratio",
})
# Per-layer values that must repeat exactly for the same seed.
EXACT = tuple(
    name for name in PER_LAYER
    if name.endswith((".calls", ".per_node", ".per_op", ".nonempty_ratio", "_bits", ".cells"))
)


def build(name: str, seed: int, workdir: str):
    import workloads as wl

    if name == "r03-interpolate":
        return wl.r03_interpolate(seed)
    if name == "oracle-classify":
        return wl.oracle_classify(seed)
    if name == "r03-roots":
        return wl.r03_roots(seed)
    if name == "cli-session":
        return wl.cli_session(seed, ROOT, workdir)
    raise ValueError(f"unknown workload {name!r}")


def setup(name: str, seed: int, workdir: str):
    """Compile the sources, import the package, build the inputs and run one
    warm-up operation (untimed, unchecked)."""
    compileall.compile_dir(SRC, quiet=1)
    workload = build(name, seed, workdir)
    workload.cases[0].run()
    return workload


def start_setup(name: str, seed: int):
    """Spawns a fresh interpreter that sets the workload up; returns the
    process and its first line of output once that line arrives."""
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
    )
    return proc, proc.stdout.readline()


def measure_setups(name: str, seed: int, reps: int) -> tuple[list[float], list[float]]:
    """Time from spawning a fresh interpreter to the end of its setup, scaled
    as in the timed run, and unscaled."""
    scaled, raw = [], []
    for _ in range(reps):
        (proc, line), elapsed, elapsed_scaled = calibrated(lambda: start_setup(name, seed))
        with proc.stdout:
            proc.stdout.read()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup of {name} failed in a fresh process")
        scaled.append(elapsed_scaled)
        raw.append(elapsed)
    return scaled, raw


def max_bits(text: str) -> int:
    """Largest bit length of any integer written in the text."""
    return max((int(m).bit_length() for m in re.findall(r"\d+", text)), default=0)


class Results:
    """Checks results after timing: counts failures and digests result texts."""

    def __init__(self, cases):
        self.cases = cases
        self.texts: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, index: int, result, error: Exception | None):
        self.attempted += 1
        case = self.cases[index]
        if error is not None:
            self.fail(case, f"raised {type(error).__name__}: {error}")
            return
        try:
            text = case.check(result)
        except Exception as exc:  # a check that crashes on a malformed result fails it too
            self.fail(case, str(exc))
            return
        if self.texts.setdefault(index, text) != text:
            self.fail(case, "result differs from an earlier run of the same input")

    def fail(self, case, message: str):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{case.label}: {message}")

    def digest(self) -> str:
        h = hashlib.sha256()
        for index in sorted(self.texts):
            h.update(f"{index}\t{self.texts[index]}\n".encode())
        return h.hexdigest()[:16]

    def max_bits(self) -> int:
        return max((max_bits(t) for t in self.texts.values()), default=0)


def run_case(case, in_process: bool):
    fn = case.in_process if in_process and case.in_process is not None else case.run
    try:
        return fn(), None
    except Exception as exc:  # a failed operation is counted, the loop goes on
        return None, exc


def fraction_slowdown() -> float:
    """How many times slower than an undisturbed core the machine now runs
    exact arithmetic in process: best of three times of a fixed Fraction
    kernel, over FRACTION_REF_S."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = Fraction(0)
        # terms of up to 100 bits, and a sum whose height grows, like the
        # coefficients the workloads compute with
        for i in range(1, 60):
            total += Fraction(3**i + 1, 2**i + 7) * Fraction(5 ** (i % 40) + 3, 7 ** (i % 30) + 2)
        best = min(best, time.perf_counter() - t0)
    return best / FRACTION_REF_S


def spawn_slowdown() -> float:
    """The same for starting a process: the time of a bare interpreter
    without `site`, over SPAWN_REF_S."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], stdin=subprocess.DEVNULL, check=True)
    return (time.perf_counter() - t0) / SPAWN_REF_S


def calibrated(fn, slowdown=fraction_slowdown):
    """Runs fn(); returns its result, its wall time, and that time scaled to
    an undisturbed core by the slowdown measured just before and after."""
    before = slowdown()
    t0 = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - t0
    return out, elapsed, elapsed / ((before + slowdown()) / 2)


def timed_run(workload, seconds: float, max_passes: int | None, pass_ops: int | None) -> dict:
    """Run the pool of cases in whole passes for about `seconds`.

    On a shared 2-core cloud VM the same work runs at two speeds, about 2x
    apart, for stretches of a fraction of a second to over a minute; a run
    can fall wholly in the slow state. Each execution is therefore timed
    between two runs of a fixed calibration kernel and scaled by their
    time, which turns its wall time into the time on an undisturbed core.
    CLI operations, which mostly start an interpreter, are timed between
    two bare interpreter starts instead.

    Each input counts once, at the median of its scaled times. The run ends
    only at the end of a pass, so every input has the same number of
    samples, and the metrics are taken over the distinct inputs of the
    pool, so they do not depend on how many passes a faster or slower
    program fits in. The unscaled figures are kept in the run record.

    Each result is checked right after it is timed and only its text is
    kept, so memory does not grow with the number of operations run.
    """
    cases = workload.cases[:pass_ops]
    slowdown = spawn_slowdown if workload.cli is not None else fraction_slowdown
    results = Results(cases)
    scaled = [[] for _ in cases]
    raw = []
    passes = 0
    start = time.perf_counter()
    while True:
        for index, case in enumerate(cases):
            (result, error), elapsed, elapsed_scaled = calibrated(
                lambda: run_case(case, in_process=False), slowdown)
            scaled[index].append(elapsed_scaled)
            raw.append(elapsed)
            results.add(index, result, error)
        passes += 1
        wall = time.perf_counter() - start
        if passes == max_passes:
            break
        # stop once the next pass would end more than half a pass late
        if passes >= MIN_PASSES and wall + wall / passes / 2 >= seconds:
            break

    latencies = [statistics.median(times) for times in scaled]
    if workload.cli is not None:
        rss_kb = workload.cli.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "results": results,
        "metrics": {
            "ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1000,
            "latency_tail_ms": tail(latencies) * 1000,
            "peak_rss_mb": rss_kb / 1024,
        },
        "extra": {
            "passes": passes,
            "inputs": len(cases),
            "wall_s": wall,
            "unscaled_ops_per_s": len(raw) / sum(raw),
            "unscaled_latency_p50_ms": statistics.median(raw) * 1000,
        },
    }


def tail(latencies) -> float:
    """The 90th percentile, interpolated between the nearest samples."""
    if len(latencies) == 1:
        return latencies[0]
    return statistics.quantiles(latencies, n=10, method="inclusive")[-1]


def child_ms(code: str, env, reps: int = 5) -> float:
    """Median wall time of `python -c code`, in ms."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


def import_ms(env, reps: int = 5) -> float:
    """Median time a fresh interpreter spends importing clifflag.cli, in ms."""
    code = ("import time; t = time.perf_counter(); import clifflag.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(reps):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             stdin=subprocess.DEVNULL, capture_output=True, text=True).stdout
        times.append(float(out))
    return statistics.median(times) * 1000


def traced_run(workload, seconds: float, passes: int | None, pass_ops: int | None,
               span_path: str | None) -> dict:
    """Alternate untraced (U) and traced (T) passes over one cycle of cases.

    Both kinds of pass run every operation in this process (CLI cases call
    `cli.main`), since only in-process calls can be traced.
    """
    cases = workload.cases[:pass_ops or workload.cycle]
    results = Results(workload.cases)
    u_walls, t_walls, per_pass = [], [], []
    first_tracer = None
    start = time.perf_counter()
    while True:
        for traced in (False, True):
            tracer = tracing.Tracer()
            done = []
            instrumentation = tracing.Instrumentation(tracer)
            if traced:
                instrumentation.install()
            try:
                t0 = time.perf_counter()
                for op, case in enumerate(cases):
                    tracer.op = op
                    done.append(run_case(case, in_process=True))
                wall = time.perf_counter() - t0
            finally:
                instrumentation.remove()
            for index, (result, error) in enumerate(done):
                results.add(index, result, error)
            if traced:
                t_walls.append(wall)
                per_pass.append(tracing.layer_metrics(tracer, len(cases)))
                if first_tracer is None:
                    first_tracer = tracer
            else:
                u_walls.append(wall)
        if passes is not None:
            if len(t_walls) >= passes:
                break
        elif time.perf_counter() - start >= seconds and len(t_walls) >= 2:
            break

    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        metrics[name] = values[0] if name in EXACT else statistics.median(values)
    repeat = all(m[name] == per_pass[0][name] for m in per_pass for name in EXACT if name in m)
    metrics["interpolate.result_max_bits"] = results.max_bits()
    env = dict(os.environ, PYTHONPATH=SRC)
    metrics["cli.interpreter_ms"] = child_ms("pass", env)
    metrics["cli.import_ms"] = import_ms(env)
    metrics["cli.main_ms"] = (
        min(u_walls) / len(cases) * 1000 if workload.cli is not None else 0.0
    )
    # the fastest passes: slow episodes of the machine are longer than a
    # pass and would otherwise decide the ratio
    metrics["trace.overhead_ratio"] = min(t_walls) / min(u_walls)
    if span_path is not None:
        first_tracer.write(span_path)
    return {
        "results": results,
        "metrics": metrics,
        "extra": {
            "passes": len(t_walls),
            "pass_ops": len(cases),
            "untraced_pass_s": u_walls,
            "traced_pass_s": t_walls,
            "spans_per_pass": len(first_tracer.spans),
            "exact_counts_repeat": repeat,
        },
    }


def run(name: str, seed: int, seconds: float, trace: bool, *, max_passes=None, passes=None,
        pass_ops=None, setup_reps: int = SETUP_REPS, record: bool = True) -> dict:
    """One benchmark run; returns the result object plus metadata.

    `max_passes` (untraced), `passes` (traced) and `pass_ops` (both: the
    first cases of the pool only) shrink the run for the benchmark's own
    tests.
    """
    os.makedirs(OUT, exist_ok=True)
    # One core for the run and the processes it starts, so that the
    # calibration kernel runs where the timed work runs.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    setups, raw_setups = ([], []) if trace else measure_setups(name, seed, setup_reps)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        workload = setup(name, seed, workdir)
        if trace:
            span_path = os.path.join(OUT, f"spans-{name}-seed{seed}.tsv.gz") if record else None
            measured = traced_run(workload, seconds, passes, pass_ops, span_path)
            units = PER_LAYER
        else:
            measured = timed_run(workload, seconds, max_passes, pass_ops)
            measured["metrics"]["setup_s"] = statistics.median(setups)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = measured["results"]
    metrics = {k: {"value": measured["metrics"][k], "unit": u} for k, u in units.items()}
    correct = results.failed == 0 and measured["extra"].get("exact_counts_repeat", True)
    report = {
        "correct": correct,
        "attempted": results.attempted,
        "failed": results.failed,
        "metrics": metrics,
    }
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "failed_ratio": results.failed / results.attempted,
        "digest": results.digest(),
        "digest_inputs": len(results.texts),
        "result_max_bits": results.max_bits(),
        "setup_runs_s": setups,
        "unscaled_setup_runs_s": raw_setups,
        "errors": results.errors,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(cpus),
        "cpu": min(cpus),
        "machine": platform.machine(),
        **workload.info,
        **measured["extra"],
    }
    if record:
        with open(os.path.join(OUT, "runs.jsonl"), "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"time": time.time(), "report": report, "meta": meta}) + "\n")
    return {"report": report, "meta": meta}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "clifflag", "__init__.py")):
        print(f"error: no clifflag sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    if args.setup_only:
        os.makedirs(OUT, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"setup-{args.workload}-", dir=OUT)
        try:
            setup(args.workload, args.seed, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report, meta = out["report"], out["meta"]
    for key in ("workload", "seed", "trace", "python", "nproc", "signatures", "points",
                "digest", "digest_inputs", "result_max_bits"):
        print(f"# {key}: {meta.get(key)}")
    for name, m in report["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {meta['failed_ratio']:.6g} ratio ({report['failed']}/{report['attempted']})")
    if not args.trace:
        print(f"# {meta['passes']} passes over {meta['inputs']} inputs; each input at the median "
              f"of its scaled times; latency_tail_ms is their p90")
    for error in meta["errors"]:
        print(f"# error: {error}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
