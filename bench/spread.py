"""Run-to-run spread of the end-to-end metrics, for setting and checking bounds.

    python3 bench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1] [--seconds S]

Runs bench/run.py once per seed on each workload, one run at a time, and
prints for every end-to-end metric the median and the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, next to the metric's bound in BENCHMARK.json. Results are
appended to bench/out/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def quartile_spread(values) -> tuple[float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        started = time.time()
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, check=True, capture_output=True, text=True,
            ).stdout
            report = json.loads(out.strip().splitlines()[-1])
            failed += report["failed"]
            for name, m in report["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        row = {"workload": workload, "seeds": args.seeds, "first_seed": args.first_seed,
               "seconds": args.seconds, "failed": failed,
               "elapsed_s": time.time() - started, "metrics": {}}
        print(f"{workload}: {args.seeds} seeds, {failed} failed ops, {row['elapsed_s']:.0f} s")
        for name, vals in values.items():
            median, spread = quartile_spread(vals)
            bound = bounds.get(name)
            row["metrics"][name] = {"median": median, "spread": spread, "values": vals}
            worst = max(worst, spread / bound)
            print(f"  {name:16s} median {median:10.4g}  spread {spread:6.3f}  bound {bound}"
                  f"  spread/bound {spread / bound:5.2f}")
        os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
        with open(os.path.join(BENCH, "out", "spread.jsonl"), "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row) + "\n")
    print(f"largest spread/bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
