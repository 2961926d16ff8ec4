"""Run one workload over several seeds and report each metric's spread.

    python3 -m perfbench.spread --workload store_paper --seeds 1-10 [--trace 0]

Each run measures ``run_seconds`` of ``BENCHMARK.json``.  Spread is the
interquartile range over the median, as ``statistics.quantiles(values,
n=4)`` gives the quartiles.  With
``--trace 1`` the summary covers the per-layer metrics; comparing its
``trace.windows_per_s`` with an untraced run's ``windows_per_s`` gives
the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from perfbench import ROOT


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed} failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    result["host"] = next(json.loads(line)["host"] for line in lines if line.startswith('{"host"'))
    return result


def spread(values):
    median = statistics.median(values)
    if len(values) < 3 or median == 0:
        return None
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    values = {}
    for seed in _seeds(args.seeds):
        result = run_once(args.workload, seed, seconds, args.trace)
        row = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(json.dumps({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                          "failed": result["failed"], "sgemm_gflop_per_s": result["host"]["sgemm_gflop_per_s"],
                          "metrics": row}), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {name: {"median": statistics.median(v), "spread": spread(v)} for name, v in values.items()}
    print(json.dumps({"summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
