"""Runs one workload and prints the result lines."""

from __future__ import annotations

import importlib
import json
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass

from .common import CheckFailed, host_fingerprint, sgemm_ceiling_gflops
from .metrics import END_TO_END, PER_LAYER
from .tracing import Tracer


@dataclass
class RunConfig:
    seed: int
    seconds: float
    fast: bool
    workdir: str


def _emit(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> None:
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": int(attempted), "failed": int(failed), "metrics": metrics}))


def run_workload(args, root: str) -> int:
    work_root = os.path.join(root, ".perfbench_work")
    workdir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ceiling = sgemm_ceiling_gflops()
    print(json.dumps({"host": host_fingerprint(ceiling)}), flush=True)
    cfg = RunConfig(args.seed, args.seconds, args.fast, workdir)
    module = importlib.import_module(f"perfbench.{args.workload}")
    tracer = Tracer() if args.trace else None
    t0 = time.perf_counter()
    try:
        out = module.run(cfg, tracer)
        correct, reason = True, None
    except CheckFailed as exc:
        out, correct, reason = None, False, str(exc)
    except Exception:  # noqa: BLE001 - the program crashed: no result to print
        traceback.print_exc()
        return 1
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    elapsed = time.perf_counter() - t0

    if not correct:
        print(f"perfbench: output check FAILED: {reason}", file=sys.stderr)
        print(json.dumps({"check_failed": reason}))
        # The failed check ends the run, so one attempt is all it reports.
        _emit(False, 1, 0, {}, PER_LAYER if args.trace else END_TO_END)
        return 1

    detail = {"workload": args.workload, "seed": args.seed, "attempted": out["attempted"],
              "failed": out["failed"], **out["info"]}
    if tracer is None:
        print(json.dumps({"detail": detail}), flush=True)
        _emit(True, out["attempted"], out["failed"], out["e2e"], END_TO_END)
        return 0

    span_cost = tracer.span_cost_ns()
    layers = dict(out["layers"])
    layers["host.sgemm_gflop_per_s"] = ceiling
    layers["trace.spans"] = len(tracer.spans)
    layers["trace.overhead_est_pct"] = 100.0 * len(tracer.spans) * span_cost / 1e9 / elapsed
    layers["trace.windows_per_s"] = out["e2e"]["windows_per_s"]
    trace_path = os.path.join(work_root, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed, "span_cost_ns": span_cost,
                             "elapsed_s": elapsed, "detail": detail})
    detail["trace_file"] = os.path.relpath(trace_path, root)
    print(json.dumps({"detail": detail}), flush=True)
    _emit(True, out["attempted"], out["failed"], layers, PER_LAYER)
    return 0
