"""``store_paper``: bulk ``InferenceEngine.score_store`` at the paper's width.

One appliance, the camal@paper ensemble (kernels 5/7/9/15/25, filters
64/128/128), window 128, stride 64, cache off, micro-batch 8, over an
ingested ``MeterStore`` of eight households one to four days long.  A
household of ``8 f + r`` windows is scored as ``f`` full micro-batches
and one tail batch of ``r`` rows; the households pair the full-batch
counts 3..10 with the residues 1..8, so every run scores the same
windows (94 % of them in full micro-batches) and traces the same seven
tail plans (the engine does not bucket tail batches), while the
household order, the sample counts and all signal content change with
the seed.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Sequence

import numpy as np

import repro.data.ingest as ingest_mod
from repro.api.registry import conv_shapes
from repro.core.ensemble import ResNetEnsemble
from repro.core import grouped
from repro.data.store import MeterStore
from repro.nn.backend import counters
from repro.nn.plan import ExecutionPlan
from repro.serving import EngineConfig, InferenceEngine

from . import inputs
from .checks import check_against_oracle, check_properties, digest
from .common import check, fresh_dir, peak_rss_mb, quantile

WINDOW, STRIDE, BATCH = 128, 64, 8
APPLIANCE = "kettle"
GATE_WATTS = 500.0


def _sizes(fast: bool):
    if fast:
        return {"width": "demo", "batch": 4, "full_batches": (1, 2, 3, 4), "setups": 2, "passes": 2}
    return {"width": "paper", "batch": BATCH, "full_batches": tuple(range(3, 11)), "setups": 5, "passes": 3}


def window_counts(batch: int, full_batches: Sequence[int], seed: int) -> List[int]:
    """Households' window counts ``batch * f_i + i``, one per tail residue ``i`` in ``1..batch``.

    The counts are the same for every seed; the seed only orders the
    households.
    """
    check(len(full_batches) == batch, "one household per tail residue")
    counts = [batch * int(f) + r for r, f in enumerate(full_batches, start=1)]
    return [counts[i] for i in np.random.default_rng(seed).permutation(batch)]


def conv_flops_per_window(states, length: int) -> float:
    total = 0.0
    for state in states:
        for key, value in state.items():
            if key.endswith("weight") and value.ndim == 3:
                c_out, c_in, k = value.shape
                total += 2.0 * c_out * c_in * k * length
    return total


def install_trace(tracer) -> None:
    tracer.wrap(ingest_mod, "ingest_corpus", "data.ingest")
    tracer.wrap(MeterStore, "read_channel", "data.store.read")
    tracer.wrap(MeterStore, "read_mask", "data.store.read")
    tracer.wrap(InferenceEngine, "load", "serving.engine.warmup")
    tracer.wrap(InferenceEngine, "warmup", "serving.engine.warmup")
    tracer.wrap(InferenceEngine, "localize_windows", "serving.engine.localize")
    tracer.wrap_iter(InferenceEngine, "score_store", "serving.engine.score_store")
    tracer.wrap(ResNetEnsemble, "forward_fused", "core.ensemble.forward")
    tracer.count(ExecutionPlan, "run", "nn.plan.rows", lambda plan: plan.inputs["x"].shape[0])
    tracer.wrap(ExecutionPlan, "run", "nn.plan.replay")
    tracer.wrap(grouped, "compile_ensemble_plan", "core.grouped.trace")


def run(cfg, tracer) -> dict:
    sizes = _sizes(cfg.fast)
    batch = sizes["batch"]
    counts = window_counts(batch, sizes["full_batches"], cfg.seed)
    lengths = inputs.ragged_lengths(counts, WINDOW, STRIDE, cfg.seed)
    corpus = inputs.household_corpus("store", lengths, cfg.seed)
    fleet_dir = os.path.join(cfg.workdir, "fleet")
    fleet = inputs.build_fleet(fleet_dir, sizes["width"], [APPLIANCE],
                               [h.aggregate for h in corpus.houses], WINDOW, GATE_WATTS, cfg.seed)
    states, threshold = fleet[APPLIANCE]
    if sizes["width"] == "paper":
        declared = set(conv_shapes("camal", "paper"))
        used = {(v.shape[1], v.shape[0], v.shape[2]) for s in states for k, v in s.items()
                if k.endswith("weight") and v.ndim == 3}
        check(used == declared, f"fleet conv shapes {sorted(used - declared)} not in conv_shapes")

    if tracer is not None:
        install_trace(tracer)

    # -- set-up: ingest + load + warm-up, several times; keep the last ----
    setups = []
    for i in range(sizes["setups"]):
        engine = store = None  # free the previous set-up's plans first
        store_dir = fresh_dir(os.path.join(cfg.workdir, f"store{i}"))
        t0 = time.perf_counter()
        store = ingest_mod.ingest_corpus(corpus, store_dir)
        engine = InferenceEngine(EngineConfig(window=WINDOW, stride=STRIDE, batch_size=batch, cache_size=0))
        engine.load(APPLIANCE, os.path.join(fleet_dir, APPLIANCE))
        setups.append(time.perf_counter() - t0)

    # -- timed phase: whole passes over the store -------------------------
    watts = {h.house_id: h.aggregate for h in corpus.houses}
    gemms0 = counters.op_counts().get("fused_conv_gemms", 0)
    per_house: Dict[str, List[float]] = {}  # seconds of every pass
    n_windows: Dict[str, int] = {}
    first: Dict[str, str] = {}
    results: Dict[str, tuple] = {}
    passes, timed = 0, 0.0
    while passes < sizes["passes"] or timed < cfg.seconds:
        stream = engine.score_store(store)
        while True:
            t0 = time.perf_counter()
            item = next(stream, None)
            dt = time.perf_counter() - t0
            timed += dt
            if item is None:
                break
            house_id, scores = item
            per_house.setdefault(house_id, []).append(dt)
            result = scores.per_appliance[APPLIANCE]
            n_windows[house_id] = result.n_windows
            check_properties(house_id, result.soft_status, result.status, watts[house_id], GATE_WATTS)
            out_digest = digest(result.soft_status, result.status)
            check(first.setdefault(house_id, out_digest) == out_digest,
                  f"{house_id}: pass {passes + 1} output differs from pass 1")
            results[house_id] = (result.soft_status, result.status)
        passes += 1
    gemms = counters.op_counts().get("fused_conv_gemms", 0) - gemms0
    peak_mb = peak_rss_mb()
    windows = sum(n_windows.values()) * passes
    households = sum(len(v) for v in per_house.values())
    latencies = [t * 1e3 for v in per_house.values() for t in v]
    pass_s = [sum(v[p] for v in per_house.values()) for p in range(passes)]
    check(sum(n_windows.values()) == sum(counts),
          f"a pass scored {sum(n_windows.values())} windows, not {sum(counts)}")

    oracle_stats = check_against_oracle(results, watts.__getitem__, lambda _: (states, threshold),
                                        WINDOW, STRIDE, GATE_WATTS, cfg.seed + 7)
    plan = engine.plan_stats()[APPLIANCE]
    pool = engine.buffer_pool_stats()[APPLIANCE]
    out = {
        "e2e": {
            "setup_s": float(np.median(setups)),
            # The whole timed phase, so the first pass's lazy tail-plan
            # traces count, as they do in a bulk job on a fresh engine.
            "windows_per_s": windows / timed,
            "peak_rss_mb": peak_mb,
            "latency_p50_ms": quantile(latencies, 50),
            "latency_p95_ms": quantile(latencies, 95),
        },
        "attempted": households,
        "failed": 0,
        "info": {
            "households": households, "passes": passes, "windows": windows,
            "timed_s": timed, "pass_s": pass_s, "setups_s": setups, "oracle": oracle_stats,
            "windows_per_household": counts, "batch_size": batch, "width": sizes["width"],
            "detection_threshold": threshold,
        },
    }
    if tracer is not None:
        replay_s = tracer.inclusive_s("nn.plan.replay")
        rows = tracer.counts.get("nn.plan.rows", 0)
        flops = conv_flops_per_window(states, WINDOW)
        out["layers"] = {
            "data.store.read_s": tracer.inclusive_s("data.store.read"),
            "data.ingest_s": tracer.inclusive_s("data.ingest"),
            "serving.engine.warmup_s": tracer.inclusive_s("serving.engine.warmup"),
            "serving.engine.localize_s": tracer.inclusive_s("serving.engine.localize"),
            "serving.engine.stitch_s": tracer.self_s("serving.engine.score_store"),
            "core.ensemble.forward_s": tracer.inclusive_s("core.ensemble.forward"),
            "nn.plan.replay_s": replay_s,
            "core.grouped.trace_s": tracer.inclusive_s("core.grouped.trace"),
            "nn.plan.traces": plan["traces"],
            "nn.plan.replays": plan["replays"],
            "core.grouped.gflop_per_s": flops * rows / replay_s / 1e9 if replay_s else 0.0,
            "nn.backend.gemm_calls_per_window": gemms / windows,
            "nn.pool.pinned_mb": pool["bytes_allocated"] / 1e6,
            "nn.pool.buffers": pool["fresh_allocations"],
            "nn.pool.reuses": pool["reuses"],
        }
    return out
