"""``serve_mixed``: a ``repro serve --fleet`` daemon under two closed-loop clients.

The daemon serves two appliances at the camal@small width (window 128,
stride 128, cache off).  Each client thread sends one request, waits for
the reply, and sends the next, like an interactive user.  Requests are
drawn from a seeded pool of aggregate segments whose lengths are
stratified between two windows and one day (1440 samples), so 12 windows
at most: two coalesced requests fit the 32-row top of the daemon's
pre-traced batch ladder (``--max-batch 32``; see README.md for why it is
not larger on this host).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from typing import Dict, List

import numpy as np

import repro.serving.client as client_mod
from repro.serving import EngineConfig, InferenceEngine, ServingClient
from repro.serving.client import ServerError

from . import inputs
from .checks import check_against_oracle, check_properties, digest
from .common import check, peak_rss_mb, quantile

WINDOW = STRIDE = 128
APPLIANCES = ("kettle", "dishwasher")
GATE_WATTS = 500.0
MIN_LEN, MAX_LEN = 2 * WINDOW, 1440


def _sizes(fast: bool):
    if fast:
        return {"width": "demo", "max_batch": 32, "pool": 8, "setups": 1, "min_requests": 20}
    return {"width": "small", "max_batch": 32, "pool": 48, "setups": 3, "min_requests": 200}


class Daemon:
    """One ``repro serve`` subprocess; ``setup_s`` runs from launch to its ready file."""

    def __init__(self, root: str, fleet_dir: str, workdir: str, max_batch: int, tag: str):
        self.ready_file = os.path.join(workdir, f"ready-{tag}.json")
        self.log_path = os.path.join(workdir, f"daemon-{tag}.log")
        cmd = [sys.executable, "-m", "repro", "serve", "--fleet", fleet_dir, "--port", "0",
               "--ready-file", self.ready_file, "--window", str(WINDOW), "--stride", str(STRIDE),
               "--batch-size", str(max_batch), "--max-batch", str(max_batch), "--cache-size", "0"]
        self._log = open(self.log_path, "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, stdout=self._log, stderr=subprocess.STDOUT)
        while not os.path.exists(self.ready_file):
            if self.proc.poll() is not None:
                self._log.close()
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}: "
                                   + open(self.log_path).read()[-2000:])
            if time.perf_counter() - t0 > 120:
                self.stop()
                raise RuntimeError("repro serve did not become ready within 120 s")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - t0
        with open(self.ready_file) as fh:
            ready = json.load(fh)
        self.host, self.port = ready["host"], ready["port"]

    def client(self) -> ServingClient:
        return ServingClient(self.host, self.port, timeout=60.0)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                with self.client() as c:
                    c.shutdown_server()
                self.proc.wait(timeout=30)
            except Exception:  # noqa: BLE001 - fall back to a signal
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        self._log.close()


def expected_results(fleet_dir: str, pool: List[np.ndarray], max_batch: int) -> Dict[tuple, tuple]:
    """In-process ``InferenceEngine.run`` of every pool series, per appliance.

    One engine per (appliance, window count): each distinct count traces
    its own plan, and dropping the engine between counts keeps only one
    plan's buffers alive.
    """
    by_count: Dict[int, List[int]] = {}
    for i, series in enumerate(pool):
        n = 1 if len(series) <= WINDOW else -(-(len(series) - WINDOW) // STRIDE) + 1
        by_count.setdefault(n, []).append(i)
    out = {}
    for appliance in APPLIANCES:
        for indices in by_count.values():
            engine = InferenceEngine(EngineConfig(window=WINDOW, stride=STRIDE, batch_size=max_batch, cache_size=0))
            engine.load(appliance, os.path.join(fleet_dir, appliance), warm=False)
            for i in indices:
                result = engine.run(pool[i]).per_appliance[appliance]
                out[(appliance, i)] = (result.soft_status, result.status)
            del engine
    return out


def _pool_stats(snapshot) -> Dict[str, float]:
    pools = snapshot.get("buffer_pool", {}).values()
    return {
        "nn.pool.pinned_mb": sum(p["bytes_allocated"] for p in pools) / 1e6,
        "nn.pool.buffers": sum(p["fresh_allocations"] for p in pools),
        "nn.pool.reuses": sum(p["reuses"] for p in pools),
    }


def _plan_total(snapshot, key: str) -> int:
    return sum(p[key] for p in snapshot.get("plan", {}).values())


def run(cfg, tracer) -> dict:
    sizes = _sizes(cfg.fast)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    corpus = inputs.household_corpus("serve", [3 * 1440] * 4, cfg.seed)
    series = np.concatenate([h.aggregate for h in corpus.houses])
    fleet_dir = os.path.join(cfg.workdir, "fleet")
    fleet = inputs.build_fleet(fleet_dir, sizes["width"], APPLIANCES, [h.aggregate for h in corpus.houses],
                               WINDOW, GATE_WATTS, cfg.seed)
    pool = inputs.request_pool(series, sizes["pool"], MIN_LEN, MAX_LEN, cfg.seed)
    expected = expected_results(fleet_dir, pool, sizes["max_batch"])
    for key, (soft, status) in expected.items():
        check_properties(key, soft, status, pool[key[1]], GATE_WATTS)
    digests = {key: digest(*value) for key, value in expected.items()}

    # Each client's round: every (appliance, pool series) pair once, in its
    # own seeded order, so every round and every seed does the same work.
    rng = np.random.default_rng(cfg.seed + 3)
    pairs = sorted(expected)
    rounds = [[pairs[i] for i in rng.permutation(len(pairs))] for _ in range(2)]
    if tracer is not None:
        tracer.wrap(client_mod, "encode_series", "serving.protocol.codec")
        tracer.wrap(client_mod, "decode_series", "serving.protocol.codec")

    setups = []
    for i in range(sizes["setups"] - 1):
        daemon = Daemon(root, fleet_dir, cfg.workdir, sizes["max_batch"], f"s{i}")
        setups.append(daemon.setup_s)
        daemon.stop()
    daemon = Daemon(root, fleet_dir, cfg.workdir, sizes["max_batch"], "live")
    setups.append(daemon.setup_s)
    try:
        with daemon.client() as probe:
            before = probe.metrics()
        records: List[list] = [[], []]
        failures = [0, 0]
        mismatches: List[str] = []
        deadline = [0.0]

        def drive(k: int) -> None:
            with daemon.client() as client:
                while True:
                    for appliance, i in rounds[k]:
                        t0 = time.perf_counter()
                        try:
                            res = client.score_series(appliance, pool[i])
                        except (ServerError, ConnectionError, OSError):
                            failures[k] += 1
                            continue
                        latency = (time.perf_counter() - t0) * 1e3
                        if digest(res.soft_status, res.status) != digests[(appliance, i)]:
                            mismatches.append(f"{appliance}/{i}")
                        records[k].append((latency, res.server_ms, res.coalesced_requests,
                                           res.coalesced_windows, res.n_windows, appliance, i))
                    if time.perf_counter() >= deadline[0]:
                        return

        t_start = time.perf_counter()
        deadline[0] = t_start + cfg.seconds
        threads = [threading.Thread(target=drive, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t_start
        with daemon.client() as probe:
            after = probe.metrics()
        daemon_peak = peak_rss_mb(daemon.proc.pid)
    finally:
        daemon.stop()

    rows = records[0] + records[1]
    attempted = len(rows) + sum(failures)
    check(not mismatches, f"{len(mismatches)} daemon responses differ from in-process engine.run, "
                          f"e.g. {mismatches[:3]}")
    check(len(rows) >= sizes["min_requests"], f"only {len(rows)} requests completed; p95 needs more")
    oracle_stats = check_against_oracle(expected, lambda key: pool[key[1]], lambda key: fleet[key[0]],
                                        WINDOW, STRIDE, GATE_WATTS, cfg.seed + 11)
    latency = [r[0] for r in rows]
    windows = sum(r[4] for r in rows)
    # Throughput of the median round: every request's median latency over
    # its repeats, so a burst of host noise in one round does not move it.
    by_pair: Dict[tuple, List[float]] = {}
    pair_windows: Dict[tuple, int] = {}
    for r in rows:
        by_pair.setdefault((r[5], r[6]), []).append(r[0] / 1e3)
        pair_windows[(r[5], r[6])] = r[4]
    median_round_s = sum(float(np.median(v)) for v in by_pair.values())
    out = {
        "e2e": {
            "setup_s": float(np.median(setups)),
            "windows_per_s": len(records) * sum(pair_windows.values()) / median_round_s,
            "peak_rss_mb": daemon_peak,
            "latency_p50_ms": quantile(latency, 50),
            "latency_p95_ms": quantile(latency, 95),
        },
        "attempted": attempted,
        "failed": sum(failures),
        "info": {
            "requests": attempted, "windows": windows, "timed_s": wall, "wall_windows_per_s": windows / wall,
            "setups_s": setups, "oracle": oracle_stats, "width": sizes["width"], "max_batch": sizes["max_batch"],
            "pool_series": len(pool), "daemon_traces": _plan_total(after, "traces"),
        },
    }
    if tracer is not None:
        useful = sum(r[3] / r[2] for r in rows)
        padded = sum((1 << (r[3] - 1).bit_length()) / r[2] for r in rows)
        out["layers"] = {
            "serving.server.server_ms_p50": quantile([r[1] for r in rows], 50),
            "serving.transport_ms_p50": quantile([r[0] - r[1] for r in rows], 50),
            "serving.protocol.codec_s": tracer.inclusive_s("serving.protocol.codec"),
            "serving.server.requests_per_forward": float(np.mean([r[2] for r in rows])),
            "serving.server.useful_row_ratio": useful / padded,
            "nn.plan.traces": _plan_total(after, "traces"),
            "nn.plan.replays": _plan_total(after, "replays") - _plan_total(before, "replays"),
            "nn.plan.traces_live": _plan_total(after, "traces") - _plan_total(before, "traces"),
            "serving.server.rejected": after.get("rejected", 0),
            **_pool_stats(after),
        }
    return out
