"""Shared helpers: host fingerprint, sgemm ceiling, memory, work dirs, checks."""

from __future__ import annotations

import os
import resource
import shutil
import time
from typing import Dict, Optional, Sequence

import numpy as np


class CheckFailed(AssertionError):
    """A property or oracle check on the program's outputs failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sgemm_ceiling_gflops(m: int = 512, k: int = 3200, n: int = 4096, repeats: int = 3) -> float:
    """Best-of-``repeats`` GFLOP/s of one float32 ``(m, k) @ (k, n)`` on this host."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k), dtype=np.float32)
    b = rng.standard_normal((k, n), dtype=np.float32)
    out = np.empty((m, n), dtype=np.float32)
    np.matmul(a, b, out=out)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, time.perf_counter() - t0)
    return 2.0 * m * k * n / best / 1e9


def blas_info() -> Dict[str, str]:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": str(blas.get("name")), "version": str(blas.get("version"))}
    except Exception:  # noqa: BLE001 - older numpy: fingerprint stays partial
        return {"name": "unknown", "version": "unknown"}


def host_fingerprint(ceiling_gflops: float) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "blas": blas_info(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "sgemm_gflop_per_s": round(ceiling_gflops, 2),
    }


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of ``pid`` (default: this process), in MB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def quantile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
