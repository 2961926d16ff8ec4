"""Output checks shared by the scoring workloads."""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Hashable, Tuple

import numpy as np

from . import oracle
from .common import check

STATUS_THRESHOLD = 0.5


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float32).tobytes())
    return h.hexdigest()


def check_properties(key, soft: np.ndarray, status: np.ndarray, watts: np.ndarray, gate_watts: float) -> None:
    """Length, binary status, power gate, and status == soft >= threshold above the gate."""
    check(len(soft) == len(watts) and len(status) == len(watts),
          f"{key}: output length {len(status)} != input length {len(watts)}")
    check(bool(np.isin(status, (0.0, 1.0)).all()), f"{key}: status is not binary")
    gated = watts >= gate_watts
    check(not status[~gated].any(), f"{key}: status ON below the power gate")
    expected = ((soft >= STATUS_THRESHOLD) & gated).astype(np.float32)
    check(bool(np.array_equal(status, expected)), f"{key}: status differs from soft >= threshold above the gate")


def check_against_oracle(
    results: Dict[Hashable, Tuple[np.ndarray, np.ndarray]],
    series: Callable[[Hashable], np.ndarray],
    model: Callable[[Hashable], tuple],
    window: int,
    stride: int,
    gate_watts: float,
    seed: int,
    per_kind: int = 3,
) -> Dict[str, int]:
    """Compare a seeded sample of timestamps against the NumPy oracle.

    ``results`` maps a key to the program's ``(soft, status)``; ``series``
    gives the key's Watt input and ``model`` its ``(member states,
    detection threshold)``.  The sample takes ``per_kind`` ON timestamps,
    detected-but-OFF ones and uniform ones, so it covers both decisions.
    Soft scores must agree within 1e-4; status is compared where the
    oracle's soft score is clear of the threshold; timestamps whose window
    probability lies within 1e-4 of the detection threshold are skipped.
    """
    rng = np.random.default_rng(seed)
    keys = sorted(results)
    kinds = [
        lambda soft, status: status == 1,
        lambda soft, status: (soft > 0) & (status == 0),
        lambda soft, status: np.ones(len(soft), dtype=bool),
    ]
    wanted: Dict[Hashable, set] = {}
    for kind in kinds:
        pool = [(k, int(t)) for k in keys for t in np.flatnonzero(kind(*results[k]))]
        for i in rng.choice(len(pool), size=min(per_kind, len(pool)), replace=False):
            wanted.setdefault(pool[i][0], set()).add(pool[i][1])
    stats = {"timestamps": 0, "on": 0, "detected": 0, "skipped": 0}
    for key, stamps in sorted(wanted.items()):
        soft, status = results[key]
        states, threshold = model(key)
        stamps = sorted(stamps)
        ref = oracle.score_timestamps(states, series(key), stamps, window, stride, threshold,
                                      STATUS_THRESHOLD, gate_watts)
        for j, t in enumerate(stamps):
            if ref["proba_margin"][j] < 1e-4:
                stats["skipped"] += 1
                continue
            check(abs(ref["soft"][j] - soft[t]) <= 1e-4,
                  f"{key}@{t}: soft {soft[t]:.6f} != oracle {ref['soft'][j]:.6f}")
            if abs(ref["soft"][j] - STATUS_THRESHOLD) > 1e-3:
                check(ref["status"][j] == status[t], f"{key}@{t}: status {status[t]} != oracle {ref['status'][j]}")
            stats["timestamps"] += 1
            stats["on"] += int(status[t] == 1)
            stats["detected"] += int(ref["detected"][j])
    check(stats["on"] > 0 and stats["detected"] > 0,
          f"oracle sample is vacuous (no ON timestamp or detected window): {stats}")
    return stats
