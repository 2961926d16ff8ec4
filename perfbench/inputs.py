"""Seeded inputs: household corpora, model fleets and request pools.

Every generator takes the run's ``--seed``; the same seed gives the same
arrays.  Fleets are *seeded, untrained* CamAL ensembles: a benchmark of
the scoring paths needs real architectures and realistic weights, not a
converged model, and training a paper-width ensemble would dwarf the run.
Batch-norm statistics and affine terms are randomized (so the oracle's
eval-BN is exercised) and each head is calibrated on seeded windows so
that detection probabilities spread instead of clustering at one value.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.api.persistence import save_estimator
from repro.core import CamAL, ResNetConfig, ResNetEnsemble, ResNetTSC
from repro.simdata.corpora import Corpus
from repro.simdata.household import HouseholdConfig, simulate_household

from . import oracle

#: Named widths: (filters, kernel set).  ``paper`` is camal@paper,
#: ``small`` is camal@small, ``demo`` is the width of ``repro serve --demo``.
WIDTHS = {
    "paper": ((64, 128, 128), (5, 7, 9, 15, 25)),
    "small": ((32, 64, 64), (3, 5, 9)),
    "demo": ((8, 16, 16), (5, 7, 9)),
}

#: Households' appliance usage: every house owns every target appliance,
#: so detected windows and ON timestamps occur in every corpus.
USAGE = {"kettle": 1.4, "dishwasher": 1.0, "microwave": 1.0, "washing_machine": 0.8}


def household_corpus(name: str, lengths: Sequence[int], seed: int, submetered: Sequence[str] = ()) -> Corpus:
    """Gap-free 1-minute households with exactly ``lengths[i]`` samples each."""
    rng = np.random.default_rng(seed)
    houses = []
    for i, n in enumerate(lengths):
        config = HouseholdConfig(
            house_id=f"{name}_h{i:02d}",
            owned=dict(USAGE),
            submetered=list(submetered),
            days=n / 1440.0,
            dt_seconds=60.0,
            noise_watts=float(rng.uniform(12.0, 30.0)),
        )
        houses.append(simulate_household(config, rng))
    return Corpus(
        name=name,
        houses=houses,
        dt_seconds=60.0,
        max_ffill_samples=3,
        target_appliances=list(submetered) or ["kettle"],
        submetered_house_ids=[h.house_id for h in houses] if submetered else [],
    )


def ragged_lengths(n_windows: Sequence[int], window: int, stride: int, seed: int) -> List[int]:
    """Sample counts giving exactly ``n_windows[i]`` windows, with seeded jitter.

    A series of ``window + stride*(k-2) + e`` samples, ``1 <= e <= stride``,
    is covered by exactly ``k`` windows; the seed draws ``e``.
    """
    rng = np.random.default_rng(seed)
    return [window + stride * (k - 2) + int(rng.integers(1, stride + 1)) for k in n_windows]


def seeded_members(width: str, seed: int) -> List[ResNetTSC]:
    """Eval-mode ResNet members with randomized BN state (heads uncalibrated)."""
    filters, kernels = WIDTHS[width]
    rng = np.random.default_rng(seed)
    models = []
    for i, k in enumerate(kernels):
        model = ResNetTSC(ResNetConfig(kernel_size=k, filters=filters, seed=seed * 100 + i))
        state = model.state_dict()
        for key, value in state.items():
            if key.endswith("norm.gamma"):
                state[key] = rng.uniform(0.6, 1.4, value.shape)
            elif key.endswith("norm.beta"):
                state[key] = rng.normal(0.0, 0.1, value.shape)
            elif key.endswith("running_mean"):
                state[key] = rng.normal(0.0, 0.05, value.shape)
            elif key.endswith("running_var"):
                state[key] = rng.uniform(0.5, 2.0, value.shape)
            elif key == "head.weight":
                # Class 1's row leans positive so detected windows carry
                # mostly positive CAMs, as a trained detector's do.
                state[key] = rng.normal(0.0, 1.0, value.shape) + np.array([[0.0], [1.0]])
        model.load_state_dict({k: np.asarray(v, dtype=np.float32) for k, v in state.items()})
        model.eval()
        models.append(model)
    return models


def member_states(models: Sequence[ResNetTSC]) -> List[Dict[str, np.ndarray]]:
    return [m.state_dict() for m in models]


def calibrate_heads(models: Sequence[ResNetTSC], windows_kw: np.ndarray, share: float = 0.3) -> float:
    """Scale and shift each head so detection probabilities spread; return a threshold.

    For every member the oracle's pooled features on the calibration
    windows set the head's scale (logit-gap spread of about 2) and bias
    (median gap 0).  Scaling a head row by a positive factor leaves the
    max-normalized CAM unchanged.  The returned detection threshold has
    ``share`` of the calibration windows below it, so every fleet both
    detects and rejects windows and the oracle check is never vacuous.
    """
    proba = 0.0
    for model in models:
        state = model.state_dict()
        _, feats = oracle.member_forward(state, windows_kw)
        pooled = feats.mean(axis=2)
        w = state["head.weight"].astype(np.float64)
        gap = pooled @ (w[1] - w[0])
        scale = 2.0 / max(float(gap.std()), 1e-6)
        state["head.weight"] = (w * scale).astype(np.float32)
        state["head.bias"] = np.array([0.0, -np.median(gap) * scale], dtype=np.float32)
        model.load_state_dict(state)
        proba = proba + 1.0 / (1.0 + np.exp(-(gap - np.median(gap)) * scale))
    proba = np.sort(proba / len(models))
    cut = max(1, int(round(share * len(proba))))
    return float((proba[cut - 1] + proba[cut]) / 2.0)


def calibration_windows(series: Sequence[np.ndarray], window: int, count: int, seed: int) -> np.ndarray:
    """``count`` seeded scaled windows cut from the given Watt series."""
    rng = np.random.default_rng(seed)
    series = [s for s in series if len(s) >= window]
    out = []
    for i in range(count):
        s = series[i % len(series)]
        start = int(rng.integers(0, len(s) - window + 1))
        out.append(np.asarray(s[start : start + window], dtype=np.float32) / np.float32(oracle.SCALE))
    return np.stack(out)


def build_fleet(
    root: str,
    width: str,
    appliances: Sequence[str],
    calib_series: Sequence[np.ndarray],
    window: int,
    gate_watts: float,
    seed: int,
    calib_count: int = 24,
) -> Dict[str, Tuple[List[Dict[str, np.ndarray]], float]]:
    """Save one seeded CamAL per appliance under ``root/<appliance>``.

    Returns ``{appliance: (member states, detection threshold)}`` for the
    oracle.
    """
    fleet = {}
    for j, appliance in enumerate(appliances):
        models = seeded_members(width, seed * 10 + j + 1)
        windows = calibration_windows(calib_series, window, calib_count, seed * 10 + j + 1)
        threshold = calibrate_heads(models, windows)
        states = member_states(models)
        camal = CamAL(
            ResNetEnsemble(models),
            detection_threshold=threshold,
            power_gate_watts=gate_watts,
            status_threshold=0.5,
        )
        save_estimator(camal, os.path.join(root, appliance))
        fleet[appliance] = (states, threshold)
    return fleet


def request_pool(series: np.ndarray, count: int, min_len: int, max_len: int, seed: int) -> List[np.ndarray]:
    """``count`` Watt segments with stratified seeded lengths in ``[min_len, max_len]``.

    Stratifying the lengths keeps the pool's length mix (and so the work
    per request) the same for every seed while the segments themselves
    are seed-drawn.
    """
    rng = np.random.default_rng(seed)
    span = max_len - min_len
    pool = []
    for k in range(count):
        length = min_len + int((k + rng.random()) * span / count)
        start = int(rng.integers(0, len(series) - length + 1))
        pool.append(np.ascontiguousarray(series[start : start + length], dtype=np.float32))
    return pool
