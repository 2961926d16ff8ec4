"""Independent NumPy CamAL forward, built only from member ``state_dict``s.

Nothing here imports ``repro``: the oracle re-derives the paper's
pipeline from the weights so the benchmark can check the program's
outputs without trusting any of its kernels.

* ResNet member (Fig. 4): three residual units of Conv1d -> eval
  BatchNorm -> ReLU blocks with kernels ``(k_p, 5, 3)``, a 1x1 shortcut
  when the channel count changes, ReLU after the residual add, global
  average pooling, linear head, softmax.  Convolutions are direct
  'same'-padded sums over taps, in float64.
* Localization (§IV-B): CAM of class 1 (Definition II.1) normalized by
  its per-window max (zero when the max is not positive), member mean,
  ``sigmoid(cam * x)`` attention on detected windows, the status
  threshold, and the power gate on the unscaled aggregate.
* Series: edge-padded sliding windows and the overlap-mean stitch.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

SCALE = 1000.0  # the paper's kW scaling of the aggregate
BN_EPS = 1e-5


def conv_same(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """'Same'-padded stride-1 conv of ``x (N, C_in, L)`` by ``weight (C_out, C_in, K)``."""
    n, _, length = x.shape
    c_out, _, k = weight.shape
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, k - 1 - pad)))
    out = np.zeros((n, c_out, length))
    for tap in range(k):
        out += np.einsum("oc,ncl->nol", weight[:, :, tap], xp[:, :, tap : tap + length])
    return out + bias[None, :, None]


def batch_norm_eval(x: np.ndarray, state: Dict[str, np.ndarray], prefix: str) -> np.ndarray:
    mean = state[prefix + "running_mean"][None, :, None]
    var = state[prefix + "running_var"][None, :, None]
    gamma = state[prefix + "gamma"][None, :, None]
    beta = state[prefix + "beta"][None, :, None]
    return (x - mean) / np.sqrt(var + BN_EPS) * gamma + beta


def _block(x: np.ndarray, state: Dict[str, np.ndarray], prefix: str) -> np.ndarray:
    y = conv_same(x, state[prefix + "conv.weight"], state[prefix + "conv.bias"])
    return np.maximum(batch_norm_eval(y, state, prefix + "norm."), 0.0)


def member_forward(state: Dict[str, np.ndarray], x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(logits (N, 2), last feature maps (N, C, L))`` of one member."""
    state = {k: np.asarray(v, dtype=np.float64) for k, v in state.items()}
    h = np.asarray(x, dtype=np.float64)[:, None, :]
    for unit in ("unit1.", "unit2.", "unit3."):
        out = h
        for block in ("block1.", "block2.", "block3."):
            out = _block(out, state, unit + block)
        if unit + "shortcut.weight" in state:
            residual = conv_same(h, state[unit + "shortcut.weight"], state[unit + "shortcut.bias"])
        else:
            residual = h
        h = np.maximum(out + residual, 0.0)
    pooled = h.mean(axis=2)
    logits = pooled @ state["head.weight"].T + state["head.bias"]
    return logits, h


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def ensemble_forward(states: Sequence[Dict[str, np.ndarray]], x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Ensemble detection probability ``(N,)`` and mean normalized CAM ``(N, L)``."""
    proba = 0.0
    cam_sum = 0.0
    for state in states:
        logits, feats = member_forward(state, x)
        proba = proba + softmax(logits)[:, 1]
        raw = np.einsum("c,ncl->nl", np.asarray(state["head.weight"], np.float64)[1], feats)
        peak = raw.max(axis=1, keepdims=True)
        cam_sum = cam_sum + np.where(peak > 1e-8, raw / np.where(peak > 1e-8, peak, 1.0), 0.0)
    return proba / len(states), cam_sum / len(states)


def localize_windows(
    states: Sequence[Dict[str, np.ndarray]], windows_kw: np.ndarray, detection_threshold: float
) -> Dict[str, np.ndarray]:
    """Per-window proba, detection flag and soft status for scaled windows."""
    proba, cam = ensemble_forward(states, windows_kw)
    detected = proba > detection_threshold
    soft = np.where(detected[:, None], 1.0 / (1.0 + np.exp(-cam * windows_kw)), 0.0)
    return {"proba": proba, "detected": detected, "soft": soft}


def window_starts(n_samples: int, window: int, stride: int) -> List[int]:
    """Start of every window covering a series (tail edge-padded, never dropped)."""
    if n_samples <= window:
        return [0]
    count = -(-(n_samples - window) // stride) + 1
    return [i * stride for i in range(count)]


def padded_window(series: np.ndarray, start: int, window: int) -> np.ndarray:
    seg = series[start : start + window]
    if len(seg) < window:
        seg = np.concatenate([seg, np.full(window - len(seg), series[-1], dtype=seg.dtype)])
    return seg


def score_timestamps(
    states: Sequence[Dict[str, np.ndarray]],
    series_watts: np.ndarray,
    timestamps: Sequence[int],
    window: int,
    stride: int,
    detection_threshold: float,
    status_threshold: float,
    gate_watts: float,
) -> Dict[str, np.ndarray]:
    """Stitched soft score, status and covering-window facts at ``timestamps``.

    Only the windows covering the requested timestamps are computed, so a
    seeded sample of a long series costs a handful of window forwards.
    """
    series_watts = np.asarray(series_watts, dtype=np.float32)
    starts = window_starts(len(series_watts), window, stride)
    needed = sorted({s for t in timestamps for s in starts if s <= t < s + window})
    index = {s: i for i, s in enumerate(needed)}
    windows = np.stack([padded_window(series_watts, s, window) for s in needed])
    windows_kw = windows.astype(np.float32) / np.float32(SCALE)
    out = localize_windows(states, windows_kw, detection_threshold)
    soft, status, margin, detected = [], [], [], []
    for t in timestamps:
        cover = [index[s] for s in needed if s <= t < s + window]
        value = float(np.mean([out["soft"][i, t - needed[i]] for i in cover]))
        soft.append(value)
        status.append(float(value >= status_threshold and series_watts[t] >= gate_watts))
        margin.append(min(abs(out["proba"][i] - detection_threshold) for i in cover))
        detected.append(any(out["detected"][i] for i in cover))
    return {
        "soft": np.asarray(soft),
        "status": np.asarray(status),
        "proba_margin": np.asarray(margin),
        "detected": np.asarray(detected),
    }


def classifier_loss(state: Dict[str, np.ndarray], x: np.ndarray, y: np.ndarray) -> float:
    """Mean softmax cross-entropy of one member over windows ``x`` (eval mode)."""
    logits, _ = member_forward(state, x)
    z = logits - logits.max(axis=1, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_p[np.arange(len(y)), np.asarray(y, dtype=np.int64)].mean())
