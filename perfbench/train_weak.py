"""``train_weak``: Algorithm 1 (``train_ensemble``) on weak labels from a store.

Windows stream from an ingested ``MeterStore`` through
``StreamingWindows`` with weak (window-level) kettle labels, at the
camal@small width.  Candidates train serially for a fixed number of
epochs with early stopping off, so every pass does the same work; each
pass retrains from scratch with the same seed, which is also the
determinism check (every pass must select bit-identical weights).
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import numpy as np

import repro.core.ensemble as ensemble_mod
import repro.data.ingest as ingest_mod
import repro.nn.backend as backend_mod
import repro.nn.functional as functional_mod
import repro.training as training_pkg
import repro.training.loops as loops_mod
from repro import nn
from repro.core.resnet import ResNetTSC
from repro.data.streaming import StreamingWindows
from repro.nn.tensor import Tensor
from repro.training import TrainConfig

from . import inputs, oracle
from .checks import digest
from .common import check, fresh_dir, peak_rss_mb, quantile

WINDOW = 128
APPLIANCE = "kettle"
#: Held-out detection accuracy must beat the majority-class rate by this.
ACCURACY_MARGIN = 0.05


def _sizes(fast: bool):
    if fast:
        return {"width": "demo", "houses": (3, 1, 1), "days": 2, "epochs": 1, "trials": 1, "n_models": 2,
                "setups": 2}
    # Set-up takes tens of milliseconds, so its median needs many samples.
    return {"width": "small", "houses": (7, 2, 2), "days": 4, "epochs": 2, "trials": 2, "n_models": 3,
            "setups": 15}


def install_trace(tracer) -> None:
    tracer.wrap(ingest_mod, "ingest_corpus", "data.ingest")
    tracer.wrap(StreamingWindows, "__init__", "data.streaming.materialize")
    tracer.wrap(StreamingWindows, "as_window_set", "data.streaming.materialize")
    tracer.wrap(Tensor, "backward", "nn.tensor.backward")
    tracer.wrap(ResNetTSC, "forward", "nn.train_forward", when=lambda model, *a: model.training)
    for cls in (nn.optim.SGD, nn.optim.Adam, nn.optim.AdamW):
        if "step" in cls.__dict__:
            tracer.wrap(cls, "step", "nn.optim.step")
    for module in (loops_mod, ensemble_mod, training_pkg):
        tracer.wrap(module, "evaluate_classifier_loss", "training.eval")
    tracer.count(functional_mod, "conv1d", "nn.backend.conv_calls")
    tracer.count(backend_mod, "conv1d_fused", "nn.backend.conv_calls")


def _set_up(corpus, workdir: str, tag: str, splits) -> Dict[str, tuple]:
    store = ingest_mod.ingest_corpus(corpus, fresh_dir(os.path.join(workdir, f"store-{tag}")))
    out = {}
    for name, houses in splits.items():
        ws = StreamingWindows(store, APPLIANCE, house_ids=houses, window=WINDOW).as_window_set()
        out[name] = (ws.inputs, ws.weak)
    return out


def run(cfg, tracer) -> dict:
    sizes = _sizes(cfg.fast)
    n_train, n_val, n_test = sizes["houses"]
    total = n_train + n_val + n_test
    corpus = inputs.household_corpus("train", [sizes["days"] * 1440] * total, cfg.seed, submetered=[APPLIANCE])
    ids = corpus.house_ids
    splits = {"train": ids[:n_train], "val": ids[n_train:n_train + n_val], "test": ids[n_train + n_val:]}
    filters, kernels = inputs.WIDTHS[sizes["width"]]
    config = ensemble_mod.EnsembleConfig(
        kernel_set=kernels, n_trials=sizes["trials"], n_models=sizes["n_models"], filters=filters,
        train=TrainConfig(epochs=sizes["epochs"], batch_size=32, patience=0, seed=cfg.seed), seed=cfg.seed,
    )
    if tracer is not None:
        install_trace(tracer)

    setups = []
    for i in range(sizes["setups"]):
        t0 = time.perf_counter()
        data = _set_up(corpus, cfg.workdir, str(i), splits)
        setups.append(time.perf_counter() - t0)
    (x_tr, y_tr), (x_va, y_va), (x_te, y_te) = data["train"], data["val"], data["test"]
    check(0 < y_tr.mean() < 1 and 0 < y_te.mean() < 1, "weak labels are all one class")
    n_sub = max(1, int(round(config.train_sub_fraction * len(x_tr))))
    per_pass = n_sub * config.train.epochs * len(kernels) * config.n_trials

    # -- timed phase: whole Algorithm-1 passes ----------------------------
    elapsed, passes, window_epochs = 0.0, 0, 0
    latencies: List[float] = []
    digests: List[str] = []
    attempted = 0
    while passes < 2 or elapsed < cfg.seconds:
        t0 = time.perf_counter()
        ensemble, candidates = ensemble_mod.train_ensemble(x_tr, y_tr, x_va, y_va, config)
        elapsed += time.perf_counter() - t0
        passes += 1
        attempted += len(candidates)
        window_epochs += per_pass
        latencies.extend(c.wall_time_seconds * 1e3 for c in candidates)
        digests.append(digest(*(v for m in ensemble.models for _, v in sorted(m.state_dict().items()))))

    peak_mb = peak_rss_mb()  # before the checks below allocate their own plans

    # -- checks ------------------------------------------------------------
    check(len(set(digests)) == 1, f"passes with the same seed selected different weights: {digests}")
    ranked = sorted(candidates, key=lambda c: c.val_loss)
    check([id(m) for m in ensemble.models] == [id(c.model) for c in ranked[: config.n_models]],
          "selected ensemble is not the n_models candidates with the lowest validation loss")
    for c in candidates:
        ref = oracle.classifier_loss(c.model.state_dict(), x_va, y_va)
        check(abs(ref - c.val_loss) <= 1e-4 * max(1.0, abs(ref)),
              f"candidate k={c.kernel_size} t={c.trial}: val loss {c.val_loss:.6f} != oracle {ref:.6f}")
    accuracy = float(((ensemble.predict_proba(x_te, batch_size=32) > 0.5) == (y_te > 0.5)).mean())
    majority = float(max(y_te.mean(), 1.0 - y_te.mean()))
    if not cfg.fast:
        check(accuracy >= majority + ACCURACY_MARGIN,
              f"held-out accuracy {accuracy:.3f} does not beat the majority rate {majority:.3f} "
              f"by {ACCURACY_MARGIN}")

    out = {
        "e2e": {
            "setup_s": float(np.median(setups)),
            "windows_per_s": window_epochs / elapsed,
            "peak_rss_mb": peak_mb,
            "latency_p50_ms": quantile(latencies, 50),
            "latency_p95_ms": quantile(latencies, 95),
        },
        "attempted": attempted,
        "failed": 0,
        "info": {
            "candidates": attempted, "passes": passes, "window_epochs": window_epochs, "timed_s": elapsed,
            "setups_s": setups, "train_windows": len(x_tr), "positive_rate": float(y_tr.mean()),
            "heldout_accuracy": accuracy, "majority_rate": majority, "weights_blake2b": digests[0],
            "width": sizes["width"],
        },
    }
    if tracer is not None:
        out["layers"] = {
            "data.ingest_s": tracer.inclusive_s("data.ingest"),
            "data.streaming.materialize_s": tracer.inclusive_s("data.streaming.materialize"),
            "nn.tensor.backward_s": tracer.inclusive_s("nn.tensor.backward"),
            "nn.train_forward_s": tracer.inclusive_s("nn.train_forward"),
            "nn.optim.step_s": tracer.inclusive_s("nn.optim.step"),
            "training.eval_s": tracer.inclusive_s("training.eval"),
            "nn.backend.conv_calls": tracer.counts.get("nn.backend.conv_calls", 0),
        }
    return out
