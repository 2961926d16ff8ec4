"""Fast self-tests of the benchmark (tiny sizes, about half a minute).

Run from the repository root::

    python3 -m pytest perfbench/fastcheck.py -q

The file name keeps it out of the repository's default ``pytest`` run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import ROOT, inputs, oracle
from perfbench.metrics import END_TO_END, PER_LAYER
from repro.core import CamAL, ResNetEnsemble
from repro.serving import EngineConfig, InferenceEngine

WORKLOADS = ("store_paper", "serve_mixed", "train_weak")


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_oracle_agrees_with_program_on_demo_fleet():
    corpus = inputs.household_corpus("t", [900, 700], seed=5)
    models = inputs.seeded_members("demo", seed=5)
    windows = inputs.calibration_windows([h.aggregate for h in corpus.houses], 128, 24, seed=5)
    threshold = inputs.calibrate_heads(models, windows)
    states = inputs.member_states(models)
    camal = CamAL(ResNetEnsemble(models), detection_threshold=threshold, power_gate_watts=500.0)

    proba, cam = oracle.ensemble_forward(states, windows)
    fused = camal.ensemble.forward_fused(windows, batch_size=8)
    np.testing.assert_allclose(fused.proba, proba, atol=1e-5)
    np.testing.assert_allclose(fused.cam, cam, atol=1e-4)

    engine = InferenceEngine(EngineConfig(window=128, stride=64, batch_size=8))
    engine.register("kettle", camal)
    for house in corpus.houses:
        result = engine.run(house.aggregate).per_appliance["kettle"]
        stamps = list(range(len(house.aggregate)))
        ref = oracle.score_timestamps(states, house.aggregate, stamps, 128, 64, threshold, 0.5, 500.0)
        clear = ref["proba_margin"] > 1e-4
        assert clear.mean() > 0.9
        np.testing.assert_allclose(result.soft_status[clear], ref["soft"][clear], atol=1e-4)
        decided = clear & (np.abs(ref["soft"] - 0.5) > 1e-3)
        np.testing.assert_array_equal(result.status[decided], ref["status"][decided])
        assert ref["detected"].any() and ref["status"].any()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metrics_match_benchmark_json(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--fast"])
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _bench_json()["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert printed == (PER_LAYER if trace else END_TO_END)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "store_paper", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
