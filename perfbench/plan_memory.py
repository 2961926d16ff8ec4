"""Bytes a traced eval plan pins per batch row, by CamAL width.

    python3 -m perfbench.plan_memory

Warms one seeded ensemble per width (``paper``, ``small``, ``demo``) at
``store_paper``'s micro-batch size and divides the buffer pool's
allocation by the batch rows.  This is the figure behind the batch and
max-batch sizes the workloads use (README.md).
"""

from __future__ import annotations

import sys

from perfbench import inputs
from perfbench.store_paper import BATCH


def main() -> int:
    from repro.core import CamAL, ResNetEnsemble
    from repro.serving import EngineConfig, InferenceEngine

    for width in ("paper", "small", "demo"):
        engine = InferenceEngine(EngineConfig(window=128, batch_size=BATCH))
        engine.register("a", CamAL(ResNetEnsemble(inputs.seeded_members(width, seed=1))))
        engine.warmup()
        pool = engine.buffer_pool_stats()["a"]
        print(f"{width}: {pool['bytes_allocated'] / 1e6 / BATCH:.2f} MB per batch row "
              f"({pool['fresh_allocations']} buffers, {pool['reuses']} reuses, batch {BATCH})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
