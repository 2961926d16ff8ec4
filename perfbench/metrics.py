"""Metric names and units the command prints (BENCHMARK.json mirrors them).

Every workload prints every metric of the active set.  A per-layer
metric that a workload does not exercise (say, daemon metrics during
training) reads 0 there; README.md lists which workload moves which.
"""

END_TO_END = {
    "setup_s": "s",
    "windows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
}

PER_LAYER = {
    "data.store.read_s": "s",
    "data.ingest_s": "s",
    "data.streaming.materialize_s": "s",
    "serving.engine.warmup_s": "s",
    "serving.engine.localize_s": "s",
    "serving.engine.stitch_s": "s",
    "core.ensemble.forward_s": "s",
    "nn.plan.replay_s": "s",
    "core.grouped.trace_s": "s",
    "nn.plan.traces": "count",
    "nn.plan.replays": "count",
    "core.grouped.gflop_per_s": "GFLOP/s",
    "host.sgemm_gflop_per_s": "GFLOP/s",
    "nn.backend.gemm_calls_per_window": "count",
    "nn.pool.pinned_mb": "MB",
    "nn.pool.buffers": "count",
    "nn.pool.reuses": "count",
    "serving.server.server_ms_p50": "ms",
    "serving.transport_ms_p50": "ms",
    "serving.protocol.codec_s": "s",
    "serving.server.requests_per_forward": "count",
    "serving.server.useful_row_ratio": "ratio",
    "nn.plan.traces_live": "count",
    "serving.server.rejected": "count",
    "nn.tensor.backward_s": "s",
    "nn.train_forward_s": "s",
    "nn.optim.step_s": "s",
    "training.eval_s": "s",
    "nn.backend.conv_calls": "count",
    "trace.spans": "count",
    "trace.overhead_est_pct": "%",
    "trace.windows_per_s": "1/s",
}
