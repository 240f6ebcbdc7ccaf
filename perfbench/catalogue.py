"""Every metric the benchmark reports: name, unit, better direction, layer.

``BENCHMARK.json`` at the repository root lists the same names; the
tests check that the two agree. ``METRICS.md`` beside this file says
which end-to-end metric each layer metric should move, and on which
workload.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str


WORKLOADS = ("plan", "replay-disagg", "replay-colocated", "replay-observed")

#: Host metrics reported with ``--trace 0``, with their regression bounds.
END_TO_END = (
    Metric("setup_s", "s", "lower", "host"),
    Metric("wall_s", "s", "lower", "host"),
    Metric("peak_rss_mb", "MB", "lower", "host"),
)

BOUNDS = {"setup_s": 0.25, "wall_s": 0.25, "peak_rss_mb": 0.15}

#: Simulated end-to-end results. They describe the modelled serving
#: system, repeat exactly at a fixed seed, and are printed in both modes.
SIMULATED = (
    Metric("goodput_per_gpu", "req/s/GPU", "higher", "simulated"),
    Metric("ttft_p50_s", "s", "lower", "simulated"),
    Metric("ttft_p99_s", "s", "lower", "simulated"),
    Metric("tpot_p50_s", "s", "lower", "simulated"),
    Metric("tpot_p99_s", "s", "lower", "simulated"),
    Metric("slo_attainment", "fraction", "higher", "simulated"),
    Metric("failed_share", "fraction", "lower", "simulated"),
)

#: Metrics reported with ``--trace 1``: the simulated results plus one
#: group per layer of the program and the cost of tracing itself.
PER_LAYER = SIMULATED + (
    Metric("workload.generate_s", "s", "lower", "workload"),
    Metric("workload.requests", "count", "lower", "workload"),
    Metric("workload.over_max_seq_len", "count", "lower", "workload"),
    Metric("search.configs_evaluated", "count", "lower", "core.search"),
    Metric("search.configs_pruned", "count", "higher", "core.search"),
    Metric("search.trials", "count", "lower", "core.search"),
    Metric("search.cache_hit_rate", "fraction", "higher", "core.search"),
    Metric("search.trials_aborted", "count", "higher", "core.search"),
    Metric("search.trials_truncated", "count", "lower", "core.search"),
    Metric("search.fingerprint_s", "s", "lower", "core.search"),
    Metric("search.self_s", "s", "lower", "core.search"),
    Metric("goodput.searches", "count", "lower", "core.goodput"),
    Metric("goodput.probes_per_search", "count", "lower", "core.goodput"),
    Metric("goodput.trial_s", "s", "lower", "core.goodput"),
    Metric("goodput.trial_p50_ms", "ms", "lower", "core.goodput"),
    Metric("goodput.trial_tail_ms", "ms", "lower", "core.goodput"),
    Metric("goodput.trial_tail_pct", "percentile", "higher", "core.goodput"),
    Metric("goodput.requests_simulated", "count", "lower", "core.goodput"),
    Metric("goodput.aborted_share", "fraction", "higher", "core.goodput"),
    Metric("serving.simulate_s", "s", "lower", "serving"),
    Metric("serving.completed", "count", "higher", "serving"),
    Metric("serving.unfinished", "count", "lower", "serving"),
    Metric("serving.rejections", "count", "lower", "serving"),
    Metric("events.processed", "count", "lower", "simulator.events"),
    Metric("events.per_request", "count", "lower", "simulator.events"),
    Metric("events.host_us_per_event", "us", "lower", "simulator.events"),
    Metric("request.record_tokens_calls", "count", "lower", "simulator.request"),
    Metric("request.to_record_calls", "count", "lower", "simulator.request"),
    Metric("request.self_s", "s", "lower", "simulator.request"),
    Metric("decode.self_s", "s", "lower", "simulator.decode_instance"),
    Metric("decode.steps", "count", "lower", "simulator.decode_instance"),
    Metric("decode.mean_batch", "tokens/step", "higher", "simulator.decode_instance"),
    Metric("decode.preemptions", "count", "lower", "simulator.decode_instance"),
    Metric("decode.busy_frac", "fraction", "lower", "simulator.decode_instance"),
    Metric("decode.queue_p99_s", "s", "lower", "simulator.decode_instance"),
    Metric("prefill.self_s", "s", "lower", "simulator.prefill_instance"),
    Metric("prefill.batches", "count", "lower", "simulator.prefill_instance"),
    Metric("prefill.mean_batch_tokens", "tokens", "higher", "simulator.prefill_instance"),
    Metric("prefill.busy_frac", "fraction", "lower", "simulator.prefill_instance"),
    Metric("prefill.queue_p99_s", "s", "lower", "simulator.prefill_instance"),
    Metric("colocated.self_s", "s", "lower", "simulator.colocated_instance"),
    Metric("colocated.iterations_prefill", "count", "lower", "simulator.colocated_instance"),
    Metric("colocated.iterations_decode", "count", "lower", "simulator.colocated_instance"),
    Metric("colocated.iterations_mixed", "count", "lower", "simulator.colocated_instance"),
    Metric("colocated.preemptions", "count", "lower", "simulator.colocated_instance"),
    Metric("colocated.busy_frac", "fraction", "lower", "simulator.colocated_instance"),
    Metric("kv.self_s", "s", "lower", "simulator.kvcache"),
    Metric("kv.append_calls", "count", "lower", "simulator.kvcache"),
    Metric("transfer.count", "count", "lower", "simulator.transfer"),
    Metric("transfer.bytes", "B", "lower", "simulator.transfer"),
    Metric("transfer.time_p99_s", "s", "lower", "simulator.transfer"),
    Metric("transfer.stall_s", "s", "lower", "simulator.transfer"),
    Metric("latency.calls", "count", "lower", "latency"),
    Metric("latency.self_s", "s", "lower", "latency"),
    Metric("scheduling.self_s", "s", "lower", "scheduling"),
    Metric("analysis.slo_s", "s", "lower", "analysis"),
    Metric("critpath.build_s", "s", "lower", "analysis"),
    Metric("obs.spans", "count", "lower", "observability"),
    Metric("obs.exec_events", "count", "lower", "observability"),
    Metric("obs.self_s", "s", "lower", "observability"),
    Metric("obs.overhead_x", "x", "lower", "observability"),
    Metric("trace.overhead_x", "x", "lower", "benchmark"),
    Metric("trace.profile_coverage", "fraction", "higher", "benchmark"),
)

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
