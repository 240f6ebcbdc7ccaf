"""Analytical latency model (paper Appendix A) and parallelism adjustments.

Each Appendix A term — GEMM, prefill attention and decode attention
(:mod:`.coefficients`), TP all-reduce, activation transfer and pipeline
assembly (:mod:`.parallel`) — is written once. The per-request
evaluators (:func:`prefill_latency`, :func:`decode_step_latency`,
:func:`mixed_batch_latency`, :func:`prefill_times`,
:func:`decode_times`) and the O(1) timers the simulator caches
(:class:`DecodeStepTimer`, :class:`PrefillBatchTimer`) all compose those
functions with the same operation grouping, so they agree bitwise.
"""

from .coefficients import (
    DEFAULT_ATTENTION_BLOCK_SIZE,
    LatencyCoefficients,
    ProfileSample,
    coefficients_from_roofline,
    fit_coefficients,
)
from .comm import kv_cache_bytes, kv_transfer_time, required_bandwidth
from .decode import compute_bound_batch_size, decode_step_latency, decode_throughput
from .parallel import (
    DecodeStepTimer,
    ExecutionTimes,
    ParallelismConfig,
    PrefillBatchTimer,
    decode_times,
    intra_op_speedup,
    prefill_times,
    tp_allreduce_time_per_layer,
)
from .mixed import mixed_batch_latency
from .prefill import prefill_latency, prefill_throughput, saturation_length

__all__ = [
    "DEFAULT_ATTENTION_BLOCK_SIZE",
    "LatencyCoefficients",
    "ProfileSample",
    "coefficients_from_roofline",
    "fit_coefficients",
    "kv_cache_bytes",
    "kv_transfer_time",
    "required_bandwidth",
    "compute_bound_batch_size",
    "decode_step_latency",
    "decode_throughput",
    "ExecutionTimes",
    "ParallelismConfig",
    "decode_times",
    "intra_op_speedup",
    "prefill_times",
    "tp_allreduce_time_per_layer",
    "DecodeStepTimer",
    "PrefillBatchTimer",
    "mixed_batch_latency",
    "prefill_latency",
    "prefill_throughput",
    "saturation_length",
]
