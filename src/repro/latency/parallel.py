"""Parallelism-aware execution times: tensor (intra-op) and pipeline (inter-op).

§3 of the paper analyses how the two forms of model parallelism reshape
latency:

* **Intra-op (tensor) parallelism** divides each layer's GEMMs across
  GPUs — execution time drops by a factor ``K`` with ``1 < K < tp`` due to
  the two all-reduces every transformer layer performs.
* **Inter-op (pipeline) parallelism** splits layers into stages — request
  latency stays roughly flat (``D ≈ Ds ≈ pp × Dm``) while the pipeline
  slot time ``Dm`` (and hence throughput) improves almost linearly.

This module turns a (model, :class:`ParallelismConfig`) pair into the two
numbers the simulator consumes: the *request latency* (one batch through
all stages) and the *stage time* (how long a pipeline slot is occupied,
the throughput-limiting quantity).

Two evaluator families share every term. The list-based
:func:`prefill_times`/:func:`decode_times` take per-request lengths;
the O(1) :class:`DecodeStepTimer`/:class:`PrefillBatchTimer` used by
the simulator take only the batch totals those lengths enter through,
and cache whatever depends on the batch size alone. Both call the same
term functions — :func:`~repro.latency.coefficients.gemm_time`, the two
attention terms, :func:`tp_allreduce_time_per_layer`,
:func:`activation_transfer_time` and :func:`pipeline_assembler` — and
add them in the same grouping, so they agree bitwise by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .coefficients import (
    LatencyCoefficients,
    decode_attention_time,
    gemm_time,
    prefill_attention_time,
)
from .decode import decode_step_latency
from .prefill import prefill_latency
from ..hardware.network import NVLINK, NetworkLink
from ..models.architecture import ModelArchitecture

__all__ = [
    "ParallelismConfig",
    "ExecutionTimes",
    "tp_allreduce_time_per_layer",
    "activation_transfer_time",
    "pipeline_assembler",
    "pipeline_times",
    "prefill_times",
    "decode_times",
    "DecodeStepTimer",
    "PrefillBatchTimer",
    "intra_op_speedup",
]


@dataclass(frozen=True)
class ParallelismConfig:
    """A (tensor parallel, pipeline parallel) degree pair.

    Attributes:
        tp: Intra-operator (tensor) parallel degree.
        pp: Inter-operator (pipeline) parallel degree.
    """

    tp: int = 1
    pp: int = 1

    def __post_init__(self) -> None:
        if self.tp <= 0 or self.pp <= 0:
            raise ValueError(f"parallel degrees must be positive, got tp={self.tp} pp={self.pp}")

    @property
    def num_gpus(self) -> int:
        """GPUs one instance with this configuration occupies."""
        return self.tp * self.pp

    def is_valid_for(self, model: ModelArchitecture) -> bool:
        """Whether the model can be partitioned this way."""
        return model.num_heads % self.tp == 0 and model.num_layers >= self.pp

    def __str__(self) -> str:
        return f"tp{self.tp}pp{self.pp}"


@dataclass(frozen=True)
class ExecutionTimes:
    """Latency decomposition of one batch under a parallelism config.

    Attributes:
        request_latency: Seconds from batch entering stage 0 to leaving the
            last stage — what a single request experiences (``Ds``).
        stage_time: Seconds the slowest pipeline stage is occupied
            (``Dm``); the pipeline admits a new batch every ``stage_time``.
    """

    request_latency: float
    stage_time: float

    def __post_init__(self) -> None:
        if self.stage_time < 0 or self.request_latency < 0:
            raise ValueError("times must be non-negative")
        if self.stage_time > self.request_latency + 1e-12:
            raise ValueError("stage_time cannot exceed request_latency")


def tp_allreduce_time_per_layer(
    model: ModelArchitecture,
    num_tokens: int,
    tp: int,
    link: NetworkLink = NVLINK,
) -> float:
    """Per-layer all-reduce cost of ``tp``-way tensor parallelism.

    Each transformer layer all-reduces the activations twice (after
    attention output and after FFN output). A ring all-reduce moves
    ``2 (tp-1)/tp × bytes`` per GPU. This communication is what makes the
    intra-op speedup coefficient ``K`` of Eq. 3 less than ``tp``.
    """
    if tp <= 1:
        return 0.0
    bytes_per = num_tokens * model.hidden_size * model.bytes_per_param
    ring_factor = 2.0 * (tp - 1) / tp
    one_allreduce = link.latency * (tp - 1) + ring_factor * bytes_per / link.bandwidth
    return 2.0 * one_allreduce


def activation_transfer_time(
    model: ModelArchitecture, num_tokens: int, pp: int, link: NetworkLink = NVLINK
) -> float:
    """Seconds one stage takes to hand ``num_tokens`` activations onward.

    Zero without pipeline parallelism: a single stage sends nothing.
    """
    if pp <= 1:
        return 0.0
    return link.time_for(num_tokens * model.activation_bytes_per_token())


def pipeline_assembler(
    num_layers: int,
    pp: int,
    activation_transfer: float,
    iteration_overhead: float,
) -> "Callable[[float], tuple[float, float]]":
    """Per-layer cost -> ``(request_latency, stage_time)`` for one pipeline.

    ``activation_transfer`` is the per-hop send time, which
    :func:`activation_transfer_time` makes zero without pipelining. The
    per-iteration engine overhead (scheduler, sampling, microbatch
    handling) is host-side work every stage performs for every batch: it
    lands once on the stage cadence and ``pp`` times on the request
    latency — deep pipelines pay it at every hop, which is part of why
    real searches stop at modest inter-op degrees.

    Everything but the per-layer cost is bound up front, so a caller
    holding a fixed batch (a decode run) pays only the assembly itself.
    """
    layers_slowest = -(-num_layers // pp)
    request_transfer = (pp - 1) * activation_transfer
    request_overhead = pp * iteration_overhead

    def assemble(per_layer_time: float) -> "tuple[float, float]":
        stage = layers_slowest * per_layer_time + activation_transfer + iteration_overhead
        request = num_layers * per_layer_time + request_transfer + request_overhead
        # max(request, stage), without the builtin call on the hot path.
        return (stage if stage > request else request), stage

    return assemble


def pipeline_times(
    per_layer_time: float,
    num_layers: int,
    pp: int,
    activation_transfer: float,
    iteration_overhead: float,
) -> "tuple[float, float]":
    """``(request_latency, stage_time)`` assembled from a per-layer cost."""
    return pipeline_assembler(
        num_layers, pp, activation_transfer, iteration_overhead
    )(per_layer_time)


def _check_config(model: ModelArchitecture, config: ParallelismConfig) -> None:
    if not config.is_valid_for(model):
        raise ValueError(f"{config} is invalid for model {model.name}")


def prefill_times(
    model: ModelArchitecture,
    config: ParallelismConfig,
    coeffs: LatencyCoefficients,
    input_lens: "list[int]",
    tp_link: NetworkLink = NVLINK,
    pp_link: NetworkLink = NVLINK,
) -> ExecutionTimes:
    """Execution times of one prefill batch under ``config``.

    Args:
        model: *Full* (un-sharded) model architecture.
        config: Parallelism degrees; must satisfy
            :meth:`ParallelismConfig.is_valid_for`.
        coeffs: Latency coefficients.
        input_lens: Prompt lengths in the batch.
        tp_link: Link used by tensor-parallel all-reduces.
        pp_link: Link used by inter-stage activation sends.
    """
    _check_config(model, config)
    tokens = sum(input_lens)
    if tokens == 0:
        return ExecutionTimes(0.0, 0.0)
    per_layer = prefill_latency(
        model, coeffs, input_lens, num_layers=1, tp=config.tp
    ) + tp_allreduce_time_per_layer(model, tokens, config.tp, tp_link)
    act = activation_transfer_time(model, tokens, config.pp, pp_link)
    return ExecutionTimes(*pipeline_times(
        per_layer, model.num_layers, config.pp, act, coeffs.iteration_overhead
    ))


def decode_times(
    model: ModelArchitecture,
    config: ParallelismConfig,
    coeffs: LatencyCoefficients,
    context_lens: "list[int]",
    tp_link: NetworkLink = NVLINK,
    pp_link: NetworkLink = NVLINK,
) -> ExecutionTimes:
    """Execution times of one decoding step under ``config``."""
    _check_config(model, config)
    if not context_lens:
        return ExecutionTimes(0.0, 0.0)
    batch_size = len(context_lens)
    per_layer = decode_step_latency(
        model, coeffs, context_lens, num_layers=1, tp=config.tp
    ) + tp_allreduce_time_per_layer(model, batch_size, config.tp, tp_link)
    act = activation_transfer_time(model, batch_size, config.pp, pp_link)
    return ExecutionTimes(*pipeline_times(
        per_layer, model.num_layers, config.pp, act, coeffs.iteration_overhead
    ))


class DecodeStepTimer:
    """O(1) decode step latency from (batch size, total context).

    Equals ``decode_times(model, config, coeffs, lens, tp_link,
    pp_link).request_latency`` for any ``lens`` with ``len(lens) ==
    batch_size`` and ``sum(lens) == total_context``: validation happens
    once at construction, and every term that depends on the batch size
    alone is evaluated once per batch size and cached.
    """

    def __init__(
        self,
        model: ModelArchitecture,
        config: ParallelismConfig,
        coeffs: LatencyCoefficients,
        tp_link: NetworkLink = NVLINK,
        pp_link: NetworkLink = NVLINK,
    ) -> None:
        _check_config(model, config)
        self._model = model
        self._config = config
        self._coeffs = coeffs
        self._tp_link = tp_link
        self._pp_link = pp_link
        self._fns: "dict[int, Callable[[int], float]]" = {0: lambda total_context: 0.0}

    def request_latency(self, batch_size: int, total_context: int) -> float:
        """``decode_times(...).request_latency`` for a batch of this shape."""
        return self.step_latency_fn(batch_size)(total_context)

    def step_latency_fn(self, batch_size: int) -> "Callable[[int], float]":
        """Step latency as a function of total context, batch size bound.

        For a decode run the batch is fixed and only the context grows;
        the closure holds the batch-size terms, so a step costs one
        decode-attention term and one pipeline assembly.
        """
        fn = self._fns.get(batch_size)
        if fn is None:
            fn = self._fns[batch_size] = self._bind(batch_size)
        return fn

    def _bind(self, batch_size: int) -> "Callable[[int], float]":
        model, coeffs = self._model, self._coeffs
        tp, pp = self._config.tp, self._config.pp
        gemm = gemm_time(model, coeffs, batch_size, tp)
        comm = tp_allreduce_time_per_layer(model, batch_size, tp, self._tp_link)
        assemble = pipeline_assembler(
            model.num_layers,
            pp,
            activation_transfer_time(model, batch_size, pp, self._pp_link),
            coeffs.iteration_overhead,
        )
        c3 = coeffs.c3

        def latency(total_context: int) -> float:
            attn = decode_attention_time(model, coeffs, total_context, tp)
            return assemble(gemm + attn + c3 + comm)[0]

        return latency


class PrefillBatchTimer:
    """Memoized prefill batch execution times.

    ``prefill_times`` depends on its length list only through ``t =
    sum(lens)`` and ``t2 = sum(l * l for l in lens)``, so results
    memoize on that pair. Returns ``(request_latency, stage_time)``
    tuples equal to the :class:`ExecutionTimes` fields.
    """

    def __init__(
        self,
        model: ModelArchitecture,
        config: ParallelismConfig,
        coeffs: LatencyCoefficients,
        tp_link: NetworkLink = NVLINK,
        pp_link: NetworkLink = NVLINK,
    ) -> None:
        _check_config(model, config)
        self._model = model
        self._config = config
        self._coeffs = coeffs
        self._tp_link = tp_link
        self._pp_link = pp_link
        self._by_shape: "dict[tuple[int, float], tuple[float, float]]" = {}

    def times(self, total_tokens: int, squared_sum: float) -> "tuple[float, float]":
        """``(request_latency, stage_time)`` of a batch with these totals."""
        if total_tokens == 0:
            return (0.0, 0.0)
        key = (total_tokens, squared_sum)
        cached = self._by_shape.get(key)
        if cached is not None:
            return cached
        model, coeffs = self._model, self._coeffs
        tp, pp = self._config.tp, self._config.pp
        per_layer = (
            gemm_time(model, coeffs, total_tokens, tp)
            + prefill_attention_time(model, coeffs, squared_sum, tp)
            + coeffs.c3
            + tp_allreduce_time_per_layer(model, total_tokens, tp, self._tp_link)
        )
        act = activation_transfer_time(model, total_tokens, pp, self._pp_link)
        entry = pipeline_times(
            per_layer, model.num_layers, pp, act, coeffs.iteration_overhead
        )
        self._by_shape[key] = entry
        return entry


def intra_op_speedup(
    model: ModelArchitecture,
    coeffs: LatencyCoefficients,
    input_len: int,
    tp: int,
    tp_link: NetworkLink = NVLINK,
) -> float:
    """Measured speedup coefficient ``K`` of Eq. 3 for a prefill request.

    ``K = D / D_s`` where ``D`` is the single-GPU execution time and
    ``D_s`` the time under ``tp``-way intra-op parallelism. Communication
    overhead keeps ``K < tp``.
    """
    base = prefill_times(model, ParallelismConfig(1, 1), coeffs, [input_len])
    par = prefill_times(model, ParallelismConfig(tp, 1), coeffs, [input_len], tp_link)
    if par.request_latency == 0:
        return 1.0
    return base.request_latency / par.request_latency
