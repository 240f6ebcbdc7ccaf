"""Instance specification shared by prefill, decode, and colocated engines.

"We use the term instance to denote a unit of resources that manages
exactly one complete copy of model weights" (§2.3). An
:class:`InstanceSpec` bundles the model, its parallelism configuration,
the device, and the calibrated latency coefficients, and derives the
KV-cache capacity the instance's block manager is sized with.
:func:`instrument_instance` registers the metric families every engine
exports.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .kvcache import KVBlockManager
from ..hardware.gpu import A100_80GB, GPUSpec
from ..hardware.network import NVLINK, NetworkLink
from ..latency.coefficients import LatencyCoefficients, coefficients_from_roofline
from ..latency.parallel import ParallelismConfig
from ..models.architecture import ModelArchitecture
from ..models.memory import compute_memory_budget

if TYPE_CHECKING:
    from .events import Simulation
    from .metrics import MetricsRegistry

__all__ = ["InstanceSpec", "DEFAULT_BLOCK_SIZE", "instrument_instance"]

#: vLLM's default PagedAttention block size, tokens per block.
DEFAULT_BLOCK_SIZE = 16


@dataclass(frozen=True)
class InstanceSpec:
    """Everything needed to instantiate one model replica in the simulator.

    Attributes:
        model: Full model architecture.
        config: Tensor/pipeline parallel degrees.
        gpu: Device type of every GPU in the instance.
        coeffs: Latency-model coefficients (defaults to the GPU roofline).
        tp_link: Interconnect for tensor-parallel all-reduces.
        pp_link: Interconnect for pipeline activations.
        max_batch_size: Upper bound on concurrent decoding requests.
        block_size: KV paging granularity, tokens.
        jitter_sigma: Log-normal sigma of per-batch execution-time noise.
            Zero (default) gives the deterministic simulator of §4.1; a
            positive value emulates a *real system* with kernel timing
            variance and scheduler jitter — used to reproduce Table 2's
            simulator-vs-testbed comparison.
    """

    model: ModelArchitecture
    config: ParallelismConfig = field(default_factory=ParallelismConfig)
    gpu: GPUSpec = A100_80GB
    coeffs: "LatencyCoefficients | None" = None
    tp_link: NetworkLink = NVLINK
    pp_link: NetworkLink = NVLINK
    max_batch_size: int = 256
    block_size: int = DEFAULT_BLOCK_SIZE
    jitter_sigma: float = 0.0

    def __post_init__(self) -> None:
        if not self.config.is_valid_for(self.model):
            raise ValueError(
                f"config {self.config} invalid for model {self.model.name}"
            )
        if self.max_batch_size <= 0:
            raise ValueError(f"max_batch_size must be positive, got {self.max_batch_size}")
        if self.jitter_sigma < 0:
            raise ValueError(f"jitter_sigma must be >= 0, got {self.jitter_sigma}")

    def make_jitter(self, instance_name: str) -> "Callable[[], float]":
        """A deterministic per-instance noise source for batch durations.

        Returns a zero-argument callable yielding multiplicative factors;
        the constant 1.0 when ``jitter_sigma`` is zero.
        """
        if self.jitter_sigma == 0.0:
            return lambda: 1.0
        seed = zlib.crc32(instance_name.encode()) & 0x7FFFFFFF
        rng = np.random.default_rng(seed)
        sigma = self.jitter_sigma
        return lambda: float(rng.lognormal(mean=0.0, sigma=sigma))

    @property
    def latency_coeffs(self) -> LatencyCoefficients:
        """The configured coefficients, or the GPU-roofline defaults."""
        if self.coeffs is not None:
            return self.coeffs
        return coefficients_from_roofline(self.gpu)

    @property
    def num_gpus(self) -> int:
        return self.config.num_gpus

    def kv_token_capacity(self) -> int:
        """Token slots of KV cache the instance can hold.

        Raises:
            ValueError: if the weights do not fit in the instance's GPUs.
        """
        budget = compute_memory_budget(
            self.model,
            self.gpu.memory_bytes,
            tp_degree=self.config.tp,
            pp_degree=self.config.pp,
        )
        return budget.max_kv_tokens

    def make_kv_manager(self) -> KVBlockManager:
        """A block manager sized to this instance's KV capacity."""
        total_blocks = self.kv_token_capacity() // self.block_size
        return KVBlockManager(total_blocks=total_blocks, block_size=self.block_size)


def instrument_instance(
    registry: "MetricsRegistry",
    phase: str,
    name: str,
    sim: "Simulation",
    kv: KVBlockManager,
    queue_depth: "Callable[[], float]",
    tokens: "Callable[[], float]",
    busy: "Callable[[], float]",
    batch_size: "Callable[[], float] | None" = None,
    batches: "Callable[[], float] | None" = None,
    preemptions: "Callable[[], float] | None" = None,
) -> "dict[str, str]":
    """Register the metric families every instance engine exports.

    Queue depth, KV blocks used/free, tokens, busy seconds and
    utilization always; the batch-size gauge, batch counter and
    preemption counter when the engine passes their callbacks. Every
    metric is callback-backed, so registration costs nothing per event.

    Returns:
        The ``{"phase", "instance"}`` label set, for engine-specific
        families.
    """
    labels = {"phase": phase, "instance": name}
    families: "tuple[tuple[Callable[..., object], str, str, Callable[[], float] | None], ...]" = (
        (registry.gauge, "repro_queue_depth", "Requests waiting for a batch slot", queue_depth),
        (registry.gauge, "repro_batch_size", "Active continuous-batching set size", batch_size),
        (registry.gauge, "repro_kv_blocks_used", "KV-cache blocks allocated",
         lambda: kv.used_blocks),
        (registry.gauge, "repro_kv_blocks_free", "KV-cache blocks available",
         lambda: kv.free_blocks),
        (registry.counter, "repro_batches_total", "Batches/steps executed", batches),
        (registry.counter, "repro_tokens_total", "Tokens processed by the phase", tokens),
        (registry.counter, "repro_busy_seconds_total", "Virtual seconds spent executing", busy),
        (registry.counter, "repro_preemptions_total", "Recompute preemptions", preemptions),
        (registry.gauge, "repro_utilization", "Busy fraction of elapsed virtual time",
         lambda: busy() / sim.now if sim.now > 0 else 0.0),
    )
    for register, metric, help_text, fn in families:
        if fn is not None:
            register(metric, help_text, labels=labels, fn=fn)
    return labels
