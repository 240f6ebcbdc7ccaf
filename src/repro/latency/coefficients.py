"""Latency-model coefficients (C1..C5 of paper Appendix A).

The paper writes prefill latency as::

    T_prefill = C1 * (4 t h^2 + 2 t h m) + C2 * 3 h t2 / b + C3

and decoding latency as::

    T_decoding = C4 * (4 h^2 + 2 h m) + C5 * 3 h t

where the C's are obtained by "profiling and interpolation" on the target
GPU. Without physical hardware we obtain the same constants from the GPU
roofline: compute-bound terms cost ``FLOPs / effective_flops`` and
memory-bound terms cost ``bytes / effective_bandwidth``. A least-squares
fitter (:func:`fit_coefficients`) is also provided so the coefficients can
be re-calibrated from measured (or synthetically noised) samples, which is
exactly the paper's profiling procedure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..hardware.gpu import GPUSpec
from ..models.architecture import ModelArchitecture

__all__ = [
    "LatencyCoefficients",
    "coefficients_from_roofline",
    "fit_coefficients",
    "ProfileSample",
    "gemm_time",
    "prefill_attention_time",
    "decode_attention_time",
]

#: FlashAttention block size ``b`` used in the attention-term arithmetic
#: intensity analysis of Appendix A (b=32 => AI = 21.3, memory-bound).
DEFAULT_ATTENTION_BLOCK_SIZE = 32

#: Per-layer fixed overhead (kernel launches, Python runtime) — the C3 term.
DEFAULT_PER_LAYER_OVERHEAD = 15e-6

#: Per-iteration engine overhead: scheduler bookkeeping, sampling,
#: detokenization. Charged once per batch/step by the execution-time
#: wrappers, not by the raw Appendix A formulas.
DEFAULT_ITERATION_OVERHEAD = 5e-3


@dataclass(frozen=True)
class LatencyCoefficients:
    """Calibrated constants of the Appendix A latency model.

    All coefficients are *per-layer* and expressed in seconds per unit of
    the corresponding polynomial term, so the model evaluation multiplies
    by ``num_layers`` explicitly.

    Attributes:
        c1: Seconds per (FLOP of prefill GEMM work / 2). Multiplies
            ``4 t h^2 + 2 t h m``.
        c2: Seconds per element of prefill attention memory traffic.
            Multiplies ``3 h t2 / b``.
        c3: Fixed per-layer overhead, seconds (kernel launch, runtime).
        c4: Seconds per element of decode GEMM memory traffic. Multiplies
            ``4 h^2 + 2 h m``.
        c5: Seconds per element of decode attention memory traffic.
            Multiplies ``3 h t``.
        attention_block_size: FlashAttention block size ``b``.
        iteration_overhead: Per-iteration engine cost (scheduler,
            sampling, detokenization), seconds; applied once per batch by
            the execution-time wrappers in :mod:`repro.latency.parallel`.
        tp_penalty: Per-doubling utilization loss of tensor parallelism —
            partitioned kernels run at lower efficiency (§3.2 "reduced
            utilization after partitioning"), which together with
            all-reduce time keeps the speedup coefficient ``K`` below the
            TP degree (Eq. 3's ``1 < K < 2``).
    """

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    attention_block_size: int = DEFAULT_ATTENTION_BLOCK_SIZE
    tp_penalty: float = 0.08
    iteration_overhead: float = DEFAULT_ITERATION_OVERHEAD

    def __post_init__(self) -> None:
        for field_name in ("c1", "c2", "c4", "c5"):
            value = getattr(self, field_name)
            if value <= 0:
                raise ValueError(f"{field_name} must be positive, got {value}")
        if self.c3 < 0:
            raise ValueError(f"c3 must be >= 0, got {self.c3}")
        if self.attention_block_size <= 0:
            raise ValueError("attention_block_size must be positive")
        if self.tp_penalty < 0:
            raise ValueError(f"tp_penalty must be >= 0, got {self.tp_penalty}")
        if self.iteration_overhead < 0:
            raise ValueError(
                f"iteration_overhead must be >= 0, got {self.iteration_overhead}"
            )

    def effective_tp(self, tp: int) -> float:
        """Effective parallel-speedup divisor for ``tp``-way tensor parallelism.

        ``tp / (1 + tp_penalty * log2(tp))`` — strictly less than ``tp``
        for ``tp > 1``, modeling per-GPU utilization loss on partitioned
        kernels.
        """
        if tp <= 0:
            raise ValueError(f"tp must be positive, got {tp}")
        if tp == 1:
            return 1.0
        return tp / (1.0 + self.tp_penalty * math.log2(tp))


def coefficients_from_roofline(
    gpu: GPUSpec,
    bytes_per_element: int = 2,
    per_layer_overhead: float = DEFAULT_PER_LAYER_OVERHEAD,
    attention_block_size: int = DEFAULT_ATTENTION_BLOCK_SIZE,
    decode_attn_efficiency: float = 0.65,
) -> LatencyCoefficients:
    """Derive C1..C5 analytically from a GPU's roofline parameters.

    * C1: the GEMM term ``4th^2 + 2thm`` counts multiply-accumulates, i.e.
      half the FLOPs, so one unit costs ``2 / effective_flops`` seconds.
    * C2, C4, C5: the corresponding terms count tensor *elements* moved, so
      one unit costs ``bytes_per_element / effective_bandwidth`` seconds.
    * ``decode_attn_efficiency`` derates C5: paged decode-attention
      kernels of the paper's era achieved well below streaming bandwidth
      on their scattered KV-block reads — a calibration visible in the
      paper's Figure 1 decode-only curve.
    """
    if not 0 < decode_attn_efficiency <= 1:
        raise ValueError(
            f"decode_attn_efficiency must be in (0, 1], got {decode_attn_efficiency}"
        )
    per_flop_unit = 2.0 / gpu.effective_flops
    per_element = bytes_per_element / gpu.effective_bandwidth
    return LatencyCoefficients(
        c1=per_flop_unit,
        c2=per_element,
        c3=per_layer_overhead,
        c4=per_element,
        c5=per_element / decode_attn_efficiency,
        attention_block_size=attention_block_size,
    )


@dataclass(frozen=True)
class ProfileSample:
    """One profiled batch execution used for coefficient fitting.

    Attributes:
        gemm_term: Value of the compute polynomial for this batch
            (``4th^2 + 2thm`` for prefill, ``4h^2 + 2hm`` for decode).
        attn_term: Value of the attention polynomial (``3 h t2 / b`` for
            prefill, ``3 h t`` for decode).
        num_layers: Layers executed.
        latency: Measured wall-clock seconds.
    """

    gemm_term: float
    attn_term: float
    num_layers: int
    latency: float


def fit_coefficients(
    prefill_samples: "list[ProfileSample]",
    decode_samples: "list[ProfileSample]",
    attention_block_size: int = DEFAULT_ATTENTION_BLOCK_SIZE,
) -> LatencyCoefficients:
    """Least-squares fit of C1..C5 from profiled samples (Appendix A).

    Prefill samples fit ``latency/layers = c1*gemm + c2*attn + c3``;
    decode samples fit ``latency/layers = c4*gemm + c5*attn``.

    Raises:
        ValueError: if either sample list is too small to determine its
            coefficients (3 prefill and 2 decode samples minimum).
    """
    if len(prefill_samples) < 3:
        raise ValueError("need at least 3 prefill samples to fit c1, c2, c3")
    if len(decode_samples) < 2:
        raise ValueError("need at least 2 decode samples to fit c4, c5")

    a_pre = np.array(
        [[s.gemm_term, s.attn_term, 1.0] for s in prefill_samples], dtype=float
    )
    y_pre = np.array([s.latency / s.num_layers for s in prefill_samples], dtype=float)
    (c1, c2, c3), *_ = np.linalg.lstsq(a_pre, y_pre, rcond=None)

    a_dec = np.array([[s.gemm_term, s.attn_term] for s in decode_samples], dtype=float)
    y_dec = np.array([s.latency / s.num_layers for s in decode_samples], dtype=float)
    (c4, c5), *_ = np.linalg.lstsq(a_dec, y_dec, rcond=None)

    # Numerical noise can push a tiny coefficient below zero; clamp to a
    # small positive epsilon so the model stays physically meaningful.
    eps = 1e-18
    return LatencyCoefficients(
        c1=max(float(c1), eps),
        c2=max(float(c2), eps),
        c3=max(float(c3), 0.0),
        c4=max(float(c4), eps),
        c5=max(float(c5), eps),
        attention_block_size=attention_block_size,
    )


def gemm_term_prefill(model: ModelArchitecture, num_tokens: int) -> float:
    """The ``4th^2 + 2thm`` polynomial for a (possibly sharded) model view."""
    t, h, m = float(num_tokens), float(model.hidden_size), float(model.ffn_size)
    return 4.0 * t * h * h + 2.0 * t * h * m


def attn_term_prefill(
    model: ModelArchitecture, squared_len_sum: float, block_size: int
) -> float:
    """The ``3 h t2 / b`` prefill attention polynomial."""
    return 3.0 * model.hidden_size * squared_len_sum / block_size


def gemm_term_decode(model: ModelArchitecture) -> float:
    """The ``4h^2 + 2hm`` decode weight-traffic polynomial."""
    h, m = float(model.hidden_size), float(model.ffn_size)
    return 4.0 * h * h + 2.0 * h * m


def attn_term_decode(model: ModelArchitecture, total_context: float) -> float:
    """The ``3 h t`` decode KV-traffic polynomial."""
    return 3.0 * model.hidden_size * total_context


# ----------------------------------------------------------------------
# Per-layer time terms. Every latency evaluator in this package — the
# list-based reference functions and the O(1) timers alike — composes
# these, so each term has exactly one floating-point expression.
# ----------------------------------------------------------------------
def gemm_time(
    model: ModelArchitecture, coeffs: LatencyCoefficients, num_tokens: int, tp: int
) -> float:
    """Per-layer GEMM seconds for ``num_tokens`` tokens: compute + weights.

    Compute (the paper's C1 term) pays the TP partition-efficiency
    penalty; weight streaming (C4) shards perfectly across ranks and
    does not depend on the token count. The sum is a smooth roofline:
    small batches cannot hide weight traffic behind compute.
    """
    compute = (
        coeffs.c1 * gemm_term_prefill(model, num_tokens) / coeffs.effective_tp(tp)
    )
    memory = coeffs.c4 * gemm_term_decode(model) / tp
    return compute + memory


def prefill_attention_time(
    model: ModelArchitecture,
    coeffs: LatencyCoefficients,
    squared_len_sum: float,
    tp: int,
) -> float:
    """Per-layer prefill attention seconds: max of memory and FLOPs cost.

    Memory is the paper's C2 term. FlashAttention performs ~4 h t2
    FLOPs per layer, i.e. 2 h t2 in the multiply-accumulate units C1 is
    expressed in. One fused kernel overlaps the two, hence ``max``.
    """
    block = coeffs.attention_block_size
    memory = coeffs.c2 * attn_term_prefill(model, squared_len_sum, block) / tp
    compute = (
        coeffs.c1 * 2.0 * model.hidden_size * squared_len_sum / coeffs.effective_tp(tp)
    )
    return max(memory, compute)


def decode_attention_time(
    model: ModelArchitecture,
    coeffs: LatencyCoefficients,
    total_context: float,
    tp: int,
) -> float:
    """Per-layer decode attention seconds: KV reads (the paper's C5 term).

    ~2 FLOPs per element read keeps arithmetic intensity near 1, so the
    term is always memory-bound; KV shards across TP ranks.
    """
    return coeffs.c5 * attn_term_decode(model, total_context) / tp
