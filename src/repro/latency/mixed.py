"""Latency of batches mixing prefill and decoding work.

Colocated systems (Orca-style continuous batching, SARATHI chunked
prefill) execute iterations containing both prompt tokens and decode
tokens. Figure 2 measures exactly this: a decoding batch plus one
prefill request. The cost composes from the Appendix A terms:

* one pass of GEMM compute over *all* tokens in the iteration,
* one pass of weight streaming (shared by everyone in the batch),
* prefill-attention traffic for the prompt tokens,
* KV-read traffic for the decode tokens' contexts.
"""

from __future__ import annotations

from .coefficients import (
    LatencyCoefficients,
    decode_attention_time,
    gemm_time,
    prefill_attention_time,
)
from ..models.architecture import ModelArchitecture

__all__ = ["mixed_batch_latency"]


def mixed_batch_latency(
    model: ModelArchitecture,
    coeffs: LatencyCoefficients,
    prefill_lens: "list[int]",
    decode_context_lens: "list[int]",
    num_layers: "int | None" = None,
    tp: int = 1,
) -> float:
    """Execution time of one iteration batching prefills with decodes.

    Args:
        model: Full (un-sharded) architecture.
        coeffs: Calibrated latency coefficients.
        prefill_lens: Prompt lengths of prefill (sub-)requests in the
            batch; chunked-prefill passes chunk lengths here.
        decode_context_lens: Context lengths of decode requests, each
            contributing one new token.
        num_layers: Layers executed (defaults to full model).
        tp: Tensor-parallel degree.

    Returns:
        Wall-clock seconds for the iteration. With an empty
        ``decode_context_lens`` this equals :func:`prefill_latency`; with
        an empty ``prefill_lens`` it equals :func:`decode_step_latency`.
    """
    if any(length < 0 for length in prefill_lens):
        raise ValueError(f"prefill lengths must be >= 0, got {prefill_lens}")
    if any(length < 0 for length in decode_context_lens):
        raise ValueError(f"context lengths must be >= 0, got {decode_context_lens}")
    if tp <= 0:
        raise ValueError(f"tp must be positive, got {tp}")
    layers = model.num_layers if num_layers is None else num_layers
    if layers <= 0:
        raise ValueError(f"num_layers must be positive, got {layers}")

    prefill_tokens = sum(prefill_lens)
    decode_tokens = len(decode_context_lens)
    total_tokens = prefill_tokens + decode_tokens
    if total_tokens == 0:
        return 0.0
    gemm = gemm_time(model, coeffs, total_tokens, tp)
    t2 = float(sum(length * length for length in prefill_lens))
    attn_pre = prefill_attention_time(model, coeffs, t2, tp)
    attn_dec = decode_attention_time(
        model, coeffs, float(sum(decode_context_lens)), tp
    )

    # Engine iteration overhead is charged once per batch, matching the
    # execution-time wrappers in repro.latency.parallel.
    return layers * (gemm + attn_pre + attn_dec + coeffs.c3) + coeffs.iteration_overhead
