"""Decode serving: incremental decoding over a packed, paged KV cache.

The paper optimises an encoder-only BERT and notes (§V) that its
techniques "can easily extend" to decoder-bearing transformers.  This
package applies the zero-padding idea to the time axis of autoregressive
generation, where every in-flight sequence has a different context
length —

* :mod:`~repro.decoder.generation`: the packed KV cache, the batched
  single-token decode-attention step and the decode cell that
  :class:`~repro.serving.generation.GenerationRuntime` serves;
* :mod:`~repro.decoder.paged_kv`: the paged KV arena — block tables
  that model memory pressure over one contiguous K/V store per stream,
  with swap-based eviction that moves a stream's store, never copies it;
* :mod:`~repro.decoder.estimator`: shape-only pricing of mixed
  prefill/decode rounds (batched, per-request looped, and tile-quantized
  with graph replay);
* :mod:`~repro.decoder.reference`: the dense causal-attention oracle
  that token-by-token decoding must reproduce.
"""

from repro.decoder.estimator import (
    canonical_decode_contexts,
    estimate_decode_round,
    estimate_decode_round_looped,
    estimate_decode_round_tiled,
    quantize_pow2,
)
from repro.decoder.generation import (
    DecodeCellWeights,
    PackedKVCache,
    attend_to_cache,
    decode_attention_launch,
    decode_self_attention_step,
    generate_cell_reference,
    generation_traffic_ratio,
    init_decode_cell,
    max_decode_steps,
)
from repro.decoder.paged_kv import (
    DEFAULT_KV_BLOCK_TOKENS,
    KVPressureError,
    PagedKVArena,
)
from repro.decoder.reference import reference_causal_attention

__all__ = [
    "PackedKVCache",
    "decode_attention_launch",
    "decode_self_attention_step",
    "generation_traffic_ratio",
    "attend_to_cache",
    "DecodeCellWeights",
    "init_decode_cell",
    "generate_cell_reference",
    "max_decode_steps",
    "DEFAULT_KV_BLOCK_TOKENS",
    "KVPressureError",
    "PagedKVArena",
    "quantize_pow2",
    "canonical_decode_contexts",
    "estimate_decode_round",
    "estimate_decode_round_looped",
    "estimate_decode_round_tiled",
    "reference_causal_attention",
]
