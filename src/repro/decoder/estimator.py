"""Shape-only cost estimation for the decode serving path.

Prices one mixed prefill/decode round of the decode cell that
:class:`~repro.serving.generation.GenerationRuntime` serves: batched
(:func:`estimate_decode_round`), per-request looped for the degraded
rung (:func:`estimate_decode_round_looped`), and tile-quantized with
graph replay (:func:`estimate_decode_round_tiled`).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import BertConfig
from repro.gpusim.stream import ExecutionContext
from repro.kernels.gemm import gemm_launch

#: largest power-of-two quantization target for decode round shapes;
#: far above any realistic in-flight KV total, so quantize_pow2 never
#: rejects a legal round
_POW2_CAP = 1 << 62


def quantize_pow2(n: int) -> int:
    """Smallest power of two holding ``n`` — the decode-side analogue of
    :func:`repro.workloads.batching.quantize_tile`.

    Decode batches and KV totals drift every round (each step adds one
    token per active request), so a fixed tile list would either churn
    keys or need per-workload tuning; a geometric ladder keeps the
    number of distinct graph keys logarithmic in the largest round while
    each tile serves a 2x range of shapes.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    p = 1
    while p < n:
        p <<= 1
        if p > _POW2_CAP:  # pragma: no cover - defensive
            raise ValueError(f"{n} too large to quantize")
    return p


def canonical_decode_contexts(batch_tile: int, kv_tile: int) -> np.ndarray:
    """The canonical per-sequence context layout a decode tile is priced as.

    ``kv_tile`` total context rows spread as evenly as possible over
    ``batch_tile`` sequences (remainder to the low ranks).  Decode cost
    is linear in the context total, so any split prices the same FLOPs;
    the even split is simply the deterministic representative that makes
    the tile key a pure function of ``(batch_tile, kv_tile)``.
    """
    if batch_tile <= 0:
        raise ValueError(f"batch_tile must be positive, got {batch_tile}")
    if kv_tile < batch_tile:
        raise ValueError(
            f"kv_tile {kv_tile} cannot give {batch_tile} sequences one "
            "context row each"
        )
    base, rem = divmod(int(kv_tile), int(batch_tile))
    lens = [base + 1] * rem + [base] * (batch_tile - rem)
    return np.asarray(lens, dtype=np.int64)


def estimate_decode_round(
    ctx: ExecutionContext,
    config: BertConfig,
    prefill_lens: np.ndarray,
    decode_contexts: np.ndarray,
    *,
    block_tokens: int,
) -> float:
    """Launch chain of one mixed prefill/decode round; returns modelled us.

    The round is the decode cell applied to one packed megabatch: a
    fused QKV GEMM over every row (prefill tokens and single decode
    tokens share the tile), a packed varlen prefill attention over the
    prompt segments, the batched paged decode attention over the ragged
    in-flight contexts, and one output GEMM over the produced rows (one
    per prefill request's first token, one per decode step).
    """
    from repro.attention.flash_varlen import (
        flash_varlen_decode_launch,
        flash_varlen_launch,
    )

    p_lens = np.asarray(prefill_lens, dtype=np.int64)
    d_ctx = np.asarray(decode_contexts, dtype=np.int64)
    if p_lens.size == 0 and d_ctx.size == 0:
        raise ValueError("a decode round needs prefill or decode work")
    hidden = config.hidden_size
    heads = config.num_heads
    head_size = config.head_size
    tokens = int(p_lens.sum()) + int(d_ctx.size)
    rows_out = int(p_lens.size) + int(d_ctx.size)

    before = ctx.elapsed_us()
    ctx.launch(
        gemm_launch(
            tokens, 3 * hidden, hidden,
            name="decode_qkv", category="decode_gemm",
        )
    )
    if p_lens.size:
        ctx.launch(
            flash_varlen_launch(
                p_lens, heads, head_size, category="decode_attention"
            )
        )
    if d_ctx.size:
        ctx.launch(
            flash_varlen_decode_launch(
                d_ctx, heads, head_size, block_tokens=block_tokens
            )
        )
    ctx.launch(
        gemm_launch(
            rows_out, hidden, hidden,
            name="decode_out", category="decode_gemm",
        )
    )
    return ctx.elapsed_us() - before


def estimate_decode_round_looped(
    ctx: ExecutionContext,
    config: BertConfig,
    prefill_lens: np.ndarray,
    decode_contexts: np.ndarray,
) -> float:
    """Per-request decode round pricing — the degraded rung.

    Every prefill and every decode step runs as its own kernel chain
    (M=1 GEMMs, per-sequence packed decode attention, no paged varlen
    kernel and no graph reuse): the conservative fallback the decode
    degradation ladder steps down to when the batched varlen kernel is
    the thing faulting.  Numerics are unchanged — both rungs share the
    same per-head math — only the cost plane walks back.
    """
    from repro.attention.flash_varlen import flash_varlen_launch
    from repro.decoder.generation import decode_attention_launch

    p_lens = np.asarray(prefill_lens, dtype=np.int64)
    d_ctx = np.asarray(decode_contexts, dtype=np.int64)
    if p_lens.size == 0 and d_ctx.size == 0:
        raise ValueError("a decode round needs prefill or decode work")
    hidden = config.hidden_size
    heads = config.num_heads
    head_size = config.head_size

    before = ctx.elapsed_us()
    for length in p_lens:
        ctx.launch(
            gemm_launch(
                int(length), 3 * hidden, hidden,
                name="decode_qkv", category="decode_gemm",
            )
        )
        ctx.launch(
            flash_varlen_launch(
                np.asarray([length], dtype=np.int64), heads, head_size,
                category="decode_attention",
            )
        )
        ctx.launch(
            gemm_launch(
                1, hidden, hidden, name="decode_out", category="decode_gemm"
            )
        )
    for context in d_ctx:
        ctx.launch(
            gemm_launch(
                1, 3 * hidden, hidden,
                name="decode_qkv", category="decode_gemm",
            )
        )
        ctx.launch(
            decode_attention_launch(
                np.asarray([context], dtype=np.int64), heads, head_size
            )
        )
        ctx.launch(
            gemm_launch(
                1, hidden, hidden, name="decode_out", category="decode_gemm"
            )
        )
    return ctx.elapsed_us() - before


def estimate_decode_round_tiled(
    ctx: ExecutionContext,
    config: BertConfig,
    *,
    prefill_tile: int,
    decode_batch: int,
    kv_tokens: int,
    max_seq_len: int,
    block_tokens: int,
    cache=None,
) -> float:
    """Tile-quantized, graph-cached decode round pricing.

    The round's ragged shape is quantized onto a canonical
    representative — ``prefill_tile`` laid out as
    :func:`~repro.core.estimator.canonical_tile_lengths`, the decode
    batch and KV total rounded to powers of two and laid out as
    :func:`canonical_decode_contexts` — so the graph key
    ``("decode", device, cluster, config, prefill_tile, batch_tile,
    kv_tile, block, max_seq_len)`` recurs across rounds and steady-state
    decode serving replays captured graphs exactly like the encoder tile
    path.  Canonical shapes dominate the real ones (every quantization
    rounds up), so the replayed cost never under-prices a real round.
    """
    from repro.core.estimator import canonical_tile_lengths
    from repro.gpusim.stream import NullContext

    if prefill_tile < 0:
        raise ValueError(f"prefill_tile must be >= 0, got {prefill_tile}")
    if decode_batch < 0:
        raise ValueError(f"decode_batch must be >= 0, got {decode_batch}")
    if prefill_tile == 0 and decode_batch == 0:
        raise ValueError("a decode round needs prefill or decode work")
    p_lens = (
        canonical_tile_lengths(prefill_tile, max_seq_len)
        if prefill_tile
        else np.asarray([], dtype=np.int64)
    )
    if decode_batch:
        batch_tile = quantize_pow2(decode_batch)
        kv_tile = max(quantize_pow2(max(kv_tokens, 1)), batch_tile)
        d_ctx = canonical_decode_contexts(batch_tile, kv_tile)
    else:
        batch_tile = 0
        kv_tile = 0
        d_ctx = np.asarray([], dtype=np.int64)
    if cache is None or isinstance(ctx, NullContext):
        return estimate_decode_round(
            ctx, config, p_lens, d_ctx, block_tokens=block_tokens
        )
    key = (
        "decode",
        ctx.device,
        ctx.cluster,
        config,
        int(prefill_tile),
        int(batch_tile),
        int(kv_tile),
        int(block_tokens),
        int(max_seq_len),
    )
    return cache.replay_or_capture(
        key,
        ctx,
        lambda c: estimate_decode_round(
            c, config, p_lens, d_ctx, block_tokens=block_tokens
        ),
    )
