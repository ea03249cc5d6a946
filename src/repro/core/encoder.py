"""BERT encoder layer pipelines — Figure 2 (a), (b) and (c).

One function per tensor layout:

* :func:`encoder_layer_padded` — the conventional padded pipeline.  With
  all fusion flags off it is the paper's *baseline* (Figure 2 (a));
  enabling ``fuse_layernorm``/``fuse_gelu`` yields Figure 2 (b).
* :func:`encoder_layer_packed` — the zero-padding pipeline (Figure 2 (c)):
  activations stay packed (``[T, H]``) through every GEMM and memory-bound
  op; the MHA either re-pads internally (batched-GEMM MHA with zero-padding
  softmax) or, with ``fused_mha``, never pads at all.

Kernel categories match the paper's profiling buckets (Figure 3): GEMM0 is
the QKV projection, ``attention`` the MHA block, GEMM1 the attention output
projection, GEMM2/GEMM3 the FFN, ``layernorm0``/``layernorm1`` the two
add-bias + layernorm groups, ``activation`` the add-bias + GELU group.
"""

from __future__ import annotations

import numpy as np

from repro.attention.dispatch import byte_mha
from repro.attention.unfused_cublas import unfused_cublas_mha
from repro.attention.zeropad_softmax_mha import zeropad_softmax_mha
from repro.core.config import BertConfig, OptimizationConfig
from repro.core.memory_planner import LiveArena
from repro.core.padding import PackedSeqs
from repro.core.weights import LayerWeights
from repro.gpusim.stream import ExecutionContext, resolve_context
from repro.kernels.activation import add_bias_gelu, resolve_gelu_variant
from repro.kernels.batched_gemm import tile_gemm
from repro.kernels.gemm import gemm
from repro.kernels.grouped_gemm import SchedulerKind
from repro.kernels.layernorm import (
    add_bias_residual_layernorm,
    add_bias_residual_layernorm_unfused,
)


def _layernorm_block(
    x: np.ndarray,
    bias: np.ndarray,
    residual: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float,
    fused: bool,
    category: str,
    ctx: ExecutionContext,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> np.ndarray:
    if fused:
        return add_bias_residual_layernorm(
            x, bias, residual, gamma, beta, eps=eps, ctx=ctx,
            category=category, out=out, tmp=tmp,
        )
    return add_bias_residual_layernorm_unfused(
        x, bias, residual, gamma, beta, eps=eps, ctx=ctx,
        category=category, out=out, tmp=tmp,
    )


def _ffn_block(
    x: np.ndarray,
    weights: LayerWeights,
    fuse_gelu: bool,
    ctx: ExecutionContext,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
    gelu_variant: str = "exact",
    segment_offsets: np.ndarray | None = None,
) -> np.ndarray:
    """GEMM2 + add-bias + GELU, fused into the epilogue or standalone.

    With ``segment_offsets`` (the packed pipeline), the up-projection is
    a single-call :func:`tile_gemm` over every segment of the buffer.
    """
    def up_gemm(**kwargs: object) -> np.ndarray:
        if segment_offsets is not None:
            return tile_gemm(
                x, weights.ffn_in_weight,
                segment_offsets=segment_offsets, **kwargs,
            )
        return gemm(x, weights.ffn_in_weight, **kwargs)

    if fuse_gelu:
        return up_gemm(
            bias=weights.ffn_in_bias,
            activation="gelu",
            gelu_variant=gelu_variant,
            ctx=ctx,
            name="gemm2_fused_bias_gelu",
            category="gemm2",
            out=out,
            tmp=tmp,
        )
    up = up_gemm(ctx=ctx, name="gemm2", category="gemm2", out=out)
    return add_bias_gelu(
        up, weights.ffn_in_bias, ctx=ctx, category="activation",
        out=out, tmp=tmp, variant=gelu_variant,
    )


def encoder_layer_padded(
    x: np.ndarray,
    weights: LayerWeights,
    config: BertConfig,
    opt: OptimizationConfig,
    mask: np.ndarray,
    *,
    ctx: ExecutionContext | None = None,
) -> np.ndarray:
    """One encoder layer on a padded ``[B*S, H]`` activation tensor.

    ``mask`` is the ``[B, S]`` validity mask; padded rows flow through the
    whole pipeline (the cost the zero-padding algorithm removes).
    """
    if opt.remove_padding:
        raise ValueError(
            "padded pipeline called with remove_padding; use "
            "encoder_layer_packed"
        )
    batch, seq_len = mask.shape
    if x.shape[0] != batch * seq_len:
        raise ValueError(
            f"{x.shape[0]} rows != batch {batch} * seq {seq_len}"
        )
    context = resolve_context(ctx)

    qkv = gemm(
        x, weights.qkv_weight, ctx=context, name="gemm0_qkv", category="gemm0"
    )
    attn = unfused_cublas_mha(
        qkv, weights.qkv_bias, batch, seq_len, config.num_heads, mask,
        ctx=context,
    )
    proj = gemm(
        attn,
        weights.attn_out_weight,
        ctx=context,
        name="gemm1_attn_out",
        category="gemm1",
    )
    ln0 = _layernorm_block(
        proj,
        weights.attn_out_bias,
        x,
        weights.ln0_gamma,
        weights.ln0_beta,
        config.layernorm_eps,
        opt.fuse_layernorm,
        "layernorm0",
        context,
    )
    ffn = _ffn_block(
        ln0, weights, opt.fuse_gelu, context,
        gelu_variant=resolve_gelu_variant(opt.gelu_variant),
    )
    down = gemm(
        ffn,
        weights.ffn_out_weight,
        ctx=context,
        name="gemm3_ffn_out",
        category="gemm3",
    )
    return _layernorm_block(
        down,
        weights.ffn_out_bias,
        ln0,
        weights.ln1_gamma,
        weights.ln1_beta,
        config.layernorm_eps,
        opt.fuse_layernorm,
        "layernorm1",
        context,
    )


def encoder_layer_packed(
    x_packed: np.ndarray,
    weights: LayerWeights,
    config: BertConfig,
    opt: OptimizationConfig,
    packing: PackedSeqs,
    *,
    ctx: ExecutionContext | None = None,
    scratch: LiveArena | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One encoder layer on a packed ``[T, H]`` activation tensor.

    With ``scratch`` (and ``out``, the caller's ping-pong buffer for the
    layer result), every large intermediate is taken from / released to
    the live arena, and the layer performs zero large ndarray
    allocations in steady state.  These takes and releases, with the
    bucket scratch the dispatched attention kernel declares
    (:func:`repro.attention.bucketed.bucket_scratch`), are exactly the
    sequence :func:`repro.core.memory_planner.plan_live_forward` plans;
    ``tests/core/test_live_arena.py`` checks them equal.  The
    two forms are bit-identical: each ``out=`` kernel variant replays the
    allocating variant's op sequence into preplaced storage.

    Every projection (QKV, attention output, both FFN GEMMs) goes
    through :func:`repro.kernels.batched_gemm.tile_gemm`: one BLAS call
    covers all of ``packing``'s segments — whether that is a single
    request's buckets or a whole cross-request megabatch tile — rather
    than a call per segment.  Same launches, same bits, one dispatch.
    """
    if not opt.remove_padding:
        raise ValueError(
            "packed pipeline called without remove_padding; use "
            "encoder_layer_padded"
        )
    if x_packed.shape[0] != packing.total_tokens:
        raise ValueError(
            f"{x_packed.shape[0]} rows != packed total "
            f"{packing.total_tokens}"
        )
    if (scratch is None) != (out is None):
        raise ValueError("scratch and out must be passed together")
    context = resolve_context(ctx)
    tokens = packing.total_tokens
    hidden = config.hidden_size

    dt = x_packed.dtype
    take = (
        (lambda name, shape: scratch.take(name, shape, dt))
        if scratch is not None
        else None
    )
    qkv = take("qkv", (tokens, 3 * hidden)) if take else None
    qkv = tile_gemm(
        x_packed,
        weights.qkv_weight,
        segment_offsets=packing.seq_offsets,
        ctx=context,
        name="gemm0_qkv",
        category="gemm0",
        out=qkv,
    )
    attn = take("attn", (tokens, hidden)) if take else None
    if opt.fused_mha:
        scheduler = (
            SchedulerKind.WARP_PREFETCH
            if opt.warp_prefetch_scheduler
            else SchedulerKind.PER_THREAD
        )
        attn = byte_mha(
            qkv,
            weights.qkv_bias,
            packing,
            config.num_heads,
            short_max_seq=opt.fused_mha_short_max_seq,
            scheduler=scheduler,
            ctx=context,
            out=attn,
            scratch=scratch,
        )
    else:
        attn = zeropad_softmax_mha(
            qkv, weights.qkv_bias, packing, config.num_heads, ctx=context,
            out=attn,
        )
    if scratch is not None:
        scratch.release("qkv")
    proj = take("proj", (tokens, hidden)) if take else None
    proj = tile_gemm(
        attn,
        weights.attn_out_weight,
        segment_offsets=packing.seq_offsets,
        ctx=context,
        name="gemm1_attn_out",
        category="gemm1",
        out=proj,
    )
    if scratch is not None:
        scratch.release("attn")
        ln0_buf = take("ln0", (tokens, hidden))
        ln_tmp = take("ln_tmp", (tokens, hidden))
    else:
        ln0_buf = ln_tmp = None
    ln0 = _layernorm_block(
        proj,
        weights.attn_out_bias,
        x_packed,
        weights.ln0_gamma,
        weights.ln0_beta,
        config.layernorm_eps,
        opt.fuse_layernorm,
        "layernorm0",
        context,
        out=ln0_buf,
        tmp=ln_tmp,
    )
    if scratch is not None:
        scratch.release("ln_tmp")
        scratch.release("proj")
        ffn_up = take("ffn_up", (tokens, config.ffn_size))
        gelu_tmp = take("gelu_tmp", (tokens, config.ffn_size))
    else:
        ffn_up = gelu_tmp = None
    ffn = _ffn_block(
        ln0, weights, opt.fuse_gelu, context, ffn_up, gelu_tmp,
        gelu_variant=resolve_gelu_variant(opt.gelu_variant),
        segment_offsets=packing.seq_offsets,
    )
    if scratch is not None:
        scratch.release("gelu_tmp")
    down = take("ffn_down", (tokens, hidden)) if take else None
    down = tile_gemm(
        ffn,
        weights.ffn_out_weight,
        segment_offsets=packing.seq_offsets,
        ctx=context,
        name="gemm3_ffn_out",
        category="gemm3",
        out=down,
    )
    if scratch is not None:
        scratch.release("ffn_up")
        ln_tmp = take("ln_tmp", (tokens, hidden))
    result = _layernorm_block(
        down,
        weights.ffn_out_bias,
        ln0,
        weights.ln1_gamma,
        weights.ln1_beta,
        config.layernorm_eps,
        opt.fuse_layernorm,
        "layernorm1",
        context,
        out=out,
        tmp=ln_tmp if scratch is not None else None,
    )
    if scratch is not None:
        scratch.release("ln_tmp")
        scratch.release("ffn_down")
        scratch.release("ln0")
    return result
