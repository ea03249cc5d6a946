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
from repro.core.parallel import (
    SPLIT_MIN_MULADDS,
    current_executor,
    row_parts,
)
from repro.gpusim.stream import ExecutionContext, NullContext, resolve_context
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
    split: int = 1,
    tile_split: int = 1,
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

    ``split > 1`` fans each row-local op (the four projections, GELU
    and both layernorms) out over the current executor, one op at a
    time, on up to ``split`` row parts
    (:func:`~repro.core.parallel.row_parts`), each part writing its
    rows of the op's output — as long as every part's attention-output
    GEMM keeps :data:`~repro.core.parallel.SPLIT_MIN_MULADDS`
    multiply-adds.  On one BLAS thread a GEMM row keeps its bits under
    a row split aligned to :data:`~repro.core.parallel.ROW_ALIGN`, so
    the result is the unsplit layer's.  Attention fans its length
    buckets out over the executor itself, and the long kernel also
    splits a lone bucket's tiles ``tile_split`` ways (see
    :func:`~repro.attention.fused_long.fused_long_mha`).  A split layer
    runs numerics only: ``ctx`` must price nothing.
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
    # the narrowest projection (attention output) sets the floor
    parts = row_parts(tokens, split)
    smallest = min(p.stop - p.start for p in parts) * hidden * hidden
    if len(parts) == 1 or smallest < SPLIT_MIN_MULADDS:
        parts = None
    if parts is not None and not isinstance(context, NullContext):
        raise ValueError("a split layer prices nothing; pass a NullContext")

    dt = x_packed.dtype
    if scratch is not None:
        def take(name: str, shape: tuple[int, ...]) -> np.ndarray | None:
            return scratch.take(name, shape, dt)

        release = scratch.release
    else:
        # a split op writes its parts into one preallocated output
        def take(name: str, shape: tuple[int, ...]) -> np.ndarray | None:
            return np.empty(shape, dt) if parts is not None else None

        def release(name: str) -> None:
            pass

    def by_rows(op, dst: np.ndarray | None, *srcs: np.ndarray | None):
        """``op(*srcs, dst)`` over every row, or over each row part of
        the operands on the executor; returns the op's result."""
        if parts is None:
            return op(*srcs, dst)
        current_executor().map(
            lambda r: op(*(a[r] for a in srcs), dst[r]), parts
        )
        return dst

    def project(w: np.ndarray, name: str, category: str):
        def op(x: np.ndarray, dst: np.ndarray | None) -> np.ndarray:
            offsets = (0, x.shape[0]) if parts else packing.seq_offsets
            return tile_gemm(
                x, w, segment_offsets=offsets, ctx=context, name=name,
                category=category, out=dst,
            )

        return op

    def layernorm(bias, gamma, beta, category: str):
        def op(x, residual, tmp, dst):
            return _layernorm_block(
                x, bias, residual, gamma, beta, config.layernorm_eps,
                opt.fuse_layernorm, category, context, out=dst, tmp=tmp,
            )

        return op

    qkv = by_rows(
        project(weights.qkv_weight, "gemm0_qkv", "gemm0"),
        take("qkv", (tokens, 3 * hidden)),
        x_packed,
    )
    attn = take("attn", (tokens, hidden))
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
            split=tile_split,
        )
    else:
        attn = zeropad_softmax_mha(
            qkv, weights.qkv_bias, packing, config.num_heads, ctx=context,
            out=attn,
        )
    release("qkv")
    proj = by_rows(
        project(weights.attn_out_weight, "gemm1_attn_out", "gemm1"),
        take("proj", (tokens, hidden)),
        attn,
    )
    release("attn")
    ln0_buf = take("ln0", (tokens, hidden))
    ln0 = by_rows(
        layernorm(
            weights.attn_out_bias, weights.ln0_gamma, weights.ln0_beta,
            "layernorm0",
        ),
        ln0_buf,
        proj,
        x_packed,
        take("ln_tmp", (tokens, hidden)),
    )
    release("ln_tmp")
    release("proj")
    gelu_variant = resolve_gelu_variant(opt.gelu_variant)
    ffn_up = take("ffn_up", (tokens, config.ffn_size))
    ffn = by_rows(
        lambda x, tmp, dst: _ffn_block(
            x, weights, opt.fuse_gelu, context, dst, tmp,
            gelu_variant=gelu_variant,
            segment_offsets=None if parts else packing.seq_offsets,
        ),
        ffn_up,
        ln0,
        take("gelu_tmp", (tokens, config.ffn_size)),
    )
    release("gelu_tmp")
    down = by_rows(
        project(weights.ffn_out_weight, "gemm3_ffn_out", "gemm3"),
        take("ffn_down", (tokens, hidden)),
        ffn,
    )
    release("ffn_up")
    if out is None and parts is not None:
        out = np.empty((tokens, hidden), dt)
    result = by_rows(
        layernorm(
            weights.ffn_out_bias, weights.ln1_gamma, weights.ln1_beta,
            "layernorm1",
        ),
        out,
        down,
        ln0,
        take("ln_tmp", (tokens, hidden)),
    )
    release("ln_tmp")
    release("ffn_down")
    release("ln0")
    return result
