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
    ROW_ALIGN,
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

#: rows of the FFN's ``[rows, ffn_size]`` intermediate a row part holds
#: at once.  A multiple of :data:`~repro.core.parallel.ROW_ALIGN`, so
#: on one BLAS thread a GEMM cut into blocks keeps every row's bits
FFN_BLOCK_ROWS = 8 * ROW_ALIGN


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
) -> np.ndarray:
    """GEMM2 + add-bias + GELU, fused into the epilogue or standalone."""
    if fuse_gelu:
        return gemm(
            x,
            weights.ffn_in_weight,
            bias=weights.ffn_in_bias,
            activation="gelu",
            gelu_variant=gelu_variant,
            ctx=ctx,
            name="gemm2_fused_bias_gelu",
            category="gemm2",
            out=out,
            tmp=tmp,
        )
    up = gemm(
        x, weights.ffn_in_weight, ctx=ctx, name="gemm2", category="gemm2",
        out=out,
    )
    return add_bias_gelu(
        up, weights.ffn_in_bias, ctx=ctx, category="activation",
        out=out, tmp=tmp, variant=gelu_variant,
    )


def layer_parts(tokens: int, hidden: int, split: int) -> list[slice] | None:
    """The row parts a packed layer fans its row-local ops out over, or
    ``None`` to run each op whole.

    Up to ``split`` parts (:func:`~repro.core.parallel.row_parts`), as
    long as every part's attention-output GEMM, the narrowest
    projection, keeps :data:`~repro.core.parallel.SPLIT_MIN_MULADDS`
    multiply-adds.
    """
    parts = row_parts(tokens, split)
    smallest = min(p.stop - p.start for p in parts) * hidden * hidden
    if len(parts) == 1 or smallest < SPLIT_MIN_MULADDS:
        return None
    return parts


def ffn_scratch(
    parts: list[slice], ffn_size: int, block: int = FFN_BLOCK_ROWS
) -> list[tuple[tuple[str, tuple[int, int]], ...]]:
    """Each FFN part's block buffers, ``(name, shape)`` in take order.

    Part ``i`` takes ``ffn_up.{i}`` (the up-projection and GELU) and
    ``gelu_tmp.{i}`` (the GELU's temporary), each as many rows as the
    part's largest block.  The packed layer takes exactly these and
    :func:`~repro.core.memory_planner.plan_live_forward` plans exactly
    these, so the plan and the engine cannot drift apart.
    """
    return [
        tuple(
            (f"{name}.{i}", (min(block, part.stop - part.start), ffn_size))
            for name in ("ffn_up", "gelu_tmp")
        )
        for i, part in enumerate(parts)
    ]


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

    The QKV and attention-output projections go through
    :func:`repro.kernels.batched_gemm.tile_gemm`: one BLAS call covers
    all of ``packing``'s segments — whether that is a single request's
    buckets or a whole cross-request megabatch tile — rather than a
    call per segment.  Same launches, same bits, one dispatch.

    ``split > 1`` fans each row-local op out over the current executor,
    one op at a time, on up to ``split`` row parts (:func:`layer_parts`),
    each part writing its rows of the op's output.  The row-local ops
    are the two projections above, both layernorms and the FFN.  The
    FFN is one op: each part walks its rows in blocks of
    :data:`FFN_BLOCK_ROWS`, running the up-projection GEMM, bias and
    GELU into a block buffer of its own (:func:`ffn_scratch`) and the
    down-projection GEMM from there into its rows of the result, so no
    ``[T, ffn_size]`` tensor exists.  On one BLAS thread a GEMM row
    keeps its bits under a row cut aligned to
    :data:`~repro.core.parallel.ROW_ALIGN`, and GELU is elementwise, so
    the result is the unsplit, unblocked layer's.  Attention fans its
    length buckets out over the executor itself, and the long kernel
    also splits a lone bucket's tiles ``tile_split`` ways (see
    :func:`~repro.attention.fused_long.fused_long_mha`).  A split layer
    runs numerics only: ``ctx`` must price nothing.  Under a pricing
    ``ctx`` the FFN runs as one block, so it records the two
    whole-tensor launches the estimator prices.
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
    parts = layer_parts(tokens, hidden, split)
    prices = not isinstance(context, NullContext)
    if parts is not None and prices:
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

    def buffer(name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A buffer the FFN's parts write into, from the arena if any."""
        got = take(name, shape)
        return np.empty(shape, dt) if got is None else got

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
    down = buffer("ffn_down", (tokens, hidden))
    # a pricing context records the two whole-tensor FFN launches
    block = tokens if prices else FFN_BLOCK_ROWS
    ffn_parts = parts or [slice(0, tokens)]
    names = ffn_scratch(ffn_parts, config.ffn_size, block)
    jobs = [
        (part, *(buffer(n, shape) for n, shape in taken))
        for part, taken in zip(ffn_parts, names)
    ]
    gelu_variant = resolve_gelu_variant(opt.gelu_variant)

    def ffn(part: slice, up: np.ndarray, tmp: np.ndarray) -> None:
        """Up-GEMM + GELU and down-GEMM over ``part``, a block at a time."""
        for start in range(part.start, part.stop, block):
            rows = slice(start, min(start + block, part.stop))
            n = rows.stop - rows.start
            gemm(
                _ffn_block(
                    ln0[rows], weights, opt.fuse_gelu, context, up[:n],
                    tmp[:n], gelu_variant=gelu_variant,
                ),
                weights.ffn_out_weight, ctx=context, name="gemm3_ffn_out",
                category="gemm3", out=down[rows],
            )

    current_executor().map(lambda job: ffn(*job), jobs)
    for taken in names:
        for n, _ in taken:
            release(n)
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
