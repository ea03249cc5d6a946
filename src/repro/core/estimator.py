"""Shape-only cost estimation: the numeric pipelines without the numerics.

Full-scale NumPy numerics at BERT shapes cost seconds per forward pass;
the end-to-end sweeps of Figure 14 need hundreds of forwards.  The
estimator replays, for a given batch shape, the *exact* kernel-launch
sequence the numeric pipelines record — built from the same public
``*_launch`` descriptor builders — into an execution context, without
touching any tensor.

Consistency is enforced by tests: for small shapes, running the numeric
model and the estimator must record identical kernel sequences (same
names, grids, FLOPs, bytes) and therefore identical modelled times.

The estimated chain depends only on the *shape-relevant* parts of
:class:`~repro.core.config.OptimizationConfig` (fusion flags, padding
removal, MHA dispatch).  ``gelu_variant`` is deliberately invisible
here: the exact and tanh GELU formulas are the same modelled kernel
(same name, grid, FLOPs, bytes), so ``fast-gelu`` changes host wall
time only — never an estimate, a graph key's stream, or a priced µs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from repro.attention.dispatch import forced_mha_path, mha_kernel
from repro.attention.fused_long import FMHA_GROUPED_EFFICIENCY
from repro.attention.fused_short import fused_short_launch
from repro.attention.standard import standard_mha_launches
from repro.core.config import BertConfig, OptimizationConfig
from repro.core.sharding import ShardSpec
from repro.gpusim.errors import LaunchConfigError
from repro.gpusim.graph import GraphCache
from repro.gpusim.interconnect import all_reduce_launch
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.stream import ExecutionContext, NullContext
from repro.kernels.activation import add_bias_gelu_launch
from repro.kernels.batched_gemm import batched_gemm_launch
from repro.kernels.gemm import gemm_launch
from repro.kernels.grouped_gemm import (
    GemmProblem,
    SchedulerKind,
    grouped_gemm_launch,
)
from repro.kernels.layernorm import (
    add_bias_residual_launch,
    fused_layernorm_launch,
    layernorm_launch,
)
from repro.gpusim.memory import tensor_bytes
from repro.kernels.packing import pack_launch, unpack_launch
from repro.kernels.prefix_sum import prefix_sum_launch
from repro.kernels.reduction import (
    full_reduction_launch,
    partial_stats_flops,
    partial_stats_store_bytes,
)
from repro.kernels.softmax import softmax_launch, zeropad_softmax_launch
from repro.kernels.transpose import (
    add_bias_split_heads_qkv_launch,
    add_bias_unpack_split_heads_qkv_launch,
    pack_merge_heads_launch,
    split_heads_launch,
)

#: an MHA launch chain the estimator does not own: called as
#: ``chain(ctx, seq_lens, max_seq_len, config)`` in place of the
#: attention step (the Fig 14 framework models' own chains)
MhaChain = Callable[[ExecutionContext, np.ndarray, int, BertConfig], None]


def estimate_standard_mha(
    ctx: ExecutionContext,
    batch: int,
    seq_len: int,
    config: BertConfig,
) -> None:
    """PyTorch-eager MHA launch chain (see ``standard_mha``)."""
    for launch in standard_mha_launches(
        batch, seq_len, config.num_heads, config.hidden_size
    ):
        ctx.launch(launch)


def estimate_padded_attention(
    ctx: ExecutionContext,
    batch: int,
    seq_len: int,
    config: BertConfig,
    prefix: str,
    softmax: list[KernelLaunch] | None = None,
) -> None:
    """The padded batched-GEMM attention core: ``{prefix}_bmm_qk``, the
    ``softmax`` launches (by default one masked softmax over the padded
    scores), then ``{prefix}_bmm_pv``."""
    units = batch * config.num_heads
    ctx.launch(
        batched_gemm_launch(
            units, seq_len, seq_len, config.head_size,
            name=f"{prefix}_bmm_qk",
        )
    )
    if softmax is None:
        softmax = [
            softmax_launch(units * seq_len, seq_len, name="masked_softmax")
        ]
    for launch in softmax:
        ctx.launch(launch)
    ctx.launch(
        batched_gemm_launch(
            units, seq_len, config.head_size, seq_len,
            name=f"{prefix}_bmm_pv",
        )
    )


def estimate_unfused_cublas_mha(
    ctx: ExecutionContext,
    batch: int,
    seq_len: int,
    config: BertConfig,
) -> None:
    """cuBLAS batched-GEMM MHA launch chain (see ``unfused_cublas_mha``)."""
    rows = batch * seq_len
    hidden = config.hidden_size
    ctx.launch(add_bias_split_heads_qkv_launch(rows, 3 * hidden))
    estimate_padded_attention(ctx, batch, seq_len, config, "cublas")
    ctx.launch(split_heads_launch(rows, hidden, name="merge_heads"))


def estimate_zeropad_mha(
    ctx: ExecutionContext,
    seq_lens: np.ndarray,
    max_seq_len: int,
    config: BertConfig,
) -> None:
    """Zero-padding-softmax MHA launch chain (see ``zeropad_softmax_mha``)."""
    batch = len(seq_lens)
    tokens = int(np.sum(seq_lens))
    hidden = config.hidden_size
    ctx.launch(
        add_bias_unpack_split_heads_qkv_launch(
            tokens, batch * max_seq_len, 3 * hidden
        )
    )
    softmax = zeropad_softmax_launch(
        [int(l) for l in seq_lens], config.num_heads
    )
    estimate_padded_attention(
        ctx, batch, max_seq_len, config, "cublas", [softmax]
    )
    ctx.launch(pack_merge_heads_launch(tokens, hidden))


def estimate_fused_long_mha(
    ctx: ExecutionContext,
    seq_lens: np.ndarray,
    config: BertConfig,
    scheduler: SchedulerKind = SchedulerKind.WARP_PREFETCH,
) -> None:
    """Grouped-GEMM fused-MHA launch chain (see ``fused_long_mha``)."""
    lens = [int(l) for l in seq_lens]
    heads = config.num_heads
    head_size = config.head_size

    problems_qk = [
        GemmProblem(m=length, n=length, k=head_size)
        for length in lens
        for _ in range(heads)
    ]
    ctx.launch(
        grouped_gemm_launch(
            problems_qk,
            ctx.device,
            scheduler=scheduler,
            name="fmha_grouped_qk",
            extra_bytes=partial_stats_store_bytes(lens, heads),
            extra_flops=partial_stats_flops(lens, heads),
            base_efficiency=FMHA_GROUPED_EFFICIENCY,
        )
    )

    # full reduction sees one entry per attention unit (heads per batch)
    unit_lens = [length for length in lens for _ in range(heads)]
    ctx.launch(full_reduction_launch(unit_lens, heads=1))

    problems_pv = [
        GemmProblem(m=length, n=head_size, k=length)
        for length in lens
        for _ in range(heads)
    ]
    transform_flops = sum(2.0 * length * length * heads for length in lens)
    stats_bytes = sum(2.0 * length * heads * 4 for length in lens)
    ctx.launch(
        grouped_gemm_launch(
            problems_pv,
            ctx.device,
            scheduler=scheduler,
            name="fmha_grouped_pv",
            extra_bytes=float(stats_bytes),
            extra_flops=float(transform_flops),
            base_efficiency=FMHA_GROUPED_EFFICIENCY,
        )
    )


def estimate_byte_mha(
    ctx: ExecutionContext,
    seq_lens: np.ndarray,
    config: BertConfig,
    opt: OptimizationConfig,
) -> None:
    """ByteTransformer fused-MHA dispatch (see ``byte_mha``)."""
    kernel = mha_kernel(
        int(np.max(seq_lens)),
        config.head_size,
        opt.fused_mha_short_max_seq,
        ctx.device,
    )
    if kernel == "short":
        ctx.launch(
            fused_short_launch(
                np.asarray(seq_lens), config.num_heads, config.head_size
            )
        )
        return
    scheduler = (
        SchedulerKind.WARP_PREFETCH
        if opt.warp_prefetch_scheduler
        else SchedulerKind.PER_THREAD
    )
    estimate_fused_long_mha(ctx, seq_lens, config, scheduler)


def _require_cluster(ctx: ExecutionContext, what: str):
    """The context's cluster, or a clear error for sharded estimates."""
    if ctx.cluster is None:
        raise LaunchConfigError(
            f"a {what} needs an interconnect to price its all-reduces; "
            "pass cluster= to ExecutionContext"
        )
    return ctx.cluster


def _estimate_layernorm(
    ctx: ExecutionContext, rows: int, hidden: int, fused: bool, category: str
) -> None:
    if fused:
        ctx.launch(fused_layernorm_launch(rows, hidden, category))
    else:
        ctx.launch(add_bias_residual_launch(rows, hidden, category))
        ctx.launch(layernorm_launch(rows, hidden, category))


def _estimate_ffn(
    ctx: ExecutionContext,
    rows: int,
    config: BertConfig,
    fuse_gelu: bool,
    ffn: int | None = None,
) -> None:
    """The up-projection GEMM (+GELU); ``ffn`` overrides the output
    width for column-sharded tensor parallelism."""
    hidden = config.hidden_size
    if ffn is None:
        ffn = config.ffn_size
    if fuse_gelu:
        ctx.launch(
            gemm_launch(
                rows,
                ffn,
                hidden,
                name="gemm2_fused_bias_gelu",
                category="gemm2",
                epilogue_bytes=tensor_bytes(ffn),
            )
        )
    else:
        ctx.launch(
            gemm_launch(
                rows, ffn, hidden, name="gemm2",
                category="gemm2",
            )
        )
        ctx.launch(add_bias_gelu_launch(rows, ffn))


def estimate_encoder_layer(
    ctx: ExecutionContext,
    config: BertConfig,
    opt: OptimizationConfig,
    seq_lens: np.ndarray,
    max_seq_len: int,
    *,
    mha: str | MhaChain | None = None,
    shard: ShardSpec | None = None,
) -> None:
    """One encoder layer's launch chain for either pipeline.

    ``mha`` overrides the attention implementation: ``"standard"``,
    ``"cublas"``, ``"zeropad"``, ``"fused"``, or an :data:`MhaChain`
    that emits its own chain; by default it follows a
    :func:`~repro.attention.dispatch.force_mha_path` override if one is
    active (the degradation ladder's hook), else ``opt`` exactly as the
    numeric pipelines do.

    ``shard`` prices one tensor-parallel rank's slice of the layer
    (Megatron column/row sharding): the QKV projection and FFN up
    projection are column-sharded, attention runs this rank's heads,
    the two output projections are row-sharded and each followed by a
    priced all-reduce of the ``[rows, hidden]`` activation — the two
    sync points per layer.  Layernorms stay replicated (full width).
    The default / ``tp == 1`` spec emits the exact unsharded stream
    with no collectives.
    """
    if shard is None:
        shard = ShardSpec()
    batch = len(seq_lens)
    hidden = config.hidden_size
    if opt.remove_padding:
        rows = int(np.sum(seq_lens))
    else:
        rows = batch * max_seq_len

    heads_r = shard.shard_dim(config.num_heads)
    if heads_r == 0:
        raise LaunchConfigError(
            f"rank {shard.rank} of tp={shard.tp} holds no attention heads "
            f"(model has {config.num_heads})"
        )
    # this rank's attention width; == hidden when unsharded, and
    # hidden_size is num_heads * head_size so the per-rank config below
    # reports it as its hidden_size
    attn_r = heads_r * config.head_size
    rank_cfg = (
        config if heads_r == config.num_heads
        else replace(config, num_heads=heads_r)
    )

    ctx.launch(
        gemm_launch(rows, 3 * attn_r, hidden, name="gemm0_qkv", category="gemm0")
    )

    if mha is None:
        mha = forced_mha_path()
    if mha is None:
        if opt.fused_mha:
            mha = "fused"
        elif opt.remove_padding:
            mha = "zeropad"
        else:
            mha = "cublas"
    if callable(mha):
        mha(ctx, seq_lens, max_seq_len, rank_cfg)
    elif mha == "standard":
        estimate_standard_mha(ctx, batch, max_seq_len, rank_cfg)
    elif mha == "cublas":
        estimate_unfused_cublas_mha(ctx, batch, max_seq_len, rank_cfg)
    elif mha == "zeropad":
        estimate_zeropad_mha(ctx, seq_lens, max_seq_len, rank_cfg)
    elif mha == "fused":
        estimate_byte_mha(ctx, seq_lens, rank_cfg, opt)
    else:
        raise ValueError(f"unknown mha override {mha!r}")

    ctx.launch(
        gemm_launch(
            rows, hidden, attn_r, name="gemm1_attn_out", category="gemm1"
        )
    )
    if shard.is_sharded:
        ctx.launch(
            all_reduce_launch(
                tensor_bytes(rows, hidden),
                _require_cluster(ctx, "tensor-parallel estimate"),
                devices=shard.tp,
                name=None,
            )
        )
    _estimate_layernorm(ctx, rows, hidden, opt.fuse_layernorm, "layernorm0")
    ffn_r = shard.shard_dim(config.ffn_size)
    _estimate_ffn(ctx, rows, config, opt.fuse_gelu, ffn=ffn_r)
    ctx.launch(
        gemm_launch(
            rows, hidden, ffn_r, name="gemm3_ffn_out",
            category="gemm3",
        )
    )
    if shard.is_sharded:
        ctx.launch(
            all_reduce_launch(
                tensor_bytes(rows, hidden),
                _require_cluster(ctx, "tensor-parallel estimate"),
                devices=shard.tp,
                name=None,
            )
        )
    _estimate_layernorm(ctx, rows, hidden, opt.fuse_layernorm, "layernorm1")


def estimate_model(
    ctx: ExecutionContext,
    config: BertConfig,
    opt: OptimizationConfig,
    seq_lens: np.ndarray,
    max_seq_len: int,
    *,
    mha: str | MhaChain | None = None,
    shard: ShardSpec | None = None,
) -> float:
    """The full model's launch chain; returns the modelled time in us.

    ``mha`` and ``shard`` forward to :func:`estimate_encoder_layer` for
    every layer; pack/unpack stay full-width (activations are
    replicated outside the sharded projections).
    """
    batch = len(seq_lens)
    hidden = config.hidden_size
    before = ctx.elapsed_us()
    if opt.remove_padding:
        tokens = int(np.sum(seq_lens))
        ctx.launch(prefix_sum_launch(batch, max_seq_len))
        ctx.launch(pack_launch(tokens, hidden))
        for _ in range(config.num_layers):
            estimate_encoder_layer(
                ctx, config, opt, seq_lens, max_seq_len, mha=mha,
                shard=shard,
            )
        ctx.launch(unpack_launch(tokens, batch * max_seq_len, hidden))
    else:
        for _ in range(config.num_layers):
            estimate_encoder_layer(
                ctx, config, opt, seq_lens, max_seq_len, mha=mha,
                shard=shard,
            )
    return ctx.elapsed_us() - before


def estimate_model_graphed(
    ctx: ExecutionContext,
    config: BertConfig,
    opt: OptimizationConfig,
    seq_lens: np.ndarray,
    max_seq_len: int,
    *,
    mha: str | None = None,
    shard: ShardSpec | None = None,
    cache: "GraphCache | None" = None,
) -> float:
    """:func:`estimate_model` through a launch-graph cache.

    The estimator's launch stream is a pure function of
    ``(device, cluster, config, opt, effective mha path, shard,
    max_seq_len, lengths)``; the first call per key captures it, repeats
    replay it through ``ctx`` (records appended bit-identically,
    :attr:`launch_hook` runs per replayed launch) without re-running a
    single descriptor builder or pricing pass.  This is the serving
    runtime's admission hot path.

    The dispatch override is resolved *before* keying so the degradation
    ladder never replays a stale path's stream; the cluster and shard
    participate unconditionally so a single-device capture can never
    answer a sharded lookup (or vice versa).  Falls back to the plain
    estimator when ``cache`` is ``None`` or ``ctx`` prices nothing.
    """
    if cache is None or isinstance(ctx, NullContext):
        return estimate_model(
            ctx, config, opt, seq_lens, max_seq_len, mha=mha, shard=shard
        )
    lens = np.asarray(seq_lens, dtype=np.int64)
    effective = mha or forced_mha_path()
    key = (
        "estimate",
        ctx.device,
        ctx.cluster,
        config,
        opt,
        effective,
        shard,
        int(max_seq_len),
        lens.tobytes(),
    )
    return cache.replay_or_capture(
        key,
        ctx,
        lambda cap_ctx: estimate_model(
            cap_ctx, config, opt, lens, max_seq_len, mha=effective,
            shard=shard,
        ),
    )


def canonical_tile_lengths(tile: int, max_seq_len: int) -> np.ndarray:
    """The canonical segment layout a token-budget tile is priced as.

    A tile of ``T`` valid tokens is laid out as ``T // max_seq_len``
    full-length segments plus one ragged remainder — the worst attention
    composition any megabatch inside the tile can reach (``sum(len_i^2)``
    is maximised by the longest admissible segments), so the tile's
    replayed cost never under-prices a real megabatch's attention.  A
    pure function of ``(tile, max_seq_len)``: this is what makes the
    tile-keyed launch graph reusable across arbitrary megabatch
    compositions.
    """
    if tile <= 0:
        raise ValueError(f"tile must be positive, got {tile}")
    if max_seq_len <= 0:
        raise ValueError(f"max_seq_len must be positive, got {max_seq_len}")
    full, remainder = divmod(int(tile), int(max_seq_len))
    lens = [max_seq_len] * full
    if remainder:
        lens.append(remainder)
    return np.asarray(lens, dtype=np.int64)


def estimate_model_tiled(
    ctx: ExecutionContext,
    config: BertConfig,
    opt: OptimizationConfig,
    tile: int,
    max_seq_len: int,
    *,
    mha: str | None = None,
    shard: ShardSpec | None = None,
    cache: "GraphCache | None" = None,
) -> float:
    """Price a shape-quantized megabatch: the tile's canonical launch chain.

    Continuous serving quantizes every megabatch to a token-budget tile
    and pays the tile's canonical cost (see
    :func:`canonical_tile_lengths`) regardless of the exact segment
    composition — exactly like a CUDA-graph deployment that captures one
    graph per compiled shape and launches the fixed grid for anything
    that fits.  The graph-cache key is ``(device, cluster, config,
    preset, path, shard, tile, max_seq_len)`` — one graph per (tile,
    device count, rank, shard mode) composition, so a handful of tiles
    cover all live traffic and steady-state pricing is pure
    :meth:`~repro.gpusim.graph.LaunchGraph.replay`.
    """
    effective = mha or forced_mha_path()
    if cache is None or isinstance(ctx, NullContext):
        return estimate_model(
            ctx, config, opt, canonical_tile_lengths(tile, max_seq_len),
            max_seq_len, mha=effective, shard=shard,
        )
    key = (
        "tile",
        ctx.device,
        ctx.cluster,
        config,
        opt,
        effective,
        shard,
        int(tile),
        int(max_seq_len),
    )
    return cache.replay_or_capture(
        key,
        ctx,
        # the layout is built on a miss only: a cached tile needs none
        lambda cap_ctx: estimate_model(
            cap_ctx, config, opt, canonical_tile_lengths(tile, max_seq_len),
            max_seq_len, mha=effective, shard=shard,
        ),
    )
