"""Unpadded fused MHA for long sequences — grouped-GEMM FMHA (§III-E.2).

Three launches, regardless of batch and sequence composition:

1. **grouped GEMM** ``P_i = Q_i K_i^T`` over all ``batch x head`` attention
   units (variable ``len_i x len_i`` shapes — batched GEMM cannot do
   this).  The softmax *partial* reduction (per-row max and exp-sum over
   each 128-wide CTA tile, Figure 8) is fused into the epilogue; the bias
   add and ``1/sqrt(d)`` scale are fused into the operand loads.
2. a **lightweight full-reduction kernel** combining the partial
   statistics (measured at ~2% of fused-MHA time in the paper);
3. **grouped GEMM** ``O_i = softmax(P_i) V_i`` with the element-wise
   ``exp(x - max)/sum`` transform fused into the mainloop right after each
   A-fragment load (Algorithm III.2), so the transform's memory latency
   hides behind tensor-core math.

The intermediate matrix is written once and read once (vs four padded
passes for the unfused chain), and every FLOP is on a valid token.
"""

from __future__ import annotations

import math
import queue

import numpy as np

from repro.attention.bucketed import (
    LengthBucket,
    acquire_bucket_scratch,
    build_buckets,
    release_bucket_scratch,
    tile_name,
    tile_runs,
    tile_split,
)
from repro.core.engine import is_vectorized
from repro.core.memory_planner import LiveArena
from repro.core.padding import PackedSeqs
from repro.core.parallel import current_executor, one_blas_thread
from repro.gpusim.memory import BYTES_PER_FP32
from repro.gpusim.stream import ExecutionContext, resolve_context
from repro.kernels.grouped_gemm import (
    GemmProblem,
    SchedulerKind,
    grouped_gemm_launch,
)
from repro.kernels.reduction import (
    apply_softmax_transform,
    full_reduce_stats,
    full_reduction_kernel,
    full_reduction_launch,
    partial_softmax_stats,
    partial_stats_flops,
    partial_stats_store_bytes,
)

#: sustained base efficiency of the FMHA grouped GEMMs (~25 TFLOPS on
#: attention shapes).  Far below plain CUTLASS grouped GEMM: head_size-64
#: reduction depth, the softmax partial reduction in the epilogue and the
#: element-wise transform in the mainloop all steal issue slots from the
#: tensor-core pipeline.  Calibrated so fused-vs-(cuBLAS+zero-padding)
#: lands near the paper's ~1.8x on long sequences.
FMHA_GROUPED_EFFICIENCY = 0.23


@one_blas_thread
def fused_long_mha(
    qkv_packed: np.ndarray,
    qkv_bias: np.ndarray,
    packing: PackedSeqs,
    num_heads: int,
    *,
    scheduler: SchedulerKind = SchedulerKind.WARP_PREFETCH,
    ctx: ExecutionContext | None = None,
    category: str = "attention",
    out: np.ndarray | None = None,
    scratch: LiveArena | None = None,
    split: int = 1,
) -> np.ndarray:
    """Grouped-GEMM fused MHA on a packed ``[T, 3H]`` QKV tensor.

    Returns the packed ``[T, H]`` attention output.  Works for any
    sequence length; it is the dispatch target for ``max_seq_len`` beyond
    the short kernel's resource limit.  ``out``/``scratch`` route the
    output and the vectorized path's per-bucket intermediates through
    caller storage (see :func:`repro.attention.bucketed.bucketed_sdpa`).
    With fewer buckets than ``split`` (a batch of one is one bucket),
    each bucket's (sequence, head) tiles are cut into ``split`` runs on
    the current executor, each run with a tile of its own.
    """
    tokens, three_hidden = qkv_packed.shape
    if tokens != packing.total_tokens:
        raise ValueError(
            f"{tokens} packed rows != packing total {packing.total_tokens}"
        )
    if qkv_bias.shape != (three_hidden,):
        raise ValueError(f"bias shape {qkv_bias.shape} != ({three_hidden},)")
    hidden = three_hidden // 3
    if hidden % num_heads != 0:
        raise ValueError(f"hidden {hidden} not divisible by {num_heads} heads")
    head_size = hidden // num_heads
    context = resolve_context(ctx)
    scale = 1.0 / math.sqrt(head_size)

    seq_lens = [int(length) for length in packing.seq_lens]

    # the three cost descriptors depend only on the shape vector; both
    # engines emit them byte-identically, in the same unit order
    units: list[tuple[int, int]] = [
        (b, h) for b in range(packing.batch) for h in range(num_heads)
    ]
    problems = [
        GemmProblem(m=seq_lens[b], n=seq_lens[b], k=head_size)
        for b, _ in units
    ]
    problems_pv = [
        GemmProblem(m=seq_lens[b], n=head_size, k=seq_lens[b])
        for b, _ in units
    ]
    epilogue_bytes = partial_stats_store_bytes(seq_lens, num_heads)
    epilogue_flops = partial_stats_flops(seq_lens, num_heads)

    if is_vectorized():
        # ---- launch 1: grouped GEMM Q K^T with partial-reduction epilogue
        context.launch(
            grouped_gemm_launch(
                problems,
                context.device,
                scheduler=scheduler,
                name="fmha_grouped_qk",
                category=category,
                extra_bytes=epilogue_bytes,
                extra_flops=epilogue_flops,
                base_efficiency=FMHA_GROUPED_EFFICIENCY,
            )
        )
        # ---- launch 2: lightweight full reduction over the partials ----
        # the tiled host body below runs both reduction phases per tile
        unit_lens = [seq_lens[b] for b, _ in units]
        context.launch(
            full_reduction_launch(unit_lens, heads=1, category=category)
        )
        out = _bucketed_fused_long(
            qkv_packed, qkv_bias, packing, num_heads, head_size, scale,
            out=out, scratch=scratch, split=split,
        )
        # ---- launch 3: grouped GEMM P V with mainloop softmax transform
        # per-unit epilogue sums are integers, so the closed forms below
        # equal the looped float accumulation exactly
        sq_total = sum(length * length for length in seq_lens)
        transform_flops = 2.0 * num_heads * sq_total
        stats_bytes = 2.0 * num_heads * sum(seq_lens) * BYTES_PER_FP32
        context.launch(
            grouped_gemm_launch(
                problems_pv,
                context.device,
                scheduler=scheduler,
                name="fmha_grouped_pv",
                category=category,
                extra_bytes=stats_bytes,
                extra_flops=transform_flops,
                base_efficiency=FMHA_GROUPED_EFFICIENCY,
            )
        )
        return out

    # bias add is fused into the grouped GEMMs' operand loads
    biased = qkv_packed + qkv_bias
    q_all = biased[:, :hidden]
    k_all = biased[:, hidden : 2 * hidden]
    v_all = biased[:, 2 * hidden :]

    # ---- launch 1: grouped GEMM Q K^T with partial-reduction epilogue ----
    scores: list[np.ndarray] = []
    partials: list[tuple[np.ndarray, np.ndarray]] = []
    for b, h in units:
        rows = packing.rows_of(b)
        cols = slice(h * head_size, (h + 1) * head_size)
        p = (q_all[rows, cols] @ k_all[rows, cols].T) * scale
        scores.append(p)
        partials.append(partial_softmax_stats(p))

    context.launch(
        grouped_gemm_launch(
            problems,
            context.device,
            scheduler=scheduler,
            name="fmha_grouped_qk",
            category=category,
            extra_bytes=epilogue_bytes,
            extra_flops=epilogue_flops,
            base_efficiency=FMHA_GROUPED_EFFICIENCY,
        )
    )

    # ---- launch 2: lightweight full reduction over the partials ----
    stats = full_reduction_kernel(partials, ctx=context, category=category)

    # ---- launch 3: grouped GEMM P V with mainloop softmax transform ----
    if out is None:
        out = np.empty((tokens, hidden), dtype=qkv_packed.dtype)
    transform_flops = 0.0
    stats_bytes = 0.0
    for (b, h), p, (row_max, row_sum) in zip(units, scores, stats):
        rows = packing.rows_of(b)
        cols = slice(h * head_size, (h + 1) * head_size)
        probs = apply_softmax_transform(p, row_max, row_sum)
        out[rows, cols] = probs @ v_all[rows, cols]
        transform_flops += 2.0 * p.size
        stats_bytes += 2.0 * row_max.size * BYTES_PER_FP32

    context.launch(
        grouped_gemm_launch(
            problems_pv,
            context.device,
            scheduler=scheduler,
            name="fmha_grouped_pv",
            category=category,
            extra_bytes=stats_bytes,
            extra_flops=transform_flops,
            base_efficiency=FMHA_GROUPED_EFFICIENCY,
        )
    )
    return out


def _bucketed_fused_long(
    qkv_packed: np.ndarray,
    qkv_bias: np.ndarray,
    packing: PackedSeqs,
    num_heads: int,
    head_size: int,
    scale: float,
    *,
    out: np.ndarray | None = None,
    scratch: LiveArena | None = None,
    split: int = 1,
) -> np.ndarray:
    """Batched numerics of the grouped-GEMM FMHA, one tile at a time.

    Every (sequence, head) tile runs the looped reference's per-unit op
    sequence and dtypes — the biased head slices of Q, K and V, NT GEMM
    ``q @ k.T``, scale, the reference's own partial and full softmax
    reductions, ``exp(x - max) / sum`` into fp64 (fp32 scores upcast on
    the way in, as the reference's fp64 broadcast does), fp64
    ``probs @ v`` written straight into ``out`` — so the engines agree
    bit for bit.  Each bucket's tiles run in
    :func:`~repro.attention.bucketed.tile_runs` (one per bucket unless
    :func:`~repro.attention.bucketed.tile_split` cuts them), each
    reusing one ``[L, L]`` tile, so the runs may go to the current
    :class:`~repro.core.parallel.BucketExecutor`.  With ``scratch`` in
    float64, each run's tile is what
    :func:`~repro.attention.bucketed.bucket_scratch` declares.
    Otherwise the calling thread allocates one tile per run that can
    be in flight, sized for the longest bucket, and each run borrows
    one: tiles allocated on pool threads stayed in their malloc arenas
    and raised peak RSS, and carving fp32 tiles for every bucket from
    the arena touched backing pages that raised it by ~15%.
    """
    tokens = packing.total_tokens
    hidden = num_heads * head_size
    dtype = qkv_packed.dtype
    if out is None:
        out = np.empty((tokens, hidden), dtype=dtype)
    # exact buckets (bucket_step=1) hold no padding, so nothing is masked
    buckets = build_buckets(packing)
    runs_each = tile_split(buckets, split)
    bufs = (
        acquire_bucket_scratch(
            scratch, "long", buckets, num_heads, head_size, dtype, split
        )
        if scratch is not None
        else [{}] * len(buckets)
    )

    items = [
        (i, run)
        for i, bucket in enumerate(buckets)
        for run in range(len(tile_runs(bucket, num_heads, runs_each)))
    ]
    executor = current_executor()
    free: queue.SimpleQueue = queue.SimpleQueue()
    if not any(bufs):
        area = max(bucket.length for bucket in buckets) ** 2
        for _ in range(min(len(items), executor.workers)):
            probs = np.empty(area)
            free.put(
                (probs, probs if dtype == np.float64 else np.empty(area, dtype))
            )

    def run_units(
        bucket: LengthBucket,
        units: tuple[int, int],
        probs: np.ndarray,
        scores: np.ndarray,
    ) -> None:
        """Run the bucket's tiles ``units[0]`` to ``units[1]`` through
        one ``[L, L]`` tile (``scores`` may be ``probs``)."""
        length = bucket.length
        for unit in range(*units):
            b, h = divmod(unit, num_heads)
            start = int(bucket.rows[b, 0])
            q, k, v = (
                qkv_packed[start : start + length, cols] + qkv_bias[cols]
                for cols in (
                    slice(part * hidden + h * head_size,
                          part * hidden + (h + 1) * head_size)
                    for part in range(3)
                )
            )
            np.matmul(q, k.T, out=scores)
            scores *= scale
            stats = partial_softmax_stats(scores)
            row_max, row_sum = full_reduce_stats(*stats)
            # apply_softmax_transform, written into the fp64 tile
            np.subtract(scores, row_max[:, None], out=probs)
            np.exp(probs, out=probs)
            np.divide(probs, row_sum[:, None], out=probs)
            cols = slice(h * head_size, (h + 1) * head_size)
            np.matmul(probs, v, out=out[start : start + length, cols])

    def run_tiles(item: tuple[int, int]) -> None:
        """Run one run of one bucket's tiles, in its declared tile or a
        borrowed one (returned even when the run raises)."""
        i, run = item
        bucket = buckets[i]
        runs = tile_runs(bucket, num_heads, runs_each)
        if bufs[i]:
            tile = bufs[i][tile_name(run, len(runs))]
            run_units(bucket, runs[run], tile, tile)
            return
        area = bucket.length * bucket.length
        borrowed = free.get()
        try:
            probs, scores = (
                buf[:area].reshape(bucket.length, bucket.length)
                for buf in borrowed
            )
            run_units(bucket, runs[run], probs, scores)
        finally:
            free.put(borrowed)

    executor.map(run_tiles, items)
    if scratch is not None:
        release_bucket_scratch(scratch, bufs)
    return out
