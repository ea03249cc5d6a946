"""Length-bucketed batched execution of packed attention units.

The looped reference engine walks attention one ``(batch, head)`` unit at
a time; on a host CPU that means thousands of small BLAS calls and
temporary slices per forward.  This module groups sequences whose lengths
fall in the same bucket and runs **one** ``[B', h, s, d]`` batched matmul
+ (masked) softmax per bucket, scattering the results back through the
:class:`~repro.core.padding.PackedSeqs` offsets.

Bucketing strategy
------------------
``bucket_step=1`` (the default) makes every *distinct length* its own
bucket: no intra-bucket padding exists, no masking is needed, and each
2-D sub-problem sees exactly the same operand bytes as the looped
reference — the batched result is bit-identical, not merely close.
``bucket_step>1`` rounds lengths up to the next multiple (TurboTransformers
-style quantized buckets): fewer, larger launches at the price of padded
FLOPs, with invalid key columns masked to ``-1e30`` before the softmax so
padding contributes exactly ``0.0`` probability in fp32.

Host-only transformation: callers keep emitting the exact same
:class:`~repro.gpusim.kernel.KernelLaunch` descriptors; the modelled GPU
cost is untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.memory_planner import LiveArena
from repro.core.padding import PackedSeqs
from repro.core.parallel import current_executor

#: default bucket quantization; 1 == one bucket per distinct length
DEFAULT_BUCKET_STEP = 1

#: additive mask for padded key columns inside a quantized bucket.  Large
#: enough that ``exp(x - row_max)`` underflows to exactly 0.0 in fp32
#: (unlike the modelling-side ``MASK_VALUE = -1e4``, which only *damps*).
_BUCKET_MASK_VALUE = np.float32(-1e30)


def group_by_length(seq_lens: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """``[(length, sentence_indices)]`` for each distinct length, ascending."""
    lens = np.asarray(seq_lens)
    order = np.argsort(lens, kind="stable")
    boundaries = np.flatnonzero(np.diff(lens[order])) + 1
    return [
        (int(lens[g[0]]), g) for g in np.split(order, boundaries)
    ]


@dataclass(frozen=True)
class LengthBucket:
    """One batch of attention units sharing a (padded) sequence length.

    Attributes
    ----------
    length:
        Bucket sequence length ``s`` (== every member's length when the
        bucket is exact).
    seq_idx:
        ``[B']`` sentence indices collected into this bucket.
    lengths:
        ``[B']`` actual valid lengths of those sentences.
    rows:
        ``[B', s]`` packed-tensor row of each (sentence, position); padded
        positions are clipped to the sentence's last valid row so gathers
        stay in bounds (their values are masked away).
    valid:
        ``[B', s]`` bool validity, or ``None`` when the bucket is exact
        (no padding, no masking needed).
    """

    length: int
    seq_idx: np.ndarray
    lengths: np.ndarray
    rows: np.ndarray
    valid: np.ndarray | None


def build_buckets(
    packing: PackedSeqs, bucket_step: int = DEFAULT_BUCKET_STEP
) -> list[LengthBucket]:
    """Group the packing's sentences into length buckets."""
    if bucket_step < 1:
        raise ValueError(f"bucket_step must be >= 1, got {bucket_step}")
    lens = packing.seq_lens
    starts = packing.seq_offsets[:-1]
    if bucket_step == 1:
        keys = lens
    else:
        keys = ((lens + bucket_step - 1) // bucket_step) * bucket_step
    buckets = []
    for _, idx in group_by_length(keys):
        length = int(keys[idx[0]])
        blens = lens[idx]
        pos = np.arange(length, dtype=np.int64)
        rows = starts[idx][:, None] + np.minimum(
            pos[None, :], blens[:, None] - 1
        )
        if bool((blens == length).all()):
            valid = None
        else:
            valid = pos[None, :] < blens[:, None]
        buckets.append(
            LengthBucket(
                length=length,
                seq_idx=idx,
                lengths=blens,
                rows=rows,
                valid=valid,
            )
        )
    return buckets


def softmax_lastaxis_inplace(x: np.ndarray) -> np.ndarray:
    """Row softmax over the last axis, in place.

    Performs the exact operation sequence of
    :func:`repro.kernels.softmax.softmax_reference` (max-shift, exp,
    normalize) so results are bit-identical — just without allocating the
    three intermediate tensors.
    """
    row_max = x.max(axis=-1, keepdims=True)
    np.subtract(x, row_max, out=x)
    np.exp(x, out=x)
    denom = x.sum(axis=-1, keepdims=True)
    x /= denom
    return x


def tile_split(buckets: list[LengthBucket], split: int) -> int:
    """How many runs the long kernel cuts each bucket's tiles into:
    ``split`` when there are fewer buckets than that (a batch of one is
    one bucket), else 1, as the buckets alone fill the executor."""
    return split if len(buckets) < split else 1


def tile_runs(
    bucket: LengthBucket, num_heads: int, runs: int
) -> list[tuple[int, int]]:
    """The long kernel's runs over a bucket's (sequence, head) tiles.

    Tile ``u`` is sequence ``u // num_heads``, head ``u % num_heads``;
    the tiles are cut into ``runs`` contiguous, near-equal runs (fewer
    when the bucket has fewer tiles), each run reusing one ``[L, L]``
    tile.
    """
    units = bucket.rows.shape[0] * num_heads
    runs = max(1, min(int(runs), units))
    bounds = [units * j // runs for j in range(runs + 1)]
    return [(bounds[j], bounds[j + 1]) for j in range(runs)]


def tile_name(run: int, runs: int) -> str:
    """The scratch suffix of a bucket's ``run``-th long-kernel tile."""
    return "tile" if runs == 1 else f"tile.{run}"


def bucket_scratch(
    kernel: str,
    bucket: LengthBucket,
    num_heads: int,
    head_size: int,
    dtype: np.dtype | type,
    runs: int = 1,
) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """The arena scratch one bucket of ``kernel`` takes, in take order.

    Ordered ``(suffix, shape)`` pairs, each taken in the forward's dtype
    as ``mha.{i}.{suffix}`` for bucket ``i``:

    * ``"short"`` (:func:`bucketed_sdpa`): the gathered QKV rows, the
      per-head Q, K and V, the bucket-wide scores, the context and the
      merged heads;
    * ``"long"`` in float64
      (:func:`repro.attention.fused_long._bucketed_fused_long`): one
      ``[L, L]`` tile for each of the bucket's :func:`tile_runs`
      (``runs`` of them);
    * ``"long"`` in any other dtype: nothing (the calling thread lends
      its tiles).

    :func:`acquire_bucket_scratch` takes exactly this and
    :func:`~repro.core.memory_planner.plan_live_forward` plans exactly
    this, so the plan and the engine cannot drift apart.
    """
    bsz, length = bucket.rows.shape
    hidden = num_heads * head_size
    if kernel == "long":
        if np.dtype(dtype) != np.float64:
            return ()
        runs = len(tile_runs(bucket, num_heads, runs))
        return tuple(
            (tile_name(run, runs), (length, length)) for run in range(runs)
        )
    unit = (bsz, num_heads, length, head_size)
    return (
        ("blk", (bsz * length, 3 * hidden)),
        ("q", unit),
        ("k", unit),
        ("v", unit),
        ("scores", (bsz, num_heads, length, length)),
        ("ctx", unit),
        ("merged", (bsz * length, hidden)),
    )


def acquire_bucket_scratch(
    scratch: LiveArena,
    kernel: str,
    buckets: list[LengthBucket],
    num_heads: int,
    head_size: int,
    dtype: np.dtype | type,
    split: int = 1,
) -> list[dict[str, np.ndarray]]:
    """Take every bucket's declared scratch (:func:`bucket_scratch`).

    All takes happen serially *before* any bucket work runs, so buckets
    may then execute on a worker pool without ever touching the (non
    thread-safe) arena.  Returns one ``{suffix: view}`` dict per bucket,
    in take order; a kernel that declares nothing gets empty dicts.
    ``split`` is the long kernel's (see :func:`tile_split`).
    """
    runs = tile_split(buckets, split)
    return [
        {
            suffix: scratch.take(f"mha.{i}.{suffix}", shape, dtype)
            for suffix, shape in bucket_scratch(
                kernel, bucket, num_heads, head_size, dtype, runs
            )
        }
        for i, bucket in enumerate(buckets)
    ]


def release_bucket_scratch(
    scratch: LiveArena, bufs: list[dict[str, np.ndarray]]
) -> None:
    """Release what :func:`acquire_bucket_scratch` took, in take order."""
    for i, taken in enumerate(bufs):
        for suffix in taken:
            scratch.release(f"mha.{i}.{suffix}")


def _bucket_qkv(
    qkv_packed: np.ndarray,
    qkv_bias: np.ndarray,
    bucket: LengthBucket,
    num_heads: int,
    head_size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather one bucket's biased Q / K^T / V as batched BLAS operands.

    Returns ``q``/``v`` contiguous ``[B', h, s, d]`` and ``kt`` as the
    ``[B', h, d, s]`` *transposed view* of a contiguous K.  Each 2-D slice
    is then directly BLAS-able, and the transposed K view makes
    ``np.matmul`` issue the same no-trans x trans GEMM as the looped
    reference's ``q @ k.T`` — bit-identical accumulation, not just close.
    """
    bsz, length = bucket.rows.shape
    blk = qkv_packed[bucket.rows.ravel()]
    blk += qkv_bias  # blk is a fresh gather copy: in-place add is safe
    blk5 = blk.reshape(bsz, length, 3, num_heads, head_size)
    q = np.ascontiguousarray(blk5[:, :, 0].transpose(0, 2, 1, 3))
    k = np.ascontiguousarray(blk5[:, :, 1].transpose(0, 2, 1, 3))
    v = np.ascontiguousarray(blk5[:, :, 2].transpose(0, 2, 1, 3))
    return q, k.swapaxes(-1, -2), v


def _bucket_qkv_into(
    qkv_packed: np.ndarray,
    qkv_bias: np.ndarray,
    bucket: LengthBucket,
    num_heads: int,
    head_size: int,
    bufs: dict[str, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_bucket_qkv` into pre-acquired scratch, bit for bit.

    ``np.take`` with ``out=`` selects the same rows as fancy indexing,
    the in-place bias add matches ``blk += qkv_bias``, and ``np.copyto``
    into a contiguous buffer performs the same element copy as
    ``np.ascontiguousarray`` — no value changes anywhere.
    """
    bsz, length = bucket.rows.shape
    blk = bufs["blk"]
    np.take(qkv_packed, bucket.rows.ravel(), axis=0, out=blk)
    np.add(blk, qkv_bias, out=blk)
    blk5 = blk.reshape(bsz, length, 3, num_heads, head_size)
    np.copyto(bufs["q"], blk5[:, :, 0].transpose(0, 2, 1, 3))
    np.copyto(bufs["k"], blk5[:, :, 1].transpose(0, 2, 1, 3))
    np.copyto(bufs["v"], blk5[:, :, 2].transpose(0, 2, 1, 3))
    return bufs["q"], bufs["k"].swapaxes(-1, -2), bufs["v"]


def bucketed_sdpa(
    qkv_packed: np.ndarray,
    qkv_bias: np.ndarray,
    packing: PackedSeqs,
    num_heads: int,
    *,
    scale: float | None = None,
    bucket_step: int = DEFAULT_BUCKET_STEP,
    out: np.ndarray | None = None,
    scratch: LiveArena | None = None,
) -> np.ndarray:
    """Scaled-dot-product attention over all packed units, bucket by bucket.

    Numerically equivalent to the looped per-``(b, h)`` reference: exact
    buckets (``bucket_step=1``) are bit-identical; quantized buckets agree
    to fp32 rounding.  Returns the packed ``[T, H]`` attention output.

    ``scratch`` routes every large per-bucket intermediate through the
    live arena (bit-identical ``out=`` rewrites of the same ops).
    Buckets run on the current :class:`~repro.core.parallel.BucketExecutor`
    — they share no data and scatter to disjoint output rows, so the
    fan-out is race-free; scratch is pre-acquired serially beforehand.
    """
    tokens, three_hidden = qkv_packed.shape
    hidden = three_hidden // 3
    head_size = hidden // num_heads
    if scale is None:
        scale = 1.0 / math.sqrt(head_size)
    if out is None:
        out = np.empty((tokens, hidden), dtype=qkv_packed.dtype)

    buckets = build_buckets(packing, bucket_step)
    bufs = (
        acquire_bucket_scratch(
            scratch, "short", buckets, num_heads, head_size, qkv_packed.dtype
        )
        if scratch is not None
        else None
    )

    def run_bucket(i: int) -> None:
        bucket = buckets[i]
        bsz, length = bucket.rows.shape
        if bufs is None:
            q, kt, v = _bucket_qkv(
                qkv_packed, qkv_bias, bucket, num_heads, head_size
            )
            scores = np.matmul(q, kt)
        else:
            q, kt, v = _bucket_qkv_into(
                qkv_packed, qkv_bias, bucket, num_heads, head_size, bufs[i]
            )
            scores = np.matmul(q, kt, out=bufs[i]["scores"])
        scores *= scale
        if bucket.valid is not None:
            # only padded *key* columns poison real rows; padded query
            # rows compute garbage that is simply never scattered back
            np.copyto(
                scores,
                _BUCKET_MASK_VALUE,
                where=~bucket.valid[:, None, None, :],
            )
        probs = softmax_lastaxis_inplace(scores)
        if bufs is None:
            attn = np.matmul(probs, v)
            merged: np.ndarray = attn.transpose(0, 2, 1, 3).reshape(
                bsz * length, hidden
            )
        else:
            attn = np.matmul(probs, v, out=bufs[i]["ctx"])
            merged = bufs[i]["merged"]
            np.copyto(
                merged.reshape(bsz, length, num_heads, head_size),
                attn.transpose(0, 2, 1, 3),
            )
        if bucket.valid is None:
            out[bucket.rows.ravel()] = merged
        else:
            flat_valid = bucket.valid.ravel()
            out[bucket.rows.ravel()[flat_valid]] = merged[flat_valid]

    current_executor().map(run_bucket, range(len(buckets)))
    if scratch is not None:
        release_bucket_scratch(scratch, bufs)
    return out
