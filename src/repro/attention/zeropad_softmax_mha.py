"""cuBLAS MHA with the zero-padding algorithm applied to softmax.

The ``cuBLAS + zero padding`` variant of Figures 11/12 and the MHA used by
pipeline (c) before fused MHA exists: batched GEMM still requires
identical shapes (so the tensor is *unpadded* into the padded layout on
the way in and re-packed on the way out, both fused with the bias/
transpose footprints), but the softmax between the two GEMMs indexes the
score tensor through the prefix-sum offsets and only touches valid
tokens (§III-D, Figure 2 (c)).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.padding import PackedSeqs
from repro.core.parallel import one_blas_thread
from repro.gpusim.stream import ExecutionContext, resolve_context
from repro.kernels.batched_gemm import batched_gemm
from repro.kernels.softmax import zeropad_softmax
from repro.kernels.transpose import (
    add_bias_unpack_split_heads_qkv,
    pack_merge_heads,
)


@one_blas_thread
def zeropad_softmax_mha(
    qkv_packed: np.ndarray,
    qkv_bias: np.ndarray,
    packing: PackedSeqs,
    num_heads: int,
    *,
    ctx: ExecutionContext | None = None,
    category: str = "attention",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Batched-GEMM MHA with padding-free softmax.

    Takes the *packed* ``[T, 3H]`` QKV tensor, returns the *packed*
    ``[T, H]`` attention output.  Unpack→MHA→pack round trip included
    (fused with bias/transpose as the paper does).  ``out`` receives a
    copy of the result when given (the padded intermediates themselves
    stay allocating — their shapes depend on the padded layout).
    """
    tokens, three_hidden = qkv_packed.shape
    if tokens != packing.total_tokens:
        raise ValueError(
            f"{tokens} packed rows != packing total {packing.total_tokens}"
        )
    hidden = three_hidden // 3
    head_size = hidden // num_heads
    context = resolve_context(ctx)

    q, k, v = add_bias_unpack_split_heads_qkv(
        qkv_packed,
        qkv_bias,
        packing.gather_idx,
        packing.batch,
        packing.max_seq_len,
        num_heads,
        ctx=context,
        category=category,
    )

    scores = batched_gemm(
        q / math.sqrt(head_size),
        k,
        transpose_b=True,
        ctx=context,
        name="cublas_bmm_qk",
        category=category,
    )

    probs = zeropad_softmax(
        scores, list(packing.seq_lens), ctx=context, category=category
    )

    attn = batched_gemm(
        probs, v, ctx=context, name="cublas_bmm_pv", category=category
    )
    merged = pack_merge_heads(
        attn, packing.gather_idx, ctx=context, category=category
    )
    if out is None:
        return merged
    np.copyto(out, merged)
    return out
