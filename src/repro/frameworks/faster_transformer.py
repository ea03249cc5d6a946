"""NVIDIA FasterTransformer framework model.

FasterTransformer supports variable lengths the same way ByteTransformer
does outside MHA — an effective-transformer-style packing — but its fused
MHA comes from the TensorRT BERT plugin, which only covers sequence
lengths up to 512 (register pressure): beyond that it falls back to a
*padded, unfused* batched-GEMM attention, which is why "its end-to-end
efficiency cannot be maintained when the sequence length becomes longer
than 512".  It also lacks ByteTransformer's comprehensive kernel fusion
(Table I: kernel fusion "no"): the layernorm and FFN epilogues run as
standalone kernels.  Outside MHA that is the packed, unfused preset.
"""

from __future__ import annotations

import numpy as np

from repro.attention.fused_short import (
    fused_short_launch,
    short_kernel_shared_mem,
)
from repro.core.config import BertConfig, OptimizationConfig
from repro.core.estimator import estimate_padded_attention
from repro.frameworks.base import Framework, FrameworkFeatures
from repro.gpusim.stream import ExecutionContext
from repro.kernels.transpose import (
    add_bias_unpack_split_heads_qkv_launch,
    pack_merge_heads_launch,
)

#: largest sequence the TensorRT fused-MHA plugin covers
TRT_FUSED_MHA_MAX_SEQ = 512
#: sustained efficiency of the TRT fused MHA kernel — slightly below the
#: paper's hand-tuned short kernel on these shapes
TRT_FUSED_MHA_EFFICIENCY = 0.05


def faster_transformer_mha(
    ctx: ExecutionContext,
    seq_lens: np.ndarray,
    max_seq_len: int,
    config: BertConfig,
) -> None:
    """TRT's padding-free fused MHA up to 512, else the padded fallback."""
    smem = short_kernel_shared_mem(max_seq_len, config.head_size, 32)
    if (
        max_seq_len <= TRT_FUSED_MHA_MAX_SEQ
        and smem <= ctx.device.max_shared_mem_per_block
    ):
        ctx.launch(
            fused_short_launch(
                np.asarray(seq_lens),
                config.num_heads,
                config.head_size,
                efficiency=TRT_FUSED_MHA_EFFICIENCY,
                name="trt_fused_mha",
            )
        )
        return
    # fallback: unpad -> padded batched-GEMM MHA with a plain padded
    # softmax (no zero-padding inside MHA) -> repack
    batch = len(seq_lens)
    tokens = int(np.sum(seq_lens))
    hidden = config.hidden_size
    ctx.launch(
        add_bias_unpack_split_heads_qkv_launch(
            tokens, batch * max_seq_len, 3 * hidden
        )
    )
    estimate_padded_attention(ctx, batch, max_seq_len, config, "ft")
    ctx.launch(pack_merge_heads_launch(tokens, hidden))


FASTER_TRANSFORMER = Framework(
    name="FasterTransformer",
    features=FrameworkFeatures(
        variable_length_support=True,
        kernel_tuning=True,
        fused_mha_max_seq=TRT_FUSED_MHA_MAX_SEQ,
        kernel_fusion="no",
    ),
    opt=OptimizationConfig(remove_padding=True),
    mha=faster_transformer_mha,
)
