"""PyTorch-with-JIT framework model.

Eager/TorchScript BERT in FP16: every GEMM goes through cuBLAS (tensor
cores), the JIT fuses short element-wise chains (bias+mask into softmax,
bias+GELU into one kernel), but the pipeline is *padded* end-to-end and
MHA still launches separate transpose copies for Q/K/V — no cross-op
fusion, no variable-length support (Table I row: variable-len no, tuning
yes, fused MHA no, fusion no).  Outside MHA that is the padded
``baseline`` preset.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import BASELINE, BertConfig
from repro.core.estimator import estimate_padded_attention
from repro.frameworks.base import Framework, FrameworkFeatures
from repro.gpusim.stream import ExecutionContext
from repro.kernels.activation import add_bias_launch
from repro.kernels.transpose import split_heads_launch


def pytorch_jit_mha(
    ctx: ExecutionContext,
    seq_lens: np.ndarray,
    max_seq_len: int,
    config: BertConfig,
) -> None:
    """FP16 eager MHA: bias, 3 transposes, bmm, softmax, bmm, merge."""
    rows = len(seq_lens) * max_seq_len
    hidden = config.hidden_size
    ctx.launch(add_bias_launch(rows, 3 * hidden, category="attention"))
    for part in "qkv":
        name = f"pt_transpose_{part}"
        ctx.launch(split_heads_launch(rows, hidden, name=name))
    # JIT fuses the mask add into the softmax pass
    estimate_padded_attention(
        ctx, len(seq_lens), max_seq_len, config, "pt"
    )
    ctx.launch(split_heads_launch(rows, hidden, name="pt_transpose_out"))


PYTORCH_JIT = Framework(
    name="PyTorch JIT",
    features=FrameworkFeatures(
        variable_length_support=False,
        kernel_tuning=True,
        fused_mha_max_seq=None,
        kernel_fusion="no",
    ),
    opt=BASELINE,
    mha=pytorch_jit_mha,
)
