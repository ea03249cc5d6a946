"""TensorFlow-with-XLA framework model.

XLA clusters element-wise HLO into fused kernels, but the BERT graph it
compiles is padded end-to-end, its GEMM algorithm selection is less tuned
than hand-picked cuBLAS heuristics, and layout-assignment inserts extra
transpose/copy ops around the attention einsums.  Measured TF-XLA BERT
inference trails PyTorch by ~20-25% at these shapes, which is what the
extra kernels and the GEMM penalty reproduce (Table I row: variable-len
no, tuning yes, fused MHA no, fusion no).  Outside MHA that is the
padded ``baseline`` preset with every GEMM at the penalty.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import BASELINE, BertConfig
from repro.core.estimator import estimate_padded_attention
from repro.frameworks.base import Framework, FrameworkFeatures
from repro.gpusim.stream import ExecutionContext
from repro.kernels.activation import add_bias_launch
from repro.kernels.softmax import add_mask_launch, softmax_launch
from repro.kernels.transpose import split_heads_launch

#: multiplier on GEMM compute efficiency relative to hand-tuned cuBLAS
#: (XLA's gemm algorithm picker and padding-to-tile behaviour)
XLA_GEMM_PENALTY = 0.80


def xla_mha(
    ctx: ExecutionContext,
    seq_lens: np.ndarray,
    max_seq_len: int,
    config: BertConfig,
) -> None:
    """XLA's MHA: bias, Q/K/V layout copies, bmm, mask, softmax, bmm,
    output copy."""
    batch = len(seq_lens)
    rows = batch * max_seq_len
    hidden = config.hidden_size
    score_rows = batch * config.num_heads * max_seq_len
    ctx.launch(add_bias_launch(rows, 3 * hidden, category="attention"))
    # layout assignment materialises Q, K, V copies
    for part in "qkv":
        name = f"xla_copy_{part}"
        ctx.launch(split_heads_launch(rows, hidden, name=name))
    # the mask add is a separate fused-elementwise cluster
    softmax = [
        add_mask_launch(score_rows, max_seq_len, rows),
        softmax_launch(score_rows, max_seq_len, name="xla_softmax"),
    ]
    estimate_padded_attention(
        ctx, batch, max_seq_len, config, "xla", softmax
    )
    ctx.launch(split_heads_launch(rows, hidden, name="xla_copy_out"))


TENSORFLOW_XLA = Framework(
    name="TensorFlow XLA",
    features=FrameworkFeatures(
        variable_length_support=False,
        kernel_tuning=True,
        fused_mha_max_seq=None,
        kernel_fusion="no",
    ),
    opt=BASELINE,
    mha=xla_mha,
    gemm_efficiency=XLA_GEMM_PENALTY,
)
