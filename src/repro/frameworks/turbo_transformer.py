"""Tencent TurboTransformer framework model.

TurboTransformer handles variable lengths with a *run-time batch
scheduler*: it sorts incoming sentences by length and partitions them
into groups of similar length, padding only within each group, then runs
the (padded) encoder once per group.  This caps padding waste but
multiplies kernel launches by the group count and shrinks each launch's
grid — which is exactly the "significant performance degradation for
models with large batch numbers and sequence lengths" the paper observes.

Its kernels fuse some memory-bound footprints ("partially" in Table I):
per group that is the ``layernorm fusion`` preset — the fused
add-bias+layernorm kernel, an unfused FFN epilogue — with a plain padded
batched-GEMM (cuBLAS) MHA.  TurboTransformer only supports sequences
shorter than 512.
"""

from __future__ import annotations

from repro.core.config import LAYERNORM_FUSION
from repro.frameworks.base import Framework, FrameworkFeatures, LengthGrouping

#: smart batching's fixed per-group charge, in padded tokens
GROUP_COST_TOKENS = 320
#: fixed per-group runtime cost of the batch scheduler itself
GROUP_OVERHEAD_US = 50.0
#: host-side cost of TurboTransformer's model-aware memory allocator and
#: operator dispatch, paid once per layer per group: the allocator plans
#: activation placement at run time, serialising with the GPU stream.
#: This is what makes "excessive kernel launches at run-time" hurt at
#: large batch counts (many groups) in Figure 14.
ALLOCATOR_OVERHEAD_PER_LAYER_US = 60.0

TURBO_TRANSFORMER = Framework(
    name="TurboTransformer",
    features=FrameworkFeatures(
        variable_length_support=True,
        kernel_tuning=True,
        fused_mha_max_seq=None,
        kernel_fusion="partially",
    ),
    opt=LAYERNORM_FUSION,
    mha="cublas",
    grouping=LengthGrouping(
        cost_tokens=GROUP_COST_TOKENS,
        group_overhead_us=GROUP_OVERHEAD_US,
        layer_overhead_us=ALLOCATOR_OVERHEAD_PER_LAYER_US,
    ),
    max_supported_seq=511,
)
