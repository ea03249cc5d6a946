"""ByteTransformer itself, as a framework model for Figure 14.

Its row is the paper's system: zero padding, fused MHA for any length
and the full kernel fusion — the ``fused MHA`` preset, as is.
"""

from __future__ import annotations

from repro.core.config import FUSED_MHA
from repro.frameworks.base import Framework, FrameworkFeatures

BYTE_TRANSFORMER = Framework(
    name="ByteTransformer",
    features=FrameworkFeatures(
        variable_length_support=True,
        kernel_tuning=True,
        fused_mha_max_seq=-1,
        kernel_fusion="yes",
    ),
    opt=FUSED_MHA,
)
