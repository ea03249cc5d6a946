"""Framework cost models for the paper's end-to-end comparison (Fig. 14).

Each framework is a row of the paper's Table I — a padding policy, a
fusion preset, an MHA chain and a GEMM efficiency — over the one
estimator (see :mod:`repro.frameworks.base`).
"""

from repro.frameworks.base import (
    Framework,
    FrameworkFeatures,
    smart_batching,
    table1_rows,
)
from repro.frameworks.byte_transformer import BYTE_TRANSFORMER
from repro.frameworks.faster_transformer import FASTER_TRANSFORMER
from repro.frameworks.pytorch_jit import PYTORCH_JIT
from repro.frameworks.tensorflow_xla import TENSORFLOW_XLA
from repro.frameworks.turbo_transformer import TURBO_TRANSFORMER


def all_frameworks() -> list[Framework]:
    """The five systems of Figure 14, in the paper's legend order."""
    return [
        PYTORCH_JIT,
        TENSORFLOW_XLA,
        TURBO_TRANSFORMER,
        FASTER_TRANSFORMER,
        BYTE_TRANSFORMER,
    ]
