"""Plain-NumPy causal-attention oracle for the decode path."""

from __future__ import annotations

import math

import numpy as np

from repro.kernels.softmax import softmax_reference


def reference_causal_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Causal attention over padded ``[B, H, S, d]`` tensors.

    Position ``i`` attends to valid positions ``j <= i`` only.
    """
    batch, heads, seq, head_size = q.shape
    scores = q @ np.swapaxes(k, -1, -2) / math.sqrt(head_size)
    causal = np.tril(np.ones((seq, seq), dtype=bool))
    allowed = causal[None, None] & mask[:, None, None, :].astype(bool)
    scores = np.where(allowed, scores, -1e30)
    return softmax_reference(scores) @ v
