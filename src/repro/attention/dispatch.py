"""Short/long dispatch for ByteTransformer's fused MHA.

The short kernel (Algorithm III.1) is fastest when its shared-memory and
register budget fits the maximal sequence length; beyond that the
grouped-GEMM kernel (§III-E.2) takes over.  This mirrors the "explicit
design for both short and long sequences" the paper concludes with.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np

from repro.attention.fused_long import fused_long_mha
from repro.attention.fused_short import fused_short_mha, supports
from repro.attention.zeropad_softmax_mha import zeropad_softmax_mha
from repro.core.memory_planner import LiveArena
from repro.core.padding import PackedSeqs
from repro.gpusim.device import DeviceSpec
from repro.gpusim.stream import ExecutionContext, resolve_context
from repro.kernels.grouped_gemm import SchedulerKind

#: attention implementations the dispatch layer can be forced onto, in
#: decreasing order of aggressiveness — the serving runtime's
#: degradation ladder walks this list when fused kernels keep faulting
MHA_PATHS = ("fused", "zeropad", "cublas")

_forced_path: str | None = None


def forced_mha_path() -> str | None:
    """The active dispatch override, or ``None`` for normal dispatch."""
    return _forced_path


@contextlib.contextmanager
def force_mha_path(path: str | None) -> Iterator[str | None]:
    """Force the MHA dispatch onto ``path`` within the ``with`` block.

    ``path`` is one of :data:`MHA_PATHS` (or ``None`` to restore normal
    short/long dispatch).  Both the numeric :func:`byte_mha` dispatch and
    the cost estimator honour the override — this is the hook the
    serving runtime's degradation ladder uses to step the engine off the
    aggressive fused kernels and back.
    """
    global _forced_path
    if path is not None and path not in MHA_PATHS:
        raise ValueError(f"unknown MHA path {path!r}; pick one of {MHA_PATHS}")
    previous = _forced_path
    _forced_path = path
    try:
        yield path
    finally:
        _forced_path = previous


def mha_kernel(
    max_len: int, head_size: int, short_max_seq: int, device: DeviceSpec
) -> str:
    """Which fused kernel a batch runs: ``"short"`` or ``"long"``.

    The short kernel takes a batch whose longest sequence is within
    ``short_max_seq`` (``OptimizationConfig.fused_mha_short_max_seq``)
    and whose shared-memory tiles fit ``device``; the grouped long
    kernel takes the rest.  The numeric dispatch, the cost estimator and
    the live-arena planner all choose through this one function.
    """
    if max_len <= short_max_seq and supports(
        max_len, head_size, device.max_shared_mem_per_block
    ):
        return "short"
    return "long"


def byte_mha(
    qkv_packed: np.ndarray,
    qkv_bias: np.ndarray,
    packing: PackedSeqs,
    num_heads: int,
    *,
    short_max_seq: int = 384,
    scheduler: SchedulerKind = SchedulerKind.WARP_PREFETCH,
    ctx: ExecutionContext | None = None,
    category: str = "attention",
    out: np.ndarray | None = None,
    scratch: LiveArena | None = None,
    split: int = 1,
) -> np.ndarray:
    """ByteTransformer's fused MHA: pick the short or long kernel.

    Packed ``[T, 3H]`` in, packed ``[T, H]`` out; bias fused either way.
    ``out``/``scratch`` are forwarded to whichever path runs (the
    zeropad fallback honours ``out`` only — its padded intermediates are
    layout-dependent and stay allocating).  ``split`` is the long
    kernel's tile fan-out (see :func:`fused_long_mha`); the short
    kernel runs each bucket whole.
    """
    hidden = qkv_packed.shape[1] // 3
    head_size = hidden // num_heads
    context = resolve_context(ctx)
    if _forced_path in ("zeropad", "cublas"):
        # Degraded dispatch: fall back to the conservative batched-GEMM
        # MHA.  The truly unfused cuBLAS kernel only exists in the padded
        # layout, so on the packed call path both degraded rungs land on
        # zeropad_softmax_mha — same function, no fused kernels involved.
        return zeropad_softmax_mha(
            qkv_packed, qkv_bias, packing, num_heads, ctx=context,
            category=category, out=out,
        )
    kernel = mha_kernel(
        int(packing.seq_lens.max()), head_size, short_max_seq,
        context.device,
    )
    if kernel == "short":
        return fused_short_mha(
            qkv_packed, qkv_bias, packing, num_heads, ctx=context,
            category=category, out=out, scratch=scratch,
        )
    return fused_long_mha(
        qkv_packed, qkv_bias, packing, num_heads,
        scheduler=scheduler, ctx=context, category=category,
        out=out, scratch=scratch, split=split,
    )
