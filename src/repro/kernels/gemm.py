"""Dense GEMM with optional fused epilogue.

Mirrors the role cuBLAS/CUTLASS play in the paper: a tensor-core GEMM whose
epilogue can apply add-bias and GELU *without* a round-trip through DRAM
(§III-C.2).  The cost model follows CUTLASS's CTA-tile structure: the grid
is the number of output tiles, sustained tensor-core efficiency degrades
for shallow ``k`` and for tile-quantisation waste, and DRAM traffic counts
each operand streamed once (good L2 reuse is assumed for these shapes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.memory_planner import KERNEL_SCRATCH
from repro.gpusim.kernel import ComputeUnit, KernelLaunch
from repro.gpusim.memory import BYTES_PER_ELEMENT, tensor_bytes
from repro.gpusim.stream import ExecutionContext, NullContext, resolve_context
from repro.kernels.activation import apply_gelu

#: sustained fraction of tensor-core peak for a large, well-shaped GEMM
BASE_TC_EFFICIENCY = 0.78
#: ``k`` ramp constant: eff multiplier is k / (k + K_RAMP)
K_RAMP = 48.0


@dataclass(frozen=True)
class TileConfig:
    """CTA tile selection for a GEMM problem."""

    tile_m: int
    tile_n: int
    block_threads: int
    smem_bytes: int
    regs_per_thread: int


def select_tile(m: int, n: int) -> TileConfig:
    """Pick a CUTLASS-like CTA tile for an ``m x n`` output.

    Large outputs use 128x128 tiles (256 threads); smaller outputs fall
    back to 64x64 tiles so short sequences still fill the device.
    """
    if m >= 128 and n >= 128:
        # double-buffered 128x128x32 FP16 tiles
        return TileConfig(128, 128, 256, 2 * (128 + 128) * 32 * 2, 128)
    if m >= 64 and n >= 64:
        return TileConfig(64, 64, 128, 2 * (64 + 64) * 32 * 2, 96)
    return TileConfig(32, 32, 64, 2 * (32 + 32) * 32 * 2, 64)


def gemm_efficiency(m: int, n: int, k: int, tile: TileConfig) -> float:
    """Sustained tensor-core efficiency for an ``m x n x k`` GEMM.

    Three effects: a base achievable fraction, a ramp in the reduction
    depth ``k`` (mainloop prologue/epilogue amortisation), and tile
    quantisation (padded tile area does no useful work).
    """
    if min(m, n, k) <= 0:
        raise ValueError(f"GEMM dims must be positive, got {(m, n, k)}")
    k_ramp = k / (k + K_RAMP)
    tiles_m = math.ceil(m / tile.tile_m)
    tiles_n = math.ceil(n / tile.tile_n)
    useful = m * n
    computed = tiles_m * tile.tile_m * tiles_n * tile.tile_n
    quantisation = useful / computed
    return BASE_TC_EFFICIENCY * k_ramp * quantisation


def gemm_launch(
    m: int,
    n: int,
    k: int,
    *,
    name: str = "gemm",
    category: str = "gemm",
    epilogue_bytes: float = 0.0,
    extra_overhead_us: float = 0.0,
) -> KernelLaunch:
    """Cost descriptor for one ``m x n x k`` GEMM (+ fused epilogue traffic)."""
    tile = select_tile(m, n)
    grid = math.ceil(m / tile.tile_m) * math.ceil(n / tile.tile_n)
    bytes_moved = (
        tensor_bytes(m, k) + tensor_bytes(k, n) + tensor_bytes(m, n)
    ) + epilogue_bytes
    return KernelLaunch(
        name=name,
        category=category,
        grid=grid,
        block_threads=tile.block_threads,
        flops=2.0 * m * n * k,
        dram_bytes=bytes_moved,
        compute_unit=ComputeUnit.TENSOR_FP16,
        compute_efficiency=gemm_efficiency(m, n, k, tile),
        shared_mem_per_block=tile.smem_bytes,
        regs_per_thread=tile.regs_per_thread,
        extra_overhead_us=extra_overhead_us,
    )


def gemm(
    a: np.ndarray,
    b: np.ndarray,
    *,
    bias: np.ndarray | None = None,
    activation: str | None = None,
    ctx: ExecutionContext | None = None,
    name: str = "gemm",
    category: str = "gemm",
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
    gelu_variant: str = "exact",
) -> np.ndarray:
    """Compute ``a @ b`` with an optional fused bias/activation epilogue.

    ``activation`` may be ``None`` or ``"gelu"``.  When bias/activation are
    given they execute in the epilogue: the only extra DRAM traffic is the
    bias vector read — the result tensor is transformed in registers before
    its single store, exactly the fusion of §III-C.2.

    ``out`` routes the product (and epilogue) into caller storage with
    zero tensor allocations and bit-identical values — ``np.matmul`` with
    ``out=`` issues the same BLAS call.  A GELU epilogue additionally
    needs ``tmp`` (same shape as ``out``, no aliasing); without ``out``
    the epilogue temporary comes from the pooled
    :data:`~repro.core.memory_planner.KERNEL_SCRATCH`, so the allocating
    form still performs exactly one tensor allocation.  ``gelu_variant``
    picks the host formula (``"exact"``/``"tanh"``); the launch
    descriptor and modelled time are identical for both.  Under a
    :class:`~repro.gpusim.stream.NullContext`, which prices nothing, no
    launch descriptor is built at all.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(
            f"gemm expects 2-D operands, got {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dims mismatch: {a.shape} @ {b.shape}")
    m, k = a.shape
    n = b.shape[1]

    epilogue_bytes = 0.0
    if bias is not None and bias.shape != (n,):
        raise ValueError(f"bias shape {bias.shape} != ({n},)")
    if activation not in (None, "gelu"):
        raise ValueError(f"unsupported activation {activation!r}")
    if min(m, n, k) <= 0:
        # gemm_launch's check, kept for contexts that build no launch
        raise ValueError(f"GEMM dims must be positive, got {(m, n, k)}")
    # BLAS dispatches an M=1 matmul to its gemv kernel, whose reduction
    # order differs from the row results every M >= 2 operand gets from
    # the gemm kernel — breaking the row-wise bitwise contract packed
    # tiles and the per-request oracle rely on (a 1-token sequence
    # through `forward` must match its row inside a packed megabatch).
    # Duplicate the row so BLAS stays on the gemm path and keep row 0;
    # the launch descriptor below still prices the real m=1 problem.
    if out is None:
        out = (np.concatenate([a, a], axis=0) @ b)[:1] if m == 1 else a @ b
        if bias is not None:
            out = out + bias
        if activation == "gelu":
            apply_gelu(
                out,
                out=out,
                tmp=KERNEL_SCRATCH.take(out.shape, out.dtype),
                variant=gelu_variant,
            )
    else:
        if m == 1:
            np.copyto(out, (np.concatenate([a, a], axis=0) @ b)[:1])
        else:
            np.matmul(a, b, out=out)
        if bias is not None:
            np.add(out, bias, out=out)
        if activation == "gelu":
            if tmp is None:
                raise ValueError(
                    "gelu epilogue with out= requires a tmp= buffer"
                )
            apply_gelu(out, out=out, tmp=tmp, variant=gelu_variant)
    if bias is not None:
        epilogue_bytes += tensor_bytes(n)

    ctx = resolve_context(ctx)
    if isinstance(ctx, NullContext):
        return out
    ctx.launch(
        gemm_launch(
            m,
            n,
            k,
            name=name,
            category=category,
            epilogue_bytes=epilogue_bytes,
        )
    )
    return out


def gemm_flops(m: int, n: int, k: int) -> float:
    """Useful FLOPs of an ``m x n x k`` GEMM (multiply + add)."""
    return 2.0 * m * n * k


def output_store_bytes(m: int, n: int) -> float:
    """DRAM bytes to store an ``m x n`` result once (FP16)."""
    return float(m) * n * BYTES_PER_ELEMENT
