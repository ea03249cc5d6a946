"""Device specifications for the simulator.

A :class:`DeviceSpec` is an immutable bag of the architectural parameters
the timing model consumes.  The presets are taken from public vendor
datasheets and microbenchmark literature; the *efficiency* knobs (fraction
of peak actually achievable by well-tuned kernels) follow commonly reported
measurements rather than marketing peaks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.hashing import cached_hash


@cached_hash
@dataclass(frozen=True)
class DeviceSpec:
    """Architectural parameters of a simulated GPU.

    Throughputs are peak numbers; the timing model multiplies them by
    per-kernel efficiency factors.  Memory sizes are bytes.
    """

    name: str
    num_sms: int
    clock_ghz: float
    #: peak FP32 CUDA-core throughput, TFLOP/s
    fp32_tflops: float
    #: peak FP16 CUDA-core throughput, TFLOP/s
    fp16_tflops: float
    #: peak FP16 tensor-core throughput, TFLOP/s
    tensor_fp16_tflops: float
    #: peak DRAM bandwidth, GB/s
    dram_bandwidth_gbs: float
    #: fraction of peak DRAM bandwidth a streaming kernel achieves
    dram_efficiency: float
    l2_bytes: int
    #: sustained L2 bandwidth, GB/s — serves *hot* reads of tensors the
    #: previous kernel just wrote (see KernelLaunch.hot_bytes)
    l2_bandwidth_gbs: float
    #: shared memory available per SM (unified with L1 carve-out)
    shared_mem_per_sm: int
    #: maximum shared memory a single block may request
    max_shared_mem_per_block: int
    registers_per_sm: int
    max_regs_per_thread: int
    max_threads_per_sm: int
    max_threads_per_block: int
    max_blocks_per_sm: int
    warp_size: int
    #: fixed host-side cost of one kernel launch, microseconds
    kernel_launch_overhead_us: float
    #: number of resident threads needed to saturate DRAM bandwidth
    #: (memory-level parallelism is per-warp, not per-block)
    dram_saturation_threads: int

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ValueError(f"num_sms must be positive, got {self.num_sms}")
        if self.warp_size <= 0:
            raise ValueError(f"warp_size must be positive, got {self.warp_size}")
        if not (0.0 < self.dram_efficiency <= 1.0):
            raise ValueError(
                f"dram_efficiency must be in (0, 1], got {self.dram_efficiency}"
            )
        for field in (
            "clock_ghz",
            "fp32_tflops",
            "fp16_tflops",
            "tensor_fp16_tflops",
            "dram_bandwidth_gbs",
            "kernel_launch_overhead_us",
        ):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")

    @property
    def max_concurrent_blocks(self) -> int:
        """Upper bound on simultaneously resident blocks across the device."""
        return self.num_sms * self.max_blocks_per_sm

    @property
    def effective_dram_gbs(self) -> float:
        """DRAM bandwidth achievable by a saturating streaming kernel."""
        return self.dram_bandwidth_gbs * self.dram_efficiency

    def with_overrides(self, **kwargs: object) -> "DeviceSpec":
        """Return a copy with selected fields replaced (for what-if studies)."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


#: NVIDIA A100-SXM4-40GB — the device used in the paper's evaluation.
A100_SPEC = DeviceSpec(
    name="A100-SXM4-40GB",
    num_sms=108,
    clock_ghz=1.41,
    fp32_tflops=19.5,
    fp16_tflops=78.0,
    tensor_fp16_tflops=312.0,
    dram_bandwidth_gbs=1555.0,
    dram_efficiency=0.85,
    l2_bytes=40 * 1024 * 1024,
    l2_bandwidth_gbs=4500.0,
    shared_mem_per_sm=164 * 1024,
    max_shared_mem_per_block=163 * 1024,
    registers_per_sm=65536,
    max_regs_per_thread=255,
    max_threads_per_sm=2048,
    max_threads_per_block=1024,
    max_blocks_per_sm=32,
    warp_size=32,
    kernel_launch_overhead_us=4.0,
    dram_saturation_threads=108 * 512,
)

#: NVIDIA V100-SXM2-32GB — previous generation, for sensitivity studies.
V100_SPEC = DeviceSpec(
    name="V100-SXM2-32GB",
    num_sms=80,
    clock_ghz=1.53,
    fp32_tflops=15.7,
    fp16_tflops=31.4,
    tensor_fp16_tflops=125.0,
    dram_bandwidth_gbs=900.0,
    dram_efficiency=0.82,
    l2_bytes=6 * 1024 * 1024,
    l2_bandwidth_gbs=2200.0,
    shared_mem_per_sm=96 * 1024,
    max_shared_mem_per_block=96 * 1024,
    registers_per_sm=65536,
    max_regs_per_thread=255,
    max_threads_per_sm=2048,
    max_threads_per_block=1024,
    max_blocks_per_sm=32,
    warp_size=32,
    kernel_launch_overhead_us=4.5,
    dram_saturation_threads=80 * 512,
)

#: NVIDIA A10 — an inference-class part, for sensitivity studies.
A10_SPEC = DeviceSpec(
    name="A10",
    num_sms=72,
    clock_ghz=1.70,
    fp32_tflops=31.2,
    fp16_tflops=31.2,
    tensor_fp16_tflops=125.0,
    dram_bandwidth_gbs=600.0,
    dram_efficiency=0.82,
    l2_bytes=6 * 1024 * 1024,
    l2_bandwidth_gbs=1800.0,
    shared_mem_per_sm=100 * 1024,
    max_shared_mem_per_block=99 * 1024,
    registers_per_sm=65536,
    max_regs_per_thread=255,
    max_threads_per_sm=1536,
    max_threads_per_block=1024,
    max_blocks_per_sm=16,
    warp_size=32,
    kernel_launch_overhead_us=4.0,
    dram_saturation_threads=72 * 384,
)
