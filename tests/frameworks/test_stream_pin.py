"""Pins every framework's modelled launch stream at the reported points.

Fig 14, the device ablation and the alpha ablation price the five
framework models at fixed shapes.  This test hashes each stream they
evaluate, launch by launch (grid, FLOPs, DRAM and hot bytes, compute
efficiency, category and ``repr`` of the priced time) together with
``repr`` of the returned latency and of the context's elapsed time, so
any change to what a framework model emits or costs shows up here.

Kernel names are pinned separately, so that a pure rename (same launch,
new name) shows up as a rename and not as a cost change.
"""

import hashlib

import numpy as np

from repro.experiments.ablation_alpha import ALPHA_GRID
from repro.experiments.ablation_devices import DEVICE_GRID
from repro.experiments.runner import (
    BATCH_GRID,
    SEQ_GRID,
    STANDARD_CONFIG,
    paper_workload,
)
from repro.frameworks import all_frameworks, table1_rows
from repro.gpusim import A100_SPEC, ExecutionContext
from repro.workloads.generator import uniform_lengths


def _points():
    """(device, lengths, max_seq_len, framework names) the reports price."""
    every = None
    for batch in BATCH_GRID:
        for seq in SEQ_GRID:
            yield A100_SPEC, paper_workload(batch, seq, 0), seq, every
    for device in DEVICE_GRID:
        for seq in (256, 512, 1024):
            yield device, paper_workload(16, seq, 0), seq, every
    for alpha in ALPHA_GRID:
        lens = uniform_lengths(16, 512, alpha, np.random.default_rng(0))
        yield A100_SPEC, lens, 512, {"FasterTransformer"}


def _streams():
    """Per framework: the stream digest lines and the kernel names."""
    lines: dict[str, list[str]] = {}
    names: dict[str, list[str]] = {}
    for device, lens, seq, only in _points():
        for fw in all_frameworks():
            if not fw.supports(seq) or (only and fw.name not in only):
                continue
            ctx = ExecutionContext(device)
            latency = fw.estimate(ctx, STANDARD_CONFIG, lens, seq)
            out = lines.setdefault(fw.name, [])
            out.append(
                f"{device.name} {seq} {lens.tolist()} "
                f"{latency!r} {ctx.elapsed_us()!r}"
            )
            for r in ctx.records:
                k = r.launch
                out.append(
                    f"{k.category} {k.grid} {k.flops!r} {k.dram_bytes!r} "
                    f"{k.hot_bytes!r} {k.compute_efficiency!r} {r.time_us!r}"
                )
            names.setdefault(fw.name, []).extend(
                r.launch.name for r in ctx.records
            )
    return lines, names


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


STREAM_DIGESTS = {
    "PyTorch JIT": "fb01999e8d4351b5",
    "TensorFlow XLA": "7435f40aa01fe55b",
    "TurboTransformer": "b38e96e49bbb784a",
    "FasterTransformer": "b2b74c06a689c45e",
    "ByteTransformer": "0eec8605b30fcc22",
}

KERNEL_NAMES = {
    "PyTorch JIT": [
        "add_bias",
        "add_bias_gelu",
        "add_bias_residual",
        "gemm0_qkv",
        "gemm1_attn_out",
        "gemm2",
        "gemm3_ffn_out",
        "layernorm",
        "masked_softmax",
        "pt_bmm_pv",
        "pt_bmm_qk",
        "pt_transpose_k",
        "pt_transpose_out",
        "pt_transpose_q",
        "pt_transpose_v",
    ],
    "TensorFlow XLA": [
        "add_bias",
        "add_bias_gelu",
        "add_bias_residual",
        "add_mask",
        "gemm0_qkv",
        "gemm1_attn_out",
        "gemm2",
        "gemm3_ffn_out",
        "layernorm",
        "xla_bmm_pv",
        "xla_bmm_qk",
        "xla_copy_k",
        "xla_copy_out",
        "xla_copy_q",
        "xla_copy_v",
        "xla_softmax",
    ],
    "TurboTransformer": [
        "add_bias_gelu",
        "add_bias_split_heads_qkv",
        "cublas_bmm_pv",
        "cublas_bmm_qk",
        "fused_add_bias_residual_layernorm",
        "gemm0_qkv",
        "gemm1_attn_out",
        "gemm2",
        "gemm3_ffn_out",
        "masked_softmax",
        "merge_heads",
    ],
    "FasterTransformer": [
        "add_bias_gelu",
        "add_bias_residual",
        "add_bias_unpack_split_heads_qkv",
        "ft_bmm_pv",
        "ft_bmm_qk",
        "gemm0_qkv",
        "gemm1_attn_out",
        "gemm2",
        "gemm3_ffn_out",
        "layernorm",
        "mask_prefix_sum",
        "masked_softmax",
        "pack_merge_heads",
        "pack_tokens",
        "trt_fused_mha",
        "unpack_tokens",
    ],
    "ByteTransformer": [
        "fmha_grouped_pv",
        "fmha_grouped_qk",
        "fused_add_bias_residual_layernorm",
        "fused_mha_short",
        "gemm0_qkv",
        "gemm1_attn_out",
        "gemm2_fused_bias_gelu",
        "gemm3_ffn_out",
        "mask_prefix_sum",
        "pack_tokens",
        "softmax_full_reduction",
        "unpack_tokens",
    ],
}

NAME_DIGESTS = {
    "PyTorch JIT": "20b4484b44f5169e",
    "TensorFlow XLA": "4f2ec4f10bfe075a",
    "TurboTransformer": "23a257f2ab5a5faf",
    "FasterTransformer": "f9c81a6ab61e0552",
    "ByteTransformer": "b4fc0302b1394f89",
}

TABLE1 = (
    "framework             variable-len   tuning   fused MHA      fusion\n"
    "PyTorch JIT                     no      yes          no          no\n"
    "TensorFlow XLA                  no      yes          no          no\n"
    "TurboTransformer               yes      yes          no   partially\n"
    "FasterTransformer              yes      yes      <= 512          no\n"
    "ByteTransformer                yes      yes         yes         yes"
)


class TestFrameworkStreamPin:
    def test_streams_unchanged(self):
        lines, _ = _streams()
        assert {k: _digest(v) for k, v in lines.items()} == STREAM_DIGESTS

    def test_kernel_names_unchanged(self):
        _, names = _streams()
        assert {k: sorted(set(v)) for k, v in names.items()} == KERNEL_NAMES
        assert {k: _digest(v) for k, v in names.items()} == NAME_DIGESTS

    def test_table1_text_unchanged(self):
        assert table1_rows(all_frameworks()) == TABLE1
