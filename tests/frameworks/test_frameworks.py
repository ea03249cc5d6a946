"""Framework cost models: features, support ranges, ordering."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import BertConfig
from repro.frameworks import (
    BYTE_TRANSFORMER,
    FASTER_TRANSFORMER,
    PYTORCH_JIT,
    TENSORFLOW_XLA,
    TURBO_TRANSFORMER,
    all_frameworks,
    table1_rows,
)
from repro.gpusim import ExecutionContext
from repro.workloads.generator import uniform_lengths

CFG = BertConfig()  # 12 layers, paper standard
SMALL_CFG = BertConfig(num_layers=2)


@pytest.fixture()
def workload():
    rng = np.random.default_rng(5)
    return uniform_lengths(16, 256, 0.6, rng), 256


class TestFeatures:
    def test_five_frameworks(self):
        assert len(all_frameworks()) == 5

    def test_names_match_paper_legend(self):
        names = {fw.name for fw in all_frameworks()}
        assert names == {
            "PyTorch JIT",
            "TensorFlow XLA",
            "TurboTransformer",
            "FasterTransformer",
            "ByteTransformer",
        }

    def test_only_byte_transformer_has_unlimited_fused_mha(self):
        for fw in all_frameworks():
            if fw.name == "ByteTransformer":
                assert fw.features.fused_mha_max_seq == -1
            elif fw.name == "FasterTransformer":
                assert fw.features.fused_mha_max_seq == 512
            else:
                assert fw.features.fused_mha_max_seq is None

    def test_table_rendering(self):
        table = table1_rows(all_frameworks())
        assert "ByteTransformer" in table
        assert "partially" in table
        assert "<= 512" in table


class TestSupport:
    def test_turbo_rejects_long_sequences(self):
        turbo = TURBO_TRANSFORMER
        assert turbo.supports(511)
        assert not turbo.supports(512)
        with pytest.raises(ValueError, match="support"):
            turbo.latency_us(SMALL_CFG, np.array([100]), 1024)

    def test_others_unlimited(self):
        for fw in (
            PYTORCH_JIT, TENSORFLOW_XLA, FASTER_TRANSFORMER, BYTE_TRANSFORMER
        ):
            assert fw.supports(4096)


class TestEstimates:
    def test_all_estimates_positive(self, workload):
        lens, seq = workload
        for fw in all_frameworks():
            assert fw.latency_us(SMALL_CFG, lens, seq) > 0

    def test_byte_transformer_fastest_at_paper_workload(self, workload):
        lens, seq = workload
        times = {
            fw.name: fw.latency_us(CFG, lens, seq) for fw in all_frameworks()
        }
        bt = times.pop("ByteTransformer")
        assert all(bt < t for t in times.values())

    def test_paper_ordering_at_scale(self):
        """Average over the sweep: Turbo worst, then XLA, then PyTorch,
        then FasterTransformer — the ordering of Figure 14's gaps."""
        rng = np.random.default_rng(0)
        sums = {fw.name: 0.0 for fw in all_frameworks()}
        counts = {fw.name: 0 for fw in all_frameworks()}
        for batch in (8, 16):
            for seq in (128, 256, 448):
                lens = uniform_lengths(batch, seq, 0.6, rng)
                bt = BYTE_TRANSFORMER.latency_us(CFG, lens, seq)
                for fw in all_frameworks():
                    if fw.supports(seq):
                        sums[fw.name] += fw.latency_us(CFG, lens, seq) / bt
                        counts[fw.name] += 1
        ratios = {k: sums[k] / counts[k] for k in sums}
        assert ratios["TurboTransformer"] > ratios["PyTorch JIT"]
        assert ratios["TensorFlow XLA"] > ratios["PyTorch JIT"]
        assert ratios["PyTorch JIT"] > ratios["FasterTransformer"]
        assert ratios["FasterTransformer"] > 1.0

    def test_ft_long_sequence_fallback_changes_kernels(self):
        ft = FASTER_TRANSFORMER
        rng = np.random.default_rng(1)

        short = ExecutionContext()
        ft.estimate(short, SMALL_CFG, uniform_lengths(4, 256, 0.6, rng), 256)
        short_names = {r.launch.name for r in short.records}
        assert "trt_fused_mha" in short_names

        long = ExecutionContext()
        ft.estimate(long, SMALL_CFG, uniform_lengths(4, 1024, 0.6, rng), 1024)
        long_names = {r.launch.name for r in long.records}
        assert "trt_fused_mha" not in long_names
        assert "ft_bmm_qk" in long_names

    def test_ft_degrades_past_512(self):
        """FT's time-per-token jumps when the TRT fused MHA cuts out."""
        ft = FASTER_TRANSFORMER
        rng = np.random.default_rng(2)
        lens_512 = uniform_lengths(8, 512, 0.6, rng)
        lens_640 = uniform_lengths(8, 640, 0.6, rng)
        t512 = ft.latency_us(CFG, lens_512, 512) / lens_512.sum()
        t640 = ft.latency_us(CFG, lens_640, 640) / lens_640.sum()
        assert t640 > 1.1 * t512

    def test_turbo_group_count_drives_cost(self):
        """More groups (tight packing) trade padding for launch overhead;
        the same lengths with forced single group must differ."""
        def with_cost(tokens):
            grouping = replace(TURBO_TRANSFORMER.grouping, cost_tokens=tokens)
            return replace(TURBO_TRANSFORMER, grouping=grouping)

        turbo_many = with_cost(0)
        turbo_one = with_cost(10**6)
        lens = np.array([100, 100, 400, 400])
        t_many = turbo_many.latency_us(SMALL_CFG, lens, 448)
        t_one = turbo_one.latency_us(SMALL_CFG, lens, 448)
        assert t_many != pytest.approx(t_one, rel=1e-3)

    def test_estimates_deterministic(self, workload):
        lens, seq = workload
        fw = BYTE_TRANSFORMER
        assert fw.latency_us(SMALL_CFG, lens, seq) == pytest.approx(
            fw.latency_us(SMALL_CFG, lens, seq)
        )

    def test_xla_slower_than_pytorch(self, workload):
        lens, seq = workload
        assert TENSORFLOW_XLA.latency_us(
            CFG, lens, seq
        ) > PYTORCH_JIT.latency_us(CFG, lens, seq)


class TestFeatureLabels:
    def test_fused_mha_labels(self):
        from repro.frameworks.base import FrameworkFeatures

        none = FrameworkFeatures(False, True, None, "no")
        capped = FrameworkFeatures(True, True, 512, "no")
        full = FrameworkFeatures(True, True, -1, "yes")
        assert none.fused_mha_label() == "no"
        assert capped.fused_mha_label() == "<= 512"
        assert full.fused_mha_label() == "yes"
