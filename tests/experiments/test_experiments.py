"""Experiment harnesses: each must run and exhibit the paper's shape.

These are integration tests over the whole stack (kernels, simulator,
frameworks).  They assert the *direction and rough magnitude* of every
figure, not exact numbers — exactly the reproduction contract stated in
DESIGN.md.
"""

import pytest

from repro.experiments import (
    ablation_alpha,
    ablation_decode,
    ablation_devices,
    ablation_scheduler,
    fig3_breakdown,
    fig9_layernorm_fusion,
    fig10_gelu_fusion,
    fig11_mha_short,
    fig12_mha_long,
    fig13_stepwise,
    fig14_end_to_end,
    table1_features,
    table2_flops,
)


class TestTable1:
    def test_matches_paper(self):
        assert table1_features.run().matches_paper

    def test_formatting(self):
        text = table1_features.format_result(table1_features.run())
        assert "matches paper: yes" in text


class TestFig3:
    def test_shares_close_to_paper(self):
        for res in fig3_breakdown.run_all():
            paper_gemm, paper_attn, paper_mem = fig3_breakdown.PAPER_SHARES[
                res.seq_len
            ]
            assert res.gemm_share == pytest.approx(paper_gemm, abs=0.10)
            assert res.attention_share == pytest.approx(paper_attn, abs=0.10)
            assert res.memory_bound_share == pytest.approx(
                paper_mem, abs=0.08
            )

    def test_attention_share_grows_with_seq(self):
        short = fig3_breakdown.run(256)
        long = fig3_breakdown.run(1024)
        assert long.attention_share > short.attention_share

    def test_shares_partition_time(self):
        res = fig3_breakdown.run(256)
        total = (
            res.gemm_share + res.attention_share + res.memory_bound_share
        )
        assert total == pytest.approx(1.0, abs=0.02)


class TestFig9:
    def test_gain_in_paper_band(self):
        result = fig9_layernorm_fusion.run()
        assert 0.45 <= result.average_gain <= 0.95  # paper: ~0.61-0.69

    def test_fused_always_faster(self):
        for p in fig9_layernorm_fusion.run().points:
            assert p.fused_us < p.unfused_us


class TestFig10:
    def test_gain_above_floor(self):
        # paper: 0.24; the model runs higher
        assert fig10_gelu_fusion.run().average_gain > 0.15

    def test_fused_always_faster(self):
        for p in fig10_gelu_fusion.run().points:
            assert p.fused_us < p.unfused_us

    def test_fused_time_close_to_bare_gemm(self):
        """Epilogue fusion should hide almost all the bias/GELU cost."""
        for p in fig10_gelu_fusion.run().points:
            assert p.fused_us < 1.05 * p.gemm_us + 5.0


class TestTable2:
    def test_ratios_exact(self):
        result = table2_flops.run(batch=16, max_seq_len=512, alpha=0.6)
        base = result.columns["Baseline"]
        packed = result.columns["Zero Padding"]
        fused = result.columns["Zero Padding + fused MHA"]
        assert packed.gemm0 / base.gemm0 == pytest.approx(0.6)
        assert packed.mha == pytest.approx(base.mha)
        assert fused.mha / base.mha == pytest.approx(0.36)


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return fig11_mha_short.run(seq_lens=(128, 256, 384))

    def test_ordering(self, result):
        for p in result.points:
            assert p.times_us["fused"] < p.times_us["zeropad"]
            assert p.times_us["zeropad"] < p.times_us["cublas"]
            assert p.times_us["cublas"] < p.times_us["pytorch"]

    def test_pytorch_gap_near_paper(self, result):
        gain = result.average_gain("pytorch")
        assert 4.0 <= gain <= 9.0  # paper: 6.17

    def test_cublas_gap_near_paper(self, result):
        assert result.average_gain("cublas") > 0.2  # paper: 0.42

    def test_zeropad_gap_near_paper(self, result):
        gain = result.average_gain("zeropad")
        assert 0.1 <= gain <= 0.7  # paper: 0.30


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12_mha_long.run(seq_lens=(512, 768, 1024))

    def test_ordering(self, result):
        for p in result.points:
            assert p.times_us["fused"] < p.times_us["zeropad"]
            assert p.times_us["zeropad"] < p.times_us["cublas"]
            assert p.times_us["cublas"] < p.times_us["pytorch"]

    def test_cublas_gap_near_paper(self, result):
        assert result.average_gain("cublas") > 0.6  # paper: 1.10

    def test_zeropad_gap_near_paper(self, result):
        gain = result.average_gain("zeropad")
        assert 0.4 <= gain <= 1.3  # paper: 0.79

    def test_long_gains_exceed_short_gains(self, result):
        """The fused advantage over cuBLAS grows with sequence length —
        the quadratic-waste story of Table II."""
        short = fig11_mha_short.run(seq_lens=(128, 256))
        assert result.average_gain("cublas") > short.average_gain("cublas")


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self):
        return fig13_stepwise.run(seq_lens=(128, 256, 512, 1024))

    def test_every_step_improves(self, result):
        for point in result.points:
            for step in range(1, 5):
                assert point.step_gain(step) > -0.01

    def test_every_step_improves_on_average(self, result):
        for step in range(1, 5):
            assert result.average_step_gain(step) > 0.0

    def test_total_gain_near_paper(self, result):
        assert 0.4 <= result.average_total_gain <= 1.1  # paper: 0.60

    def test_zero_padding_is_biggest_contributor_class(self, result):
        """Padding removal (steps 3+4) dwarfs the fusion steps (1+2)."""
        fusion = result.average_step_gain(1) + result.average_step_gain(2)
        padding = result.average_step_gain(3) + result.average_step_gain(4)
        assert padding > fusion


class TestFig14:
    @pytest.fixture(scope="class")
    def result(self):
        return fig14_end_to_end.run(
            batches=(8, 16), seq_lens=(128, 256, 512, 1024)
        )

    def test_byte_transformer_always_fastest(self, result):
        for p in result.points:
            bt = p.times_us["ByteTransformer"]
            for name, t in p.times_us.items():
                if name != "ByteTransformer":
                    assert bt < t, (p.batch, p.max_seq_len, name)

    def test_turbo_absent_beyond_512(self, result):
        for p in result.points:
            if p.max_seq_len >= 512:
                assert "TurboTransformer" not in p.times_us

    def test_average_gains_paper_ordering(self, result):
        gains = {
            name: result.average_gain(name)
            for name in (
                "PyTorch JIT",
                "TensorFlow XLA",
                "TurboTransformer",
                "FasterTransformer",
            )
        }
        assert gains["TurboTransformer"] > gains["PyTorch JIT"]
        assert gains["TensorFlow XLA"] > gains["PyTorch JIT"]
        assert gains["PyTorch JIT"] > gains["FasterTransformer"]
        assert gains["FasterTransformer"] > 0.1

    def test_full_grid_headline(self):
        """The headline numbers over the full batch x seqlen grid:
        ByteTransformer fastest everywhere, and the paper's ordering of
        the average gains."""
        result = fig14_end_to_end.run()
        for p in result.points:
            times = dict(p.times_us)
            bt = times.pop("ByteTransformer")
            shape = (p.batch, p.max_seq_len)
            assert all(bt < t for t in times.values()), shape
        gains = {
            name: result.average_gain(name)
            for name in fig14_end_to_end.PAPER_GAINS
        }
        assert gains["TurboTransformer"] > gains["PyTorch JIT"]
        assert gains["TensorFlow XLA"] > gains["PyTorch JIT"]
        assert gains["PyTorch JIT"] > gains["FasterTransformer"] > 0.1

    def test_formatting_has_three_batches(self):
        small = fig14_end_to_end.run(batches=(1, 8), seq_lens=(128,))
        text = fig14_end_to_end.format_result(small)
        assert "batch 1" in text and "batch 8" in text


class TestAblations:
    def test_scheduler_gain_near_ten_percent(self):
        result = ablation_scheduler.run(seq_lens=(512, 768, 1024))
        assert 0.04 <= result.average_gain <= 0.2  # paper: ~0.10

    def test_full_reduction_share_near_two_percent(self):
        result = ablation_scheduler.run(seq_lens=(512, 768, 1024))
        assert result.average_full_reduction_share <= 0.06  # paper: ~0.02

    def test_alpha_sweep_monotone(self):
        result = ablation_alpha.run(alphas=(0.4, 0.6, 0.8, 1.0))
        assert result.gains_monotone_decreasing()
        # even with no padding, fusion still wins
        assert result.points[-1].gain_vs_baseline > 0.0

    def test_device_sweep_bt_wins_everywhere(self):
        result = ablation_devices.run(seq_lens=(256, 1024))
        assert result.wins_everywhere()

    def test_decode_kv_traffic_sweep(self):
        """Zero padding at decode time: every step is faster and moves
        less KV traffic, and the gain shrinks as padding vanishes."""
        result = ablation_decode.run()
        assert result.gain_shrinks_with_alpha()
        for p in result.points:
            assert p.step_gain > 0.0
            assert p.traffic_ratio > 1.0
