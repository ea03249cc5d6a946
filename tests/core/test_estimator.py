"""Estimator-vs-numeric lock-step: the guarantee behind fast sweeps.

For every optimisation preset, the shape-only estimator must record
*exactly* the kernel sequence the numeric kernels record — same names,
grids, FLOPs, bytes, and therefore identical modelled times.  A priced
forward records the estimator's stream itself, so the numeric side is
the kernels driven under a recording context
(:func:`tests.core.lockstep.numeric_stream`).
"""

import numpy as np
import pytest

from repro.core.config import STEPWISE_PRESETS, BertConfig
from repro.core.estimator import (
    estimate_encoder_layer,
    estimate_model,
    estimate_standard_mha,
)
from repro.core.model import BertEncoderModel
from repro.gpusim import ExecutionContext
from tests.core.lockstep import numeric_stream


def signature(ctx):
    return [
        (
            r.launch.name,
            r.launch.grid,
            round(r.launch.flops, 3),
            round(r.launch.dram_bytes, 3),
            round(r.launch.hot_bytes, 3),
        )
        for r in ctx.records
    ]


class TestLockStep:
    @pytest.mark.parametrize(
        "opt", STEPWISE_PRESETS, ids=lambda o: o.label
    )
    def test_identical_launch_sequences(
        self, opt, small_config, small_weights, small_batch
    ):
        model = BertEncoderModel(small_config, opt, weights=small_weights)
        numeric = numeric_stream(model, small_batch.x, small_batch.mask)

        estimated = ExecutionContext()
        estimate_model(
            estimated,
            small_config,
            opt,
            small_batch.seq_lens,
            small_batch.max_seq_len,
        )
        assert signature(numeric) == signature(estimated)

    @pytest.mark.parametrize(
        "opt", STEPWISE_PRESETS, ids=lambda o: o.label
    )
    def test_identical_times(
        self, opt, small_config, small_weights, small_batch
    ):
        model = BertEncoderModel(small_config, opt, weights=small_weights)
        numeric = numeric_stream(model, small_batch.x, small_batch.mask)

        estimated = ExecutionContext()
        estimate_model(
            estimated,
            small_config,
            opt,
            small_batch.seq_lens,
            small_batch.max_seq_len,
        )
        assert estimated.elapsed_us() == pytest.approx(numeric.elapsed_us())

    def test_long_sequences_hit_grouped_kernels(self, small_config):
        """Past the short-kernel limit the estimator must dispatch the
        grouped-GEMM FMHA, like the numeric path does."""
        from repro.core.config import FUSED_MHA

        lens = np.array([500, 420, 510])
        ctx = ExecutionContext()
        estimate_model(ctx, small_config, FUSED_MHA, lens, 512)
        names = {r.launch.name for r in ctx.records}
        assert "fmha_grouped_qk" in names
        assert "fused_mha_short" not in names

    def test_short_sequences_hit_short_kernel(self, small_config):
        from repro.core.config import FUSED_MHA

        lens = np.array([40, 30, 48])
        ctx = ExecutionContext()
        estimate_model(ctx, small_config, FUSED_MHA, lens, 48)
        names = {r.launch.name for r in ctx.records}
        assert "fused_mha_short" in names
        assert "fmha_grouped_qk" not in names


class TestOverrides:
    def test_mha_override_standard(self, small_config):
        lens = np.array([30, 40])
        ctx = ExecutionContext()
        estimate_encoder_layer(
            ctx,
            small_config,
            STEPWISE_PRESETS[0],
            lens,
            48,
            mha="standard",
        )
        assert any(r.launch.name == "pt_bmm_qk" for r in ctx.records)

    def test_unknown_override_rejected(self, small_config):
        with pytest.raises(ValueError, match="mha override"):
            estimate_encoder_layer(
                ctx=ExecutionContext(),
                config=small_config,
                opt=STEPWISE_PRESETS[0],
                seq_lens=np.array([30]),
                max_seq_len=48,
                mha="nope",
            )

    def test_standard_mha_matches_attention_module(self, small_config):
        """estimate_standard_mha delegates to the attention module's own
        launch builder — spot-check the chain length."""
        ctx = ExecutionContext()
        estimate_standard_mha(ctx, 4, 48, small_config)
        assert ctx.kernel_count() == 10
