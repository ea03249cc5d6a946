"""End-to-end model: multi-layer equivalence and statistics."""

import numpy as np
import pytest

from repro.core.config import BASELINE, FUSED_MHA, RM_PADDING, STEPWISE_PRESETS, BertConfig
from repro.core.model import BertEncoderModel
from repro.core.reference import reference_encoder
from repro.core.weights import init_model_weights
from repro.gpusim import ExecutionContext


class TestEquivalence:
    @pytest.mark.parametrize(
        "opt", STEPWISE_PRESETS, ids=lambda o: o.label
    )
    def test_matches_reference(
        self, opt, small_config, small_weights, small_batch
    ):
        model = BertEncoderModel(small_config, opt, weights=small_weights)
        out = model.forward(small_batch.x, small_batch.mask)
        ref = reference_encoder(
            small_batch.x, small_weights, small_config, small_batch.mask
        )
        valid = small_batch.mask.astype(bool)
        np.testing.assert_allclose(
            out[valid], ref[valid], rtol=1e-3, atol=1e-4
        )

    def test_padding_rows_zeroed_everywhere(
        self, small_config, small_weights, small_batch
    ):
        for opt in (BASELINE, FUSED_MHA):
            model = BertEncoderModel(small_config, opt, weights=small_weights)
            out = model.forward(small_batch.x, small_batch.mask)
            pad = small_batch.mask == 0
            assert (out[pad] == 0).all(), opt.label

    def test_packed_and_padded_models_agree(
        self, small_config, small_weights, small_batch
    ):
        outs = []
        for opt in (BASELINE, RM_PADDING, FUSED_MHA):
            model = BertEncoderModel(small_config, opt, weights=small_weights)
            outs.append(model.forward(small_batch.x, small_batch.mask))
        np.testing.assert_allclose(outs[0], outs[1], rtol=1e-3, atol=1e-4)
        np.testing.assert_allclose(outs[0], outs[2], rtol=1e-3, atol=1e-4)


class TestStats:
    def test_forward_with_stats(self, small_config, small_weights, small_batch):
        model = BertEncoderModel(
            small_config, FUSED_MHA, weights=small_weights
        )
        result = model.forward_with_stats(small_batch.x, small_batch.mask)
        assert result.time_us > 0
        assert result.kernel_count > 0
        assert result.flops > 0
        assert result.hidden.shape == small_batch.x.shape

    def test_fused_model_faster_than_baseline(
        self, small_config, small_weights, small_batch
    ):
        times = {}
        for opt in (BASELINE, FUSED_MHA):
            model = BertEncoderModel(small_config, opt, weights=small_weights)
            ctx = ExecutionContext()
            model.forward(small_batch.x, small_batch.mask, ctx=ctx)
            times[opt.label] = ctx.elapsed_us()
        assert times["fused MHA"] < times["baseline"]

    def test_layers_scale_kernels(self, small_config, small_batch):
        one = BertEncoderModel(
            BertConfig(
                num_heads=small_config.num_heads,
                head_size=small_config.head_size,
                num_layers=1,
            ),
            BASELINE,
        )
        two = BertEncoderModel(
            BertConfig(
                num_heads=small_config.num_heads,
                head_size=small_config.head_size,
                num_layers=2,
            ),
            BASELINE,
        )
        r1 = one.forward_with_stats(small_batch.x, small_batch.mask)
        r2 = two.forward_with_stats(small_batch.x, small_batch.mask)
        assert r2.kernel_count == 2 * r1.kernel_count


class TestValidation:
    def test_weight_layer_mismatch(self, small_config, small_weights):
        deeper = BertConfig(
            num_heads=small_config.num_heads,
            head_size=small_config.head_size,
            num_layers=5,
        )
        with pytest.raises(ValueError, match="layers"):
            BertEncoderModel(deeper, weights=small_weights)

    def test_hidden_size_mismatch(self, small_config):
        other = BertConfig(num_heads=2, head_size=8, num_layers=2)
        wrong = init_model_weights(other, seed=0)
        with pytest.raises(ValueError, match="hidden"):
            BertEncoderModel(small_config, weights=wrong)

    def test_input_rank_checked(self, small_config, small_weights, small_batch):
        model = BertEncoderModel(small_config, weights=small_weights)
        with pytest.raises(ValueError, match=r"\[B, S, H\]"):
            model.forward(small_batch.x[0], small_batch.mask)

    def test_mask_shape_checked(self, small_config, small_weights, small_batch):
        model = BertEncoderModel(small_config, weights=small_weights)
        with pytest.raises(ValueError, match="mask"):
            model.forward(small_batch.x, small_batch.mask[:-1])

    def test_hidden_dim_checked(self, small_config, small_weights, small_batch):
        model = BertEncoderModel(small_config, weights=small_weights)
        with pytest.raises(ValueError, match="hidden"):
            model.forward(
                small_batch.x[:, :, :-1], small_batch.mask
            )


class TestGraphReplayDevice:
    def test_replay_numerics_run_on_the_callers_device(self):
        # with 40 KiB of shared memory a 360-token sequence at head size
        # 16 runs the long kernel; a replay whose numerics ran on the
        # A100 would take the short one and change the bits
        import dataclasses

        from repro.gpusim.device import A100_SPEC
        from repro.gpusim.graph import GraphCache

        small = dataclasses.replace(
            A100_SPEC, name="small-smem", max_shared_mem_per_block=40 * 1024
        )
        config = BertConfig(num_heads=4, head_size=16, num_layers=2)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 368, config.hidden_size)).astype(np.float32)
        mask = np.zeros((2, 368), dtype=np.int64)
        mask[0, :360] = 1
        mask[1, :13] = 1
        plain = BertEncoderModel(config, FUSED_MHA, seed=3)
        want = plain.forward(x, mask, ctx=ExecutionContext(small))
        cached = BertEncoderModel(
            config, FUSED_MHA, seed=3, graph_cache=GraphCache()
        )
        for _ in range(3):  # capture, then two replays
            got = cached.forward(x, mask, ctx=ExecutionContext(small))
            assert np.array_equal(got, want)
        assert cached.graph_cache.hits == 2
