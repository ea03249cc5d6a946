"""Property-based lock-step: estimator == numeric kernels on random shapes.

The fixed-shape lock-step tests in ``test_estimator.py`` pin one
configuration; here hypothesis draws random small architectures and
length vectors and requires byte-for-byte identical launch sequences for
every optimisation preset and device.  The numeric side is the stream
the kernels themselves record (:func:`tests.core.lockstep.numeric_stream`):
a priced forward records the estimator's stream, so it cannot stand in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import STEPWISE_PRESETS, BertConfig
from repro.core.estimator import estimate_model
from repro.core.model import BertEncoderModel
from repro.core.weights import init_model_weights
from repro.gpusim import A10_SPEC, A100_SPEC, V100_SPEC, ExecutionContext
from repro.workloads.generator import make_batch
from tests.core.lockstep import numeric_stream

configs = st.builds(
    BertConfig,
    num_heads=st.sampled_from([2, 4]),
    head_size=st.sampled_from([8, 16]),
    num_layers=st.integers(1, 2),
)
length_vectors = st.lists(st.integers(1, 40), min_size=1, max_size=5)


def signature(ctx):
    return [
        (
            r.launch.name,
            r.launch.grid,
            round(r.launch.flops, 2),
            round(r.launch.dram_bytes, 2),
            round(r.launch.hot_bytes, 2),
            round(r.launch.extra_overhead_us, 4),
        )
        for r in ctx.records
    ]


class TestLockStepProperty:
    @given(config=configs, lens=length_vectors, preset_idx=st.integers(0, 4))
    @settings(max_examples=25, deadline=None)
    def test_random_shapes(self, config, lens, preset_idx):
        preset = STEPWISE_PRESETS[preset_idx]
        max_seq = max(lens)
        weights = init_model_weights(config, seed=0)
        model = BertEncoderModel(config, preset, weights=weights)

        rng = np.random.default_rng(1)
        x = rng.normal(
            size=(len(lens), max_seq, config.hidden_size)
        ).astype(np.float32)
        mask = np.zeros((len(lens), max_seq), dtype=np.int64)
        for b, length in enumerate(lens):
            mask[b, :length] = 1
        x *= mask[:, :, None]

        numeric = numeric_stream(model, x, mask)
        estimated = ExecutionContext()
        estimate_model(
            estimated, config, preset, np.asarray(lens), max_seq
        )
        assert signature(numeric) == signature(estimated)

    @pytest.mark.parametrize(
        "device", (A100_SPEC, V100_SPEC, A10_SPEC), ids=lambda d: d.name
    )
    def test_lockstep_holds_per_device(self, device):
        """Device changes dispatch decisions (shared-memory limits) and
        grouped-GEMM schedules; the estimator must track all of it."""
        config = BertConfig(num_heads=4, head_size=16, num_layers=1)
        weights = init_model_weights(config, seed=3)
        batch = make_batch(4, 64, config.hidden_size, alpha=0.6, seed=4)
        for preset in STEPWISE_PRESETS:
            model = BertEncoderModel(config, preset, weights=weights)
            numeric = numeric_stream(model, batch.x, batch.mask, device)
            estimated = ExecutionContext(device)
            estimate_model(
                estimated,
                config,
                preset,
                batch.seq_lens,
                batch.max_seq_len,
            )
            assert signature(numeric) == signature(estimated), preset.label
            assert estimated.elapsed_us() == pytest.approx(
                numeric.elapsed_us()
            )

    def test_planted_kernel_mismatch_fails(self, monkeypatch):
        """A numeric dispatch that disagrees with ``mha_kernel`` breaks
        the lock-step; a priced forward's stream cannot show it."""
        from repro.attention import dispatch
        from repro.core.config import FUSED_MHA

        config = BertConfig(num_heads=4, head_size=16, num_layers=1)
        model = BertEncoderModel(config, FUSED_MHA, seed=0)
        batch = make_batch(3, 32, config.hidden_size, alpha=0.6, seed=2)
        estimated = ExecutionContext()
        estimate_model(
            estimated, config, FUSED_MHA, batch.seq_lens, batch.max_seq_len
        )
        assert signature(
            numeric_stream(model, batch.x, batch.mask)
        ) == signature(estimated)
        # the numerics now run the long kernel where mha_kernel (and so
        # the estimator) picks the short one
        monkeypatch.setattr(dispatch, "mha_kernel", lambda *args: "long")
        assert signature(
            numeric_stream(model, batch.x, batch.mask)
        ) != signature(estimated)
        priced = ExecutionContext()
        model.forward(batch.x, batch.mask, ctx=priced)
        assert signature(priced) == signature(estimated)
