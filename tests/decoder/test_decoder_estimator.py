"""Decode-round pricing: tile quantization, graph replay, looped rung."""

import numpy as np
import pytest

from repro.core.config import BertConfig

CFG = BertConfig(num_heads=4, head_size=16, num_layers=1)


class TestDecodeRoundEstimates:
    def test_quantize_pow2(self):
        from repro.decoder.estimator import quantize_pow2

        assert quantize_pow2(1) == 1
        assert quantize_pow2(3) == 4
        assert quantize_pow2(8) == 8
        assert quantize_pow2(9) == 16
        with pytest.raises(ValueError, match="positive"):
            quantize_pow2(0)

    def test_canonical_decode_contexts_even_ceil_split(self):
        from repro.decoder.estimator import canonical_decode_contexts

        ctxs = canonical_decode_contexts(4, 10)
        np.testing.assert_array_equal(ctxs, [3, 3, 2, 2])
        assert ctxs.sum() == 10
        with pytest.raises(ValueError, match="kv_tile"):
            canonical_decode_contexts(8, 4)

    def test_tiled_never_underprices_the_real_round(self):
        """The canonical tile shapes dominate every real round that
        quantizes to them, so replaying the tile key is conservative."""
        from repro.decoder.estimator import (
            estimate_decode_round,
            estimate_decode_round_tiled,
        )
        from repro.gpusim import ExecutionContext

        rng = np.random.default_rng(5)
        for _ in range(5):
            prefills = rng.integers(1, 40, size=int(rng.integers(0, 3)))
            decodes = rng.integers(1, 60, size=int(rng.integers(1, 6)))
            eager = estimate_decode_round(
                ExecutionContext(), CFG, prefills, decodes, block_tokens=16
            )
            tiled = estimate_decode_round_tiled(
                ExecutionContext(),
                CFG,
                prefill_tile=128 if len(prefills) else 0,
                decode_batch=len(decodes),
                kv_tokens=int(decodes.sum()),
                max_seq_len=64,
                block_tokens=16,
            )
            assert tiled >= eager

    def test_decode_graph_key_captures_once_then_replays(self):
        from repro.decoder.estimator import estimate_decode_round_tiled
        from repro.gpusim import ExecutionContext
        from repro.gpusim.graph import GraphCache

        cache = GraphCache()
        kwargs = dict(
            prefill_tile=0,
            decode_batch=4,
            kv_tokens=100,
            max_seq_len=64,
            block_tokens=16,
            cache=cache,
        )
        first = estimate_decode_round_tiled(
            ExecutionContext(), CFG, **kwargs
        )
        second = estimate_decode_round_tiled(
            ExecutionContext(), CFG, **kwargs
        )
        assert first == second
        assert cache.hits == 1 and cache.misses == 1
        kinds = cache.kind_counts()
        assert kinds["decode"] == {"captures": 1, "replays": 1}

    def test_looped_round_costs_more_than_batched(self):
        from repro.decoder.estimator import (
            estimate_decode_round,
            estimate_decode_round_looped,
        )
        from repro.gpusim import ExecutionContext

        prefills = np.array([30, 20])
        decodes = np.array([40, 55, 33, 60])
        batched = estimate_decode_round(
            ExecutionContext(), CFG, prefills, decodes, block_tokens=16
        )
        looped = estimate_decode_round_looped(
            ExecutionContext(), CFG, prefills, decodes
        )
        assert looped > batched
