"""Incremental decoding: the cache must reproduce full causal attention."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decoder.generation import (
    PackedKVCache,
    attend_to_cache,
    decode_attention_launch,
    decode_self_attention_step,
    generation_traffic_ratio,
)
from repro.decoder.reference import reference_causal_attention
from repro.gpusim import ExecutionContext
from repro.kernels.softmax import softmax_reference

HEADS, HEAD_SIZE = 4, 8
HIDDEN = HEADS * HEAD_SIZE


def full_causal_attention(qkv: np.ndarray) -> np.ndarray:
    """Dense causal self-attention over one packed ``[L, 3H]`` sequence,
    returned as ``[L, H]`` rows."""
    length = qkv.shape[0]
    q, k, v = (
        qkv[:, i * HIDDEN : (i + 1) * HIDDEN]
        .reshape(1, length, HEADS, HEAD_SIZE)
        .transpose(0, 2, 1, 3)
        for i in range(3)
    )
    out = reference_causal_attention(q, k, v, np.ones((1, length)))
    return out.transpose(0, 2, 1, 3).reshape(length, HIDDEN)


class TestCache:
    def test_append_and_lengths(self, rng):
        cache = PackedKVCache(batch=3, hidden=HIDDEN)
        for _ in range(4):
            cache.append(
                rng.normal(size=(3, HIDDEN)), rng.normal(size=(3, HIDDEN))
            )
        np.testing.assert_array_equal(cache.lengths(), [4, 4, 4])
        assert cache.keys(0).shape == (4, HIDDEN)

    def test_prompt_prefill_respects_lengths(self, rng):
        cache = PackedKVCache(batch=2, hidden=HIDDEN)
        k = rng.normal(size=(2, 6, HIDDEN))
        v = rng.normal(size=(2, 6, HIDDEN))
        cache.append_prompt(k, v, np.array([3, 6]))
        np.testing.assert_array_equal(cache.lengths(), [3, 6])
        np.testing.assert_array_equal(cache.keys(0), k[0, :3])

    def test_packed_vs_padded_bytes(self, rng):
        cache = PackedKVCache(batch=4, hidden=HIDDEN)
        k = rng.normal(size=(4, 10, HIDDEN))
        cache.append_prompt(k, k, np.array([2, 4, 6, 10]))
        assert cache.packed_bytes < cache.padded_bytes()
        assert cache.padded_bytes() == 2 * 4 * 10 * HIDDEN * 2

    def test_shape_validation(self, rng):
        cache = PackedKVCache(batch=2, hidden=HIDDEN)
        with pytest.raises(ValueError, match="keys"):
            cache.append(
                rng.normal(size=(3, HIDDEN)), rng.normal(size=(3, HIDDEN))
            )

    def test_bad_constructor(self):
        with pytest.raises(ValueError, match="positive"):
            PackedKVCache(batch=0, hidden=HIDDEN)


class TestIncrementalEqualsFull:
    def test_step_by_step_matches_causal_mha(self, rng):
        """The core contract: decoding token by token through the cache
        reproduces the full causal self-attention over the same tokens."""
        length = 9
        qkv = rng.normal(size=(length, 3 * HIDDEN)).astype(np.float64)
        full = full_causal_attention(qkv)

        cache = PackedKVCache(batch=1, hidden=HIDDEN)
        for t in range(length):
            step_out = decode_self_attention_step(
                qkv[t : t + 1, :HIDDEN],
                qkv[t : t + 1, HIDDEN : 2 * HIDDEN],
                qkv[t : t + 1, 2 * HIDDEN :],
                cache,
                HEADS,
            )
            np.testing.assert_allclose(
                step_out[0], full[t], rtol=1e-8, atol=1e-10
            )

    def test_batch_of_different_prompts(self, rng):
        """Batched decode with unequal context lengths stays per-sequence
        correct (each row only sees its own history)."""
        cache = PackedKVCache(batch=2, hidden=HIDDEN)
        prompt_k = rng.normal(size=(2, 5, HIDDEN))
        prompt_v = rng.normal(size=(2, 5, HIDDEN))
        cache.append_prompt(prompt_k, prompt_v, np.array([2, 5]))

        q = rng.normal(size=(2, HIDDEN))
        k = rng.normal(size=(2, HIDDEN))
        v = rng.normal(size=(2, HIDDEN))
        out = decode_self_attention_step(q, k, v, cache, HEADS)

        # sequence 0's result must be computable from its 3-row history
        solo = PackedKVCache(batch=1, hidden=HIDDEN)
        solo.append_prompt(prompt_k[:1], prompt_v[:1], np.array([2]))
        solo_out = decode_self_attention_step(
            q[:1], k[:1], v[:1], solo, HEADS
        )
        np.testing.assert_allclose(out[0], solo_out[0], rtol=1e-10)

    @given(length=st.integers(1, 12))
    @settings(max_examples=15, deadline=None)
    def test_property_any_length(self, length):
        rng = np.random.default_rng(length)
        qkv = rng.normal(size=(length, 3 * HIDDEN))
        full = full_causal_attention(qkv)
        cache = PackedKVCache(batch=1, hidden=HIDDEN)
        for t in range(length):
            out = decode_self_attention_step(
                qkv[t : t + 1, :HIDDEN],
                qkv[t : t + 1, HIDDEN : 2 * HIDDEN],
                qkv[t : t + 1, 2 * HIDDEN :],
                cache,
                HEADS,
            )
            np.testing.assert_allclose(out[0], full[t], rtol=1e-7, atol=1e-9)


class TestDecodeCost:
    def test_one_launch_per_step(self, rng):
        cache = PackedKVCache(batch=2, hidden=HIDDEN)
        ctx = ExecutionContext()
        decode_self_attention_step(
            rng.normal(size=(2, HIDDEN)),
            rng.normal(size=(2, HIDDEN)),
            rng.normal(size=(2, HIDDEN)),
            cache,
            HEADS,
            ctx=ctx,
        )
        assert ctx.kernel_count() == 1
        assert ctx.records[0].launch.name == "decode_attention"

    def test_packed_cheaper_than_padded_for_ragged_contexts(self):
        lens = np.array([100, 900, 150, 200])
        packed = decode_attention_launch(lens, 12, 64, padded=False)
        padded = decode_attention_launch(lens, 12, 64, padded=True)
        assert packed.dram_bytes < padded.dram_bytes
        assert packed.flops < padded.flops

    def test_equal_contexts_equal_cost(self):
        lens = np.array([300, 300, 300])
        packed = decode_attention_launch(lens, 12, 64, padded=False)
        padded = decode_attention_launch(lens, 12, 64, padded=True)
        assert packed.dram_bytes == pytest.approx(padded.dram_bytes)

    def test_traffic_ratio_closed_form(self):
        # prompts of 100/300, generate 10 tokens, cap 512
        ratio = generation_traffic_ratio(np.array([100, 300]), 10, 512)
        assert ratio > 1.0
        # hand-check: packed per step t: 400 + 2t; padded: 1024
        packed = sum(400 + 2 * t for t in range(1, 11))
        assert ratio == pytest.approx(1024 * 10 / packed)

    def test_traffic_ratio_validation(self):
        with pytest.raises(ValueError, match="steps"):
            generation_traffic_ratio(np.array([10]), 0, 64)
        with pytest.raises(ValueError, match="max_context"):
            generation_traffic_ratio(np.array([60]), 10, 64)


def attend_per_head_softmax(q_row, keys, values, num_heads):
    """Single-token attention with one softmax call per head."""
    head_size = q_row.shape[0] // num_heads
    scale = 1.0 / math.sqrt(head_size)
    k3 = keys.reshape(-1, num_heads, head_size)
    v3 = values.reshape(-1, num_heads, head_size)
    qh = q_row.reshape(num_heads, head_size)
    out = np.empty_like(q_row)
    for h in range(num_heads):
        scores = (k3[:, h] @ qh[h]) * scale
        probs = softmax_reference(scores[None, :])[0]
        out[h * head_size : (h + 1) * head_size] = probs @ v3[:, h]
    return out


class TestAttendToCache:
    """One softmax over the ``[heads, len]`` scores is bitwise the
    per-head softmax calls it replaces."""

    @given(
        length=st.integers(1, 400),
        heads=st.integers(1, 12),
        head_size=st.sampled_from((1, 3, 8, 16, 64)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_batched_softmax_equals_per_head(
        self, length, heads, head_size, seed
    ):
        rng = np.random.default_rng(seed)
        hidden = heads * head_size
        q = rng.normal(size=hidden)
        keys = rng.normal(size=(length, hidden))
        values = rng.normal(size=(length, hidden))
        assert np.array_equal(
            attend_to_cache(q, keys, values, heads),
            attend_per_head_softmax(q, keys, values, heads),
        )

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError, match="not divisible"):
            attend_to_cache(np.zeros(10), np.zeros((2, 10)), np.zeros((2, 10)), 3)
