"""Looped-vs-vectorized engine equivalence for every attention variant.

The vectorized engine must be a pure *execution* change: same numbers
(``atol=1e-6``; the exact-length buckets are in fact bit-identical) and
the exact same kernel-launch stream — descriptor equality and modelled
time equality, record by record — as the seed's per-``(b, h)`` loops.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attention.bucketed import bucketed_sdpa, build_buckets
from repro.attention.fused_long import fused_long_mha
from repro.attention.fused_short import fused_short_mha
from repro.attention.zeropad_softmax_mha import zeropad_softmax_mha
from repro.core.engine import LOOPED, VECTORIZED, use_engine
from repro.core.model import BertEncoderModel
from repro.core.config import STEPWISE_PRESETS, BertConfig
from repro.core.memory_planner import LiveArena
from repro.core.padding import packing_from_lengths
from repro.core.parallel import use_workers
from repro.gpusim.stream import ExecutionContext
from repro.kernels.grouped_gemm import grouped_gemm
from repro.kernels.reduction import EPILOGUE_TILE_N
from repro.workloads.generator import make_batch

MAX_SEQ = 48
NUM_HEADS = 4
HEAD_SIZE = 16
HIDDEN = NUM_HEADS * HEAD_SIZE

# Length mixes the bucketing must survive: random draws from three
# distributions, plus the degenerate shapes (one bucket, all-singleton
# buckets, batch of one, a length-1 sentence).
LENGTH_CASES = {
    "uniform": [31, 7, 44, 18, 25, 12],
    "normal": [22, 27, 24, 30, 19, 26, 23],
    "zipf": [1, 1, 2, 3, 1, 9, 2, 48],
    "all_equal": [24, 24, 24, 24],
    "all_distinct": [5, 12, 19, 26, 33, 40, 47],
    "batch_of_one": [37],
    "length_one": [1, 48, 16],
}

VARIANTS = {
    "fused_short": fused_short_mha,
    "zeropad_softmax": zeropad_softmax_mha,
    "fused_long": fused_long_mha,
}


def _make_case(lengths, seed=0):
    packing = packing_from_lengths(
        np.asarray(lengths, dtype=np.int64), MAX_SEQ, cache=None
    )
    rng = np.random.default_rng(seed)
    qkv = rng.standard_normal(
        (packing.total_tokens, 3 * HIDDEN), dtype=np.float32
    )
    bias = rng.standard_normal(3 * HIDDEN, dtype=np.float32)
    return packing, qkv, bias


def _run(mha, qkv, bias, packing, engine):
    with use_engine(engine):
        ctx = ExecutionContext()
        out = mha(qkv.copy(), bias, packing, NUM_HEADS, ctx=ctx)
    return out, ctx.records


def _assert_records_identical(looped, vectorized):
    assert len(looped) == len(vectorized)
    for a, b in zip(looped, vectorized):
        assert a.launch == b.launch
        assert a.time_us == b.time_us


@pytest.mark.parametrize("case", sorted(LENGTH_CASES))
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_engines_agree(variant, case):
    """Same outputs (atol 1e-6) and byte-identical launch records."""
    packing, qkv, bias = _make_case(LENGTH_CASES[case])
    mha = VARIANTS[variant]
    out_loop, rec_loop = _run(mha, qkv, bias, packing, LOOPED)
    out_vec, rec_vec = _run(mha, qkv, bias, packing, VECTORIZED)
    np.testing.assert_allclose(out_vec, out_loop, rtol=0, atol=1e-6)
    _assert_records_identical(rec_loop, rec_vec)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_exact_buckets_are_bitwise(variant):
    """bucket_step=1 reproduces the loops bit for bit, not just closely."""
    packing, qkv, bias = _make_case(LENGTH_CASES["uniform"], seed=3)
    mha = VARIANTS[variant]
    out_loop, _ = _run(mha, qkv, bias, packing, LOOPED)
    out_vec, _ = _run(mha, qkv, bias, packing, VECTORIZED)
    assert np.array_equal(out_loop, out_vec)


#: longest sentence of the long-path property: several 128-wide epilogue
#: tiles, so multi-block partial stats and ragged final blocks are hit
LONG_MAX_SEQ = 600


@given(
    lens=st.lists(
        st.one_of(
            st.integers(1, LONG_MAX_SEQ),
            st.integers(1, 4).map(lambda n: n * EPILOGUE_TILE_N),
            st.integers(1, EPILOGUE_TILE_N - 1),
        ),
        min_size=1,
        max_size=5,
    ),
    num_heads=st.sampled_from([1, 3, NUM_HEADS]),
    dtype=st.sampled_from([np.float32, np.float64]),
    arena=st.booleans(),
    workers=st.integers(1, 2),
)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_long_path_bitwise_beyond_one_epilogue_tile(
    lens, num_heads, dtype, arena, workers
):
    """The tiled long kernel equals the looped reference bit for bit."""
    hidden = num_heads * HEAD_SIZE
    packing = packing_from_lengths(
        np.asarray(lens, dtype=np.int64), max(lens), cache=None
    )
    rng = np.random.default_rng(len(lens))
    qkv = rng.standard_normal((packing.total_tokens, 3 * hidden)).astype(dtype)
    bias = rng.standard_normal(3 * hidden).astype(dtype)
    with use_engine(LOOPED):
        ctx_loop = ExecutionContext()
        want = fused_long_mha(qkv, bias, packing, num_heads, ctx=ctx_loop)
    scratch = LiveArena() if arena else None
    # with an arena, the second call is served from the grown backing
    for _ in range(2 if arena else 1):
        if scratch is not None:
            scratch.begin()
        with use_engine(VECTORIZED), use_workers(workers):
            ctx_vec = ExecutionContext()
            got = fused_long_mha(
                qkv, bias, packing, num_heads, ctx=ctx_vec, scratch=scratch
            )
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        _assert_records_identical(ctx_loop.records, ctx_vec.records)


@pytest.mark.parametrize("lens", [[150], list(range(40, 29, -1))])
def test_long_path_tiles_lent_under_contention(lens):
    """More workers than cores and a tiny switch interval: the runs
    borrowing the calling thread's tiles (and a lone bucket's runs
    splitting its tiles) still give the serial bits."""
    import sys

    packing = packing_from_lengths(
        np.asarray(lens, dtype=np.int64), max(lens), cache=None
    )
    rng = np.random.default_rng(3)
    qkv = rng.standard_normal((packing.total_tokens, 3 * HIDDEN))
    qkv = qkv.astype(np.float32)
    bias = rng.standard_normal(3 * HIDDEN).astype(np.float32)
    with use_workers(1):
        want = fused_long_mha(qkv, bias, packing, NUM_HEADS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with use_workers(6):
            for _ in range(5):
                got = fused_long_mha(qkv, bias, packing, NUM_HEADS, split=6)
                assert np.array_equal(got, want)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("step", [8, 32, 64])
def test_quantized_buckets_match_exact(step):
    """Padded+masked quantized buckets agree with exact buckets 1e-6."""
    packing, qkv, bias = _make_case(LENGTH_CASES["zipf"], seed=5)
    exact = bucketed_sdpa(qkv, bias, packing, NUM_HEADS, bucket_step=1)
    quant = bucketed_sdpa(qkv, bias, packing, NUM_HEADS, bucket_step=step)
    np.testing.assert_allclose(quant, exact, rtol=0, atol=1e-6)
    # quantization reduces the bucket count to the distinct rounded keys
    n_quant = len(build_buckets(packing, step))
    n_exact = len(build_buckets(packing, 1))
    assert n_quant <= n_exact


def test_grouped_gemm_engine_equivalence(rng):
    """Shape-bucketed batched matmul == per-problem loop, incl. launches."""
    shapes = [(9, 13, 7), (9, 13, 7), (4, 4, 4), (9, 13, 7), (17, 3, 5)]
    a_list = [rng.standard_normal((m, k)).astype(np.float32) for m, _, k in shapes]
    b_list = [rng.standard_normal((k, n)).astype(np.float32) for _, n, k in shapes]
    results = {}
    records = {}
    for engine in (LOOPED, VECTORIZED):
        with use_engine(engine):
            ctx = ExecutionContext()
            results[engine] = grouped_gemm(a_list, b_list, ctx=ctx)
            records[engine] = ctx.records
    for out_loop, out_vec in zip(results[LOOPED], results[VECTORIZED]):
        np.testing.assert_allclose(out_vec, out_loop, rtol=0, atol=1e-6)
    _assert_records_identical(records[LOOPED], records[VECTORIZED])


def test_grouped_gemm_transpose_b(rng):
    a = [rng.standard_normal((6, 8)).astype(np.float32) for _ in range(3)]
    b = [rng.standard_normal((5, 8)).astype(np.float32) for _ in range(3)]
    for engine in (LOOPED, VECTORIZED):
        with use_engine(engine):
            outs = grouped_gemm(a, b, transpose_b=True)
        for ai, bi, oi in zip(a, b, outs):
            np.testing.assert_allclose(oi, ai @ bi.T, rtol=0, atol=1e-5)


@pytest.mark.parametrize("label", ["rm padding", "fused MHA"])
def test_full_model_launch_stream_identity(label):
    """End to end: the modelled execution is engine-invariant."""
    preset = {p.label: p for p in STEPWISE_PRESETS}[label]
    config = BertConfig(num_heads=NUM_HEADS, head_size=HEAD_SIZE, num_layers=2)
    data = make_batch(5, MAX_SEQ, config.hidden_size, alpha=0.6, seed=11)
    model = BertEncoderModel(config, preset, seed=2)
    outputs = {}
    contexts = {}
    for engine in (LOOPED, VECTORIZED):
        with use_engine(engine):
            ctx = ExecutionContext()
            outputs[engine] = model.forward(data.x, data.mask, ctx=ctx)
            contexts[engine] = ctx
    np.testing.assert_allclose(
        outputs[VECTORIZED], outputs[LOOPED], rtol=0, atol=1e-6
    )
    _assert_records_identical(
        contexts[LOOPED].records, contexts[VECTORIZED].records
    )
    assert (
        contexts[LOOPED].elapsed_us() == contexts[VECTORIZED].elapsed_us()
    )
    assert (
        contexts[LOOPED].total_flops() == contexts[VECTORIZED].total_flops()
    )
