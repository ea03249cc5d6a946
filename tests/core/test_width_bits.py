"""Same input, same bits, at any model width.

OpenBLAS's threaded and one-thread drivers round ``x @ w`` differently
for some reduction depths ``k`` (500, 700, 1000 and 2000 on one x86_64
host; BERT's 768, 1024 and 3072 agree), and its one-thread dgemm rounds
a row by where it falls in the call's micro-tiles.  Every encoder
forward therefore runs one numeric path — one BLAS thread, row splits
aligned to :data:`repro.core.encoder.ROW_ALIGN` — whether it captures a
launch graph, replays one, is priced without a cache or runs numerics
only, on one worker or on the host's default pool.  Widths 4×125, 5×100
and 7×100 put ``k`` outside the friendly set; 12×64 is the control.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FUSED_MHA, RM_PADDING, BertConfig
from repro.core.memory_planner import LiveArena
from repro.core.model import BertEncoderModel
from repro.core.parallel import use_workers
from repro.gpusim import ExecutionContext
from repro.gpusim.graph import GraphCache

WIDTHS = [(4, 125), (5, 100), (7, 100), (12, 64)]
#: the short kernel's limit here: drawn max lengths fall on both sides
SHORT_LIMIT = 128

lengths = st.one_of(
    # a batch of one, long enough for its layers to split by rows
    st.lists(st.integers(100, 300), min_size=1, max_size=1),
    st.lists(st.integers(1, 200), min_size=2, max_size=6),
)


def _records(ctx):
    return [r.launch for r in ctx.records], ctx.elapsed_us()


@settings(max_examples=16, derandomize=True, deadline=None)
@given(
    width=st.sampled_from(WIDTHS),
    preset=st.sampled_from([RM_PADDING, FUSED_MHA]),
    dtype=st.sampled_from([np.float32, np.float64]),
    lens=lengths,
    arena=st.booleans(),
)
def test_every_forward_gives_the_same_bits(width, preset, dtype, lens, arena):
    heads, head_size = width
    config = BertConfig(num_heads=heads, head_size=head_size, num_layers=1)
    opt = dataclasses.replace(preset, fused_mha_short_max_seq=SHORT_LIMIT)
    max_seq = max(lens)
    rng = np.random.default_rng(len(lens))
    x = rng.standard_normal((len(lens), max_seq, config.hidden_size))
    x = x.astype(dtype)
    mask = (np.arange(max_seq)[None, :] < np.array(lens)[:, None]).astype(
        np.int64
    )
    x *= mask[:, :, None]

    def model(cache):
        return BertEncoderModel(
            config, opt, seed=1,
            arena=LiveArena() if arena else None, graph_cache=cache,
        )

    cached = model(GraphCache())
    capture_ctx, replay_ctx, priced_ctx = (ExecutionContext() for _ in "abc")
    capture = cached.forward(x, mask, ctx=capture_ctx).copy()
    replay = cached.forward(x, mask, ctx=replay_ctx).copy()
    uncached = model(None)
    priced = uncached.forward(x, mask, ctx=priced_ctx).copy()
    with use_workers(1):
        one_worker = uncached.forward(x, mask).copy()
    host_default = uncached.forward(x, mask)

    for got in (replay, priced, one_worker, host_default):
        assert np.array_equal(got, capture)
    assert _records(replay_ctx) == _records(capture_ctx)
    assert _records(priced_ctx) == _records(capture_ctx)
