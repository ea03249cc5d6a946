"""Live arena: reuse, growth, aliasing, planner agreement, bit parity."""

import dataclasses

import numpy as np
import pytest

from repro.attention.bucketed import (
    acquire_bucket_scratch,
    build_buckets,
    release_bucket_scratch,
)
from repro.core.config import STEPWISE_PRESETS, BertConfig
from repro.core.memory_planner import (
    ArenaAllocator,
    LiveArena,
    peak_live_bytes,
    plan_live_forward,
)
from repro.core.model import BertEncoderModel
from repro.core.padding import packing_from_lengths
from repro.core.parallel import use_workers

# the PR 1 equivalence matrix: every shape class the bucketed engine
# must handle (mirrors tests/attention/test_bucketed_equivalence.py)
LENGTH_CASES = {
    "uniform": [31, 7, 44, 18, 25, 12],
    "normal": [22, 27, 24, 30, 19, 26, 23],
    "zipf": [1, 1, 2, 3, 1, 9, 2, 48],
    "all_equal": [24, 24, 24, 24],
    "all_distinct": [5, 12, 19, 26, 33, 40, 47],
    "batch_of_one": [37],
    "length_one": [1, 48, 16],
}
MAX_SEQ = 48
CONFIG = BertConfig(num_layers=2, num_heads=4, head_size=16)
FUSED = STEPWISE_PRESETS[-1]  # "fused MHA"


def _batch(lengths, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    batch = len(lengths)
    x = rng.standard_normal(
        (batch, MAX_SEQ, CONFIG.hidden_size)
    ).astype(dtype)
    mask = np.zeros((batch, MAX_SEQ), dtype=np.int64)
    for row, length in enumerate(lengths):
        mask[row, :length] = 1
    return x, mask


class TestArenaMechanics:
    def test_take_shape_and_dtype(self):
        arena = LiveArena()
        arena.begin()
        buf = arena.take("a", (3, 5), np.float32)
        assert buf.shape == (3, 5) and buf.dtype == np.float32

    def test_backing_grows_only_at_begin(self):
        arena = LiveArena()
        arena.begin()
        assert arena.footprint_bytes == 0
        arena.take("a", (1024,))  # overflow: served by np.empty
        assert arena.overflow_allocs == 1
        assert arena.footprint_bytes == 0  # no growth mid-forward
        arena.begin()
        assert arena.footprint_bytes >= 1024 * 8
        arena.take("a", (1024,))
        assert arena.overflow_allocs == 1  # steady state: no new overflow
        assert arena.in_steady_state

    def test_steady_state_views_are_backing_views(self):
        arena = LiveArena()
        arena.begin()
        arena.take("a", (64,))
        arena.begin()
        buf = arena.take("a", (64,))
        assert buf.base is not None  # a view, not an owning array

    def test_live_buffers_never_overlap(self):
        arena = LiveArena()
        for _ in range(2):  # warm-up then steady state
            arena.begin()
            live = {
                name: arena.take(name, (97,), np.float64)
                for name in ("a", "b", "c", "d")
            }
            for i, x in enumerate(live.values()):
                for y in list(live.values())[i + 1:]:
                    assert not np.shares_memory(x, y)
        assert arena.in_steady_state

    def test_release_enables_reuse(self):
        arena = LiveArena()
        arena.begin()
        arena.take("a", (128,))
        arena.release("a")
        arena.take("b", (128,))
        arena.begin()
        a = arena.take("a", (128,))
        arena.release("a")
        b = arena.take("b", (128,))
        # best-fit hands b the slot a vacated: zero extra footprint
        assert np.shares_memory(a, b)
        assert arena.footprint_bytes == a.nbytes

    def test_peak_live_tracks_raw_bytes(self):
        arena = LiveArena()
        arena.begin()
        arena.take("a", (100,), np.float32)
        arena.take("b", (50,), np.float32)
        arena.release("a")
        arena.take("c", (25,), np.float32)
        assert arena.peak_live_bytes == 150 * 4

    def test_bucket_scratch_no_aliasing_across_buckets(self):
        # parallel bucket execution relies on pre-acquired, disjoint
        # buffers; any aliasing would be a data race on the worker pool
        packing = packing_from_lengths(
            np.array([7, 31, 31, 44]), MAX_SEQ, cache=None
        )
        buckets = build_buckets(packing)
        assert len(buckets) > 1
        arena = LiveArena()
        for _ in range(2):
            arena.begin()
            bufs = acquire_bucket_scratch(
                arena, buckets, CONFIG.num_heads, CONFIG.head_size,
                np.dtype(np.float64),
            )
            arrays = [a for per_bucket in bufs for a in per_bucket.values()]
            for i, x in enumerate(arrays):
                for y in arrays[i + 1:]:
                    assert not np.shares_memory(x, y)
            release_bucket_scratch(arena, len(buckets))


class TestPlannerAgreement:
    @pytest.mark.parametrize("case", sorted(LENGTH_CASES))
    def test_observed_peak_within_offline_prediction(self, case):
        lengths = LENGTH_CASES[case]
        x, mask = _batch(lengths)
        model = BertEncoderModel(CONFIG, opt=FUSED, arena=LiveArena())
        for _ in range(2):
            model.forward(x, mask)
        trace = plan_live_forward(
            CONFIG, FUSED, np.array(lengths), MAX_SEQ, dtype=x.dtype
        )
        assert model.arena.peak_live_bytes <= peak_live_bytes(trace)
        predicted_arena = ArenaAllocator(model.arena.alignment).replay(trace)
        assert model.arena.footprint_bytes <= predicted_arena
        assert model.arena.in_steady_state
        # converged: one more forward performs zero overflow allocations
        overflow_before = model.arena.overflow_allocs
        model.forward(x, mask)
        assert model.arena.overflow_allocs == overflow_before


class TestBitParity:
    @pytest.mark.parametrize("case", sorted(LENGTH_CASES))
    def test_arena_on_off_bitwise_equal(self, case):
        lengths = LENGTH_CASES[case]
        x, mask = _batch(lengths)
        plain = BertEncoderModel(CONFIG, opt=FUSED, seed=3)
        backed = BertEncoderModel(
            CONFIG, opt=FUSED, seed=3, arena=LiveArena()
        )
        want = plain.forward(x, mask)
        for _ in range(3):  # warm-up, growth, steady state
            got = backed.forward(x, mask)
            assert np.array_equal(got, want)

    def test_forced_long_path_bitwise_equal(self):
        # drive every sequence through the grouped long kernel (the only
        # dtype-gated scratch path) in float64
        opt = dataclasses.replace(FUSED, fused_mha_short_max_seq=1)
        x, mask = _batch(LENGTH_CASES["uniform"], dtype=np.float64)
        plain = BertEncoderModel(CONFIG, opt=opt, seed=3)
        backed = BertEncoderModel(CONFIG, opt=opt, seed=3, arena=LiveArena())
        want = plain.forward(x, mask)
        for _ in range(3):
            assert np.array_equal(backed.forward(x, mask), want)

    def test_parallel_workers_bitwise_equal(self):
        x, mask = _batch(LENGTH_CASES["all_distinct"])
        model = BertEncoderModel(CONFIG, opt=FUSED, seed=5, arena=LiveArena())
        serial = model.forward(x, mask).copy()  # output is an arena view
        with use_workers(2):
            parallel = model.forward(x, mask)
        assert np.array_equal(parallel, serial)

    def test_output_view_invalidated_by_next_forward(self):
        # documents the arena contract: the returned tensor is a view
        # valid only until the next forward on the same model
        x, mask = _batch(LENGTH_CASES["all_equal"])
        model = BertEncoderModel(CONFIG, opt=FUSED, arena=LiveArena())
        model.forward(x, mask)
        first = model.forward(x, mask)
        second = model.forward(x, mask)
        assert np.shares_memory(first, second)


class TestPlanDrivenPresize:
    @pytest.mark.parametrize("case", sorted(LENGTH_CASES))
    def test_first_forward_never_overflows(self, case):
        # satellite gate: the mask-path forward pre-sizes the arena from
        # the shape's symbolic plan, so even the *first* forward per
        # shape is served entirely from the backing buffer
        x, mask = _batch(LENGTH_CASES[case])
        arena = LiveArena()
        model = BertEncoderModel(CONFIG, opt=FUSED, seed=3, arena=arena)
        model.forward(x, mask)
        assert arena.overflow_allocs == 0
        assert arena.in_steady_state

    def test_new_shape_presizes_again(self):
        arena = LiveArena()
        model = BertEncoderModel(CONFIG, opt=FUSED, seed=3, arena=arena)
        for case in ("zipf", "uniform", "all_equal"):
            x, mask = _batch(LENGTH_CASES[case])
            model.forward(x, mask)
        assert arena.overflow_allocs == 0


class TestScratchPool:
    def test_reuses_backing_across_takes(self):
        from repro.core.memory_planner import ScratchPool

        pool = ScratchPool()
        a = pool.take((32, 16), np.float64)
        b = pool.take((16, 32), np.float64)  # same bytes, new shape
        assert np.shares_memory(a, b)
        c = pool.take((64, 64), np.float64)  # grows the high-water buf
        assert c.shape == (64, 64)
        d = pool.take((8, 8), np.float64)
        assert np.shares_memory(c, d)

    def test_dtypes_do_not_collide(self):
        from repro.core.memory_planner import ScratchPool

        pool = ScratchPool()
        a = pool.take((16,), np.float64)
        b = pool.take((16,), np.float32)
        assert not np.shares_memory(a, b)

    def test_thread_locality(self):
        import threading

        from repro.core.memory_planner import ScratchPool

        pool = ScratchPool()
        mine = pool.take((16,), np.float64)
        theirs = []

        def body():
            theirs.append(pool.take((16,), np.float64))

        t = threading.Thread(target=body)
        t.start()
        t.join()
        assert not np.shares_memory(mine, theirs[0])
