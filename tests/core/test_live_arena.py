"""Live arena: reuse, growth, aliasing, planner agreement, bit parity."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attention.bucketed import (
    acquire_bucket_scratch,
    build_buckets,
    release_bucket_scratch,
)
from repro.attention.dispatch import force_mha_path
from repro.core import memory_planner
from repro.core.config import RM_PADDING, STEPWISE_PRESETS, BertConfig
from repro.core.encoder import FFN_BLOCK_ROWS
from repro.core.memory_planner import (
    ArenaAllocator,
    LiveArena,
    peak_live_bytes,
    plan_live_forward,
    plan_live_megabatch,
)
from repro.core.model import BertEncoderModel
from repro.core.padding import (
    merge_request_lengths,
    pack,
    pack_segments,
    packing_from_lengths,
    packing_from_mask,
    unpack,
)
from repro.core.parallel import (
    SERIAL_EXECUTOR,
    blas_pinned,
    host_executor,
    use_executor,
    use_workers,
)
from repro.gpusim import ExecutionContext
from repro.gpusim.device import A100_SPEC
from repro.gpusim.graph import GraphCache

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


def _batch(lengths, seed=0, dtype=np.float32, max_seq=MAX_SEQ):
    rng = np.random.default_rng(seed)
    batch = len(lengths)
    x = rng.standard_normal(
        (batch, max_seq, CONFIG.hidden_size)
    ).astype(dtype)
    mask = np.zeros((batch, max_seq), dtype=np.int64)
    for row, length in enumerate(lengths):
        mask[row, :length] = 1
    return x, mask


def _megabatch(lengths, max_seq, tile, dtype, seed=0):
    rng = np.random.default_rng(seed)
    mega = merge_request_lengths(lengths, max_seq, tile, cache=None)
    segments = [
        rng.standard_normal((n, CONFIG.hidden_size)).astype(dtype)
        for n in lengths
    ]
    return pack_segments(segments, mega), mega


class RecordingArena(LiveArena):
    """A live arena that logs each forward's takes and releases.

    Every float view it hands out is first filled with NaN, and must
    hold no NaN when it is released (or when the forward ends): a buffer
    that is taken but never written, or read before it is written, shows
    up.
    """

    def begin(self):
        super().begin()
        self.events = []
        self._views = {}

    def take(self, name, shape, dtype=np.float64):
        view = super().take(name, shape, dtype)
        if view.dtype.kind == "f":
            view.fill(np.nan)
        self._views[name] = view
        self.events.append((name, view.nbytes))
        return view

    def release(self, name):
        view = self._views.pop(name)
        _assert_written(name, view)
        super().release(name)
        self.events.append((name, -view.nbytes))

    def closed_events(self):
        """This forward's events, closed by a free of every buffer still
        live, in take order, as the planner closes its plan."""
        for name, view in self._views.items():
            _assert_written(name, view)
        return self.events + [
            (name, -view.nbytes) for name, view in self._views.items()
        ]


def _assert_written(name, view):
    if view.dtype.kind != "f":
        return
    unwritten = int(np.isnan(view).sum())
    if unwritten:
        raise AssertionError(
            f"arena buffer {name} {view.shape}: {unwritten} of {view.size} "
            "elements never written"
        )


def _plan_events(plan):
    return [(event.tensor, event.bytes) for event in plan]


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
        for kernel in ("short", "short", "long"):
            arena.begin()
            bufs = acquire_bucket_scratch(
                arena, kernel, buckets, CONFIG.num_heads, CONFIG.head_size,
                np.dtype(np.float64),
            )
            arrays = [a for per_bucket in bufs for a in per_bucket.values()]
            assert arrays
            for i, x in enumerate(arrays):
                for y in arrays[i + 1:]:
                    assert not np.shares_memory(x, y)
            release_bucket_scratch(arena, bufs)


#: short-kernel limit of the generated forwards: their lengths cross it
SHORT_LIMIT = 24


class TestPlannerAgreement:
    @pytest.mark.parametrize("case", sorted(LENGTH_CASES))
    def test_observed_peak_within_offline_prediction(self, case):
        # the plan is not just an upper bound: it is the take sequence
        # (of the serial forward; the fanned one is checked below)
        lengths = LENGTH_CASES[case]
        x, mask = _batch(lengths)
        model = BertEncoderModel(CONFIG, opt=FUSED, arena=RecordingArena())
        with use_executor(SERIAL_EXECUTOR):
            model.forward(x, mask)
            trace = plan_live_forward(
                CONFIG, FUSED, np.array(lengths), MAX_SEQ,
                device=A100_SPEC, dtype=x.dtype,
            )
            assert model.arena.closed_events() == _plan_events(trace)
            predicted_arena = ArenaAllocator(model.arena.alignment).replay(
                trace
            )
            for _ in range(2):  # reserved from the plan before the first
                assert model.arena.footprint_bytes == predicted_arena
                assert model.arena.in_steady_state
                assert model.arena.overflow_allocs == 0
                model.forward(x, mask)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        lengths=st.lists(
            st.integers(1, 2 * SHORT_LIMIT), min_size=1, max_size=5
        ),
        full=st.sampled_from([0, 16, 64, 96]),
        dtype=st.sampled_from([np.float32, np.float64]),
        path=st.sampled_from([None, "zeropad", "cublas"]),
        preset=st.sampled_from([FUSED, RM_PADDING]),
        megabatch=st.booleans(),
        workers=st.integers(1, 3),
    )
    # 16, 64 and 96 full sequences and one more token leave a one-row
    # FFN block at the end of the last row part on 1, 2 and 3 workers
    @example([1], 16, np.float64, None, FUSED, False, 1)
    @example([1], 64, np.float32, None, FUSED, True, 2)
    @example([1], 96, np.float64, None, FUSED, False, 3)
    def test_plan_equals_take_sequence(
        self, lengths, full, dtype, path, preset, megabatch, workers
    ):
        opt = dataclasses.replace(preset, fused_mha_short_max_seq=SHORT_LIMIT)
        config = dataclasses.replace(CONFIG, num_layers=1)
        model = BertEncoderModel(
            config, opt=opt, seed=3, arena=RecordingArena()
        )
        max_seq = 2 * SHORT_LIMIT
        lengths = lengths + [max_seq] * full
        tile = None
        with force_mha_path(path), use_workers(workers):
            if megabatch:
                tile = 16 * (-(-sum(lengths) // 16))
                x_tile, mega = _megabatch(lengths, max_seq, tile, dtype)
                model.forward_packed(x_tile, mega)
            else:
                x, mask = _batch(lengths, dtype=dtype, max_seq=max_seq)
                model.forward(x, mask)
        arena = model.arena
        # a forward's long kernel splits a lone bucket's tiles over the
        # workers (a megabatch's does not); row-split ops take what
        # whole ones do
        plan = plan_live_forward(
            config, opt, np.array(lengths), max_seq,
            device=A100_SPEC, mha=path, dtype=dtype, tile=tile,
            tile_split=1 if megabatch else workers, split=workers,
        )
        assert arena.closed_events() == _plan_events(plan)
        assert arena.overflow_allocs == 0
        # the FFN holds blocks of its intermediate, never all of it
        tokens = sum(lengths)
        ffn_row = config.ffn_size * np.dtype(dtype).itemsize
        for name, nbytes in _plan_events(plan):
            if tokens > FFN_BLOCK_ROWS:
                assert nbytes != tokens * ffn_row, name
            if name.startswith(("ffn_up", "gelu_tmp")):
                assert 0 < abs(nbytes) <= FFN_BLOCK_ROWS * ffn_row


class TestHostDefaultFanout:
    """Every forward fans its ops out over the host default executor, a
    priced one included, and keeps the serial bits."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        lengths=st.lists(
            st.integers(1, 2 * SHORT_LIMIT), min_size=2, max_size=8
        ),
        dtype=st.sampled_from([np.float32, np.float64]),
        arena=st.booleans(),
    )
    def test_host_default_equals_serial(self, lengths, dtype, arena):
        opt = dataclasses.replace(FUSED, fused_mha_short_max_seq=SHORT_LIMIT)
        max_seq = 2 * SHORT_LIMIT
        x, mask = _batch(lengths, dtype=dtype, max_seq=max_seq)

        def model():
            return BertEncoderModel(
                CONFIG, opt=opt, seed=3,
                arena=RecordingArena() if arena else None,
                graph_cache=GraphCache(),
            )

        with use_executor(SERIAL_EXECUTOR):
            serial = model()
            want = serial.forward(x, mask).copy()
            serial_ctx = ExecutionContext()
            serial.forward(x, mask, ctx=serial_ctx)

        fanned = model()
        got = fanned.forward(x, mask)
        assert np.array_equal(got, want)
        if arena:
            assert fanned.arena.overflow_allocs == 0
            plan = plan_live_forward(
                CONFIG, opt, np.array(lengths), max_seq, device=A100_SPEC,
                dtype=dtype, tile_split=host_executor().workers,
                split=host_executor().workers,
            )
            assert fanned.arena.closed_events() == _plan_events(plan)
        # a capture and a replay (both fanned numerics) price the
        # serial stream and keep the serial bits
        for _ in range(2):
            ctx = ExecutionContext()
            got = fanned.forward(x, mask, ctx=ctx)
            assert np.array_equal(got, want)
            assert [r.launch for r in ctx.records] == [
                r.launch for r in serial_ctx.records
            ]
            assert ctx.elapsed_us() == serial_ctx.elapsed_us()
        if arena:
            assert fanned.arena.overflow_allocs == 0


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


#: batches whose arena plans grow one after another
GROWING = [[9, 4], [24, 17, 9], [31, 7, 44, 18, 25, 12], [MAX_SEQ] * 8]


def _grow(arena, dtype=np.float32):
    """Forward every GROWING batch on one arena-backed model; checks
    each output against an arena-free forward and returns, per forward,
    the backing's data address, its size and the forward's events."""
    plain = BertEncoderModel(CONFIG, opt=FUSED, seed=3)
    backed = BertEncoderModel(CONFIG, opt=FUSED, seed=3, arena=arena)
    steps = []
    for lengths in GROWING:
        x, mask = _batch(lengths, dtype=dtype)
        assert np.array_equal(backed.forward(x, mask), plain.forward(x, mask))
        steps.append((
            arena._buf.__array_interface__["data"][0],
            arena.footprint_bytes,
            arena.closed_events(),
        ))
    assert arena.overflow_allocs == 0
    sizes = [size for _, size, _ in steps]
    assert sizes == sorted(set(sizes)), "every batch must grow the backing"
    return steps


class TestInPlaceGrowth:
    """The backing grows inside one reserved mapping: a larger shape
    never holds a second backing beside the first."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backing_address_never_changes(self, dtype):
        # _grow also checks every output's bits and zero overflows
        steps = _grow(RecordingArena(), dtype)
        assert len({address for address, _, _ in steps}) == 1

    def test_stale_view_shares_the_mapping(self):
        arena = LiveArena()
        model = BertEncoderModel(CONFIG, opt=FUSED, seed=3, arena=arena)
        stale = model.forward(*_batch(GROWING[0]))
        before = arena.footprint_bytes
        model.forward(*_batch(GROWING[-1]))
        assert arena.footprint_bytes > before
        assert np.shares_memory(stale, arena._buf)

    def test_refused_reservation_grows_through_np_empty(self, monkeypatch):
        want = _grow(RecordingArena())

        def refuse(*args, **kwargs):
            raise OSError(12, "Cannot allocate memory")

        monkeypatch.setattr(memory_planner.mmap, "mmap", refuse)
        arena = RecordingArena()
        got = _grow(arena)
        assert arena._buf.flags.owndata  # an np.empty backing
        # the same plan at every step: sizes and take/release events
        assert [step[1:] for step in got] == [step[1:] for step in want]


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


class TestPlanReserveKeys:
    """The arena reserve is keyed by every input its plan reads."""

    TILE = 256

    def _model(self, arena=None):
        config = dataclasses.replace(CONFIG, num_layers=1)
        return BertEncoderModel(
            config, opt=FUSED, seed=3, arena=arena or LiveArena()
        )

    def test_tile_reserve_follows_max_seq_len(self):
        model = self._model()
        model.prereserve_tiles((self.TILE,), 64, np.float64)
        x_tile, mega = _megabatch([256], 256, self.TILE, np.float64)
        model.forward_packed(x_tile, mega)
        assert model.arena.overflow_allocs == 0

    def test_tile_reserve_follows_dtype(self):
        model = self._model()
        model.prereserve_tiles((self.TILE,), 256, np.float32)
        x_tile, mega = _megabatch([256], 256, self.TILE, np.float64)
        model.forward_packed(x_tile, mega)
        assert model.arena.overflow_allocs == 0

    def test_shape_reserve_follows_dispatch_device(self):
        # a 360-token sequence runs the long kernel on a device whose
        # 40 KiB of shared memory cannot hold its short-kernel tiles;
        # that smaller plan must not stand in for the A100's short one
        small = dataclasses.replace(
            A100_SPEC, name="small-smem", max_shared_mem_per_block=40 * 1024
        )
        model = self._model(RecordingArena())
        x, mask = _batch([360, 13], dtype=np.float64, max_seq=368)
        for device in (small, A100_SPEC):
            model.forward(x, mask, ctx=ExecutionContext(device))
            plan = plan_live_forward(
                model.config, FUSED, np.array([360, 13]), 368,
                device=device, dtype=np.float64,
            )
            assert model.arena.closed_events() == _plan_events(plan)
        assert model.arena.overflow_allocs == 0


class TestChunkedMegabatchReserve:
    def test_thread_fanout_serves_lanes_from_the_backing(self):
        # the fanned megabatch's ops work in the buffers a serial one
        # takes: the backing is the tile's plans, and nothing overflows
        # it
        lengths, tile = [100, 90, 80, 60], 512
        x_tile, mega = _megabatch(lengths, 128, tile, np.float64)
        with use_executor(SERIAL_EXECUTOR):
            serial = BertEncoderModel(CONFIG, opt=FUSED, seed=3)
            want = serial.forward_packed(x_tile.copy(), mega)
        arena = LiveArena()
        model = BertEncoderModel(CONFIG, opt=FUSED, seed=3, arena=arena)
        with use_workers(2):
            got = model.forward_packed(x_tile.copy(), mega)
            got_again = model.forward_packed(x_tile.copy(), mega)
        plans = plan_live_megabatch(CONFIG, FUSED, tile, 128, device=A100_SPEC)
        assert arena.footprint_bytes == max(
            ArenaAllocator(arena.alignment).replay(p) for p in plans
        )
        assert arena.overflow_allocs == 0
        assert np.array_equal(got, want)
        assert np.array_equal(got_again, want)


class TestMegabatchAcrossKernelBoundary:
    """A tile whose max_seq_len is past the short limit holds both
    kernels' compositions from its first megabatch."""

    TILE = 1024
    MAX_SEQ = 512

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "short_max, lengths",
        [
            (384, [384, 384, 256]),
            (384, [512, 511, 1]),
            (384, [400, 350, 270, 4]),
            # a short limit so low that the long kernel's fp64 tiles,
            # one per distinct length, outgrow the short kernel's plan
            (16, [16] * 64),
            (16, [512, 511, 1]),
        ],
        ids=[
            "all-short", "all-long-distinct", "long-and-short-buckets",
            "low-limit-all-short", "low-limit-all-long-distinct",
        ],
    )
    def test_first_megabatch_never_overflows(self, short_max, lengths, dtype):
        config = dataclasses.replace(CONFIG, num_layers=1)
        opt = dataclasses.replace(FUSED, fused_mha_short_max_seq=short_max)
        model = BertEncoderModel(config, opt=opt, seed=3, arena=LiveArena())
        model.prereserve_tiles((self.TILE,), self.MAX_SEQ, dtype)
        x_tile, mega = _megabatch(lengths, self.MAX_SEQ, self.TILE, dtype)
        model.forward_packed(x_tile, mega)
        assert model.arena.overflow_allocs == 0

    def test_reserve_is_the_larger_plan(self):
        config = dataclasses.replace(CONFIG, num_layers=1)
        plans = plan_live_megabatch(
            config, FUSED, self.TILE, self.MAX_SEQ,
            device=A100_SPEC, dtype=np.float64,
        )
        assert len(plans) == 2  # one per kernel
        model = BertEncoderModel(config, opt=FUSED, arena=LiveArena())
        model.prereserve_tiles((self.TILE,), self.MAX_SEQ, np.float64)
        model.arena.begin()
        assert model.arena.footprint_bytes == max(
            ArenaAllocator(model.arena.alignment).replay(p) for p in plans
        )


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


class TestSplitLayers:
    """A batch of one fans each op out: row parts of the row-local ops
    and one long-kernel tile per worker, planned like any forward."""

    def test_single_segment_split_is_planned_and_serial_exact(self):
        config = BertConfig(num_layers=1, num_heads=8, head_size=64)
        opt = dataclasses.replace(FUSED, fused_mha_short_max_seq=128)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 300, config.hidden_size))
        mask = np.ones((1, 300), dtype=np.int64)
        with use_workers(1):
            want = BertEncoderModel(config, opt, seed=2).forward(x, mask)
        model = BertEncoderModel(config, opt, seed=2, arena=RecordingArena())
        with use_workers(2):
            got = model.forward(x, mask)
        assert np.array_equal(got, want)
        events = model.arena.closed_events()
        assert ("mha.0.tile.1", 300 * 300 * 8) in events
        plan = plan_live_forward(
            config, opt, np.array([300]), 300, device=A100_SPEC,
            dtype=np.float64, tile_split=2, split=2,
        )
        assert events == _plan_events(plan)
        assert model.arena.overflow_allocs == 0


class TestBlockedFfn:
    """The FFN runs in row blocks of its own buffers: same bits as the
    whole-tensor FFN a pricing forward runs, and a peak set by the QKV
    phase."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "full, tail, workers",
        [
            (16, 1, 1),  # 768 + 1 rows: a one-row block
            (16, 40, 1),  # a short tail block
            (32, 0, 1),  # two whole blocks
            (64, 1, 2),  # the second part's blocks are 768, 768 and 1
            (96, 1, 3),  # so are the third part's
            (70, 17, 3),  # three parts, each with a short tail block
            (62, 24, 3),  # 3000 rows are too few to split: one part
        ],
    )
    def test_blocks_keep_whole_ffn_bits(self, full, tail, workers, dtype):
        config = dataclasses.replace(CONFIG, num_layers=1)
        lengths = [MAX_SEQ] * full + ([tail] if tail else [])
        x, mask = _batch(lengths, dtype=dtype)
        model = BertEncoderModel(
            config, opt=FUSED, seed=3, arena=RecordingArena()
        )
        with use_workers(workers):
            got = model.forward(x, mask).copy()
        assert model.arena.overflow_allocs == 0
        # a pricing context runs the FFN as one block and records the
        # two whole-tensor launches
        ctx = ExecutionContext()
        flat = x.reshape(-1, config.hidden_size)
        packing = packing_from_mask(mask, cache=None)
        with blas_pinned():
            whole = model._layer_stack(pack(flat, packing), packing, ctx)
        want = unpack(whole, packing).reshape(got.shape)
        assert np.array_equal(got, want)
        ffn = [
            (r.launch.name, r.launch.flops) for r in ctx.records
            if r.launch.category in ("gemm2", "gemm3")
        ]
        tokens = sum(lengths)
        flops = 2.0 * tokens * config.hidden_size * config.ffn_size
        assert ffn == [
            ("gemm2_fused_bias_gelu", flops), ("gemm3_ffn_out", flops),
        ]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_offline_peak_is_the_qkv_phase(self, workers):
        # encoder-offline's largest shape: 16 sequences uniform on
        # [205, 1024], BERT-base width, float32.  Its peak is h0, h1,
        # qkv and attn (six [tokens, hidden] buffers); the FFN phase
        # holds h0, h1, ln0, ffn_down and each part's two blocks
        config = BertConfig(num_layers=1)
        lens = np.round(205 + (np.arange(16) + 0.5) / 16 * 819)
        lens = lens.astype(np.int64)
        plan = plan_live_forward(
            config, FUSED, lens, 1024, device=A100_SPEC, dtype=np.float32,
            tile_split=workers, split=workers,
        )
        qkv_phase = 6 * int(lens.sum()) * config.hidden_size * 4
        assert peak_live_bytes(plan) == qkv_phase
        assert ArenaAllocator().replay(plan) == qkv_phase
