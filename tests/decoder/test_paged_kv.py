"""Paged KV arena: block tables, eviction/resume, the resident-mirror bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decoder.generation import PackedKVCache
from repro.decoder.paged_kv import (
    DEFAULT_KV_BLOCK_TOKENS,
    KVPressureError,
    PagedKVArena,
)

HIDDEN = 32


def rows(rng, n):
    return rng.normal(size=(n, HIDDEN)), rng.normal(size=(n, HIDDEN))


def churn(arena, rng):
    """Fill the arena, swap every stream out and back in, free it; x3."""
    for _ in range(3):
        for rid in range(4):
            arena.append_rows(rid, *rows(rng, 13))
        for rid in range(4):
            arena.swap_out(rid)
            arena.swap_in(rid)
            arena.free(rid)


class TestPool:
    def test_capacity_rounds_up_to_whole_blocks(self):
        arena = PagedKVArena(HIDDEN, 50, block_tokens=16)
        assert arena.num_blocks == 4
        assert arena.capacity_tokens == 64

    def test_default_block_size(self):
        arena = PagedKVArena(HIDDEN, 64)
        assert arena.block_tokens == DEFAULT_KV_BLOCK_TOKENS

    def test_zero_overflow_allocs_across_full_churn(self, rng):
        arena = PagedKVArena(HIDDEN, 64, block_tokens=8)
        churn(arena, rng)
        assert arena.overflow_allocs == 0
        assert arena.resident_rows == 0
        assert arena.free_blocks == arena.num_blocks

    def test_a_leaked_mirror_trips_the_overflow_gate(self, rng, monkeypatch):
        # free and swap_out drop the mirror but leave it counted resident
        monkeypatch.setattr(
            PagedKVArena, "_release",
            lambda self, rid: self._mirrors.pop(rid, None),
        )
        arena = PagedKVArena(HIDDEN, 64, block_tokens=8)
        churn(arena, rng)
        assert arena.overflow_allocs > 0

    def test_block_handout_is_deterministic_lifo(self, rng):
        a = PagedKVArena(HIDDEN, 64, block_tokens=8)
        b = PagedKVArena(HIDDEN, 64, block_tokens=8)
        for arena in (a, b):
            arena.append_rows(7, *rows(rng, 10))
            arena.append_rows(9, *rows(rng, 3))
        assert a.block_table(7) == b.block_table(7) == (0, 1)
        assert a.block_table(9) == b.block_table(9) == (2,)

    def test_blocks_needed(self, rng):
        arena = PagedKVArena(HIDDEN, 64, block_tokens=8)
        assert arena.blocks_needed(0, 9) == 2
        arena.append_rows(0, *rows(rng, 9))
        # 7 more tokens fit the half-full second block
        assert arena.blocks_needed(0, 7) == 0
        assert arena.blocks_needed(0, 8) == 1
        with pytest.raises(ValueError, match=">= 0"):
            arena.blocks_needed(0, -1)

    def test_occupancy_counts_only_valid_slots(self, rng):
        arena = PagedKVArena(HIDDEN, 64, block_tokens=8)
        assert arena.occupancy == 1.0  # empty pool: vacuously dense
        arena.append_rows(0, *rows(rng, 12))  # 2 blocks, 4 tail slots idle
        assert arena.occupancy == pytest.approx(12 / 16)
        assert arena.live_tokens == 12
        assert arena.live_blocks == 2


class TestGather:
    def test_gathered_is_bitwise_append_order(self, rng):
        arena = PagedKVArena(HIDDEN, 64, block_tokens=8)
        k1, v1 = rows(rng, 11)
        k2, v2 = rows(rng, 1)
        arena.append_rows(0, k1, v1)
        arena.append_rows(0, k2, v2)
        keys, values = arena.gathered(0)
        np.testing.assert_array_equal(keys, np.concatenate([k1, k2]))
        np.testing.assert_array_equal(values, np.concatenate([v1, v2]))

    def test_interleaved_requests_stay_isolated(self, rng):
        arena = PagedKVArena(HIDDEN, 128, block_tokens=8)
        streams = {rid: rows(rng, 5 + rid) for rid in range(3)}
        for step in range(3):
            for rid, (k, v) in streams.items():
                arena.append_rows(rid, k[step : step + 1], v[step : step + 1])
        for rid, (k, v) in streams.items():
            keys, values = arena.gathered(rid)
            np.testing.assert_array_equal(keys, k[:3])
            np.testing.assert_array_equal(values, v[:3])

    def test_gathered_views_the_mirror_without_copying(self, rng):
        arena = PagedKVArena(HIDDEN, 64, block_tokens=8)
        arena.append_rows(0, *rows(rng, 5))
        keys, values = arena.gathered(0)
        again, _ = arena.gathered(0)
        assert np.shares_memory(keys, again)
        assert not keys.flags.writeable and not values.flags.writeable
        # a later append, even one that grows the mirror, leaves a view
        # taken earlier holding its rows
        before = keys.copy()
        arena.append_rows(0, *rows(rng, 9))
        np.testing.assert_array_equal(keys, before)
        np.testing.assert_array_equal(arena.gathered(0)[0][:5], before)

    def test_unknown_request_raises(self):
        arena = PagedKVArena(HIDDEN, 64)
        with pytest.raises(KeyError, match="no KV blocks"):
            arena.gathered(42)
        with pytest.raises(KeyError, match="no KV blocks"):
            arena.context_len(42)


class TestPressure:
    def test_exhausted_pool_raises_not_allocates(self, rng):
        arena = PagedKVArena(HIDDEN, 32, block_tokens=8)
        arena.append_rows(0, *rows(rng, 32))
        with pytest.raises(KVPressureError, match="free"):
            arena.append_rows(1, *rows(rng, 1))
        assert arena.overflow_allocs == 0

    def test_swap_out_then_in_is_bitwise(self, rng):
        arena = PagedKVArena(HIDDEN, 64, block_tokens=8)
        k, v = rows(rng, 13)
        arena.append_rows(0, k, v)
        held, _ = arena.gathered(0)
        assert arena.swap_out(0) == 13
        assert arena.is_swapped(0)
        assert not arena.has(0)
        assert arena.free_blocks == arena.num_blocks
        assert arena.resident_rows == 0
        assert arena.swap_in(0) == 13
        keys, values = arena.gathered(0)
        np.testing.assert_array_equal(keys, k)
        np.testing.assert_array_equal(values, v)
        # the swap moved the mirror; it never copied it
        assert np.shares_memory(keys, held)
        assert arena.resident_rows == 13
        assert arena.evictions == 1
        assert arena.swap_ins == 1

    def test_append_to_swapped_request_raises(self, rng):
        arena = PagedKVArena(HIDDEN, 64, block_tokens=8)
        arena.append_rows(0, *rows(rng, 4))
        arena.swap_out(0)
        with pytest.raises(KVPressureError, match="swapped out"):
            arena.append_rows(0, *rows(rng, 1))

    def test_swap_in_without_room_raises(self, rng):
        arena = PagedKVArena(HIDDEN, 32, block_tokens=8)
        arena.append_rows(0, *rows(rng, 16))
        arena.swap_out(0)
        arena.append_rows(1, *rows(rng, 32))
        with pytest.raises(KVPressureError, match="swap_in"):
            arena.swap_in(0)
        # the host copy survives the refused restore
        assert arena.is_swapped(0)

    def test_swap_in_unknown_raises(self):
        arena = PagedKVArena(HIDDEN, 32)
        with pytest.raises(KeyError, match="not swapped out"):
            arena.swap_in(5)

    def test_free_returns_blocks_and_drops_swapped_copy(self, rng):
        arena = PagedKVArena(HIDDEN, 64, block_tokens=8)
        arena.append_rows(0, *rows(rng, 10))
        arena.swap_out(0)
        arena.free(0)  # finished while swapped out
        assert not arena.is_swapped(0)
        assert arena.free_blocks == arena.num_blocks


class TestLengthOnly:
    def test_books_blocks_like_append_rows(self, rng):
        by_rows = PagedKVArena(HIDDEN, 64, block_tokens=8)
        by_len = PagedKVArena(HIDDEN, 64, block_tokens=8)
        for rid, n in ((0, 11), (1, 3), (0, 1), (1, 9)):
            by_rows.append_rows(rid, *rows(rng, n))
            by_len.append_tokens(rid, n)
        for rid in (0, 1):
            assert by_len.block_table(rid) == by_rows.block_table(rid)
            assert by_len.context_len(rid) == by_rows.context_len(rid)
        assert by_len.peak_live_blocks == by_rows.peak_live_blocks
        assert by_len.occupancy == by_rows.occupancy

    def test_builds_no_mirror_and_cannot_be_gathered(self):
        arena = PagedKVArena(HIDDEN, 64, block_tokens=8)
        arena.append_tokens(0, 10)
        assert arena._mirrors == {}
        with pytest.raises(ValueError, match="lengths only"):
            arena.gathered(0)

    def test_swap_round_trip_keeps_only_the_length(self):
        arena = PagedKVArena(HIDDEN, 32, block_tokens=8)
        arena.append_tokens(0, 13)
        assert arena.swap_out(0) == 13
        assert arena._swapped[0] == (13, None)
        assert arena.swap_in(0) == 13
        assert arena.context_len(0) == 13
        assert arena._mirrors == {}

    def test_pressure_raises_before_booking(self):
        arena = PagedKVArena(HIDDEN, 16, block_tokens=8)
        arena.append_tokens(0, 12)
        with pytest.raises(KVPressureError, match="free"):
            arena.append_tokens(0, 5)
        assert arena.context_len(0) == 12
        assert arena.block_table(0) == (0, 1)

    def test_the_two_appends_do_not_mix(self, rng):
        arena = PagedKVArena(HIDDEN, 64, block_tokens=8)
        arena.append_tokens(0, 4)
        arena.append_rows(1, *rows(rng, 4))
        with pytest.raises(ValueError, match="append_tokens"):
            arena.append_rows(0, *rows(rng, 1))
        with pytest.raises(ValueError, match="append_rows"):
            arena.append_tokens(1, 1)
        assert arena.context_len(0) == arena.context_len(1) == 4


#: one generated arena op: (kind, request id, rows to append)
OPS = st.tuples(
    st.sampled_from(("append", "append", "append", "swap_out", "swap_in", "free")),
    st.integers(0, 3),
    st.one_of(st.just(1), st.integers(2, 40)),
)


def arena_state(arena):
    """Everything a refused append or swap-in must leave untouched:
    lengths, tables, free stack, swapped set, resident and overflow
    counts, and the mirror bytes."""
    return (
        dict(arena._lengths),
        {rid: tuple(t) for rid, t in arena._tables.items()},
        list(arena._free),
        sorted(arena._swapped),
        (arena.resident_rows, arena.overflow_allocs),
        {
            rid: (id(k), id(v), k.view(np.uint8).copy(), v.view(np.uint8).copy())
            for rid, (k, v) in arena._mirrors.items()
        },
    )


def assert_same_state(before, after):
    assert before[:5] == after[:5]
    assert before[5].keys() == after[5].keys()
    for rid, (kid, vid, kbytes, vbytes) in before[5].items():
        assert after[5][rid][:2] == (kid, vid)
        assert np.array_equal(after[5][rid][2], kbytes)
        assert np.array_equal(after[5][rid][3], vbytes)


class TestArenaProperty:
    """Generated op sequences: after every op, each resident request's
    gathered K/V equal a ``PackedKVCache`` fed the same rows, bit for
    bit; the resident mirrors stay within the overflow gate's bound;
    a refused op changes nothing."""

    @given(
        block=st.sampled_from((1, 3, 8, 16)),
        capacity=st.integers(16, 96),
        ops=st.lists(OPS, min_size=1, max_size=30),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_ops_keep_mirror_bound_and_oracle_bitwise(
        self, block, capacity, ops, seed
    ):
        rng = np.random.default_rng(seed)
        arena = PagedKVArena(HIDDEN, capacity, block_tokens=block)
        oracle: dict[int, PackedKVCache] = {}
        for kind, rid, n in ops:
            before = arena_state(arena)
            if kind == "append":
                if arena.is_swapped(rid):
                    with pytest.raises(KVPressureError, match="swapped out"):
                        arena.append_rows(rid, *rows(rng, n))
                    assert_same_state(before, arena_state(arena))
                    continue
                k, v = rows(rng, n)
                try:
                    arena.append_rows(rid, k, v)
                except KVPressureError:
                    assert arena.blocks_needed(rid, n) > arena.free_blocks
                    assert_same_state(before, arena_state(arena))
                    continue
                cache = oracle.setdefault(rid, PackedKVCache(1, HIDDEN))
                for i in range(n):
                    cache.append(k[i : i + 1], v[i : i + 1])
            elif kind == "swap_out":
                if not arena.has(rid):
                    continue
                assert arena.swap_out(rid) == len(oracle[rid].keys(0))
                assert not arena.has(rid) and rid not in arena._mirrors
            elif kind == "swap_in":
                if not arena.is_swapped(rid):
                    continue
                try:
                    arena.swap_in(rid)
                except KVPressureError:
                    assert arena.is_swapped(rid)
                    assert_same_state(before, arena_state(arena))
                    continue
            else:
                arena.free(rid)
                oracle.pop(rid, None)
                assert not arena.has(rid) and not arena.is_swapped(rid)
            for live in oracle:
                if not arena.has(live):
                    continue
                keys, values = arena.gathered(live)
                assert np.array_equal(keys, oracle[live].keys(0))
                assert np.array_equal(values, oracle[live].values(0))
            # only resident requests hold counted mirrors, each under
            # twice its length: the 2 * capacity bound the gate counts
            for live, (keys, _) in arena._mirrors.items():
                assert keys.shape[0] <= 2 * arena.context_len(live)
            assert arena.resident_rows == sum(
                keys.shape[0] for keys, _ in arena._mirrors.values()
            )
            assert arena.resident_rows <= 2 * arena.capacity_tokens
            assert arena.overflow_allocs == 0
            assert arena.live_tokens == sum(
                len(oracle[r].keys(0)) for r in oracle if arena.has(r)
            )


class TestAccounting:
    def test_modelled_bytes_are_fp16_blocks(self, rng):
        arena = PagedKVArena(HIDDEN, 64, block_tokens=8)
        arena.append_rows(0, *rows(rng, 9))  # 2 live blocks
        assert arena.live_bytes == 2 * 8 * 2 * HIDDEN * 2
        arena.free(0)
        assert arena.live_bytes == 0
        assert arena.peak_live_bytes == 2 * 8 * 2 * HIDDEN * 2

    def test_shape_validation(self, rng):
        arena = PagedKVArena(HIDDEN, 32)
        k, v = rows(rng, 2)
        with pytest.raises(ValueError, match="key rows"):
            arena.append_rows(0, k[:, :8], v[:, :8])
        with pytest.raises(ValueError, match="must match"):
            arena.append_rows(0, k, v[:1])
