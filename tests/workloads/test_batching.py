"""Online batching policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.batching import (
    DEFAULT_TILES,
    BucketBatcher,
    ContinuousBatcher,
    Dispatch,
    FifoBatcher,
    TimeoutBatcher,
    TokenBudgetExceededError,
    quantize_tile,
    shed_expired,
)
from repro.workloads.serving import Request, ServingTrace, make_trace


@pytest.fixture(scope="module")
def trace():
    return make_trace(60, 256, mean_interarrival_us=400.0, seed=0)


def covered_ids(plan):
    return sorted(r.request_id for d in plan for r in d.requests)


class TestFifo:
    def test_covers_all_requests(self, trace):
        plan = FifoBatcher(batch_size=8).plan(trace)
        assert covered_ids(plan) == list(range(trace.num_requests))

    def test_batch_sizes(self, trace):
        plan = FifoBatcher(batch_size=8).plan(trace)
        sizes = [len(d.requests) for d in plan]
        assert all(s == 8 for s in sizes[:-1])
        assert 0 < sizes[-1] <= 8

    def test_ready_is_last_arrival(self, trace):
        plan = FifoBatcher(batch_size=8).plan(trace)
        for d in plan:
            assert d.ready_us == max(r.arrival_us for r in d.requests)

    def test_invalid_size(self, trace):
        with pytest.raises(ValueError, match="batch_size"):
            FifoBatcher(batch_size=0).plan(trace)


class TestTimeout:
    def test_covers_all_requests(self, trace):
        plan = TimeoutBatcher(batch_size=8, timeout_us=1500).plan(trace)
        assert covered_ids(plan) == list(range(trace.num_requests))

    def test_no_request_waits_past_timeout_for_dispatch(self, trace):
        timeout = 1500.0
        plan = TimeoutBatcher(batch_size=64, timeout_us=timeout).plan(trace)
        for d in plan:
            head = min(r.arrival_us for r in d.requests)
            assert d.ready_us <= head + timeout + 1e-6

    def test_zero_timeout_dispatches_everything_quickly(self, trace):
        plan = TimeoutBatcher(batch_size=64, timeout_us=0.0).plan(trace)
        # with zero patience, batches rarely fill
        assert len(plan) >= trace.num_requests / 4

    def test_huge_timeout_behaves_like_fifo(self, trace):
        by_timeout = TimeoutBatcher(batch_size=8, timeout_us=1e12).plan(trace)
        by_fifo = FifoBatcher(batch_size=8).plan(trace)
        assert [len(d.requests) for d in by_timeout] == [
            len(d.requests) for d in by_fifo
        ]


class TestBucket:
    def test_covers_all_requests(self, trace):
        plan = BucketBatcher(batch_size=8, bucket_width=64).plan(trace)
        assert covered_ids(plan) == list(range(trace.num_requests))

    def test_batches_are_length_homogeneous(self, trace):
        width = 64
        plan = BucketBatcher(batch_size=8, bucket_width=width).plan(trace)
        for d in plan:
            buckets = {(r.seq_len - 1) // width for r in d.requests}
            assert len(buckets) == 1

    def test_tighter_buckets_less_padding(self, trace):
        def padding(plan):
            total = 0
            for d in plan:
                longest = max(r.seq_len for r in d.requests)
                total += sum(longest - r.seq_len for r in d.requests)
            return total

        loose = BucketBatcher(batch_size=8, bucket_width=256).plan(trace)
        tight = BucketBatcher(batch_size=8, bucket_width=32).plan(trace)
        assert padding(tight) <= padding(loose)

    @given(
        width=st.sampled_from([32, 64, 128]),
        batch=st.integers(1, 16),
        timeout=st.floats(0, 5000),
    )
    @settings(max_examples=20, deadline=None)
    def test_cover_property(self, width, batch, timeout):
        trace = make_trace(40, 256, seed=9)
        plan = BucketBatcher(
            batch_size=batch, bucket_width=width, timeout_us=timeout
        ).plan(trace)
        assert covered_ids(plan) == list(range(trace.num_requests))


class TestReplay:
    def test_dispatch_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            Dispatch(requests=(), ready_us=0.0)


class TestEdgeCases:
    """No batching policy may ever drop a request, however degenerate
    the trace or the policy parameters."""

    def test_zero_timeout_still_covers_everything(self, trace):
        for batcher in (
            TimeoutBatcher(batch_size=8, timeout_us=0.0),
            BucketBatcher(batch_size=8, bucket_width=64, timeout_us=0.0),
        ):
            plan = batcher.plan(trace)
            assert covered_ids(plan) == list(range(trace.num_requests))

    def test_batch_that_never_fills_is_flushed(self, trace):
        # batch_size far above the trace size: no batch ever fills, so
        # only the timeout (and end-of-trace) flushes can dispatch
        for batcher in (
            TimeoutBatcher(batch_size=10_000, timeout_us=2000.0),
            BucketBatcher(
                batch_size=10_000, bucket_width=64, timeout_us=2000.0
            ),
        ):
            plan = batcher.plan(trace)
            assert covered_ids(plan) == list(range(trace.num_requests))

    def test_single_request_trace(self):
        solo = make_trace(1, 64, seed=0)
        for batcher in (
            FifoBatcher(batch_size=8),
            TimeoutBatcher(batch_size=8, timeout_us=1500.0),
            BucketBatcher(batch_size=8, bucket_width=64),
        ):
            plan = batcher.plan(solo)
            assert len(plan) == 1
            assert len(plan[0].requests) == 1
            assert plan[0].ready_us >= solo.requests[0].arrival_us


class TestShedExpired:
    def test_splits_on_absolute_deadline(self):
        requests = [
            Request(0, 0.0, 8, deadline_us=100.0),  # expires at 100
            Request(1, 50.0, 8, deadline_us=100.0),  # expires at 150
            Request(2, 60.0, 8),  # deadline-free
        ]
        alive, expired = shed_expired(requests, now_us=120.0)
        assert [r.request_id for r in expired] == [0]
        assert [r.request_id for r in alive] == [1, 2]

    def test_boundary_is_expired(self):
        # at exactly the deadline the request can no longer finish in
        # time (service takes strictly positive time)
        requests = [Request(0, 0.0, 8, deadline_us=100.0)]
        alive, expired = shed_expired(requests, now_us=100.0)
        assert not alive and len(expired) == 1

    def test_deadline_free_requests_never_expire(self):
        requests = [Request(0, 0.0, 8)]
        alive, expired = shed_expired(requests, now_us=1e12)
        assert len(alive) == 1 and not expired


class TestContinuous:
    def test_covers_all_requests(self, trace):
        plan = ContinuousBatcher(token_budget=1024).plan(trace)
        assert covered_ids(plan) == list(range(trace.num_requests))

    def test_dispatches_respect_token_budget(self, trace):
        budget = 1024
        plan = ContinuousBatcher(token_budget=budget).plan(trace)
        for d in plan:
            assert d.total_tokens <= budget

    def test_tiles_are_quantized(self, trace):
        batcher = ContinuousBatcher(token_budget=2048)
        tiles = batcher.effective_tiles()
        plan = batcher.plan(trace)
        for d in plan:
            assert d.tile == quantize_tile(d.total_tokens, tiles)
            assert d.tile >= d.total_tokens

    def test_effective_tiles_capped_by_budget(self):
        batcher = ContinuousBatcher(token_budget=1024)
        assert batcher.effective_tiles() == (512, 1024)
        odd = ContinuousBatcher(token_budget=700)
        assert odd.effective_tiles() == (512, 700)

    def test_segment_offsets_match_lengths(self, trace):
        plan = ContinuousBatcher(token_budget=1024).plan(trace)
        for d in plan:
            offsets = d.segment_offsets
            assert offsets[0] == 0
            assert offsets[-1] == d.total_tokens
            np.testing.assert_array_equal(np.diff(offsets), d.seq_lens)

    def test_oversize_request_typed_error(self):
        trace = ServingTrace(
            requests=(Request(request_id=0, arrival_us=0.0, seq_len=300),),
            max_seq_len=512,
        )
        with pytest.raises(TokenBudgetExceededError, match="request 0"):
            ContinuousBatcher(token_budget=256).plan(trace)

    def test_deadline_aware_fill(self):
        # Three simultaneous arrivals; the head plus exactly one more fit
        # the budget. The fill must pick the tightest deadline, not
        # arrival order.
        requests = (
            Request(request_id=0, arrival_us=0.0, seq_len=100),
            Request(request_id=1, arrival_us=0.0, seq_len=100),
            Request(request_id=2, arrival_us=0.0, seq_len=100, deadline_us=500.0),
        )
        trace = ServingTrace(requests=requests, max_seq_len=128)
        plan = ContinuousBatcher(token_budget=250, tiles=(64,)).plan(trace)
        first = sorted(r.request_id for r in plan[0].requests)
        assert first == [0, 2]

    def test_head_always_dispatched(self):
        # A head with no deadline must still ride in the first cut even
        # when every other waiting request has a tighter deadline.
        requests = tuple(
            Request(
                request_id=i,
                arrival_us=0.0,
                seq_len=100,
                deadline_us=None if i == 0 else 400.0,
            )
            for i in range(4)
        )
        trace = ServingTrace(requests=requests, max_seq_len=128)
        plan = ContinuousBatcher(token_budget=200, tiles=(64,)).plan(trace)
        assert 0 in {r.request_id for r in plan[0].requests}

    def test_all_same_length_exact_tile(self):
        # 8 x 64 = 512 tokens: lands exactly on the smallest tile, no
        # quantization padding at all.
        requests = tuple(
            Request(request_id=i, arrival_us=float(i), seq_len=64)
            for i in range(8)
        )
        trace = ServingTrace(requests=requests, max_seq_len=64)
        plan = ContinuousBatcher(token_budget=512).plan(trace)
        assert len(plan) == 1
        assert plan[0].tile == 512
        assert plan[0].total_tokens == 512

    def test_quantize_tile_bounds(self):
        assert quantize_tile(1, DEFAULT_TILES) == 512
        assert quantize_tile(512, DEFAULT_TILES) == 512
        assert quantize_tile(513, DEFAULT_TILES) == 1024
        with pytest.raises(TokenBudgetExceededError):
            quantize_tile(2049, DEFAULT_TILES)
        with pytest.raises(ValueError, match="positive"):
            quantize_tile(0, DEFAULT_TILES)

    def test_dispatch_tile_validation(self):
        requests = (Request(request_id=0, arrival_us=0.0, seq_len=100),)
        with pytest.raises(ValueError, match="tile"):
            Dispatch(requests=requests, ready_us=0.0, tile=64)

    @settings(max_examples=25, deadline=None)
    @given(
        budget=st.integers(64, 512),
        timeout=st.floats(0.0, 5000.0),
        seed=st.integers(0, 10),
    )
    def test_cover_property(self, budget, timeout, seed):
        trace = make_trace(30, 64, mean_interarrival_us=300.0, seed=seed)
        plan = ContinuousBatcher(
            token_budget=budget, timeout_us=timeout
        ).plan(trace)
        assert covered_ids(plan) == list(range(trace.num_requests))
        assert all(d.total_tokens <= budget for d in plan)


class TestContinuousHeadStarvation:
    """Regression: a tight-deadline head must not starve behind the
    plain head timeout while deadline-sorted later arrivals fill cuts."""

    @staticmethod
    def stream(head_deadline_us):
        rows = [
            Request(
                request_id=0,
                arrival_us=0.0,
                seq_len=32,
                deadline_us=head_deadline_us,
            )
        ]
        rows += [
            Request(
                request_id=i,
                arrival_us=100.0 * i,
                seq_len=32,
                deadline_us=50_000.0,
            )
            for i in range(1, 20)
        ]
        return ServingTrace(requests=tuple(rows), max_seq_len=64)

    def test_tight_deadline_head_ships_within_its_slack(self):
        batcher = ContinuousBatcher(
            token_budget=4096, timeout_us=2_000.0, deadline_slack=0.5
        )
        plan = batcher.plan(self.stream(head_deadline_us=1_000.0))
        head_dispatch = next(
            d
            for d in plan
            if any(r.request_id == 0 for r in d.requests)
        )
        # cut after half the deadline budget, not the 2 ms timeout —
        # the remaining half is left to actually run in
        assert head_dispatch.ready_us == pytest.approx(500.0)
        assert covered_ids(plan) == list(range(20))

    def test_deadline_free_head_keeps_the_plain_timeout(self):
        batcher = ContinuousBatcher(token_budget=4096, timeout_us=2_000.0)
        rows = self.stream(head_deadline_us=None)
        plan = batcher.plan(rows)
        head_dispatch = next(
            d
            for d in plan
            if any(r.request_id == 0 for r in d.requests)
        )
        assert head_dispatch.ready_us == pytest.approx(2_000.0)

    def test_cut_only_packs_arrived_requests(self):
        # a deadline-forced early cut must not include requests that
        # arrive after the cut instant
        batcher = ContinuousBatcher(token_budget=4096, timeout_us=2_000.0)
        plan = batcher.plan(self.stream(head_deadline_us=1_000.0))
        for d in plan:
            assert all(r.arrival_us <= d.ready_us for r in d.requests)

    def test_deadline_slack_validated(self):
        trace = self.stream(head_deadline_us=1_000.0)
        with pytest.raises(ValueError, match="deadline_slack"):
            ContinuousBatcher(deadline_slack=0.0).plan(trace)
        with pytest.raises(ValueError, match="deadline_slack"):
            ContinuousBatcher(deadline_slack=1.5).plan(trace)
