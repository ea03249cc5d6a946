"""Serving-trace emulator."""

import dataclasses

import numpy as np
import pytest

from repro.workloads.generator import LengthDistribution
from repro.workloads.serving import (
    GenerationRequest,
    Request,
    ServingTrace,
    make_trace,
)


class TestTrace:
    def test_arrivals_sorted(self):
        trace = make_trace(50, 256, seed=0)
        arrivals = [r.arrival_us for r in trace.requests]
        assert arrivals == sorted(arrivals)

    def test_lengths_in_range(self):
        trace = make_trace(100, 128, seed=1)
        for r in trace.requests:
            assert 1 <= r.seq_len <= 128

    def test_deterministic(self):
        a = make_trace(20, 64, seed=5)
        b = make_trace(20, 64, seed=5)
        assert a == b

    def test_interarrival_scale(self):
        trace = make_trace(4000, 64, mean_interarrival_us=100.0, seed=2)
        gaps = np.diff([0.0] + [r.arrival_us for r in trace.requests])
        assert abs(gaps.mean() - 100.0) < 10.0

    def test_zipf_distribution_selectable(self):
        trace = make_trace(
            50, 256, distribution=LengthDistribution.ZIPF, seed=0
        )
        assert trace.num_requests == 50

    def test_fixed_distribution_rejected(self):
        with pytest.raises(ValueError, match="distribution"):
            make_trace(
                5, 64, distribution=LengthDistribution.FIXED, seed=0
            )

    def test_zero_requests_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            make_trace(0, 64)


class TestBatching:
    def test_batches_cover_all_requests(self):
        trace = make_trace(23, 64, seed=3)
        groups = trace.batches(8)
        assert sum(len(g) for g in groups) == 23
        assert len(groups) == 3  # 8 + 8 + 7

    def test_batch_size_validated(self):
        trace = make_trace(4, 64, seed=0)
        with pytest.raises(ValueError, match="batch_size"):
            trace.batches(0)

    def test_unsorted_trace_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            ServingTrace(
                requests=(
                    Request(0, 100.0, 5),
                    Request(1, 50.0, 5),
                ),
                max_seq_len=64,
            )

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ServingTrace(requests=(), max_seq_len=64)


class TestValidation:
    def test_zero_length_request_rejected(self):
        with pytest.raises(ValueError, match="lengths must be >= 1"):
            ServingTrace(
                requests=(Request(0, 0.0, 0),), max_seq_len=64
            )

    def test_negative_length_request_rejected(self):
        with pytest.raises(ValueError, match="lengths must be >= 1"):
            ServingTrace(
                requests=(Request(0, 0.0, -3),), max_seq_len=64
            )

    def test_overlong_request_rejected(self):
        with pytest.raises(ValueError, match="max_seq_len"):
            ServingTrace(
                requests=(Request(0, 0.0, 65),), max_seq_len=64
            )

    def test_non_positive_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline_us"):
            ServingTrace(
                requests=(Request(0, 0.0, 8, deadline_us=0.0),),
                max_seq_len=64,
            )


class TestDeadlines:
    def test_requests_are_deadline_free_by_default(self):
        trace = make_trace(5, 64, seed=0)
        assert all(r.deadline_us is None for r in trace.requests)
        assert all(r.absolute_deadline_us is None for r in trace.requests)

    def test_make_trace_attaches_budget_to_every_request(self):
        trace = make_trace(5, 64, seed=0, deadline_us=750.0)
        for r in trace.requests:
            assert r.deadline_us == 750.0
            assert r.absolute_deadline_us == r.arrival_us + 750.0


class TestReanchored:
    @pytest.mark.parametrize(
        "request_",
        [
            Request(3, 10.0, 64, 500.0, "interactive"),
            Request(4, 11.0, 32),
            GenerationRequest(5, 12.0, 16, 400.0, "chat", decode_tokens=7),
        ],
        ids=["request", "no-deadline", "generation"],
    )
    @pytest.mark.parametrize("deadline", [120.0, None])
    def test_equals_replace_and_keeps_every_field(self, request_, deadline):
        moved = request_.reanchored(40.0, deadline)
        want = dataclasses.replace(
            request_, arrival_us=40.0, deadline_us=deadline
        )
        assert type(moved) is type(request_)
        assert moved == want
        assert dataclasses.asdict(moved) == dataclasses.asdict(want)
