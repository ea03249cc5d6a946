"""TurboTransformer's length-grouping DP: optimality and partition laws."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frameworks import smart_batching


def partition_cost(sorted_lens, groups_of_indices, group_cost):
    total = 0
    for group in groups_of_indices:
        total += len(group) * max(sorted_lens[i] for i in group) + group_cost
    return total


def brute_force_best(lens, group_cost):
    """Optimal contiguous partition of the descending-sorted lengths."""
    sorted_lens = sorted(lens, reverse=True)
    n = len(sorted_lens)
    best = None
    for cuts in range(n):
        for positions in itertools.combinations(range(1, n), cuts):
            bounds = [0, *positions, n]
            groups = [
                list(range(bounds[i], bounds[i + 1]))
                for i in range(len(bounds) - 1)
            ]
            cost = partition_cost(sorted_lens, groups, group_cost)
            if best is None or cost < best:
                best = cost
    return best


class TestPartitionLaws:
    def test_groups_partition_the_batch(self):
        lens = np.array([10, 300, 40, 200, 45, 12])
        groups = smart_batching(lens, group_cost_tokens=50)
        seen = np.concatenate(groups)
        assert sorted(seen.tolist()) == list(range(len(lens)))

    def test_similar_lengths_grouped_together(self):
        lens = np.array([500, 490, 20, 25])
        groups = smart_batching(lens, group_cost_tokens=30)
        as_sets = [set(lens[g]) for g in groups]
        assert {500, 490} in as_sets
        assert {20, 25} in as_sets

    def test_zero_cost_isolates_every_length(self):
        lens = np.array([100, 50, 25])
        groups = smart_batching(lens, group_cost_tokens=0)
        assert len(groups) == 3

    def test_huge_cost_single_group(self):
        lens = np.array([100, 50, 25, 10])
        groups = smart_batching(lens, group_cost_tokens=10_000)
        assert len(groups) == 1

    def test_single_sentence(self):
        groups = smart_batching(np.array([42]), group_cost_tokens=10)
        assert len(groups) == 1
        assert groups[0].tolist() == [0]

    def test_equal_lengths_one_group(self):
        groups = smart_batching(np.full(8, 64), group_cost_tokens=16)
        assert len(groups) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            smart_batching(np.array([]), 10)
        with pytest.raises(ValueError, match="non-negative"):
            smart_batching(np.array([4]), -1)


class TestOptimality:
    @given(
        lens=st.lists(st.integers(1, 100), min_size=1, max_size=7),
        group_cost=st.integers(0, 150),
    )
    @settings(max_examples=40, deadline=None)
    def test_dp_matches_brute_force(self, lens, group_cost):
        arr = np.asarray(lens)
        groups = smart_batching(arr, group_cost)
        sorted_lens = sorted(lens, reverse=True)
        # rebuild the DP's cost from the returned groups
        dp_cost = sum(
            len(g) * int(arr[g].max()) + group_cost for g in groups
        )
        assert dp_cost == brute_force_best(lens, group_cost)
        del sorted_lens

    @given(lens=st.lists(st.integers(1, 64), min_size=2, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_groups_are_length_disjoint_ranges(self, lens):
        """Groups come from a contiguous partition of the sorted order:
        their length ranges must not interleave."""
        arr = np.asarray(lens)
        groups = smart_batching(arr, group_cost_tokens=8)
        ranges = sorted(
            (int(arr[g].min()), int(arr[g].max())) for g in groups
        )
        for (_, hi_prev), (lo_next, _) in zip(ranges, ranges[1:]):
            assert hi_prev <= lo_next
