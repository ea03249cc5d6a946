"""Degradation ladder: trip-down, cool-down recovery, transition log."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.degradation import (
    DEFAULT_LEVELS,
    DegradationLadder,
    DegradationLevel,
)


def ladder(**kwargs):
    defaults = dict(trip_threshold=2, window_us=1000.0, cooldown_us=5000.0)
    defaults.update(kwargs)
    return DegradationLadder(**defaults)


class TestLevels:
    def test_default_ladder_shape(self):
        assert DEFAULT_LEVELS[0].mha_path == "fused"
        assert DEFAULT_LEVELS[-1].mha_path == "cublas"

    def test_level_validation(self):
        with pytest.raises(ValueError, match="MHA path"):
            DegradationLevel("x", "magic")


class TestLadder:
    def test_starts_at_top(self):
        l = ladder()
        assert l.at_top
        assert l.level is DEFAULT_LEVELS[0]

    def test_trips_down_after_threshold_incidents_in_window(self):
        l = ladder(trip_threshold=3)
        l.record_fault(0.0)
        l.record_fault(100.0)
        assert l.at_top
        l.record_fault(200.0)
        assert l.level.name == DEFAULT_LEVELS[1].name
        assert l.transitions[0].reason == "fault-pressure"

    def test_stale_incidents_fall_out_of_window(self):
        l = ladder(trip_threshold=2, window_us=1000.0)
        l.record_fault(0.0)
        l.record_fault(5000.0)  # first fault long expired
        assert l.at_top

    def test_deadline_misses_also_trip(self):
        l = ladder()
        l.record_deadline_miss(0.0)
        l.record_deadline_miss(10.0)
        assert not l.at_top
        assert l.transitions[0].reason == "deadline-miss-pressure"

    def test_clamps_at_bottom(self):
        l = ladder(trip_threshold=1)
        for t in range(10):
            l.record_fault(float(t))
        assert l.level is DEFAULT_LEVELS[-1]
        assert len(l.transitions) == len(DEFAULT_LEVELS) - 1

    def test_recovers_one_rung_after_quiet_cooldown(self):
        l = ladder(trip_threshold=1, cooldown_us=5000.0)
        l.record_fault(0.0)
        assert not l.at_top
        l.record_success(1000.0)  # still cooling down
        assert not l.at_top
        l.record_success(6000.0)
        assert l.at_top
        assert l.transitions[-1].reason == "recovered"

    def test_recovery_is_rate_limited(self):
        l = ladder(trip_threshold=1, cooldown_us=5000.0)
        l.record_fault(0.0)
        l.record_fault(1.0)  # two rungs down
        l.record_success(6000.0)
        l.record_success(6001.0)  # second climb needs another cooldown
        assert l.level.name == DEFAULT_LEVELS[1].name
        l.record_success(12_000.0)
        assert l.at_top

    def test_incident_during_cooldown_blocks_recovery(self):
        l = ladder(trip_threshold=1, window_us=10_000.0, cooldown_us=5000.0)
        l.record_fault(0.0)
        l.record_fault(5500.0)  # re-trips (and extends) the cooldown
        l.record_success(6000.0)
        assert l.level.name != DEFAULT_LEVELS[0].name

    def test_reset(self):
        l = ladder(trip_threshold=1)
        l.record_fault(0.0)
        l.reset()
        assert l.at_top
        assert l.transitions == []

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            DegradationLadder(levels=())
        with pytest.raises(ValueError, match="trip_threshold"):
            DegradationLadder(trip_threshold=0)
        with pytest.raises(ValueError, match="positive"):
            DegradationLadder(window_us=0.0)


class FilterLadder(DegradationLadder):
    """The window as a filter over every incident on each call."""

    def _prune(self, now_us):
        horizon = now_us - self.window_us
        self._incidents = [t for t in self._incidents if t > horizon]


#: on a grid that lands incidents exactly on a later call's horizon,
#: or anywhere
times = st.one_of(
    st.integers(0, 40).map(lambda k: k * 250.0),
    st.floats(0.0, 10_000.0, allow_nan=False),
)
events = st.lists(
    st.tuples(st.sampled_from(("fault", "miss", "burn", "ok")), times),
    max_size=60,
)


class TestWindowPruning:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(events=events, threshold=st.integers(1, 4))
    def test_prune_keeps_the_filters_survivors(self, events, threshold):
        # multi-device runs report incidents out of time order
        kwargs = dict(
            trip_threshold=threshold, window_us=1000.0, cooldown_us=2000.0
        )
        heap, ref = DegradationLadder(**kwargs), FilterLadder(**kwargs)
        for kind, t in events:
            for l in (heap, ref):
                {
                    "fault": l.record_fault,
                    "miss": l.record_deadline_miss,
                    "burn": l.record_budget_burn,
                    "ok": l.record_success,
                }[kind](t)
            assert sorted(heap._incidents) == sorted(ref._incidents)
            assert heap.level == ref.level
        assert heap.transitions == ref.transitions
