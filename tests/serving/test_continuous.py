"""Continuous token-budget batching through the serving runtime.

The tentpole contracts: a megabatch-served request gets bitwise the
output it would get served alone (even under seeded chaos, where a
failed megabatch retries only its surviving segments), and steady-state
serving replays tile-keyed launch graphs instead of dispatching eagerly.
"""

import numpy as np
import pytest

from repro.core.config import FUSED_MHA, BertConfig
from repro.core.model import BertEncoderModel
from repro.serving import (
    NO_FAULTS,
    ContinuousBatcher,
    FaultSpec,
    Outcome,
    ServingRuntime,
    retile,
)
from repro.workloads.batching import BucketBatcher, TimeoutBatcher
from repro.workloads.serving import make_trace

CONFIG = BertConfig(num_heads=4, head_size=16, num_layers=2)

CHAOS = FaultSpec(
    launch_failure_rate=0.06,
    transient_oom_rate=0.04,
    slow_rate=0.05,
    slow_factor=4.0,
    target_prefixes=("fused_mha", "fmha_"),
)


def runtime(faults=NO_FAULTS, *, batcher=None, seed=7, numerics=True):
    return ServingRuntime(
        CONFIG,
        batcher=batcher
        if batcher is not None
        else ContinuousBatcher(token_budget=1024),
        faults=faults,
        opt=FUSED_MHA,
        numerics=(
            BertEncoderModel(CONFIG, FUSED_MHA, seed=seed)
            if numerics
            else None
        ),
        seed=seed,
    )


def trace(n=40, **kwargs):
    kwargs.setdefault("mean_interarrival_us", 350.0)
    kwargs.setdefault("seed", 7)
    return make_trace(n, 128, **kwargs)


class TestBitwiseEquivalence:
    def test_megabatch_outputs_equal_per_request_serving(self):
        t = trace()
        continuous = runtime().run(t)
        looped = runtime(
            batcher=TimeoutBatcher(batch_size=8, timeout_us=2000.0)
        ).run(t)
        assert sorted(continuous.outputs) == sorted(looped.outputs)
        assert len(continuous.outputs) == t.num_requests
        for rid in continuous.outputs:
            np.testing.assert_array_equal(
                continuous.outputs[rid], looped.outputs[rid]
            )

    def test_chaos_outputs_equal_clean_run(self):
        # segment-scoped retry: a faulted megabatch re-tiles its
        # survivors and retries them, and the served bits must still be
        # exactly the fault-free bits
        t = trace(60)
        clean = runtime(NO_FAULTS).run(t)
        chaos = runtime(CHAOS).run(t)
        assert chaos.injected_faults, "chaos run injected nothing"
        assert any(o.retries > 0 for o in chaos.served)
        both = sorted(set(clean.outputs) & set(chaos.outputs))
        assert both
        for rid in both:
            np.testing.assert_array_equal(
                clean.outputs[rid], chaos.outputs[rid]
            )

    def test_seeded_chaos_reproducible(self):
        t = trace(50)
        a = runtime(CHAOS).run(t)
        b = runtime(CHAOS).run(t)
        assert [
            (o.request_id, o.outcome, o.retries) for o in a.outcomes
        ] == [(o.request_id, o.outcome, o.retries) for o in b.outcomes]


class TestNoSilentLossUnderContinuous:
    def test_every_request_settles_exactly_once(self):
        t = trace(60)
        report = runtime(CHAOS).run(t)
        ids = sorted(o.request_id for o in report.outcomes)
        assert ids == [r.request_id for r in t.requests]

    def test_deadline_shedding_still_applies(self):
        t = trace(40, deadline_us=900.0)
        report = runtime().run(t)
        counts = report.counts()
        assert counts["served"] + counts["shed"] == t.num_requests
        for outcome in report.outcomes:
            if outcome.outcome is Outcome.SERVED:
                assert outcome.latency_us <= 900.0


class TestTileGraphReuse:
    def test_steady_state_replays_tile_graphs(self):
        rt = runtime(numerics=False)
        t = trace(40)
        rt.run(t)
        first = rt.graph_cache.kind_counts().get("tile", {})
        assert first.get("captures", 0) >= 1
        rt.run(t)
        second = rt.graph_cache.kind_counts()["tile"]
        # warm tiles: second pass captures nothing new, only replays
        assert second["captures"] == first["captures"]
        assert second["replays"] > first["replays"]

    def test_retile_quantizes_to_batcher_tiles(self):
        tiles = ContinuousBatcher(token_budget=1024).effective_tiles()
        assert retile(100, tiles, 1024) == 512
        assert retile(600, tiles, 1024) == 1024
        # non-continuous batchers (no tile set) keep the dispatch's
        # original tile
        assert retile(100, (), 1024) == 1024


class TestComparativeEfficiency:
    def test_continuous_busy_time_not_worse_than_bucket_when_loaded(self):
        # under load megabatches fill their tiles, so the quantization
        # padding is amortized and the merged dispatches beat bucketed
        # per-request pricing (the bench gates the full-shape version)
        t = trace(64, mean_interarrival_us=60.0)
        cont = runtime(
            batcher=ContinuousBatcher(token_budget=2048), numerics=False
        ).run(t)
        bucket = runtime(
            batcher=BucketBatcher(), numerics=False
        ).run(t)
        assert cont.counts()["served"] == t.num_requests
        assert bucket.counts()["served"] == t.num_requests
        assert cont.gpu_busy_us <= bucket.gpu_busy_us
