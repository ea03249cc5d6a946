"""Telemetry on/off must be bitwise-neutral to every replay.

The hard invariant of the telemetry layer: installing a
:class:`~repro.telemetry.Telemetry` observes a replay without perturbing
it — identical outcome logs, identical modelled timeline, identical
injected-fault sequence, and (on the numeric plane) bit-identical served
outputs.  Checked over the length-distribution matrix the vectorized
engine is gated on, including seeded-chaos runs with retries, deadlines
and degradation, and for decode serving with and without faults and
KV evictions (token times and KV statistics too).
"""

import numpy as np
import pytest

from repro.core.config import BertConfig
from repro.core.model import BertEncoderModel
from repro.serving import (
    DegradationLadder,
    FaultSpec,
    NO_FAULTS,
    ServingRuntime,
)
from repro.serving.generation import GenerationRuntime
from repro.telemetry import Telemetry
from repro.workloads.batching import ContinuousBatcher, TimeoutBatcher
from repro.workloads.generator import LengthDistribution
from repro.workloads.serving import make_generation_trace, make_trace

CONFIG = BertConfig(num_heads=4, head_size=16, num_layers=2)
CHAOS = FaultSpec(
    launch_failure_rate=0.06,
    transient_oom_rate=0.04,
    slow_rate=0.05,
    slow_factor=4.0,
    target_prefixes=("fused_mha", "fmha_"),
)


def run_replay(trace, *, batcher, faults, telemetry, numerics=None):
    runtime = ServingRuntime(
        CONFIG,
        batcher=batcher,
        ladder=DegradationLadder(
            trip_threshold=2, window_us=20_000.0, cooldown_us=15_000.0
        ),
        faults=faults,
        numerics=numerics,
        seed=11,
        telemetry=telemetry,
    )
    return runtime.run(trace)


def assert_replays_identical(trace, make_batcher, faults, numerics=False):
    reports = [
        run_replay(
            trace,
            batcher=make_batcher(),
            faults=faults,
            telemetry=tel,
            numerics=(
                BertEncoderModel(CONFIG, seed=11) if numerics else None
            ),
        )
        for tel in (None, Telemetry())
    ]
    off, on = reports
    assert on.outcome_log() == off.outcome_log()
    assert on.gpu_busy_us == off.gpu_busy_us
    assert on.makespan_us == off.makespan_us
    assert on.injected_faults == off.injected_faults
    assert on.transitions == off.transitions
    assert set(on.outputs) == set(off.outputs)
    for rid in off.outputs:
        assert np.array_equal(on.outputs[rid], off.outputs[rid])


@pytest.mark.parametrize(
    "distribution",
    [
        LengthDistribution.UNIFORM,
        LengthDistribution.NORMAL,
        LengthDistribution.ZIPF,
    ],
)
@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.95])
def test_cost_plane_neutral_over_length_matrix(distribution, alpha):
    trace = make_trace(
        32,
        96,
        alpha=alpha,
        distribution=distribution,
        mean_interarrival_us=300.0,
        seed=3,
    )
    assert_replays_identical(trace, TimeoutBatcher, NO_FAULTS)


@pytest.mark.parametrize(
    "make_batcher",
    [
        lambda: TimeoutBatcher(batch_size=8, timeout_us=2000.0),
        lambda: ContinuousBatcher(token_budget=1024),
    ],
    ids=["timeout", "continuous"],
)
def test_seeded_chaos_neutral(make_batcher):
    # deadlines + faults: retries, backoff, shedding and the ladder all
    # fire, and the telemetry-on replay must still be bit-for-bit the
    # telemetry-off replay
    trace = make_trace(
        48, 96, mean_interarrival_us=250.0, seed=5, deadline_us=50_000.0
    )
    assert_replays_identical(trace, make_batcher, CHAOS)


def test_numeric_plane_outputs_bitwise_neutral():
    trace = make_trace(16, 64, mean_interarrival_us=400.0, seed=9)
    assert_replays_identical(
        trace,
        lambda: TimeoutBatcher(batch_size=8, timeout_us=2000.0),
        CHAOS,
        numerics=True,
    )


@pytest.mark.parametrize(
    "distribution",
    [
        LengthDistribution.UNIFORM,
        LengthDistribution.NORMAL,
        LengthDistribution.ZIPF,
    ],
)
@pytest.mark.parametrize("faults", [NO_FAULTS, CHAOS], ids=["clean", "chaos"])
def test_observe_attribution_neutral_over_length_matrix(distribution, faults):
    """Building every repro.observe report over a replay's telemetry is
    pure post-hoc: outputs, modelled µs and the fault/ladder streams
    match the telemetry-off replay exactly, and a fresh observed replay
    after report-building is still bit-identical (report construction
    leaked no state into caches or RNG streams)."""
    from repro.gpusim.profiler import ProfileReport
    from repro.gpusim.trace import telemetry_chrome_trace
    from repro.observe import CriticalPathReport, tail_forensics

    trace = make_trace(
        32,
        96,
        alpha=0.6,
        distribution=distribution,
        mean_interarrival_us=250.0,
        seed=3,
        deadline_us=50_000.0,
    )
    make_batcher = lambda: ContinuousBatcher(token_budget=1024)  # noqa: E731
    make_numerics = lambda: BertEncoderModel(CONFIG, seed=11)  # noqa: E731
    off = run_replay(
        trace, batcher=make_batcher(), faults=faults,
        telemetry=None, numerics=make_numerics(),
    )
    tel = Telemetry()
    on = run_replay(
        trace, batcher=make_batcher(), faults=faults,
        telemetry=tel, numerics=make_numerics(),
    )
    # build the full attribution stack over the observed run
    cp = CriticalPathReport.from_telemetry(tel)
    tail_forensics(cp)
    ProfileReport.from_segments(tel.kernel_segments)
    telemetry_chrome_trace(tel, critical_path=cp.critical_request())

    again = run_replay(
        trace, batcher=make_batcher(), faults=faults,
        telemetry=Telemetry(), numerics=make_numerics(),
    )
    for observed in (on, again):
        assert observed.outcome_log() == off.outcome_log()
        assert observed.gpu_busy_us == off.gpu_busy_us
        assert observed.makespan_us == off.makespan_us
        assert observed.injected_faults == off.injected_faults
        assert observed.transitions == off.transitions
        assert set(observed.outputs) == set(off.outputs)
        for rid in off.outputs:
            assert np.array_equal(observed.outputs[rid], off.outputs[rid])
    # the attribution actually decomposed the replay it observed
    assert cp.requests and cp.batches


def test_telemetry_actually_observed_something():
    # guard against the trivial way to pass neutrality: not recording
    trace = make_trace(24, 96, mean_interarrival_us=250.0, seed=5)
    tel = Telemetry()
    run_replay(
        trace, batcher=ContinuousBatcher(token_budget=1024),
        faults=CHAOS, telemetry=tel,
    )
    assert tel.tracer.depth == 0  # the span stack drained
    names = {s.name for s in tel.tracer.completed()}
    assert {"request", "dispatch.megabatch", "attempt", "graph.replay"} \
        <= names
    assert tel.kernel_event_count() > 0
    assert len(tel.metrics) > 0


# ----------------------------------------------------------------------
# decode serving: the same loop, the same contract


DECODE_CHAOS = FaultSpec(
    launch_failure_rate=0.1,
    transient_oom_rate=0.1,
    target_prefixes=("paged_decode",),
)


@pytest.mark.parametrize(
    "faults", [NO_FAULTS, DECODE_CHAOS], ids=["clean", "chaos"]
)
@pytest.mark.parametrize(
    "kv_capacity_tokens", [None, 128], ids=["roomy", "tight"]
)
def test_decode_replay_neutral(faults, kv_capacity_tokens):
    trace = make_generation_trace(
        12, 64, decode_tokens=6, mean_interarrival_us=30.0, seed=3,
        deadline_us=2_000.0,
    )

    def replay(telemetry):
        return GenerationRuntime(
            CONFIG,
            ladder=DegradationLadder(
                trip_threshold=2, window_us=20_000.0, cooldown_us=15_000.0
            ),
            faults=faults,
            seed=11,
            kv_capacity_tokens=kv_capacity_tokens,
            telemetry=telemetry,
        ).run(trace)

    tel = Telemetry()
    off, on = replay(None), replay(tel)
    assert on.outcome_log() == off.outcome_log()
    assert on.outcomes == off.outcomes
    assert on.token_times == off.token_times
    assert on.kv_stats == off.kv_stats
    assert on.injected_faults == off.injected_faults
    assert on.transitions == off.transitions
    assert on.gpu_busy_us == off.gpu_busy_us
    assert on.makespan_us == off.makespan_us
    assert set(on.outputs) == set(off.outputs)
    for rid in off.outputs:
        assert np.array_equal(on.outputs[rid], off.outputs[rid])
    # the telemetry-on replay really observed the rounds
    assert tel.tracer.depth == 0
    assert {"request", "round", "attempt"} <= {
        s.name for s in tel.tracer.completed()
    }
    if faults is DECODE_CHAOS:
        assert on.injected_faults
    if kv_capacity_tokens is not None:
        assert on.kv_stats["evictions"] > 0
