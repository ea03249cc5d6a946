"""Executor equivalence: serial vs thread fan-out.

The tentpole invariant of host-path parallelism: how megabatch segment
chunks fan out across the host — inline or on pool threads — may change
only wall-clock.  Over generated megabatches (segment lengths, segment
count, worker count, arena on or off) and the length-distribution matrix
outputs stay bitwise-identical to the serial path and the modelled launch
stream and timeline are untouched; seeded-chaos serving replays (retries, deadlines,
degradation, telemetry) are unperturbed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FUSED_MHA, BertConfig
from repro.core.memory_planner import LiveArena
from repro.core.model import BertEncoderModel
from repro.core.padding import merge_request_lengths, pack_segments
from repro.core.weights import init_model_weights
from repro.core.parallel import use_workers
from repro.gpusim import ExecutionContext
from repro.serving import DegradationLadder, FaultSpec, ServingRuntime
from repro.telemetry import Telemetry
from repro.workloads.batching import ContinuousBatcher
from repro.workloads.generator import LengthDistribution, make_batch
from repro.workloads.serving import make_trace

MAX_SEQ = 16
CONFIG = BertConfig(num_heads=4, head_size=16, num_layers=2)
CHAOS = FaultSpec(
    launch_failure_rate=0.06,
    transient_oom_rate=0.04,
    slow_rate=0.05,
    slow_factor=4.0,
    target_prefixes=("fused_mha", "fmha_"),
)
#: module-level (not fixtures) so a falsifying example prints only the
#: drawn arguments, not a repr of every weight matrix
WEIGHTS = init_model_weights(CONFIG, seed=7)

DISTRIBUTIONS = [
    LengthDistribution.UNIFORM,
    LengthDistribution.NORMAL,
    LengthDistribution.ZIPF,
]


def make_tile(lens, hidden, seed=3):
    """A packed megabatch over ``lens``, tile-quantized to 64 rows."""
    tile = -(-sum(lens) // 64) * 64
    mega = merge_request_lengths(lens, MAX_SEQ, tile)
    rng = np.random.default_rng(seed)
    segments = [rng.normal(size=(length, hidden)) for length in lens]
    return mega, pack_segments(segments, mega)


def make_matrix_tile(distribution, alpha, hidden, seed=3):
    """A packed megabatch whose lengths follow one length-matrix cell."""
    lens = make_batch(
        12, MAX_SEQ, hidden, alpha=alpha, distribution=distribution,
        seed=seed,
    ).seq_lens
    return make_tile([int(n) for n in lens], hidden, seed=seed + 1)


def run_packed(mega, x_tile, workers, arena):
    """One fresh model's ``forward_packed`` under ``workers`` threads."""
    model = BertEncoderModel(
        CONFIG,
        FUSED_MHA,
        weights=WEIGHTS,
        arena=LiveArena() if arena else None,
    )
    ctx = ExecutionContext()
    with use_workers(workers):
        out = model.forward_packed(x_tile.copy(), mega, ctx=ctx)
    return out.copy(), [r.launch for r in ctx.records], ctx.elapsed_us()


class TestForwardPackedEquivalence:
    @given(
        lens=st.lists(st.integers(1, MAX_SEQ), min_size=1, max_size=12),
        workers=st.integers(1, 4),
        arena=st.booleans(),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_thread_fanout_bitwise_equal_to_serial(
        self, lens, workers, arena
    ):
        mega, x_tile = make_tile(lens, CONFIG.hidden_size)
        want = run_packed(mega, x_tile, 1, arena)
        got = run_packed(mega, x_tile, workers, arena)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]
        assert got[2] == want[2]

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.95])
    def test_bitwise_equal_over_length_matrix(self, distribution, alpha):
        # the length matrix the vectorized engine is gated on, with the
        # arena in place: a 3-wide thread fan-out keeps the serial bits,
        # launch stream and modelled timeline
        mega, x_tile = make_matrix_tile(
            distribution, alpha, CONFIG.hidden_size
        )
        want = run_packed(mega, x_tile, 1, arena=True)
        got = run_packed(mega, x_tile, 3, arena=True)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]
        assert got[2] == want[2]

    def test_no_arena_fallback_matches_serial(self):
        # without an arena thread fan-out writes the shared np.empty
        # directly; one model reused across widths still gives the
        # serial bits
        mega, x_tile = make_matrix_tile(
            LengthDistribution.ZIPF, 0.6, CONFIG.hidden_size
        )
        model = BertEncoderModel(CONFIG, FUSED_MHA, weights=WEIGHTS)
        expected = model.forward_packed(x_tile.copy(), mega).copy()
        for workers in (2, 3, 4):
            with use_workers(workers):
                got = model.forward_packed(x_tile.copy(), mega)
            np.testing.assert_array_equal(got, expected)


def run_chaos_replay(workers, telemetry=None):
    trace = make_trace(
        32, 96, mean_interarrival_us=250.0, seed=5, deadline_us=50_000.0
    )
    runtime = ServingRuntime(
        CONFIG,
        batcher=ContinuousBatcher(token_budget=1024),
        ladder=DegradationLadder(
            trip_threshold=2, window_us=20_000.0, cooldown_us=15_000.0
        ),
        faults=CHAOS,
        numerics=BertEncoderModel(CONFIG, seed=11),
        seed=11,
        workers=workers,
        telemetry=telemetry,
    )
    return runtime.run(trace)


class TestServingEquivalence:
    @pytest.mark.parametrize("workers", [2, 3], ids=lambda w: f"thread-{w}")
    def test_seeded_chaos_replay_identical(self, workers):
        # retries, shedding and the degradation ladder all fire under
        # chaos; fanning the numeric plane out across workers must not
        # move a single outcome, fault, transition or output bit
        base = run_chaos_replay(1)
        par = run_chaos_replay(workers)
        assert par.outcome_log() == base.outcome_log()
        assert par.injected_faults == base.injected_faults
        assert par.transitions == base.transitions
        assert par.gpu_busy_us == base.gpu_busy_us
        assert par.makespan_us == base.makespan_us
        assert set(par.outputs) == set(base.outputs)
        for rid in base.outputs:
            assert np.array_equal(par.outputs[rid], base.outputs[rid])

    def test_telemetry_neutral_under_thread_executor(self):
        tel = Telemetry()
        off = run_chaos_replay(3)
        on = run_chaos_replay(3, telemetry=tel)
        assert on.outcome_log() == off.outcome_log()
        assert on.makespan_us == off.makespan_us
        for rid in off.outputs:
            assert np.array_equal(on.outputs[rid], off.outputs[rid])
        # and the observer really observed: spans drained, metrics live
        assert tel.tracer.depth == 0
        assert tel.kernel_event_count() > 0
        assert len(tel.metrics) > 0
