"""Chaos over graph replay: cached pricing must not change fault behaviour.

The launch-graph cache skips per-kernel pricing on repeat shapes, but the
launch *hook* still sees every replayed launch.  A seeded fault plan must
therefore inject the exact same fault sequence — same kernels, same
eligible-launch ordinals — whether each batch is priced eagerly or
replayed from the cache, and the whole serving report must be identical.
"""

from repro.core.config import BertConfig
from repro.serving import DegradationLadder, FaultSpec, ServingRuntime
from repro.workloads.batching import TimeoutBatcher
from repro.workloads.serving import make_trace

CONFIG = BertConfig(num_heads=4, head_size=16, num_layers=2)

CHAOS = FaultSpec(
    launch_failure_rate=0.06,
    transient_oom_rate=0.04,
    slow_rate=0.05,
    slow_factor=4.0,
    target_prefixes=("fused_mha", "fmha_"),
)


def _run(use_graph):
    runtime = ServingRuntime(
        CONFIG,
        batcher=TimeoutBatcher(batch_size=8, timeout_us=2000.0),
        ladder=DegradationLadder(
            trip_threshold=2, window_us=20_000.0, cooldown_us=15_000.0
        ),
        faults=CHAOS,
        seed=7,
        use_graph=use_graph,
    )
    trace = make_trace(80, 128, mean_interarrival_us=350.0, seed=7)
    return runtime, runtime.run(trace)


class TestChaosReplayOverGraphCache:
    def test_same_seed_same_faults_with_and_without_graph(self):
        _, eager = _run(use_graph=False)
        graphed_runtime, graphed = _run(use_graph=True)

        # the cache was actually exercised: repeat shapes replayed
        assert graphed_runtime.graph_cache is not None
        assert graphed_runtime.graph_cache.hits > 0

        # identical seeded fault sequence (kernel names + ordinals)...
        assert graphed.injected_faults == eager.injected_faults
        assert graphed.injected_faults  # ...and it is non-trivial

        # ...and an identical serving report, bit for bit
        assert graphed.outcomes == eager.outcomes
        assert graphed.gpu_busy_us == eager.gpu_busy_us
        assert graphed.makespan_us == eager.makespan_us

    def test_faults_do_not_corrupt_the_cache(self):
        runtime, report = _run(use_graph=True)
        assert report.injected_faults
        # every cached graph still replays its full fault-free stream:
        # a mid-replay fault aborted that call only, never the cache
        from repro.gpusim.stream import ExecutionContext

        for graph, _ in runtime.graph_cache._entries.values():
            ctx = ExecutionContext(runtime.device)
            assert graph.replay(ctx) == graph.modelled_us
            assert len(ctx.records) == len(graph)
