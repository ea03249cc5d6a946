"""Property: a buffered :class:`FaultPlan` decides every eligible launch
exactly as a plan that draws one uniform per launch.

The plan takes its uniforms from its generator in blocks, and graph
replay into a fresh context skips quiet launches with one
``pass_quiet`` call.  Neither may move a decision: the N-th eligible
launch's fate depends only on the seed and N.  The reference below
calls ``Generator.random()`` once per eligible launch, the unbuffered
definition of the stream, and sees every launch through the per-launch
loop.
The generated runs are long enough to cross several block refills.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from repro.gpusim import A100_SPEC, ExecutionContext, KernelLaunch
from repro.gpusim.errors import LaunchFailure, TransientFault, TransientOom
from repro.gpusim.graph import LaunchGraph
from repro.serving.faults import (
    LAUNCH_FAILURE,
    SLOW_KERNEL,
    TRANSIENT_OOM,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)

NAMES = ("fused_mha_short", "fmha_grouped_qk", "gemm_qkv", "layernorm")
PREFIXES = ((), ("fused_mha", "fmha_"), ("gemm",))
RATES = (0.0, 0.001, 0.01, 0.05, 0.2)


class ReferencePlan:
    """One ``Generator.random()`` per eligible launch, no buffer, no
    scan.  A plain launch hook: graph replay gives it every launch."""

    def __init__(self, spec: FaultSpec, seed: int) -> None:
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        self.ordinal = 0
        self.injected: list[InjectedFault] = []

    def on_launch(self, launch: KernelLaunch, index: int) -> float:
        spec = self.spec
        if spec.fault_rate == 0.0 or not spec.targets(launch.name):
            return 1.0
        ordinal = self.ordinal
        self.ordinal += 1
        draw = float(self.rng.random())
        cuts = (
            (spec.launch_failure_rate, LAUNCH_FAILURE, LaunchFailure,
             "injected launch failure"),
            (spec.transient_oom_rate, TRANSIENT_OOM, TransientOom,
             "injected transient OOM"),
        )
        edge = 0.0
        for rate, kind, error, text in cuts:
            edge += rate
            if draw < edge:
                self.injected.append(InjectedFault(ordinal, launch.name, kind))
                raise error(
                    f"{text}: {launch.name!r} (eligible launch #{ordinal})"
                )
        edge += spec.slow_rate
        if draw < edge:
            self.injected.append(
                InjectedFault(ordinal, launch.name, SLOW_KERNEL)
            )
            return spec.slow_factor
        return 1.0


def make_graph(pattern: list[str], repeat: int) -> LaunchGraph:
    names = pattern * repeat
    return LaunchGraph(
        device=A100_SPEC,
        launches=tuple(
            KernelLaunch(
                name=name, category="test", grid=1 + i % 3,
                block_threads=128, flops=1e6,
            )
            for i, name in enumerate(names)
        ),
        times_us=tuple(1.0 + i % 7 for i in range(len(names))),
    )


def per_launch(graph: LaunchGraph, ctx: ExecutionContext) -> None:
    for launch, time_us in zip(graph.launches, graph.times_us):
        ctx.replay_launch(launch, time_us)


def outcome(replay, graph, hook):
    """Replay into a fresh context hooked to ``hook``: the fault raised
    (type and message) or the per-launch times, which carry every slow
    factor."""
    ctx = ExecutionContext(A100_SPEC)
    ctx.launch_hook = hook
    try:
        replay(graph, ctx)
    except TransientFault as fault:
        return (type(fault), str(fault), [r.time_us for r in ctx.records])
    return ("ok", ctx.elapsed_us(), [r.time_us for r in ctx.records])


specs = st.builds(
    FaultSpec,
    launch_failure_rate=st.sampled_from(RATES),
    transient_oom_rate=st.sampled_from(RATES),
    slow_rate=st.sampled_from(RATES),
    slow_factor=st.sampled_from((1.0, 3.0)),
    target_prefixes=st.sampled_from(PREFIXES),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    spec=specs,
    seed=st.integers(0, 2**16),
    pattern=st.lists(st.sampled_from(NAMES), min_size=1, max_size=6),
    repeat=st.integers(1, 120),
    graphed=st.lists(st.booleans(), min_size=1, max_size=10),
)
def test_buffered_decisions_equal_one_draw_per_launch(
    spec, seed, pattern, repeat, graphed
):
    graph = make_graph(pattern, repeat)
    plan, ref = FaultPlan(spec, seed), ReferencePlan(spec, seed)
    for through_graph in graphed:
        got = outcome(
            LaunchGraph.replay if through_graph else per_launch,
            graph,
            plan.on_launch,
        )
        want = outcome(per_launch, graph, ref.on_launch)
        assert got == want
        assert plan._ordinal == ref.ordinal
        assert plan.injected == ref.injected
    assert plan._next_draw() == float(ref.rng.random())
