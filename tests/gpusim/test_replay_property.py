"""Property: graph replay equals the per-launch replay it short-cuts.

:meth:`LaunchGraph.replay` visits only fault-eligible launches when the
context is fresh and the hook is a :class:`FaultPlan`, and materialises
records lazily.  Over generated launch streams, fault specs, seeds and
consecutive replays, on fresh and non-fresh contexts, it must leave
everything a per-launch replay leaves: the records, the elapsed time,
the returned delta, the raised fault, the injection log, the plan's
ordinal and its next draw.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import A100_SPEC, ExecutionContext, KernelLaunch
from repro.gpusim.errors import TransientFault
from repro.gpusim.graph import LaunchGraph
from repro.serving.faults import FaultPlan, FaultSpec

NAMES = ("fused_mha_short", "fmha_grouped_qk", "gemm_qkv", "layernorm", "k")
PREFIXES = ((), ("fused_mha", "fmha_"), ("gemm",), ("absent",))
RATES = (0.0, 0.02, 0.1, 0.3)

PRIOR = KernelLaunch(
    name="warmup", category="test", grid=8, block_threads=128, flops=1e6
)


def make_launch(name: str, grid: int) -> KernelLaunch:
    return KernelLaunch(
        name=name, category="test", grid=grid, block_threads=128, flops=1e6
    )


graphs = st.lists(
    st.tuples(
        st.sampled_from(NAMES),
        st.integers(1, 4),
        st.floats(0.0, 100.0, allow_nan=False, allow_subnormal=False),
    ),
    max_size=30,
).map(
    lambda items: LaunchGraph(
        device=A100_SPEC,
        launches=tuple(make_launch(n, g) for n, g, _ in items),
        times_us=tuple(t for _, _, t in items),
    )
)

specs = st.builds(
    FaultSpec,
    launch_failure_rate=st.sampled_from(RATES),
    transient_oom_rate=st.sampled_from(RATES),
    slow_rate=st.sampled_from(RATES),
    slow_factor=st.sampled_from((1.0, 2.5, 4.0)),
    target_prefixes=st.sampled_from(PREFIXES),
)


def per_launch_replay(graph: LaunchGraph, ctx: ExecutionContext) -> float:
    """The reference: every launch through ``replay_launch``."""
    before = ctx.elapsed_us()
    for launch, time_us in zip(graph.launches, graph.times_us):
        ctx.replay_launch(launch, time_us)
    return ctx.elapsed_us() - before


def context(plan: FaultPlan, prior: bool) -> ExecutionContext:
    """A context hooked to ``plan``; with ``prior``, one earlier launch
    makes it non-fresh."""
    ctx = ExecutionContext(A100_SPEC)
    if prior:
        ctx.replay_launch(PRIOR, 1.25)
    return plan.install(ctx)


def outcome(replay, graph, ctx):
    try:
        return ("ok", replay(graph, ctx))
    except TransientFault as fault:
        return (type(fault), str(fault))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    graph=graphs,
    spec=specs,
    seed=st.integers(0, 2**16),
    replays=st.integers(1, 4),
    fresh=st.booleans(),
)
def test_fast_replay_equals_per_launch_replay(
    graph, spec, seed, replays, fresh
):
    fast_plan, ref_plan = FaultPlan(spec, seed), FaultPlan(spec, seed)
    fast_ctx = ref_ctx = None
    for _ in range(replays):
        if fresh or fast_ctx is None:
            fast_ctx = context(fast_plan, prior=not fresh)
            ref_ctx = context(ref_plan, prior=not fresh)
        got = outcome(LaunchGraph.replay, graph, fast_ctx)
        want = outcome(per_launch_replay, graph, ref_ctx)
        assert got == want
        assert fast_ctx.elapsed_us() == ref_ctx.elapsed_us()
        assert fast_ctx.records == ref_ctx.records
        assert fast_plan.injected == ref_plan.injected
    # the plan buffers its uniforms, so its generator's next draw is not
    # the plan's: compare the decisions made and the next one handed out
    assert fast_plan._ordinal == ref_plan._ordinal
    assert fast_plan._next_draw() == ref_plan._next_draw()
