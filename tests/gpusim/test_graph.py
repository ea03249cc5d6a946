"""Launch-graph capture & replay: bit identity, caching, fault hooks."""

import numpy as np
import pytest

from repro.gpusim import A100_SPEC, V100_SPEC, ExecutionContext, KernelLaunch
from repro.gpusim.errors import LaunchFailure
from repro.gpusim.graph import GraphCache, LaunchGraph, capture
from repro.gpusim.profiler import ProfileReport
from repro.gpusim.stream import NullContext
from repro.gpusim.trace import to_chrome_trace
from repro.serving.faults import NO_FAULTS, FaultPlan, FaultSpec


def launch(name="k", grid=64, flops=1e6):
    return KernelLaunch(
        name=name, category="test", grid=grid, block_threads=128,
        flops=flops, dram_bytes=1e5,
    )


def stream_fn(ctx):
    """A small deterministic launch stream (distinct shapes/names)."""
    for i in range(6):
        ctx.launch(launch(name=f"k{i}", grid=32 + 16 * i, flops=1e6 * (i + 1)))
    return "payload"


def records_identical(a, b):
    return (
        len(a) == len(b)
        and all(
            ra.launch == rb.launch
            and ra.time_us == rb.time_us
            and ra.start_us == rb.start_us
            for ra, rb in zip(a, b)
        )
    )


class TestCaptureReplay:
    def test_replay_is_bit_identical_to_eager(self):
        eager = ExecutionContext(A100_SPEC)
        stream_fn(eager)

        graph, result = capture(A100_SPEC, stream_fn)
        assert result == "payload"
        replayed = ExecutionContext(A100_SPEC)
        delta = graph.replay(replayed)

        assert records_identical(eager.records, replayed.records)
        assert replayed.elapsed_us() == eager.elapsed_us()
        assert delta == graph.modelled_us == eager.elapsed_us()

    def test_replay_into_accumulated_context_matches_eager(self):
        # same prior history on both contexts -> bit-equal continuation,
        # including start_us offsets
        prior = launch(name="warmup", grid=8)
        eager = ExecutionContext(A100_SPEC)
        eager.launch(prior)
        stream_fn(eager)

        graph, _ = capture(A100_SPEC, stream_fn)
        replayed = ExecutionContext(A100_SPEC)
        replayed.launch(prior)
        graph.replay(replayed)

        assert records_identical(eager.records, replayed.records)

    def test_wrong_device_rejected(self):
        graph, _ = capture(A100_SPEC, stream_fn)
        with pytest.raises(ValueError, match="cannot replay"):
            graph.replay(ExecutionContext(V100_SPEC))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="launches but"):
            LaunchGraph(
                device=A100_SPEC, launches=(launch(),), times_us=(1.0, 2.0)
            )

    def test_capture_context_is_hook_free(self):
        # a hook on the caller's context must not leak into capture: the
        # cached times are clean base times
        caller = ExecutionContext(A100_SPEC)
        caller.launch_hook = lambda launch, index: 100.0
        graph, _ = capture(caller.device, stream_fn)
        clean = ExecutionContext(A100_SPEC)
        stream_fn(clean)
        assert graph.times_us == tuple(r.time_us for r in clean.records)


class TestHookComposition:
    def test_slow_hook_scales_replayed_launches(self):
        graph, _ = capture(A100_SPEC, stream_fn)
        ctx = ExecutionContext(A100_SPEC)
        ctx.launch_hook = lambda launch, index: 3.0
        graph.replay(ctx)
        assert tuple(r.time_us for r in ctx.records) == tuple(
            t * 3.0 for t in graph.times_us
        )

    def test_fault_plan_parity_eager_vs_replay(self):
        # the same seeded plan injects the same fault sequence whether
        # the stream is executed eagerly or replayed from a graph
        spec = FaultSpec(slow_rate=0.5, slow_factor=4.0)

        eager = ExecutionContext(A100_SPEC)
        eager_plan = FaultPlan(spec, seed=7)
        eager_plan.install(eager)
        stream_fn(eager)

        graph, _ = capture(A100_SPEC, stream_fn)
        replayed = ExecutionContext(A100_SPEC)
        replay_plan = FaultPlan(spec, seed=7)
        replay_plan.install(replayed)
        graph.replay(replayed)

        assert replay_plan.injected == eager_plan.injected
        assert records_identical(eager.records, replayed.records)

    def test_mid_replay_fault_leaves_partial_timeline_and_intact_graph(self):
        graph, _ = capture(A100_SPEC, stream_fn)
        before = (graph.launches, graph.times_us)

        fail_at = 3

        def hook(launch, index):
            if index == fail_at:
                raise LaunchFailure("boom")
            return 1.0

        ctx = ExecutionContext(A100_SPEC)
        ctx.launch_hook = hook
        with pytest.raises(LaunchFailure):
            graph.replay(ctx)

        # timeline consistent up to the fault, nothing after it
        assert len(ctx.records) == fail_at
        assert ctx.elapsed_us() == sum(graph.times_us[:fail_at])
        # the frozen graph is untouched: a clean retry replays in full
        assert (graph.launches, graph.times_us) == before
        retry = ExecutionContext(A100_SPEC)
        assert graph.replay(retry) == graph.modelled_us


def fast_and_eager(plan_factory=None):
    """The stream replayed into a fresh context (the fast path) and run
    eagerly, each under its own plan from ``plan_factory``."""
    graph, _ = capture(A100_SPEC, stream_fn)
    fast, eager = ExecutionContext(A100_SPEC), ExecutionContext(A100_SPEC)
    if plan_factory is not None:
        plan_factory().install(fast)
        plan_factory().install(eager)
    graph.replay(fast)
    stream_fn(eager)
    return graph, fast, eager


class TestLazyRecords:
    def test_fast_replay_builds_no_records_until_read(self):
        graph, fast, eager = fast_and_eager()
        assert fast._lazy is not None and fast._records == []
        assert fast.elapsed_us() == eager.elapsed_us()
        assert fast.records == eager.records
        assert [r.start_us for r in fast.records] == list(graph.starts_us[:-1])
        assert fast._lazy is None and fast.records is fast.records

    def test_counts_and_flops_match_eager(self):
        _, fast, eager = fast_and_eager()
        assert fast.kernel_count() == eager.kernel_count() == 6
        assert fast.total_flops() == eager.total_flops()
        assert fast.total_dram_bytes() == eager.total_dram_bytes()

    def test_merge_either_way_matches_eager(self):
        prior = launch(name="warmup", grid=8)
        _, fast, eager = fast_and_eager()
        into_fast, into_eager = context_with(prior), context_with(prior)
        into_fast.merge(fast)
        into_eager.merge(eager)
        assert into_fast.records == into_eager.records
        assert into_fast.elapsed_us() == into_eager.elapsed_us()

        _, fast, eager = fast_and_eager()
        fast.merge(context_with(prior))
        eager.merge(context_with(prior))
        assert fast.records == eager.records
        assert fast.elapsed_us() == eager.elapsed_us()

    def test_fork_and_reset(self):
        graph, fast, _ = fast_and_eager()
        child = fast.fork()
        assert child.is_fresh() and child.device == fast.device
        assert fast._lazy is not None  # forking reads no records
        fast.reset()
        assert fast.is_fresh() and fast.records == []
        assert graph.replay(fast) == graph.modelled_us
        assert len(fast.records) == len(graph)

    def test_second_replay_appends_after_lazy_prefix(self):
        graph, fast, eager = fast_and_eager()
        graph.replay(fast)  # not fresh: the per-launch loop
        stream_fn(eager)
        assert fast.records == eager.records
        assert fast.elapsed_us() == eager.elapsed_us()

    def test_profile_report_and_chrome_trace_match_eager(self):
        _, fast, eager = fast_and_eager()
        assert ProfileReport.from_context(fast) == ProfileReport.from_context(
            eager
        )
        _, fast, eager = fast_and_eager()
        assert to_chrome_trace(fast) == to_chrome_trace(eager)

    def test_fault_plan_mid_replay_fault_leaves_eager_partial_timeline(self):
        spec = FaultSpec(launch_failure_rate=0.3, target_prefixes=("k2", "k4"))
        seed = next(s for s in range(100) if faulting_index(spec, s) == 4)
        graph, _ = capture(A100_SPEC, stream_fn)

        eager, eager_plan = ExecutionContext(A100_SPEC), FaultPlan(spec, seed)
        eager_plan.install(eager)
        with pytest.raises(LaunchFailure) as eager_err:
            stream_fn(eager)
        fast, fast_plan = ExecutionContext(A100_SPEC), FaultPlan(spec, seed)
        fast_plan.install(fast)
        with pytest.raises(LaunchFailure) as fast_err:
            graph.replay(fast)

        assert fast._lazy is not None  # the fast path took the fault
        assert str(fast_err.value) == str(eager_err.value)
        assert fast_plan.injected == eager_plan.injected
        assert fast.elapsed_us() == eager.elapsed_us() == graph.starts_us[4]
        assert fast.records == eager.records and len(fast.records) == 4

    def test_slow_spike_hands_over_to_per_launch_loop(self):
        spec = FaultSpec(slow_rate=0.5, slow_factor=4.0)
        graph, fast, eager = fast_and_eager(lambda: FaultPlan(spec, seed=3))
        assert any(
            r.time_us != t for r, t in zip(eager.records, graph.times_us)
        )
        assert fast.records == eager.records
        assert fast.elapsed_us() == eager.elapsed_us()

    def test_zero_rate_plan_is_hook_free(self):
        plan = FaultPlan(NO_FAULTS, seed=0)
        _, fast, eager = fast_and_eager(lambda: plan)
        assert fast._lazy is not None  # adopted without visiting launches
        assert fast.records == eager.records
        assert plan.injected == [] and plan._ordinal == 0

    def test_null_context_takes_per_launch_path(self):
        graph, _ = capture(A100_SPEC, stream_fn)
        null = NullContext()
        assert graph.replay(null) == 0.0
        assert null.records == [] and null._lazy is None


def context_with(prior):
    ctx = ExecutionContext(A100_SPEC)
    ctx.launch(prior)
    return ctx


def faulting_index(spec, seed):
    """Index of the launch an eager run under ``(spec, seed)`` faults
    on, or ``None``."""
    ctx = ExecutionContext(A100_SPEC)
    FaultPlan(spec, seed).install(ctx)
    try:
        stream_fn(ctx)
    except LaunchFailure:
        return len(ctx.records)
    return None


class TestGraphCache:
    def test_counters_and_hit_path(self):
        cache = GraphCache()
        calls = []

        def fn(ctx):
            calls.append(1)
            return stream_fn(ctx)

        # fresh same-history contexts: the returned deltas are bit-equal
        # (on one accumulating context only the *records* stay identical;
        # the delta re-derives from a different floating-point base)
        t0 = cache.replay_or_capture("key", ExecutionContext(A100_SPEC), fn)
        t1 = cache.replay_or_capture("key", ExecutionContext(A100_SPEC), fn)
        assert calls == [1]  # a hit never re-runs fn
        assert t0 == t1
        assert (cache.hits, cache.misses, cache.evictions) == (1, 1, 0)
        assert len(cache) == 1

    def test_lru_eviction(self):
        cache = GraphCache(capacity=2)
        graph, _ = capture(A100_SPEC, stream_fn)
        cache.put("a", graph)
        cache.put("b", graph)
        assert cache.get("a") is graph  # refresh "a": now "b" is LRU
        cache.put("c", graph)
        assert cache.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") is graph and cache.get("c") is graph

    def test_distinct_keys_capture_separately(self):
        cache = GraphCache()
        ctx = ExecutionContext(A100_SPEC)
        short = lambda c: c.launch(launch(name="solo"))  # noqa: E731
        cache.replay_or_capture("long", ctx, stream_fn)
        cache.replay_or_capture("short", ctx, short)
        assert cache.misses == 2 and len(cache) == 2
        assert len(cache.get("long")) == 6
        assert len(cache.get("short")) == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="positive"):
            GraphCache(capacity=0)

    def test_clear_resets_counters(self):
        cache = GraphCache()
        ctx = ExecutionContext(A100_SPEC)
        cache.replay_or_capture("key", ctx, stream_fn)
        cache.clear()
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)


class TestModelledUs:
    def test_modelled_us_matches_incremental_elapsed(self):
        # modelled_us must be the *incremental* sum so it equals
        # elapsed_us of a hook-free replay bit for bit
        rng = np.random.default_rng(0)
        times = tuple(float(t) for t in rng.uniform(0.3, 7.0, size=40))
        graph = LaunchGraph(
            device=A100_SPEC,
            launches=tuple(launch(name=f"k{i}") for i in range(40)),
            times_us=times,
        )
        ctx = ExecutionContext(A100_SPEC)
        graph.replay(ctx)
        assert ctx.elapsed_us() == graph.modelled_us
