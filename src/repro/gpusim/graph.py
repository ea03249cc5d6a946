"""Execution-graph capture & replay — the CUDA Graphs analog.

For a fixed ``(config, preset, lengths-signature)`` the kernel-launch
stream of a forward pass is fully deterministic: the same descriptors in
the same order with the same modelled times.  Yet the eager path re-runs
Python dispatch, descriptor construction and occupancy/roofline pricing
on every call.  A :class:`LaunchGraph` freezes one captured stream —
``(KernelLaunch, modelled time)`` pairs in dependency order — and
:meth:`LaunchGraph.replay` re-emits it into any context on the same
device, skipping all per-kernel recomputation while producing a
**bit-identical** record stream (same launches, same ``time_us``, same
``start_us`` accumulation) and therefore an identical ``modelled_us``.

Fault composition (the PR 2 launch hook) is first-class: replay feeds
every launch through the target context's :data:`~repro.gpusim.stream.LaunchHook`
exactly as eager execution would, so a seeded
:class:`~repro.serving.faults.FaultPlan` injects the *same* fault
sequence over a replayed stream as over an eager one.  A fault aborts
only the affected call — the graph itself is immutable, so a mid-replay
``TransientFault`` can never corrupt the cache.  Capture, conversely,
must always happen on a hook-free context (see :func:`capture`): a
hooked capture would bake latency spikes into the cached times.

Replay into a *fresh* context (no records, elapsed 0.0) costs
O(eligible launches), not O(launches).  Each graph holds the prefix sums
of its times, accumulated in the context's own order, and, per target
prefix tuple, the indices of the launches a
:class:`~repro.gpusim.stream.TargetedLaunchHook` (a ``FaultPlan``) can
touch.  Only those launches reach the hook, in order; the context adopts
the stream's prefix lazily (see
:meth:`~repro.gpusim.stream.ExecutionContext.adopt_prefix`), so the
records are built only if something reads them.  A fault leaves the
prefix up to the faulted launch; a stretched launch is appended eagerly
and the per-launch loop takes over from the next one.  A non-fresh
context, a :class:`~repro.gpusim.stream.NullContext` or any other hook
takes the per-launch loop from the start.

:class:`GraphCache` is the LRU keyed store with the hit/miss/eviction
counters that :mod:`repro.gpusim.profiler` surfaces.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Callable, Hashable

from repro.gpusim.device import DeviceSpec
from repro.gpusim.interconnect import ClusterSpec
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.stream import (
    ExecutionContext,
    NullContext,
    TargetedLaunchHook,
    targeted_hook,
)
from repro.telemetry import current_telemetry


@dataclass(frozen=True)
class LaunchGraph:
    """One captured kernel-launch stream: descriptors + modelled times.

    Immutable by construction (frozen dataclass over tuples): replaying
    can never mutate the captured stream, which is what guarantees a
    fault during replay only affects that call.
    """

    device: DeviceSpec
    launches: tuple[KernelLaunch, ...]
    times_us: tuple[float, ...]
    #: the interconnect topology the stream was captured on (``None``
    #: for single-device captures).  Replay refuses a different
    #: topology: collective prices are a function of the cluster, so a
    #: cross-topology replay would smuggle one fabric's timings onto
    #: another.
    cluster: ClusterSpec | None = None
    #: ``starts_us[i]`` is launch ``i``'s start on a fresh context and
    #: ``starts_us[-1]`` the stream's total: the running sum of
    #: ``times_us`` from 0.0, in the order a context accumulates it
    starts_us: tuple[float, ...] = field(init=False, repr=False, compare=False)
    #: eligible launch indices per hook target-prefix tuple
    _eligible: dict[tuple[str, ...], tuple[int, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if len(self.launches) != len(self.times_us):
            raise ValueError(
                f"{len(self.launches)} launches but "
                f"{len(self.times_us)} times"
            )
        object.__setattr__(
            self, "starts_us", tuple(accumulate(self.times_us, initial=0.0))
        )

    @classmethod
    def from_context(cls, ctx: ExecutionContext) -> "LaunchGraph":
        """Freeze ``ctx``'s recorded timeline into a replayable graph."""
        return cls(
            device=ctx.device,
            launches=tuple(r.launch for r in ctx.records),
            times_us=tuple(r.time_us for r in ctx.records),
            cluster=ctx.cluster,
        )

    def __len__(self) -> int:
        return len(self.launches)

    @property
    def modelled_us(self) -> float:
        """Fault-free total time of the stream: the last prefix sum, so it
        equals ``elapsed_us`` of a hook-free replay bit for bit."""
        return self.starts_us[-1]

    def eligible(self, prefixes: tuple[str, ...]) -> tuple[int, ...]:
        """Indices of the launches whose name starts with one of
        ``prefixes`` (every launch for ``()``), cached per tuple."""
        indices = self._eligible.get(prefixes)
        if indices is None:
            indices = tuple(
                i
                for i, launch in enumerate(self.launches)
                if not prefixes or launch.name.startswith(prefixes)
            )
            self._eligible[prefixes] = indices
        return indices

    def replay(self, ctx: ExecutionContext) -> float:
        """Re-emit the captured stream into ``ctx``; returns the delta
        modelled time.

        Each launch goes through ``ctx``'s launch hook (if installed)
        exactly as an eager launch would — the hook may raise a
        :class:`~repro.gpusim.errors.TransientFault`, aborting the
        replay with the context's timeline consistent up to the fault,
        or stretch individual latencies.  The captured base times are
        the ones :func:`~repro.gpusim.timing.kernel_time_us` would
        recompute, so the replayed records are bit-identical to eager
        execution.

        Into a fresh context with no hook or a
        :class:`~repro.gpusim.stream.TargetedLaunchHook`, only eligible
        launches are visited (see the module docstring); the result,
        the records and the hook's effects are the same.
        """
        if ctx.device != self.device:
            raise ValueError(
                f"graph captured on {self.device.name!r} cannot replay "
                f"on {ctx.device.name!r}"
            )
        if ctx.cluster != self.cluster:
            mine = self.cluster.name if self.cluster else "single-device"
            theirs = ctx.cluster.name if ctx.cluster else "single-device"
            raise ValueError(
                f"graph captured on topology {mine!r} cannot replay on "
                f"{theirs!r}"
            )
        hook = ctx.launch_hook
        owner = targeted_hook(hook)
        if (
            (hook is None or owner is not None)
            and ctx.is_fresh()
            and not isinstance(ctx, NullContext)
        ):
            return self._replay_fresh(ctx, owner)
        before = ctx.elapsed_us()
        self._replay_each(ctx)
        return ctx.elapsed_us() - before

    def _replay_each(self, ctx: ExecutionContext, first: int = 0) -> None:
        """The per-launch loop: every launch from ``first`` on goes
        through :meth:`ExecutionContext.replay_launch` and its hook."""
        replay_launch = ctx.replay_launch
        for launch, time_us in zip(
            self.launches[first:], self.times_us[first:]
        ):
            replay_launch(launch, time_us)

    def _replay_fresh(
        self, ctx: ExecutionContext, owner: TargetedLaunchHook | None
    ) -> float:
        """Replay into a fresh context visiting only eligible launches."""
        prefixes = owner.launch_targets if owner is not None else None
        if prefixes is not None:
            hook = owner.on_launch
            for i in self.eligible(prefixes):
                launch = self.launches[i]
                try:
                    factor = hook(launch, i)
                except BaseException:
                    ctx.adopt_prefix(
                        self.launches, self.times_us, self.starts_us, i
                    )
                    raise
                if factor != 1.0:
                    ctx.adopt_prefix(
                        self.launches, self.times_us, self.starts_us, i
                    )
                    ctx.append_record(launch, self.times_us[i] * factor)
                    self._replay_each(ctx, i + 1)
                    return ctx.elapsed_us()
        ctx.adopt_prefix(
            self.launches, self.times_us, self.starts_us, len(self)
        )
        return self.starts_us[-1]


def capture(
    device: DeviceSpec,
    fn: Callable[[ExecutionContext], Any],
    cluster: ClusterSpec | None = None,
) -> tuple[LaunchGraph, Any]:
    """Run ``fn`` against a fresh hook-free context and freeze its stream.

    Returns ``(graph, fn's return value)``.  The capture context never
    has a launch hook: captured times are clean base times, and a fault
    plan installed on the caller's context keeps its ordinal counter
    untouched until the stream is actually replayed.  ``cluster`` gives
    the capture context an interconnect (required when ``fn`` launches
    collectives) and stamps the graph's topology guard.
    """
    ctx = ExecutionContext(device, cluster=cluster)
    result = fn(ctx)
    return LaunchGraph.from_context(ctx), result


class GraphCache:
    """LRU cache of :class:`LaunchGraph` keyed by the call signature.

    Keys are caller-built hashable tuples — typically
    ``(device, config, preset, mha-path, max_seq_len, lengths-bytes)``;
    anything that changes the launch stream must be in the key, which is
    exactly the invalidation rule: a new lengths signature, a different
    preset or a forced attention path is a different key, and a fault
    only aborts one replay without touching the stored graph.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: graphs captured (eager passes that got frozen) / replayed,
        #: split per key kind — see :meth:`kind_counts`
        self.captures = 0
        self.replays = 0
        self._kind_counts: dict[str, dict[str, int]] = {}
        self._entries: OrderedDict[Hashable, LaunchGraph] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.captures = 0
        self.replays = 0
        self._kind_counts = {}

    @staticmethod
    def _kind_of(key: Hashable) -> str:
        """Key kind for the eager/replayed split: the leading string tag
        of tagged keys (``"estimate"``, ``"tile"``, ``"decode"`` for the
        mixed prefill/decode round keys), else ``"model"``."""
        if isinstance(key, tuple) and key and isinstance(key[0], str):
            return key[0]
        return "model"

    def _bump(self, key: Hashable, counter: str) -> None:
        kind = self._kind_counts.setdefault(
            self._kind_of(key), {"captures": 0, "replays": 0}
        )
        kind[counter] += 1

    def kind_counts(self) -> dict[str, dict[str, int]]:
        """Eager-capture vs replay counts per key kind.

        ``{"tile": {"captures": 3, "replays": 240}, ...}`` — the serving
        observability for shape quantization: a healthy continuous
        deployment shows a handful of ``tile`` captures (one per live
        tile) against a large replay count, while a per-dispatch batcher
        scatters captures across unique length signatures.  Decode
        serving reports the same shape under the ``decode`` kind (one
        capture per quantized round shape).
        """
        return {k: dict(v) for k, v in self._kind_counts.items()}

    def get(self, key: Hashable) -> LaunchGraph | None:
        """The cached graph for ``key``, or ``None`` (counted as a miss)."""
        graph = self._entries.get(key)
        if graph is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self.replays += 1
        self._bump(key, "replays")
        return graph

    def put(self, key: Hashable, graph: LaunchGraph) -> LaunchGraph:
        """Insert ``graph`` under ``key``, evicting the LRU entry if full.

        A ``put`` is counted as a capture: both call sites freeze a
        freshly-run eager stream immediately before storing it.
        """
        self._entries[key] = graph
        self._entries.move_to_end(key)
        self.captures += 1
        self._bump(key, "captures")
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return graph

    def replay_or_capture(
        self,
        key: Hashable,
        ctx: ExecutionContext,
        fn: Callable[[ExecutionContext], Any],
    ) -> float:
        """Replay ``key``'s graph into ``ctx``, capturing it first on a miss.

        On a miss ``fn`` runs against a fresh hook-free context (clean
        capture), the graph is cached, and only then is the stream
        replayed through ``ctx`` — so hooks observe exactly one pass over
        the launch sequence, the same as eager execution.  Returns the
        delta modelled time in ``ctx``.

        When a :class:`~repro.telemetry.Telemetry` is installed (and the
        caller is its owner thread), a miss records a ``graph.capture``
        instant and every replay is wrapped in a ``graph.replay`` span
        spanning the replayed modelled time — observation only, so the
        cached graphs and the replayed stream are bit-identical with
        telemetry on or off.
        """
        tel = current_telemetry()
        if tel is not None and not tel.owns_current_thread():
            tel = None
        kind = self._kind_of(key)
        graph = self.get(key)
        if graph is None:
            if tel is not None:
                tel.tracer.instant(
                    "graph.capture", category="graph", key_kind=kind
                )
            graph, _ = capture(ctx.device, fn, cluster=ctx.cluster)
            self.put(key, graph)
        if tel is None:
            return graph.replay(ctx)
        span = tel.tracer.begin(
            "graph.replay",
            category="graph",
            key_kind=kind,
            launches=len(graph),
        )
        try:
            delta = graph.replay(ctx)
        except BaseException:
            # a mid-replay fault: close the span at the cursor so the
            # enclosing attempt span can still end cleanly
            tel.tracer.end(fault=True)
            raise
        tel.tracer.end(end_us=span.start_us + delta, modelled_us=delta)
        return delta
