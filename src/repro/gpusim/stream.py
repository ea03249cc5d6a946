"""Execution contexts: where kernels record their launches.

Numerical kernels accept an optional context; when given one, they call
:meth:`ExecutionContext.launch` with their cost descriptor.  The context
prices the launch against its device and accumulates a timeline.  A
:class:`NullContext` can be used when only the numerics are wanted.

A module-level *current context* (managed with :func:`use_context`) lets
deeply nested code record launches without threading the context through
every call signature; explicit passing always takes precedence.

A context's :attr:`ExecutionContext.records` are materialised lazily.
A graph replay into a fresh context (see
:meth:`repro.gpusim.graph.LaunchGraph.replay`) only adopts the captured
stream's prefix sums; the :class:`KernelRecord` objects are built, bit
for bit as the per-launch path would build them, the first time
anything reads ``records`` or appends to the context.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, Protocol, Sequence

from repro.gpusim.device import A100_SPEC, DeviceSpec
from repro.gpusim.errors import LaunchConfigError
from repro.gpusim.interconnect import ClusterSpec, collective_time_us
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.timing import kernel_time_us

#: per-launch interceptor: ``(launch, index) -> latency multiplier``.
#: ``index`` is the position the launch would take in ``records``.  The
#: hook may raise :class:`~repro.gpusim.errors.TransientFault` to make
#: the launch fail (the record is then *not* appended, so the context's
#: timeline stays consistent up to the fault).  Returning 1.0 leaves the
#: launch untouched; a larger factor models a latency spike.
LaunchHook = Callable[[KernelLaunch, int], float]


class TargetedLaunchHook(Protocol):
    """An object whose bound ``on_launch`` is a launch hook that acts
    only on a declared subset of launches.

    :attr:`launch_targets` is ``None`` when the hook can touch no launch
    at all, else the kernel-name prefixes of the launches it may act on
    (``()`` for every launch).  For any other launch ``on_launch`` must
    return exactly 1.0 and change no state.  Graph replay relies on
    that promise to call the hook only for eligible launches; any other
    hook sees every launch.
    """

    @property
    def launch_targets(self) -> tuple[str, ...] | None: ...

    def on_launch(self, launch: KernelLaunch, index: int) -> float: ...


def targeted_hook(hook: LaunchHook | None) -> TargetedLaunchHook | None:
    """The :class:`TargetedLaunchHook` behind ``hook``, if ``hook`` is
    exactly its bound ``on_launch``; else ``None``."""
    owner = getattr(hook, "__self__", None)
    if hasattr(type(owner), "launch_targets") and hook == owner.on_launch:
        return owner
    return None


@dataclass(frozen=True)
class KernelRecord:
    """One priced kernel launch on a context's timeline."""

    launch: KernelLaunch
    time_us: float
    start_us: float

    @property
    def end_us(self) -> float:
        return self.start_us + self.time_us


class ExecutionContext:
    """Accumulates kernel launches and their modelled latencies.

    The context is serial (a single CUDA stream): kernels execute in the
    order they are recorded and total elapsed time is the sum of kernel
    latencies.  That matches the inference-serving setting in the paper,
    where one request's encoder runs as a dependent kernel chain.
    """

    def __init__(
        self,
        device: DeviceSpec = A100_SPEC,
        cluster: ClusterSpec | None = None,
    ) -> None:
        self.device = device
        #: the interconnect this stream's device belongs to; ``None``
        #: for a single-device context.  Collective launches require it
        #: — they are priced by the cluster's link model.
        self.cluster = cluster
        self._records: list[KernelRecord] = []
        #: a not-yet-materialised record prefix, ``(launches, times_us,
        #: starts_us, count)`` — see :meth:`adopt_prefix`
        self._lazy: tuple[
            Sequence[KernelLaunch], Sequence[float], Sequence[float], int
        ] | None = None
        self._elapsed_us = 0.0
        #: optional fault-injection hook (see :data:`LaunchHook`); the
        #: default ``None`` keeps the launch path byte-identical to a
        #: hook-free context
        self.launch_hook: LaunchHook | None = None

    @property
    def records(self) -> list[KernelRecord]:
        """The priced launches in order; a lazily adopted prefix is
        materialised on first access."""
        if self._lazy is not None:
            self._materialize()
        return self._records

    def _materialize(self) -> None:
        launches, times_us, starts_us, count = self._lazy
        self._lazy = None
        self._records[:0] = map(
            KernelRecord,
            launches[:count],
            times_us[:count],
            starts_us[:count],
        )

    def is_fresh(self) -> bool:
        """No launch recorded (eagerly or lazily) and no elapsed time."""
        return (
            self._lazy is None
            and not self._records
            and self._elapsed_us == 0.0
        )

    def adopt_prefix(
        self,
        launches: Sequence[KernelLaunch],
        times_us: Sequence[float],
        starts_us: Sequence[float],
        count: int,
    ) -> None:
        """Make the first ``count`` launches of a captured stream this
        fresh context's timeline without building their records.

        ``starts_us`` holds the stream's prefix sums (``starts_us[i]``
        is launch ``i``'s start, ``starts_us[count]`` the end of the
        adopted prefix), accumulated exactly as :meth:`replay_launch`
        accumulates :attr:`_elapsed_us`, so the records materialised
        later are bit-identical to a per-launch replay's.
        """
        if not self.is_fresh():
            raise ValueError("adopt_prefix needs a fresh context")
        if count:
            self._lazy = (launches, times_us, starts_us, count)
        self._elapsed_us = starts_us[count]

    def _price(self, launch: KernelLaunch) -> float:
        """Base modelled time: device roofline, or the cluster link
        model for collectives (see :mod:`repro.gpusim.interconnect`)."""
        if launch.is_collective:
            if self.cluster is None:
                raise LaunchConfigError(
                    f"collective launch {launch.name!r} on a context "
                    "without a cluster; pass cluster= to ExecutionContext"
                )
            return collective_time_us(launch, self.cluster)
        return kernel_time_us(launch, self.device)

    def launch(self, launch: KernelLaunch) -> KernelRecord:
        """Price ``launch`` on this context's device and append it.

        When a :attr:`launch_hook` is installed it runs first and may
        raise a transient fault (aborting the launch before anything is
        recorded) or stretch the modelled latency.
        """
        time_us = self._price(launch)
        if self.launch_hook is not None:
            time_us *= self.launch_hook(launch, len(self.records))
        return self.append_record(launch, time_us)

    def replay_launch(
        self, launch: KernelLaunch, base_time_us: float
    ) -> KernelRecord:
        """Append a launch whose base price is already known.

        This is the graph-replay fast path: identical to :meth:`launch`
        except the :func:`~repro.gpusim.timing.kernel_time_us` pricing is
        skipped — the captured ``base_time_us`` *is* that price, so the
        appended record is bit-identical to an eager launch.  The
        :attr:`launch_hook` still runs (faults and latency spikes must
        fire on replayed launches exactly as on eager ones).
        """
        time_us = base_time_us
        if self.launch_hook is not None:
            time_us *= self.launch_hook(launch, len(self.records))
        return self.append_record(launch, time_us)

    def append_record(
        self, launch: KernelLaunch, time_us: float
    ) -> KernelRecord:
        """Append ``launch`` at its final modelled time (no pricing, no
        hook) to the end of the timeline."""
        record = KernelRecord(
            launch=launch, time_us=time_us, start_us=self._elapsed_us
        )
        self.records.append(record)
        self._elapsed_us += time_us
        return record

    def elapsed_us(self) -> float:
        """Total modelled time of all recorded launches."""
        return self._elapsed_us

    def kernel_count(self) -> int:
        return len(self.records)

    def total_flops(self) -> float:
        return sum(r.launch.flops for r in self.records)

    def total_dram_bytes(self) -> float:
        return sum(r.launch.dram_bytes for r in self.records)

    def reset(self) -> None:
        self._lazy = None
        self._records.clear()
        self._elapsed_us = 0.0

    def fork(self) -> "ExecutionContext":
        """A fresh context on the same device (for measuring a sub-region)."""
        return ExecutionContext(self.device, cluster=self.cluster)

    def merge(self, other: "ExecutionContext") -> None:
        """Append another context's records, shifting their timestamps."""
        base = self._elapsed_us
        for record in other.records:
            self.records.append(
                KernelRecord(
                    launch=record.launch,
                    time_us=record.time_us,
                    start_us=base + record.start_us,
                )
            )
        self._elapsed_us += other._elapsed_us


class NullContext(ExecutionContext):
    """Context that prices nothing — for numerics-only runs."""

    def __init__(self) -> None:
        super().__init__(A100_SPEC)

    def launch(self, launch: KernelLaunch) -> KernelRecord:  # noqa: D102
        return KernelRecord(launch=launch, time_us=0.0, start_us=0.0)

    def replay_launch(  # noqa: D102
        self, launch: KernelLaunch, base_time_us: float
    ) -> KernelRecord:
        return KernelRecord(launch=launch, time_us=0.0, start_us=0.0)


_current: list[ExecutionContext] = []


def current_context() -> ExecutionContext | None:
    """The innermost active context, or ``None``."""
    return _current[-1] if _current else None


@contextlib.contextmanager
def use_context(ctx: ExecutionContext) -> Iterator[ExecutionContext]:
    """Make ``ctx`` the current context within the ``with`` block."""
    _current.append(ctx)
    try:
        yield ctx
    finally:
        popped = _current.pop()
        assert popped is ctx, "use_context stack corrupted"


def resolve_context(ctx: ExecutionContext | None) -> ExecutionContext:
    """Explicit context, else the current one, else a NullContext."""
    if ctx is not None:
        return ctx
    active = current_context()
    if active is not None:
        return active
    return NullContext()
