"""Seeded, deterministic fault injection for the serving runtime.

Real serving fleets see kernels fail for reasons no unit test provokes:
driver hiccups, transient allocator pressure from co-located work, and
stragglers.  A :class:`FaultPlan` turns those into *reproducible*
events: it is a seeded schedule that, installed as an
:class:`~repro.gpusim.stream.ExecutionContext` launch hook, makes chosen
kernel launches raise :class:`~repro.gpusim.errors.LaunchFailure` /
:class:`~repro.gpusim.errors.TransientOom` or stretch their latency by a
spike factor.  Every decision is one draw from a seeded RNG keyed by the
order eligible launches occur in, so the same seed replays the same
failure scenario bit for bit — chaos testing without flakiness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpusim.errors import LaunchFailure, TransientOom
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.stream import ExecutionContext

#: fault kinds as they appear in the injection log
LAUNCH_FAILURE = "launch-failure"
TRANSIENT_OOM = "transient-oom"
SLOW_KERNEL = "slow-kernel"
#: host-side process-worker faults (see FaultPlan.worker_verdict)
WORKER_KILL = "worker-kill"
WORKER_HANG = "worker-hang"


@dataclass(frozen=True)
class FaultSpec:
    """Rates and targeting of the injected fault mix.

    Each eligible launch draws one uniform number and lands in exactly
    one bucket: launch failure, transient OOM, latency spike, or clean.
    ``target_prefixes`` restricts eligibility to kernels whose name
    starts with one of the prefixes (empty = every kernel) — pointing it
    at ``("fused_mha", "fmha_")`` models the realistic case where only
    the aggressive fused kernels are flaky, so degrading to conservative
    kernels genuinely escapes the faults.
    """

    launch_failure_rate: float = 0.0
    transient_oom_rate: float = 0.0
    slow_rate: float = 0.0
    slow_factor: float = 4.0
    target_prefixes: tuple[str, ...] = ()
    #: host-side chaos: probability a forked process-worker chunk dies
    #: with a nonzero exit / hangs past the executor's wall-clock guard.
    #: Drawn per chunk from an independent seeded stream (see
    #: :meth:`FaultPlan.worker_verdict`), so enabling them never shifts
    #: the kernel-launch fault schedule.
    worker_kill_rate: float = 0.0
    worker_hang_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "launch_failure_rate",
            "transient_oom_rate",
            "slow_rate",
            "worker_kill_rate",
            "worker_hang_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.fault_rate > 1.0:
            raise ValueError(
                f"fault rates must sum to <= 1, got {self.fault_rate}"
            )
        if self.worker_kill_rate + self.worker_hang_rate > 1.0:
            raise ValueError(
                "worker_kill_rate + worker_hang_rate must be <= 1, got "
                f"{self.worker_kill_rate + self.worker_hang_rate}"
            )
        if self.slow_factor < 1.0:
            raise ValueError(
                f"slow_factor must be >= 1, got {self.slow_factor}"
            )

    @property
    def fault_rate(self) -> float:
        """Total probability an eligible launch misbehaves."""
        return self.launch_failure_rate + self.transient_oom_rate + self.slow_rate

    def targets(self, kernel_name: str) -> bool:
        """Whether this kernel is eligible for injection."""
        if not self.target_prefixes:
            return True
        return kernel_name.startswith(self.target_prefixes)


#: the fault-free spec: a plan built from it never injects anything
NO_FAULTS = FaultSpec()


@dataclass(frozen=True)
class InjectedFault:
    """One entry of a plan's injection log."""

    ordinal: int
    kernel: str
    kind: str


class FaultPlan:
    """A seeded fault schedule applied through the launch hook.

    The plan keeps its own ordinal counter over *eligible* launches so
    the decision for the N-th eligible launch depends only on ``seed``
    and N — replaying the same launch stream under the same seed
    reproduces the same faults, which is what makes chaos runs
    assertable in tests.  It implements
    :class:`~repro.gpusim.stream.TargetedLaunchHook`, so a graph replay
    into a fresh context calls it for eligible launches only.
    """

    def __init__(self, spec: FaultSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._ordinal = 0
        #: a zero-rate spec can neither fault nor stretch a launch
        self._inert = spec.fault_rate == 0.0
        self.injected: list[InjectedFault] = []

    @property
    def launch_targets(self) -> tuple[str, ...] | None:
        """The launches :meth:`on_launch` can touch, as the
        :class:`~repro.gpusim.stream.TargetedLaunchHook` protocol states
        them: ``None`` for a zero-rate spec, else its target prefixes."""
        return None if self._inert else self.spec.target_prefixes

    def on_launch(self, launch: KernelLaunch, index: int) -> float:
        """Launch-hook entry point: decide this launch's fate.

        A zero-rate spec can neither fault nor stretch a launch, so it
        draws nothing; that changes no observable outcome.
        """
        del index  # position in the plan, not the context, keys the draw
        if self._inert or not self.spec.targets(launch.name):
            return 1.0
        ordinal = self._ordinal
        self._ordinal += 1
        draw = float(self._rng.random())
        edge = self.spec.launch_failure_rate
        if draw < edge:
            self.injected.append(
                InjectedFault(ordinal, launch.name, LAUNCH_FAILURE)
            )
            raise LaunchFailure(
                f"injected launch failure: {launch.name!r} "
                f"(eligible launch #{ordinal})"
            )
        edge += self.spec.transient_oom_rate
        if draw < edge:
            self.injected.append(
                InjectedFault(ordinal, launch.name, TRANSIENT_OOM)
            )
            raise TransientOom(
                f"injected transient OOM: {launch.name!r} "
                f"(eligible launch #{ordinal})"
            )
        edge += self.spec.slow_rate
        if draw < edge:
            self.injected.append(
                InjectedFault(ordinal, launch.name, SLOW_KERNEL)
            )
            return self.spec.slow_factor
        return 1.0

    def worker_verdict(self, chunk_ordinal: int) -> str | None:
        """Seeded fate of the ``chunk_ordinal``-th forked worker chunk.

        Returns :data:`WORKER_KILL`, :data:`WORKER_HANG` or ``None``
        (healthy).  The draw is keyed by ``(seed, chunk_ordinal)`` on a
        stream independent of the launch-fault RNG, so worker chaos and
        kernel chaos compose without perturbing each other, and the
        parent can draw the verdict *before* forking (the RNG state
        never depends on child scheduling).  Injections land in the
        same :attr:`injected` log as kernel faults.
        """
        spec = self.spec
        if spec.worker_kill_rate <= 0.0 and spec.worker_hang_rate <= 0.0:
            return None
        draw = float(
            np.random.default_rng(
                [self.seed, 0xDEAD, chunk_ordinal]
            ).random()
        )
        if draw < spec.worker_kill_rate:
            self.injected.append(
                InjectedFault(chunk_ordinal, "process-worker", WORKER_KILL)
            )
            return WORKER_KILL
        if draw < spec.worker_kill_rate + spec.worker_hang_rate:
            self.injected.append(
                InjectedFault(chunk_ordinal, "process-worker", WORKER_HANG)
            )
            return WORKER_HANG
        return None

    def install(self, ctx: ExecutionContext) -> ExecutionContext:
        """Install this plan as ``ctx``'s launch hook; returns ``ctx``."""
        ctx.launch_hook = self.on_launch
        return ctx

    def fault_counts(self) -> dict[str, int]:
        """Injection log tallied by fault kind."""
        counts: dict[str, int] = {}
        for fault in self.injected:
            counts[fault.kind] = counts.get(fault.kind, 0) + 1
        return counts
