"""Graceful degradation: step pricing down under pressure, back up after.

A :class:`DegradationLadder` holds an ordered list of
:class:`DegradationLevel` rungs, most aggressive first.  Each rung names
an attention dispatch path (``fused`` / ``zeropad`` / ``cublas`` —
forced through :func:`repro.attention.dispatch.force_mha_path`, walking
the fused MHA back to conservative batched-GEMM kernels), optionally
pins the exact GELU, and names a decode pricing path.  Every rung
computes the same function, so stepping down never changes served
outputs.  Rungs do not switch the host execution engine: the
``vectorized`` and ``looped`` engines give the same bits and the same
launch stream, so a looped rung could only make the host slower.

The ladder trips downward when enough incidents (injected faults or
deadline misses) land inside a sliding window, and recovers one rung at
a time once a cool-down passes without incident.  Every transition is
recorded with its simulated timestamp and reason so chaos replays can
assert the exact degradation story.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from repro.attention.dispatch import MHA_PATHS
from repro.telemetry import current_telemetry
from repro.telemetry.slo import DEGRADATIONS_TOTAL

#: incident kinds as they appear in transition reasons
FAULT = "fault"
DEADLINE_MISS = "deadline-miss"
BUDGET_BURN = "budget-burn"

#: decode pricing paths a rung can select: the batched paged varlen
#: kernel, or the conservative per-request looped chain
DECODE_PATHS = ("batched", "looped")


@dataclass(frozen=True)
class DegradationLevel:
    """One rung: an attention dispatch path and its numeric pins.

    ``exact_gelu`` pins the rung to the exact (erf) GELU formula via
    :func:`repro.kernels.activation.force_gelu_variant` even when the
    serving preset selected ``fast-gelu``: conservative rungs trade
    host speed for the bitwise reference numerics, the same direction
    every other knob on the ladder steps.  Under an exact preset the
    pin is an identity, so default serving stays bitwise unchanged.
    """

    name: str
    mha_path: str
    exact_gelu: bool = False
    #: which decode pricing path the rung uses — ``"batched"`` is the
    #: paged varlen kernel, ``"looped"`` walks every request through its
    #: own per-step kernel chain.  Numerics are identical on both (they
    #: share the per-head attention math); only the cost plane degrades,
    #: which is exactly what lets a round escape a fault targeting the
    #: batched kernel.
    decode_path: str = "batched"

    def __post_init__(self) -> None:
        if self.mha_path not in MHA_PATHS:
            raise ValueError(
                f"unknown MHA path {self.mha_path!r}; pick one of {MHA_PATHS}"
            )
        if self.decode_path not in DECODE_PATHS:
            raise ValueError(
                f"unknown decode path {self.decode_path!r}; pick one of "
                f"{DECODE_PATHS}"
            )


#: the default ladder, most aggressive first: full fused serving, then
#: fused serving without any fast-GELU approximation, then progressively
#: less fused attention kernels.  The second rung keeps its historical
#: name ``looped-host`` (from when it also switched the host engine):
#: it is a key in outcome logs and reports.
DEFAULT_LEVELS: tuple[DegradationLevel, ...] = (
    DegradationLevel("full", "fused"),
    DegradationLevel("looped-host", "fused", exact_gelu=True),
    DegradationLevel("zeropad-softmax", "zeropad", exact_gelu=True),
    DegradationLevel("unfused-cublas", "cublas", exact_gelu=True),
)

#: the decode serving ladder: the batched paged-varlen round, then the
#: per-request looped chain (same bits, conservative pricing, immune to
#: faults targeting the batched kernel)
DECODE_LEVELS: tuple[DegradationLevel, ...] = (
    DegradationLevel("decode-batched", "fused"),
    DegradationLevel(
        "decode-looped", "fused", exact_gelu=True, decode_path="looped"
    ),
)


@dataclass(frozen=True)
class LadderTransition:
    """One recorded level change."""

    time_us: float
    from_level: str
    to_level: str
    #: ``"fault-pressure"``, ``"deadline-pressure"`` or ``"recovered"``
    reason: str


class DegradationLadder:
    """Sliding-window trip-down / cool-down step-up level controller."""

    def __init__(
        self,
        levels: tuple[DegradationLevel, ...] = DEFAULT_LEVELS,
        *,
        trip_threshold: int = 3,
        window_us: float = 50_000.0,
        cooldown_us: float = 100_000.0,
    ) -> None:
        if not levels:
            raise ValueError("a ladder needs at least one level")
        if trip_threshold < 1:
            raise ValueError(
                f"trip_threshold must be >= 1, got {trip_threshold}"
            )
        if window_us <= 0 or cooldown_us <= 0:
            raise ValueError("window_us and cooldown_us must be positive")
        self.levels = tuple(levels)
        self.trip_threshold = trip_threshold
        self.window_us = window_us
        self.cooldown_us = cooldown_us
        self.transitions: list[LadderTransition] = []
        self._idx = 0
        #: a min-heap of the times of incidents inside the window
        self._incidents: list[float] = []
        self._cooldown_until = 0.0

    @property
    def level(self) -> DegradationLevel:
        """The active rung."""
        return self.levels[self._idx]

    @property
    def at_top(self) -> bool:
        return self._idx == 0

    def reset(self) -> None:
        """Back to the top rung with no history (start of a fresh run)."""
        self.transitions = []
        self._idx = 0
        self._incidents = []
        self._cooldown_until = 0.0

    def record_fault(self, now_us: float) -> None:
        """An injected/observed transient fault at simulated ``now_us``."""
        self._incident(now_us, FAULT)

    def record_deadline_miss(self, now_us: float) -> None:
        """A request shed for its deadline at simulated ``now_us``."""
        self._incident(now_us, DEADLINE_MISS)

    def record_budget_burn(self, now_us: float) -> None:
        """A latency-SLO tenant's error budget is burning at ``now_us``.

        The multi-tenant gateway path feeds this signal when a
        latency-SLO tenant's running error-budget burn exceeds 1.0:
        degradation then trips for the *batch-class* dispatches (which
        the runtime prices at the ladder's current rung) while SLO-class
        dispatches stay pinned to the top rung — batch tenants give up
        speed before SLO tenants give up anything.
        """
        self._incident(now_us, BUDGET_BURN)

    def record_success(self, now_us: float) -> None:
        """A dispatch served cleanly; may recover one rung after cool-down."""
        self._prune(now_us)
        if (
            self._idx > 0
            and not self._incidents
            and now_us >= self._cooldown_until
        ):
            self._step(now_us, self._idx - 1, "recovered")
            # climbing further requires another full quiet cool-down
            self._cooldown_until = now_us + self.cooldown_us

    def _incident(self, now_us: float, kind: str) -> None:
        self._prune(now_us)
        heappush(self._incidents, now_us)
        if (
            len(self._incidents) >= self.trip_threshold
            and self._idx < len(self.levels) - 1
        ):
            self._step(now_us, self._idx + 1, f"{kind}-pressure")
            self._incidents = []
            self._cooldown_until = now_us + self.cooldown_us

    def _prune(self, now_us: float) -> None:
        """Drop the incidents at or before ``now_us - window_us``.

        Incident times are not in order on multi-device runs, so the
        earliest is popped off a heap until one is inside the window:
        the survivors are exactly those a filter ``t > horizon`` over
        every incident would keep, in time proportional to what expires.
        """
        horizon = now_us - self.window_us
        incidents = self._incidents
        while incidents and incidents[0] <= horizon:
            heappop(incidents)

    def _step(self, now_us: float, to_idx: int, reason: str) -> None:
        from_level = self.levels[self._idx].name
        to_level = self.levels[to_idx].name
        self.transitions.append(
            LadderTransition(
                time_us=now_us,
                from_level=from_level,
                to_level=to_level,
                reason=reason,
            )
        )
        self._idx = to_idx
        tel = current_telemetry()
        if tel is not None and tel.owns_current_thread():
            tel.metrics.counter(
                DEGRADATIONS_TOTAL,
                help="ladder transitions by reason",
                reason=reason,
            ).inc()
            tel.tracer.instant(
                "ladder.step",
                category="degradation",
                t_us=now_us,
                from_level=from_level,
                to_level=to_level,
                reason=reason,
            )
