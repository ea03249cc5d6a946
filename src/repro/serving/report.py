"""Per-request accounting for a chaos replay.

The core robustness contract is *no silent loss*: every request that
enters the runtime leaves it with exactly one recorded outcome — served
(possibly after retries, possibly at a degraded level), shed (by
admission control or its deadline), or failed (retry budget exhausted).
:class:`ServingReport` holds those outcomes plus the degradation
transitions and the fault-injection log, and renders latency percentiles
split by how the request was handled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.serving.degradation import LadderTransition
from repro.serving.faults import InjectedFault
from repro.telemetry import DEFAULT_LATENCY_BUCKETS_US, Histogram


class Outcome(enum.Enum):
    """Final disposition of one request."""

    SERVED = "served"
    SHED = "shed"
    FAILED = "failed"
    #: turned away at the gateway with explicit backpressure (rate
    #: limit / unknown tenant) — the client was *told* to go away,
    #: distinct from shedding work that had been accepted
    REJECTED = "rejected"


#: reasons attached to non-served outcomes
REASON_ADMISSION = "admission"
REASON_DEADLINE = "deadline"
REASON_RETRY_BUDGET = "retry-budget"
#: gateway reasons (see :mod:`repro.serving.gateway`): token-bucket
#: rejection with a retry-after, bounded-queue oldest-shed overflow
REASON_RATE_LIMIT = "rate-limit"
REASON_QUEUE_OVERFLOW = "queue-overflow"


@dataclass(frozen=True)
class RequestOutcome:
    """One request's final accounting entry."""

    request_id: int
    outcome: Outcome
    #: why a non-served request ended that way; empty for served
    reason: str
    #: end-to-end latency for served requests, else ``None``
    latency_us: float | None
    #: transient-fault retries the request's dispatch went through
    retries: int
    #: degradation level the request was finally handled at
    level: str
    #: owning tenant ("" for single-tenant traces)
    tenant: str = ""


@dataclass(frozen=True)
class ServingReport:
    """Everything a chaos replay is accountable for."""

    outcomes: tuple[RequestOutcome, ...]
    transitions: tuple[LadderTransition, ...]
    injected_faults: tuple[InjectedFault, ...]
    #: name of the ladder's top rung ("not degraded")
    top_level: str
    gpu_busy_us: float
    makespan_us: float
    #: served numeric outputs by request id (empty when the runtime ran
    #: on the cost plane only); never part of equality/log comparisons
    outputs: dict[int, np.ndarray] = field(default_factory=dict, compare=False)
    #: per-device modelled busy time; ``(gpu_busy_us,)`` on one device
    device_busy_us: tuple[float, ...] = ()
    #: dispatches executed away from their routed home device
    work_steals: int = 0

    def by_outcome(self, outcome: Outcome) -> tuple[RequestOutcome, ...]:
        return tuple(o for o in self.outcomes if o.outcome is outcome)

    def by_tenant(self, tenant: str) -> tuple[RequestOutcome, ...]:
        return tuple(o for o in self.outcomes if o.tenant == tenant)

    @property
    def tenants(self) -> tuple[str, ...]:
        """Distinct tenants in outcome order (single-tenant: ``("",)``)."""
        seen: dict[str, None] = {}
        for o in self.outcomes:
            seen.setdefault(o.tenant)
        return tuple(seen)

    @property
    def served(self) -> tuple[RequestOutcome, ...]:
        return self.by_outcome(Outcome.SERVED)

    @property
    def shed(self) -> tuple[RequestOutcome, ...]:
        return self.by_outcome(Outcome.SHED)

    @property
    def failed(self) -> tuple[RequestOutcome, ...]:
        return self.by_outcome(Outcome.FAILED)

    @property
    def rejected(self) -> tuple[RequestOutcome, ...]:
        return self.by_outcome(Outcome.REJECTED)

    @property
    def num_requests(self) -> int:
        return len(self.outcomes)

    def counts(self) -> dict[str, int]:
        """Outcome tally, plus the retried/degraded served splits."""
        served = self.served
        return {
            "served": len(served),
            "served-retried": sum(1 for o in served if o.retries > 0),
            "served-degraded": sum(
                1 for o in served if o.level != self.top_level
            ),
            "shed": len(self.shed),
            "failed": len(self.failed),
            "rejected": len(self.rejected),
        }

    def latency_summary(self) -> dict[str, dict[str, float]]:
        """p50/p95/p99/mean (ms) for served requests, split by handling.

        Groups: ``all`` served requests, ``clean`` (no retries, top
        level), ``retried`` and ``degraded`` (overlapping splits).
        """
        groups = {
            "all": self.served,
            "clean": tuple(
                o
                for o in self.served
                if o.retries == 0 and o.level == self.top_level
            ),
            "retried": tuple(o for o in self.served if o.retries > 0),
            "degraded": tuple(
                o for o in self.served if o.level != self.top_level
            ),
        }
        summary: dict[str, dict[str, float]] = {}
        for name, group in groups.items():
            if not group:
                continue
            # the telemetry Histogram keeps exact samples, so its
            # percentiles match np.percentile over the raw latencies
            hist = Histogram(
                "request_latency_ms",
                labels=(("group", name),),
                buckets=[b / 1000.0 for b in DEFAULT_LATENCY_BUCKETS_US],
            )
            for o in group:
                hist.observe(o.latency_us / 1000.0)
            quantiles = hist.percentiles((50.0, 95.0, 99.0))
            summary[name] = {
                "count": float(hist.count),
                "mean_ms": hist.mean,
                "p50_ms": quantiles["p50"],
                "p95_ms": quantiles["p95"],
                "p99_ms": quantiles["p99"],
            }
        return summary

    def outcome_log(self) -> tuple[tuple, ...]:
        """Canonical, comparable form of the per-request outcomes.

        Two chaos replays of the same trace with the same fault seed must
        produce equal logs — this is what the determinism tests compare.
        """
        return tuple(
            (
                o.request_id,
                o.outcome.value,
                o.reason,
                o.retries,
                o.level,
                None if o.latency_us is None else round(o.latency_us, 6),
            )
            for o in self.outcomes
        )

    def fault_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for fault in self.injected_faults:
            counts[fault.kind] = counts.get(fault.kind, 0) + 1
        return counts

    def render_text(self) -> str:
        """Human-readable chaos replay summary."""
        lines = [
            f"serving report: {self.num_requests} requests, "
            f"makespan {self.makespan_us / 1000:.2f} ms, "
            f"GPU busy {self.gpu_busy_us / 1000:.2f} ms",
        ]
        counts = self.counts()
        lines.append(
            "  outcomes: "
            + ", ".join(f"{k}={v}" for k, v in counts.items())
        )
        faults = self.fault_counts()
        lines.append(
            "  injected faults: "
            + (
                ", ".join(f"{k}={v}" for k, v in sorted(faults.items()))
                if faults
                else "none"
            )
        )
        for name, stats in self.latency_summary().items():
            lines.append(
                f"  latency[{name}] n={int(stats['count'])}: "
                f"mean {stats['mean_ms']:.2f} ms, "
                f"p50 {stats['p50_ms']:.2f}, "
                f"p95 {stats['p95_ms']:.2f}, "
                f"p99 {stats['p99_ms']:.2f}"
            )
        return "\n".join(lines + self.transition_lines())

    def transition_lines(self) -> list[str]:
        """The degradation story, one rendered line per transition."""
        if not self.transitions:
            return ["  degradation transitions: none"]
        return ["  degradation transitions:"] + [
            f"    {t.time_us / 1000:10.2f} ms  "
            f"{t.from_level} -> {t.to_level}  ({t.reason})"
            for t in self.transitions
        ]
