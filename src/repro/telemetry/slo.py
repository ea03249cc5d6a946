"""The SLO layer: deadline attainment and error-budget burn.

An :class:`SloPolicy` states the objectives (minimum served fraction,
optionally a latency objective at a quantile); :class:`SloReport`
evaluates one replay against them, computed straight from the metrics
registry the serving runtime populated — the same counters and the same
exact-quantile histogram the Prometheus exposition exports, so the SLO
verdict can never disagree with the exported series.

Error-budget semantics follow the SRE convention: a policy with a 99%
success target grants a 1% error budget per trace; the *burn* is the
achieved bad fraction divided by that budget (1.0 = exactly spent,
>1 = violated).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.telemetry.metrics import Counter, Histogram, MetricsRegistry

if TYPE_CHECKING:  # avoid the telemetry -> observe -> telemetry cycle
    from repro.observe.tail import TailForensics

# ----------------------------------------------------------------------
# canonical serving metric names (what the runtime populates and the
# SLO layer + exporters read)

REQUESTS_TOTAL = "serving_requests_total"
SHED_TOTAL = "serving_shed_total"
FAULTS_TOTAL = "serving_faults_total"
RETRIES_TOTAL = "serving_retries_total"
DEADLINE_REQUESTS_TOTAL = "serving_deadline_requests_total"
DEADLINE_MET_TOTAL = "serving_deadline_met_total"
DEGRADATIONS_TOTAL = "serving_degradations_total"
REQUEST_LATENCY_US = "serving_request_latency_us"
REQUEST_RETRIES = "serving_request_retries"
BATCH_FILL_RATIO = "serving_batch_fill_ratio"
VALID_TOKEN_UTILIZATION = "serving_valid_token_utilization"
US_PER_TOKEN = "serving_us_per_token"
BACKOFF_US = "serving_backoff_us"
ADMISSION_BACKLOG_US = "serving_admission_backlog_us"
QUEUE_DEPTH = "batcher_queue_depth"
GRAPH_REPLAY_HIT_RATE = "serving_graph_replay_hit_rate"
GPU_BUSY_US = "serving_gpu_busy_us"
MAKESPAN_US = "serving_makespan_us"
GPU_UTILIZATION = "serving_gpu_utilization"

# per-tenant series the multi-tenant gateway path populates (labelled
# by ``tenant`` — and ``outcome``/``reason`` where noted); the global
# single-tenant series above stay exactly as they were, so every
# pre-gateway consumer is untouched
TENANT_REQUESTS_TOTAL = "serving_tenant_requests_total"
TENANT_SHED_TOTAL = "serving_tenant_shed_total"
TENANT_DEADLINE_REQUESTS_TOTAL = "serving_tenant_deadline_requests_total"
TENANT_DEADLINE_MET_TOTAL = "serving_tenant_deadline_met_total"
TENANT_REQUEST_LATENCY_US = "serving_tenant_request_latency_us"
GATEWAY_REJECTED_TOTAL = "gateway_rejected_total"
GATEWAY_RETRY_AFTER_US = "gateway_retry_after_us"
GATEWAY_RELEASE_WAIT_US = "gateway_release_wait_us"

# decode serving & the paged KV arena; only populated by the
# generation runtime, so encoder-only consumers see an unchanged
# registry
DECODE_TOKENS_TOTAL = "serving_decode_tokens_total"
TTFT_US = "serving_ttft_us"
INTER_TOKEN_US = "serving_inter_token_us"
TENANT_DECODE_TOKEN_LATENCY_US = "serving_tenant_decode_token_latency_us"
KV_BYTES_LIVE = "kv_arena_bytes_live"
KV_BYTES_PEAK = "kv_arena_bytes_peak"
KV_BLOCK_OCCUPANCY = "kv_arena_block_occupancy"
KV_EVICTIONS_TOTAL = "kv_arena_evictions_total"

# multi-device sharded serving (labelled by ``device`` where noted);
# only populated when the runtime runs with > 1 device, so every
# single-device consumer sees an unchanged registry
DEVICE_BUSY_US = "serving_device_busy_us"
DEVICE_IMBALANCE = "serving_device_imbalance"
STEALS_TOTAL = "serving_work_steals_total"


@dataclass(frozen=True)
class SloPolicy:
    """Objectives one serving trace is judged against."""

    #: minimum fraction of requests that must be served (availability)
    success_target: float = 0.99
    #: optional latency objective in microseconds for served requests
    latency_target_us: float | None = None
    #: quantile (percent) the latency objective applies to
    latency_quantile: float = 99.0

    def __post_init__(self) -> None:
        if not 0.0 < self.success_target <= 1.0:
            raise ValueError(
                f"success_target must be in (0, 1], got {self.success_target}"
            )
        if self.latency_target_us is not None and self.latency_target_us <= 0:
            raise ValueError("latency_target_us must be positive")
        if not 0.0 < self.latency_quantile <= 100.0:
            raise ValueError(
                f"latency_quantile must be in (0, 100], got "
                f"{self.latency_quantile}"
            )


def _counter_sum(registry: MetricsRegistry, name: str) -> float:
    return sum(
        m.value for m in registry.family(name) if isinstance(m, Counter)
    )


@dataclass(frozen=True)
class SloReport:
    """One replay's attainment against an :class:`SloPolicy`."""

    policy: SloPolicy
    total: int
    served: int
    shed: int
    failed: int
    #: requests that carried a deadline / of those, finished inside it
    with_deadline: int
    deadline_met: int
    #: observed latency at ``policy.latency_quantile`` (``None`` when
    #: nothing was served)
    latency_quantile_us: float | None
    #: gateway rejections (rate limit / unknown tenant); they count
    #: against availability like sheds do
    rejected: int = 0
    #: tenant the report covers ("" = the whole replay)
    tenant: str = ""
    #: optional p99-vs-p50 cohort decomposition (attached by
    #: :meth:`with_tail`); excluded from equality so reports with and
    #: without forensics still compare on their SLO verdicts
    tail: "TailForensics | None" = field(default=None, compare=False)

    @classmethod
    def from_registry(
        cls, registry: MetricsRegistry, policy: SloPolicy | None = None
    ) -> "SloReport":
        """Evaluate the counters/histograms a runtime run populated."""
        policy = policy if policy is not None else SloPolicy()

        def outcome_count(outcome: str) -> int:
            return int(
                getattr(
                    registry.find(REQUESTS_TOTAL, outcome=outcome),
                    "value",
                    0,
                )
            )

        served = outcome_count("served")
        shed = outcome_count("shed")
        failed = outcome_count("failed")
        rejected = outcome_count("rejected")
        latency = registry.find(REQUEST_LATENCY_US)
        quantile_us = None
        if isinstance(latency, Histogram) and latency.count:
            quantile_us = latency.percentile(policy.latency_quantile)
        return cls(
            policy=policy,
            total=served + shed + failed + rejected,
            served=served,
            shed=shed,
            failed=failed,
            rejected=rejected,
            with_deadline=int(
                _counter_sum(registry, DEADLINE_REQUESTS_TOTAL)
            ),
            deadline_met=int(_counter_sum(registry, DEADLINE_MET_TOTAL)),
            latency_quantile_us=quantile_us,
        )

    @classmethod
    def for_tenant(
        cls,
        registry: MetricsRegistry,
        tenant: str,
        policy: SloPolicy | None = None,
    ) -> "SloReport":
        """One tenant's attainment, from the tenant-labelled series.

        Reads the ``serving_tenant_*`` counters/histogram the gateway
        path populates — the same registry the exporters dump, so the
        per-tenant verdict printed by ``repro loadtest`` can never
        disagree with the exported metrics.
        """
        policy = policy if policy is not None else SloPolicy()

        def outcome_count(outcome: str) -> int:
            return int(
                getattr(
                    registry.find(
                        TENANT_REQUESTS_TOTAL, tenant=tenant, outcome=outcome
                    ),
                    "value",
                    0,
                )
            )

        served = outcome_count("served")
        shed = outcome_count("shed")
        failed = outcome_count("failed")
        rejected = outcome_count("rejected")
        latency = registry.find(TENANT_REQUEST_LATENCY_US, tenant=tenant)
        quantile_us = None
        if isinstance(latency, Histogram) and latency.count:
            quantile_us = latency.percentile(policy.latency_quantile)
        with_deadline = int(
            getattr(
                registry.find(TENANT_DEADLINE_REQUESTS_TOTAL, tenant=tenant),
                "value",
                0,
            )
        )
        met = int(
            getattr(
                registry.find(TENANT_DEADLINE_MET_TOTAL, tenant=tenant),
                "value",
                0,
            )
        )
        return cls(
            policy=policy,
            total=served + shed + failed + rejected,
            served=served,
            shed=shed,
            failed=failed,
            rejected=rejected,
            with_deadline=with_deadline,
            deadline_met=met,
            latency_quantile_us=quantile_us,
            tenant=tenant,
        )

    # ------------------------------------------------------------------

    @property
    def availability(self) -> float:
        """Served fraction of all settled requests."""
        return self.served / self.total if self.total else 1.0

    @property
    def deadline_attainment(self) -> float | None:
        """Met fraction of deadline-carrying requests (``None`` if none)."""
        if not self.with_deadline:
            return None
        return self.deadline_met / self.with_deadline

    @property
    def error_budget(self) -> float:
        """Allowed bad fraction per trace (``1 - success_target``)."""
        return 1.0 - self.policy.success_target

    @property
    def budget_burn(self) -> float | None:
        """Bad fraction over budget; ``None`` for a zero-budget policy
        (a 100% target has no budget to burn)."""
        if self.error_budget == 0.0:
            return None
        return (1.0 - self.availability) / self.error_budget

    @property
    def availability_met(self) -> bool:
        return self.availability >= self.policy.success_target

    @property
    def latency_met(self) -> bool | None:
        """Latency objective verdict (``None`` when no objective/data)."""
        if (
            self.policy.latency_target_us is None
            or self.latency_quantile_us is None
        ):
            return None
        return self.latency_quantile_us <= self.policy.latency_target_us

    def with_tail(self, tail: "TailForensics | None") -> "SloReport":
        """The same report with tail forensics attached."""
        return replace(self, tail=tail)

    def render_text(self) -> str:
        """Human-readable SLO summary (printed next to the cache tables)."""
        policy = self.policy
        lines = [
            "== SLO ==",
            f"  availability: {self.availability:.2%} of "
            f"{self.total} requests served "
            f"(target {policy.success_target:.2%}: "
            f"{'met' if self.availability_met else 'MISSED'})",
        ]
        burn = self.budget_burn
        if burn is not None:
            lines.append(
                f"  error budget: {self.error_budget:.2%} allowed, "
                f"{1.0 - self.availability:.2%} spent "
                f"(burn {burn:.2f}x)"
            )
        attainment = self.deadline_attainment
        if attainment is not None:
            lines.append(
                f"  deadline attainment: {attainment:.2%} of "
                f"{self.with_deadline} deadline-carrying requests"
            )
        else:
            lines.append("  deadline attainment: n/a (no deadlines)")
        if self.latency_quantile_us is not None:
            verdict = ""
            if self.latency_met is not None:
                verdict = (
                    f" (target {policy.latency_target_us / 1000:.2f} ms: "
                    f"{'met' if self.latency_met else 'MISSED'})"
                )
            lines.append(
                f"  latency p{policy.latency_quantile:g}: "
                f"{self.latency_quantile_us / 1000:.2f} ms{verdict}"
            )
        if self.tail is not None:
            lines.extend(self.tail.render_lines())
        return "\n".join(lines)
