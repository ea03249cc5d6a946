"""Multi-tenant admission gateway: QoS, fairness and overload protection.

The gateway sits between open-loop traffic
(:mod:`repro.workloads.traffic`) and the
:class:`~repro.workloads.batching.ContinuousBatcher`.  Its job is the
one that actually decides whether transformer serving survives
production: converting an unbounded arrival stream into a bounded,
fairly-shared, reason-annotated admission stream.  Four mechanisms:

* **Token-bucket rate limiting** per tenant, denominated in *sequence
  tokens* (the resource the GPU actually spends), with an explicit
  ``retry_after_us`` on every rejection — backpressure the client can
  act on instead of a silent drop.
* **Bounded per-tenant queues** with an *oldest-shed* overload policy:
  when a tenant's queue is full, the oldest queued request is shed (it
  has burned the most deadline already and is the least likely to be
  worth serving) and the fresh arrival takes its place.  This bounds
  both memory and staleness.
* **Weighted-fair sharing** of the drain capacity via deficit round
  robin over Sigma-len: each round a tenant's deficit grows by
  ``weight * quantum`` tokens and it releases whole requests while the
  deficit covers them — so over any sustained-backlog interval tenant
  throughput (in tokens, the unit the GPU prices) converges to the
  configured weight ratio regardless of request sizes.
* **QoS classes with shed precedence**: a ``latency-slo`` tenant's
  requests are never shed by global overload pressure while any
  ``throughput-batch`` request is queued — batch tenants absorb the
  overload first (they have no deadline to blow), which is what keeps
  SLO attainment flat through a flash crowd.

The gateway runs as a seeded, deterministic pre-pass on the simulated
clock (the same plan-then-replay architecture the batchers use): it
walks arrivals in time order, drains a virtual server at the modelled
service rate between arrivals, and emits a :class:`GatewayResult` whose
conservation law — ``len(trace) == admitted + rejected + shed`` — the
runtime enforces on top of its own no-silent-loss contract.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

from repro.workloads.serving import Request, ServingTrace

__all__ = [
    "QosClass",
    "TokenBucket",
    "TenantPolicy",
    "AdmissionGateway",
    "GatewayResult",
    "ScheduledRequest",
    "GatewayEvent",
    "REASON_RATE_LIMIT",
    "REASON_QUEUE_OVERFLOW",
    "REASON_UNKNOWN_TENANT",
]

#: gateway-originated outcome reasons
REASON_RATE_LIMIT = "rate-limit"
REASON_QUEUE_OVERFLOW = "queue-overflow"
REASON_UNKNOWN_TENANT = "unknown-tenant"


class QosClass(enum.Enum):
    """How a tenant trades latency against throughput."""

    #: interactive traffic with a deadline SLO: protected from shedding
    #: and degradation for as long as batch traffic can absorb them
    LATENCY_SLO = "latency-slo"
    #: bulk traffic that absorbs overload: shed first, degraded first
    THROUGHPUT_BATCH = "throughput-batch"


class TokenBucket:
    """A deterministic token bucket on the simulated clock.

    Capacity ``burst`` tokens, refilled continuously at ``rate_per_us``.
    ``take`` is all-or-nothing; a failed take reports how long the
    caller must wait for the bucket to refill enough — the
    ``Retry-After`` the gateway attaches to rate-limit rejections.
    """

    def __init__(self, rate_per_us: float, burst: float) -> None:
        if rate_per_us <= 0 or burst <= 0:
            raise ValueError(
                f"rate_per_us and burst must be positive, got "
                f"{rate_per_us}, {burst}"
            )
        self.rate_per_us = rate_per_us
        self.burst = float(burst)
        self._level = float(burst)
        self._last_us = 0.0

    def _refill(self, now_us: float) -> None:
        if now_us > self._last_us:
            self._level = min(
                self.burst,
                self._level + (now_us - self._last_us) * self.rate_per_us,
            )
            self._last_us = now_us

    def level(self, now_us: float) -> float:
        self._refill(now_us)
        return self._level

    def take(self, now_us: float, amount: float) -> bool:
        """Take ``amount`` tokens at ``now_us``; False if short."""
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        self._refill(now_us)
        if amount > self.burst:
            # can never fit: permanently over the burst capacity
            return False
        if self._level >= amount:
            self._level -= amount
            return True
        return False

    def retry_after_us(self, now_us: float, amount: float) -> float:
        """How long until ``amount`` tokens could be available.

        ``inf`` for requests larger than the burst capacity — no amount
        of waiting makes those admissible.
        """
        self._refill(now_us)
        if amount > self.burst:
            return float("inf")
        deficit = amount - self._level
        if deficit <= 0:
            return 0.0
        return deficit / self.rate_per_us


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's admission contract."""

    name: str
    qos: QosClass = QosClass.LATENCY_SLO
    #: weighted-fair share of the drain capacity (relative)
    weight: float = 1.0
    #: sustained token rate (sequence tokens per second); ``None``
    #: disables rate limiting for the tenant
    rate_tokens_per_s: float | None = None
    #: burst capacity of the token bucket (tokens); defaults to one
    #: second's worth of the sustained rate
    burst_tokens: float | None = None
    #: bounded queue: most sequence tokens the tenant may have waiting
    max_queue_tokens: int = 16_384
    #: availability target the tenant's error budget is burned against
    slo_target: float = 0.99
    #: deadline-attainment floor for latency-SLO tenants (checked by
    #: ``repro loadtest --check``)
    attainment_target: float = 0.99
    #: per-generated-token latency target for decode serving: the
    #: tenant's inter-token gaps (and TTFT) should land under this.
    #: ``None`` leaves the tenant without a streaming SLO — encoder
    #: tenants and pre-decode configs are untouched.
    decode_slo_us: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a tenant policy needs a non-empty name")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.rate_tokens_per_s is not None and self.rate_tokens_per_s <= 0:
            raise ValueError("rate_tokens_per_s must be positive")
        if self.burst_tokens is not None and self.burst_tokens <= 0:
            raise ValueError("burst_tokens must be positive")
        if self.max_queue_tokens <= 0:
            raise ValueError("max_queue_tokens must be positive")
        if not 0.0 < self.slo_target <= 1.0:
            raise ValueError(
                f"slo_target must be in (0, 1], got {self.slo_target}"
            )
        if not 0.0 < self.attainment_target <= 1.0:
            raise ValueError(
                f"attainment_target must be in (0, 1], got "
                f"{self.attainment_target}"
            )
        if self.decode_slo_us is not None and self.decode_slo_us <= 0:
            raise ValueError(
                f"decode_slo_us must be positive, got {self.decode_slo_us}"
            )

    def make_bucket(self) -> TokenBucket | None:
        if self.rate_tokens_per_s is None:
            return None
        rate_per_us = self.rate_tokens_per_s / 1e6
        burst = (
            self.burst_tokens
            if self.burst_tokens is not None
            else self.rate_tokens_per_s  # one second of sustained rate
        )
        return TokenBucket(rate_per_us, burst)


@dataclass(frozen=True)
class GatewayEvent:
    """One request the gateway turned away, with its reason."""

    request: Request
    reason: str
    t_us: float
    #: for rate-limit rejections: when the client may retry (``inf`` if
    #: the request can never fit the bucket); ``None`` otherwise
    retry_after_us: float | None = None


@dataclass(frozen=True)
class ScheduledRequest:
    """An admitted request and the instant DRR released it downstream."""

    request: Request
    release_us: float


@dataclass(frozen=True)
class GatewayResult:
    """Everything the gateway decided for one trace.

    Conservation: every trace request appears in exactly one of
    ``admitted`` / ``rejected`` / ``shed`` (checked by
    :meth:`validate_conservation`).
    """

    admitted: tuple[ScheduledRequest, ...]
    rejected: tuple[GatewayEvent, ...]
    shed: tuple[GatewayEvent, ...]

    def validate_conservation(self, trace: ServingTrace) -> None:
        settled = sorted(
            [s.request.request_id for s in self.admitted]
            + [e.request.request_id for e in self.rejected]
            + [e.request.request_id for e in self.shed]
        )
        expected = sorted(r.request_id for r in trace.requests)
        if settled != expected:
            raise AssertionError(
                "gateway lost or duplicated requests: "
                f"settled {len(settled)} of {len(expected)}"
            )

    def per_tenant_counts(self) -> dict[str, dict[str, int]]:
        counts: dict[str, dict[str, int]] = {}

        def bump(tenant: str, key: str) -> None:
            entry = counts.setdefault(
                tenant, {"admitted": 0, "rejected": 0, "shed": 0}
            )
            entry[key] += 1

        for s in self.admitted:
            bump(s.request.tenant, "admitted")
        for e in self.rejected:
            bump(e.request.tenant, "rejected")
        for e in self.shed:
            bump(e.request.tenant, "shed")
        return counts


class _Backlog:
    """What every tenant of one pre-pass has queued, kept by the
    tenants' enqueue and dequeue so the drain loop never scans them."""

    __slots__ = ("requests", "tokens")

    def __init__(self) -> None:
        self.requests = 0
        self.tokens = 0


class _TenantState:
    """Mutable per-tenant gateway state during one pre-pass."""

    def __init__(self, policy: TenantPolicy, backlog: _Backlog) -> None:
        self.policy = policy
        self.bucket = policy.make_bucket()
        self.queue: deque[Request] = deque()
        self.queued_tokens = 0
        self.deficit = 0.0
        self.backlog = backlog

    def enqueue(self, request: Request) -> None:
        self.queue.append(request)
        self.queued_tokens += request.seq_len
        self.backlog.requests += 1
        self.backlog.tokens += request.seq_len

    def dequeue(self) -> Request:
        request = self.queue.popleft()
        self.queued_tokens -= request.seq_len
        self.backlog.requests -= 1
        self.backlog.tokens -= request.seq_len
        return request

    def shed_oldest(self) -> Request:
        return self.dequeue()


class AdmissionGateway:
    """Deterministic multi-tenant admission pre-pass.

    Parameters
    ----------
    policies:
        One :class:`TenantPolicy` per tenant the gateway serves.
        Requests from unknown tenants are rejected with
        :data:`REASON_UNKNOWN_TENANT` — admission is allow-listed, the
        safe default for a multi-tenant front door.
    service_rate_tokens_per_us:
        Drain capacity of the virtual server DRR shares: modelled GPU
        throughput in sequence tokens per simulated microsecond.
        ``None`` (the default) lets the serving runtime fill it in from
        its own cost model at the start of a run (see
        ``ServingRuntime.estimate_service_rate``).
    quantum_tokens:
        DRR quantum: tokens of deficit a weight-1.0 tenant earns per
        round.  Smaller quanta interleave tenants more finely; the
        default is one typical sequence.
    max_total_queue_tokens:
        Global bound on queued tokens across every tenant.  When an
        admission pushes the total over it, the gateway sheds the
        *oldest batch-class* queued request first; latency-SLO requests
        are only ever shed by global pressure once no batch-class
        request remains queued — the class-precedence invariant the
        preemption tests pin down.  ``None`` disables the global bound.
    """

    def __init__(
        self,
        policies: list[TenantPolicy] | tuple[TenantPolicy, ...],
        *,
        service_rate_tokens_per_us: float | None = None,
        quantum_tokens: int = 256,
        max_total_queue_tokens: int | None = None,
    ) -> None:
        if not policies:
            raise ValueError("the gateway needs at least one tenant policy")
        names = [p.name for p in policies]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant policies for {names}")
        if (
            service_rate_tokens_per_us is not None
            and service_rate_tokens_per_us <= 0
        ):
            raise ValueError(
                "service_rate_tokens_per_us must be positive, got "
                f"{service_rate_tokens_per_us}"
            )
        if quantum_tokens <= 0:
            raise ValueError(
                f"quantum_tokens must be positive, got {quantum_tokens}"
            )
        if max_total_queue_tokens is not None and max_total_queue_tokens <= 0:
            raise ValueError(
                "max_total_queue_tokens must be positive, got "
                f"{max_total_queue_tokens}"
            )
        self.max_total_queue_tokens = max_total_queue_tokens
        self.policies = {p.name: p for p in policies}
        self.service_rate = (
            float(service_rate_tokens_per_us)
            if service_rate_tokens_per_us is not None
            else None
        )
        self.quantum_tokens = int(quantum_tokens)

    def qos_of(self, tenant: str) -> QosClass:
        policy = self.policies.get(tenant)
        return policy.qos if policy is not None else QosClass.THROUGHPUT_BATCH

    # ------------------------------------------------------------------

    def process(self, trace: ServingTrace) -> GatewayResult:
        """Run the admission pre-pass over ``trace``.

        Walks arrivals in time order; between arrivals the virtual
        server drains queued requests at ``service_rate`` with DRR
        fairness.  Decisions depend only on ``(trace, policies,
        service_rate, quantum)`` — no randomness — so the same inputs
        always produce the same admissions, rejections and sheds.
        """
        if self.service_rate is None:
            raise ValueError(
                "gateway has no service rate; pass "
                "service_rate_tokens_per_us or run it through a "
                "ServingRuntime, which fills it in from the cost model"
            )
        backlog = _Backlog()
        states: dict[str, _TenantState] = {
            name: _TenantState(policy, backlog)
            for name, policy in self.policies.items()
        }
        order = list(states)  # DRR visit order: policy declaration order
        admitted: list[ScheduledRequest] = []
        rejected: list[GatewayEvent] = []
        shed: list[GatewayEvent] = []
        #: when the virtual drain server frees up
        server_free_us = 0.0
        #: persistent DRR cursor: which tenant's turn it is, and whether
        #: that turn has been granted its quantum yet.  The cursor MUST
        #: survive across drain calls — restarting the rotation at the
        #: first tenant every time a fresh arrival interrupts the drain
        #: would hand the whole server to the first backlogged tenant
        #: under dense arrivals (each drain window fits one turn), which
        #: is exactly the unfairness DRR exists to prevent.
        cursor = {"idx": 0, "fresh": True}

        def end_turn(state: _TenantState) -> None:
            if not state.queue:
                # an idle tenant accrues no deficit (standard DRR)
                state.deficit = 0.0
            cursor["idx"] += 1
            cursor["fresh"] = True

        def drain_until(now_us: float) -> None:
            """Release queued requests whose service fits before now."""
            nonlocal server_free_us
            while server_free_us <= now_us and backlog.requests:
                tenant = order[cursor["idx"] % len(order)]
                state = states[tenant]
                if not state.queue:
                    end_turn(state)
                    continue
                if cursor["fresh"]:
                    state.deficit += self.quantum_tokens * state.policy.weight
                    cursor["fresh"] = False
                while state.queue and (
                    state.deficit >= state.queue[0].seq_len
                ):
                    head = state.queue[0]
                    start = max(server_free_us, head.arrival_us)
                    if start > now_us:
                        # head arrives later; resume this turn (deficit
                        # and cursor kept) on a later drain call
                        return
                    state.dequeue()
                    state.deficit -= head.seq_len
                    server_free_us = start + head.seq_len / self.service_rate
                    admitted.append(
                        ScheduledRequest(head, release_us=start)
                    )
                    if server_free_us > now_us:
                        if not state.queue or (
                            state.deficit < state.queue[0].seq_len
                        ):
                            end_turn(state)
                        return
                # deficit exhausted (or queue empty): next tenant's turn
                end_turn(state)

        def overflow_shed(state: _TenantState, now_us: float) -> None:
            """Oldest-shed until the tenant's queue fits its bound."""
            while (
                state.queue
                and state.queued_tokens > state.policy.max_queue_tokens
            ):
                victim = state.shed_oldest()
                shed.append(
                    GatewayEvent(
                        victim, REASON_QUEUE_OVERFLOW, t_us=now_us
                    )
                )

        def global_shed(now_us: float) -> None:
            """Class-precedence oldest-shed against the global bound.

            Victims come from batch-class queues first (oldest arrival
            across them); a latency-SLO request is only shed once no
            batch-class request remains queued anywhere.
            """
            cap = self.max_total_queue_tokens
            if cap is None:
                return
            while backlog.tokens > cap:
                for qos in (QosClass.THROUGHPUT_BATCH, QosClass.LATENCY_SLO):
                    candidates = [
                        s
                        for s in states.values()
                        if s.queue and s.policy.qos is qos
                    ]
                    if candidates:
                        victim_state = min(
                            candidates,
                            key=lambda s: (
                                s.queue[0].arrival_us,
                                s.queue[0].request_id,
                            ),
                        )
                        shed.append(
                            GatewayEvent(
                                victim_state.shed_oldest(),
                                REASON_QUEUE_OVERFLOW,
                                t_us=now_us,
                            )
                        )
                        break
                else:  # nothing queued at all
                    return

        for request in trace.requests:
            now = request.arrival_us
            drain_until(now)
            state = states.get(request.tenant)
            if state is None:
                rejected.append(
                    GatewayEvent(request, REASON_UNKNOWN_TENANT, t_us=now)
                )
                continue
            if state.bucket is not None and not state.bucket.take(
                now, request.seq_len
            ):
                rejected.append(
                    GatewayEvent(
                        request,
                        REASON_RATE_LIMIT,
                        t_us=now,
                        retry_after_us=state.bucket.retry_after_us(
                            now, request.seq_len
                        ),
                    )
                )
                continue
            if request.seq_len > state.policy.max_queue_tokens:
                # can never fit the queue bound: reject outright rather
                # than shedding the whole queue to make room
                rejected.append(
                    GatewayEvent(request, REASON_QUEUE_OVERFLOW, t_us=now)
                )
                continue
            state.enqueue(request)
            overflow_shed(state, now)
            global_shed(now)

        # close the horizon: drain whatever is still queued
        while backlog.requests:
            horizon = server_free_us + self.quantum_tokens / self.service_rate
            drain_until(
                max(
                    horizon,
                    max(
                        states[t].queue[0].arrival_us
                        for t in order
                        if states[t].queue
                    ),
                )
            )

        result = GatewayResult(
            admitted=tuple(admitted),
            rejected=tuple(rejected),
            shed=tuple(shed),
        )
        result.validate_conservation(trace)
        return result
