"""The serving event loop both runtimes drive.

:class:`ServingLoop` replays one trace and owns everything encoder and
decode serving share:

- the admission front end: the multi-tenant gateway pre-pass (deadlines
  re-anchored to the gateway release), or the single-tenant
  high-water-mark pass of an optional
  :class:`~repro.serving.admission.AdmissionController`;
- the settlement ledger: one outcome per request, latency from the
  original arrival, SLO error-budget burn pressure on the ladder, the
  request span and the serving metrics, and the no-silent-loss check;
- the attempt loop: fault-plan install, partial-time accounting on a
  fault, retry budget and jittered backoff on the simulated clock;
- ladder bookkeeping and the end-of-run gauges.

What differs lives in a round planner the runtime builds for each run,
and the loop only calls the planner's methods, never asks which planner
it has:

- ``replicas``, ``steals``, ``new_ctx()`` and
  ``admission_estimate_us(request, max_seq_len)`` (one request's share
  of the committed backlog);
- ``start(loop, trace, admitted)`` plans the admitted requests, and
  ``next_unit()`` returns the next dispatch or round, or ``None``.  A
  unit has ``device``, ``ready_us``, ``qos`` (``None`` rides the
  ladder), ``size`` (requests or rows left) and ``tokens`` (valid
  tokens of its last priced attempt);
- ``span(unit)``, ``shed(unit, now_us, attempt)`` (deadline shedding
  before each attempt), ``price(unit, ctx, level)``, ``price_top(unit)``
  (the same work at the top rung, observation only),
  ``commit(unit, level, finish_us, attempt)`` and
  ``fail(unit, now_us, attempt)``;
- ``gauges(metrics)`` and ``report(**common)`` at the end of the run.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.errors import TransientFault
from repro.serving.faults import FaultPlan
from repro.serving.gateway import QosClass
from repro.serving.report import (
    Outcome,
    REASON_ADMISSION,
    REASON_DEADLINE,
    RequestOutcome,
)
from repro.telemetry import COUNT_BUCKETS, REQUEST_CATEGORY, use_telemetry
from repro.telemetry import slo as metric_names

#: ``(name, help)`` of each settle series: the un-labelled series, then
#: its tenant-labelled mirror.  The mirrors are separate names, so the
#: un-labelled series (and everything reading them) are the same with
#: or without tenants.
_SETTLED = (
    (metric_names.REQUESTS_TOTAL, "settled requests by final outcome"),
    (
        metric_names.TENANT_REQUESTS_TOTAL,
        "settled requests by tenant and final outcome",
    ),
)
_SHED = (
    (metric_names.SHED_TOTAL, "shed requests by reason"),
    (metric_names.TENANT_SHED_TOTAL, "shed requests by tenant and reason"),
)
_LATENCY = (
    (
        metric_names.REQUEST_LATENCY_US,
        "end-to-end latency of served requests (us)",
    ),
    (
        metric_names.TENANT_REQUEST_LATENCY_US,
        "end-to-end served latency by tenant (us)",
    ),
)
_DEADLINE = (
    (
        metric_names.DEADLINE_REQUESTS_TOTAL,
        "settled requests that carried a deadline",
    ),
    (
        metric_names.TENANT_DEADLINE_REQUESTS_TOTAL,
        "deadline-carrying settled requests by tenant",
    ),
)
_DEADLINE_MET = (
    (
        metric_names.DEADLINE_MET_TOTAL,
        "deadline-carrying requests served in time",
    ),
    (
        metric_names.TENANT_DEADLINE_MET_TOTAL,
        "deadline-carrying requests served in time, by tenant",
    ),
)


class ServingLoop:
    """One replay of a trace through ``runtime``.

    The runtime's knobs (ladder, retry policy, faults, seed, gateway,
    admission controller, telemetry, graph cache) are read when the
    replay starts, so one set after construction takes effect on the
    next run.
    """

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.ladder = runtime.ladder
        self.gateway = runtime.gateway

    def run(self, trace, planner):
        """Replay ``trace`` through a fresh ``planner``; every request
        gets exactly one outcome.

        The planner keeps the loop for the run; the loop keeps no
        reference to the planner, so a finished replay's state is freed
        as soon as the report is returned.  The whole replay runs under
        :func:`~repro.telemetry.use_telemetry`, so instrumented library
        code (batch cuts, cross-request packing, graph capture/replay,
        ladder steps) records into the same tracer and registry.
        """
        rt = self.runtime
        with use_telemetry(rt.telemetry):
            self.ladder.reset()
            self.faults = FaultPlan(rt.faults, seed=rt.seed)
            self.jitter_rng = np.random.default_rng([rt.seed, 0x5E])
            self.outcomes: dict[int, RequestOutcome] = {}
            #: gateway-admitted requests by id, keyed to the *original*
            #: (pre-re-anchoring) request — settling always accounts
            #: against the original arrival and deadline
            self.originals = {}
            #: per-SLO-tenant running [settled, bad] counts for budget burn
            self.burn_stats: dict[str, list[int]] = {}
            tel = rt.telemetry
            if tel is not None and not tel.owns_current_thread():
                tel = None
            self.tel = tel
            self.busy = [0.0] * planner.replicas
            self.free = [0.0] * planner.replicas

            planner.start(self, trace, self._admit(trace, planner))
            while (unit := planner.next_unit()) is not None:
                self._serve(unit, planner)

            # a device is busy only inside [0, free): more busy time than
            # that means two of its attempts overlapped
            for dev, (busy, free) in enumerate(zip(self.busy, self.free)):
                if busy > free:
                    raise RuntimeError(
                        f"device {dev} was busy {busy} us but free at "
                        f"{free} us: its attempts overlapped"
                    )
            busy_us = sum(self.busy)
            makespan_us = max(self.free)
            if tel is not None:
                self._gauges(busy_us, makespan_us, planner)
        # -- the no-silent-loss contract, enforced ----------------------
        missing = [
            r.request_id
            for r in trace.requests
            if r.request_id not in self.outcomes
        ]
        if missing:
            raise RuntimeError(
                f"serving loop lost requests {missing}: every request "
                "must settle as served/shed/failed/rejected"
            )
        return planner.report(
            outcomes=tuple(
                self.outcomes[r.request_id] for r in trace.requests
            ),
            transitions=tuple(self.ladder.transitions),
            injected_faults=tuple(self.faults.injected),
            top_level=self.ladder.levels[0].name,
            gpu_busy_us=busy_us,
            makespan_us=makespan_us,
        )

    # ------------------------------------------------------------------
    # admission front end

    def _admit(self, trace, planner) -> list:
        """Settle what the front end turns away; return the rest, in
        admission order (gateway-admitted ones re-anchored to their
        release)."""
        tel, gateway = self.tel, self.gateway
        admitted = []
        if gateway is None:
            # -- admission: reject early under overload -----------------
            admission = self.runtime.admission
            committed_until = 0.0
            for request in trace.requests:
                backlog = max(0.0, committed_until - request.arrival_us)
                if tel is not None:
                    tel.tracer.set_now(request.arrival_us)
                    tel.metrics.histogram(
                        metric_names.ADMISSION_BACKLOG_US,
                        help="committed backlog seen at each arrival (us)",
                    ).observe(backlog)
                shed = admission is not None and not admission.admit(backlog)
                if tel is not None:
                    tel.tracer.instant(
                        "admission.shed" if shed else "admission.admit",
                        category="admission",
                        t_us=request.arrival_us,
                        request_id=request.request_id,
                        backlog_us=backlog,
                    )
                if shed:
                    self.settle(
                        request, Outcome.SHED, REASON_ADMISSION, None, 0
                    )
                    continue
                admitted.append(request)
                committed_until = max(
                    committed_until, request.arrival_us
                ) + planner.admission_estimate_us(
                    request, trace.max_seq_len
                )
            return admitted

        # -- multi-tenant gateway pre-pass ------------------------------
        if gateway.service_rate is None:
            gateway.service_rate = self.runtime.estimate_service_rate(
                trace.max_seq_len
            )
        gate = gateway.process(trace)
        for events, outcome, name in (
            (gate.rejected, Outcome.REJECTED, "gateway.reject"),
            (gate.shed, Outcome.SHED, "gateway.shed"),
        ):
            for event in events:
                if tel is not None:
                    tel.tracer.set_now(event.t_us)
                    if outcome is Outcome.REJECTED:
                        tel.metrics.counter(
                            metric_names.GATEWAY_REJECTED_TOTAL,
                            help="gateway rejections by tenant and reason",
                            tenant=event.request.tenant,
                            reason=event.reason,
                        ).inc()
                        if event.retry_after_us is not None and np.isfinite(
                            event.retry_after_us
                        ):
                            tel.metrics.histogram(
                                metric_names.GATEWAY_RETRY_AFTER_US,
                                help="retry-after attached to rate-limit "
                                "rejections (us)",
                            ).observe(event.retry_after_us)
                    tel.tracer.instant(
                        name,
                        category="gateway",
                        t_us=event.t_us,
                        request_id=event.request.request_id,
                        tenant=event.request.tenant,
                        reason=event.reason,
                    )
                self.settle(
                    event.request, outcome, event.reason, None, 0,
                    now_us=event.t_us,
                )
        for sched in gate.admitted:
            orig = sched.request
            self.originals[orig.request_id] = orig
            wait = sched.release_us - orig.arrival_us
            if tel is not None:
                tel.tracer.set_now(sched.release_us)
                tel.metrics.histogram(
                    metric_names.GATEWAY_RELEASE_WAIT_US,
                    help="gateway queue wait of admitted requests (us)",
                ).observe(wait)
            deadline = orig.deadline_us
            if deadline is not None:
                deadline = deadline - wait
                if deadline <= 0.0:
                    # the deadline expired while queued at the gateway
                    self.miss_deadline(orig, sched.release_us)
                    continue
            admitted.append(orig.reanchored(sched.release_us, deadline))
        return admitted

    # ------------------------------------------------------------------
    # one dispatch or round, with retries

    def level_for(self, qos: QosClass | None):
        """Rung a unit of the given class is priced/served at:
        latency-SLO units are pinned to the top rung; batch (and
        single-tenant) units ride the ladder."""
        if qos is QosClass.LATENCY_SLO:
            return self.ladder.levels[0]
        return self.ladder.level

    def _serve(self, unit, planner) -> None:
        ladder, tel = self.ladder, self.tel
        retry = self.runtime.retry
        dev = unit.device
        start = max(unit.ready_us, self.free[dev])
        if tel is not None:
            tel.tracer.set_now(start)
            name, category, attrs = planner.span(unit)
            tel.tracer.begin(name, category=category, start_us=start, **attrs)
        attempt = 0
        planner.shed(unit, start, attempt)
        while unit.size:
            level = self.level_for(unit.qos)
            ctx = self.faults.install(planner.new_ctx())
            if tel is not None:
                tel.tracer.set_now(start)
                tel.tracer.begin(
                    "attempt",
                    category="attempt",
                    start_us=start,
                    attempt=attempt,
                    level=level.name,
                    batch=unit.size,
                    device=dev,
                )
            try:
                service = planner.price(unit, ctx, level)
            except TransientFault:
                # the chain ran up to the faulted kernel: that time is
                # burnt on the device that ran the attempt, and the
                # retry stays on that same device (segment-scoped,
                # device-local — no cross-device re-route mid-request)
                partial = ctx.elapsed_us()
                self.busy[dev] += partial
                now = start + partial
                # the device ran the attempt until ``now`` whatever the
                # unit does next: retry, shed to empty, or fail
                self.free[dev] = now
                if tel is not None:
                    tel.tracer.set_now(now)
                    tel.tracer.end(fault=True)  # the attempt span
                    tel.add_kernel_segment(start, ctx.records, device=dev)
                    tel.metrics.counter(
                        metric_names.FAULTS_TOTAL,
                        help="transient faults injected into attempts",
                    ).inc()
                    tel.tracer.instant(
                        "fault", category="fault", t_us=now,
                        attempt=attempt,
                    )
                ladder.record_fault(now)
                if attempt >= retry.max_retries:
                    planner.fail(unit, now, attempt)
                    break
                backoff = retry.backoff_us(attempt, self.jitter_rng)
                start = now + backoff
                if tel is not None:
                    tel.metrics.counter(
                        metric_names.RETRIES_TOTAL,
                        help="dispatch retries after transient faults",
                    ).inc()
                    tel.tracer.begin(
                        "retry.backoff",
                        category="retry",
                        start_us=now,
                        attempt=attempt,
                        backoff_us=backoff,
                    )
                    tel.tracer.set_now(start)
                    tel.tracer.end()
                attempt += 1
                # deadlines keep ticking during backoff
                planner.shed(unit, start, attempt)
                continue
            finish = start + service
            self.busy[dev] += service
            self.free[dev] = finish
            if tel is not None:
                tel.tracer.set_now(finish)
                tel.add_kernel_segment(start, ctx.records, device=dev)
                tel.metrics.histogram(
                    metric_names.US_PER_TOKEN,
                    help="modelled service time per valid token (us)",
                    buckets=COUNT_BUCKETS,
                ).observe(service / unit.tokens)
            served = unit.size
            planner.commit(unit, level, finish, attempt)
            ladder.record_success(finish)
            if tel is not None:
                attempt_attrs: dict = {"served": served}
                if level is not ladder.levels[0]:
                    # ladder-penalty baseline for the critical-path
                    # walker: the same work priced at the top rung
                    attempt_attrs["service_top_us"] = planner.price_top(unit)
                tel.tracer.end(**attempt_attrs)  # the attempt span
            break
        if tel is not None:
            tel.tracer.end()  # the unit span

    # ------------------------------------------------------------------
    # settlement ledger

    def miss_deadline(self, request, now_us: float, retries: int = 0) -> None:
        """Shed ``request`` for its deadline at ``now_us``."""
        self.ladder.record_deadline_miss(now_us)
        self.settle(
            request, Outcome.SHED, REASON_DEADLINE, None, retries,
            now_us=now_us,
        )

    def settle(
        self,
        request,
        outcome: Outcome,
        reason: str,
        latency_us: float | None,
        retries: int,
        *,
        now_us: float | None = None,
        level: str | None = None,
        token_times: tuple[float, ...] = (),
    ) -> None:
        """Record ``request``'s one outcome.

        ``request`` may be gateway-re-anchored: latency and the request
        span are accounted from the original arrival.  ``level``
        defaults to the ladder's current rung; ``token_times`` are a
        streamed request's token instants (TTFT and inter-token gaps).
        """
        orig = self.originals.get(request.request_id, request)
        if latency_us is not None and orig.arrival_us != request.arrival_us:
            # units hold gateway-re-anchored requests; fold the gateway
            # queue wait back in so the recorded latency is end-to-end
            # from the original arrival
            latency_us += request.arrival_us - orig.arrival_us
        if orig.request_id in self.outcomes:
            raise RuntimeError(f"request {orig.request_id} settled twice")
        self.outcomes[orig.request_id] = RequestOutcome(
            request_id=orig.request_id,
            outcome=outcome,
            reason=reason,
            latency_us=latency_us,
            retries=retries,
            level=level if level is not None else self.ladder.level.name,
            tenant=orig.tenant,
        )
        # per-token streaming accounting: TTFT then inter-token gaps,
        # measured from the ORIGINAL arrival (gateway wait included)
        per_token: list[float] = []
        if token_times:
            gateway_wait = request.arrival_us - orig.arrival_us
            per_token.append(
                token_times[0] - request.arrival_us + gateway_wait
            )
            per_token.extend(
                b - a for a, b in zip(token_times, token_times[1:])
            )
        policy = (
            self.gateway.policies.get(orig.tenant)
            if self.gateway is not None
            else None
        )
        if policy is not None and policy.qos is QosClass.LATENCY_SLO:
            stats = self.burn_stats.setdefault(orig.tenant, [0, 0])
            stats[0] += 1
            bad = outcome is not Outcome.SERVED
            if not bad and policy.decode_slo_us is not None and per_token:
                # a served stream whose token cadence blew the tenant's
                # streaming SLO still burns the error budget
                late = sum(1 for v in per_token if v > policy.decode_slo_us)
                bad = late / len(per_token) > (1.0 - policy.slo_target)
            if bad:
                stats[1] += 1
            budget = 1.0 - policy.slo_target
            if budget > 0.0 and stats[1] / stats[0] > budget:
                # the tenant's error budget is burning: pressure the
                # ladder so *batch-class* units degrade (SLO units stay
                # pinned to the top rung)
                t = now_us
                if t is None:
                    t = orig.arrival_us + (latency_us or 0.0)
                self.ladder.record_budget_burn(t)
        tel = self.tel
        if tel is None:
            return
        # -- metrics + the request-root span -----------------------------
        metrics = tel.metrics
        served = outcome is Outcome.SERVED and latency_us is not None
        met = (
            served
            and orig.deadline_us is not None
            and latency_us <= orig.deadline_us
        )
        scopes = [{}]
        if orig.tenant:
            scopes.append({"tenant": orig.tenant})
        for i, labels in enumerate(scopes):
            metrics.counter(
                *_SETTLED[i], outcome=outcome.value, **labels
            ).inc()
            if outcome is Outcome.SHED:
                metrics.counter(*_SHED[i], reason=reason, **labels).inc()
            if served:
                metrics.histogram(*_LATENCY[i], **labels).observe(latency_us)
            if orig.deadline_us is not None:
                metrics.counter(*_DEADLINE[i], **labels).inc()
                if met:
                    metrics.counter(*_DEADLINE_MET[i], **labels).inc()
        metrics.histogram(
            metric_names.REQUEST_RETRIES,
            help="transient-fault retries per request",
            buckets=COUNT_BUCKETS,
        ).observe(retries)
        if per_token:
            metrics.histogram(
                metric_names.TTFT_US,
                help="time to first generated token (us)",
            ).observe(per_token[0])
            for gap in per_token[1:]:
                metrics.histogram(
                    metric_names.INTER_TOKEN_US,
                    help="gap between consecutive tokens (us)",
                ).observe(gap)
            for value in per_token if orig.tenant else ():
                # the tenant mirror pools TTFT and the gaps
                metrics.histogram(
                    metric_names.TENANT_DECODE_TOKEN_LATENCY_US,
                    help="per-token latency by tenant (us)",
                    tenant=orig.tenant,
                ).observe(value)
        if token_times:
            # a stream settles at its last token
            end_us = token_times[-1]
        elif served:
            end_us = orig.arrival_us + latency_us
        else:
            end_us = max(orig.arrival_us, now_us or orig.arrival_us)
        root_attrs: dict = {}
        if orig.tenant:
            # only multi-tenant traces grow the attr, so single-tenant
            # span dumps stay byte-identical to earlier releases
            root_attrs["tenant"] = orig.tenant
        tel.tracer.add_span(
            "request",
            category=REQUEST_CATEGORY,
            start_us=orig.arrival_us,
            end_us=end_us,
            request_id=orig.request_id,
            seq_len=orig.seq_len,
            outcome=outcome.value,
            reason=reason,
            retries=retries,
            **root_attrs,
        )

    # ------------------------------------------------------------------

    def _gauges(self, busy_us: float, makespan_us: float, planner) -> None:
        tel, replicas = self.tel, planner.replicas
        tel.tracer.set_now(makespan_us)
        gauges = tel.metrics
        gauges.gauge(
            metric_names.GPU_BUSY_US,
            help="modelled GPU busy time (us)",
        ).set(busy_us)
        gauges.gauge(
            metric_names.MAKESPAN_US,
            help="modelled makespan of the replay (us)",
        ).set(makespan_us)
        gauges.gauge(
            metric_names.GPU_UTILIZATION,
            help="busy time over makespan, across all replicas",
        ).set(busy_us / (makespan_us * replicas) if makespan_us else 0.0)
        if replicas > 1:
            # per-device series only exist on multi-device runs, so
            # a single-device registry is unchanged byte for byte
            for dev, dev_busy in enumerate(self.busy):
                gauges.gauge(
                    metric_names.DEVICE_BUSY_US,
                    help="modelled busy time per device (us)",
                    device=str(dev),
                ).set(dev_busy)
            mean_busy = busy_us / replicas
            gauges.gauge(
                metric_names.DEVICE_IMBALANCE,
                help="max over mean per-device busy time",
            ).set(max(self.busy) / mean_busy if mean_busy else 0.0)
            gauges.counter(
                metric_names.STEALS_TOTAL,
                help="dispatches run away from their routed device",
            ).inc(planner.steals)
        cache = self.runtime.graph_cache
        if cache is not None:
            lookups = cache.hits + cache.misses
            gauges.gauge(
                metric_names.GRAPH_REPLAY_HIT_RATE,
                help="launch-graph cache hit rate over the run",
            ).set(cache.hits / lookups if lookups else 0.0)
        planner.gauges(gauges)
