"""The fault-tolerant serving runtime: chaos-replay a request trace.

:class:`ServingRuntime` layers the robustness machinery over the
existing trace replay: a seeded :class:`~repro.serving.faults.FaultPlan`
injects transient kernel faults into the dispatch pricing path, a
:class:`~repro.serving.retry.RetryPolicy` re-issues faulted dispatches
with exponential backoff on the simulated clock, deadline shedding and
:class:`~repro.serving.admission.AdmissionController` keep overload from
turning into late timeouts, and a
:class:`~repro.serving.degradation.DegradationLadder` steps the engine
onto conservative paths under pressure and back up after a cool-down.

Two planes, one contract
------------------------
Latency lives on the *cost plane*: each dispatch's service time is the
modelled time of the kernel chain the active degradation level implies
(fused / zeropad / unfused attention), and faults strike that chain.
Served bits live on the *numeric plane*: outputs are computed
per-request by the numeric model under the active host engine.  All
engines and attention fallbacks compute the same function — and the
``vectorized``/``looped`` engines are bit-identical by construction —
so a chaos replay must serve outputs bit-identical to a fault-free
replay of the same requests.  The chaos test suite asserts exactly that.
"""

from __future__ import annotations

import contextlib
from collections import deque
from dataclasses import replace

import numpy as np

from repro.attention.dispatch import force_mha_path
from repro.core.config import FUSED_MHA, BertConfig, OptimizationConfig
from repro.core.engine import use_engine
from repro.core.estimator import estimate_model_graphed, estimate_model_tiled
from repro.core.model import BertEncoderModel
from repro.core.parallel import BucketExecutor, use_executor
from repro.gpusim.graph import GraphCache
from repro.kernels.activation import force_gelu_variant
from repro.gpusim.device import A100_SPEC, DeviceSpec
from repro.gpusim.errors import TransientFault
from repro.gpusim.stream import ExecutionContext, NullContext
from repro.serving.continuous import (
    ContinuousBatcher,
    build_megabatch,
    retile,
    scatter_outputs,
)
from repro.serving.admission import AdmissionController
from repro.serving.degradation import DegradationLadder, DegradationLevel
from repro.serving.faults import NO_FAULTS, FaultPlan, FaultSpec
from repro.serving.gateway import AdmissionGateway, QosClass
from repro.serving.report import (
    Outcome,
    REASON_ADMISSION,
    REASON_DEADLINE,
    REASON_RETRY_BUDGET,
    RequestOutcome,
    ServingReport,
)
from repro.serving.retry import RetryPolicy
from repro.serving.sharded import ShardConfig, ShardRouter
from repro.telemetry import (
    COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS_US,
    RATIO_BUCKETS,
    REQUEST_CATEGORY,
    Telemetry,
    use_telemetry,
)
from repro.telemetry import slo as metric_names
from repro.workloads.batching import (
    Batcher,
    Dispatch,
    TimeoutBatcher,
    dispatch_padded_len,
    shed_expired,
)
from repro.workloads.serving import Request, ServingTrace


class ServingRuntime:
    """Replay traces through the fault-tolerant serving stack.

    Parameters
    ----------
    config:
        Model architecture served (drives the cost model).
    batcher:
        Batching policy; defaults to :class:`TimeoutBatcher`.
    retry:
        Transient-fault retry policy.
    admission:
        High-water-mark admission controller; ``None`` admits everything.
    gateway:
        Optional multi-tenant :class:`~repro.serving.gateway.AdmissionGateway`.
        When set it *replaces* the single-tenant admission pre-pass:
        requests are rate-limited, queued and released per tenant with
        weighted fairness, then batched per QoS class so every dispatch
        is class-pure.  Latency-SLO dispatches replay with priority and
        are always priced at the ladder's top rung; throughput-batch
        dispatches take the ladder's current rung, so degradation (and
        error-budget-burn pressure from SLO tenants) slows batch
        traffic first.  All rungs compute bitwise-identical outputs, so
        the class split never changes served bits.  If the gateway has
        no ``service_rate`` yet the runtime fills it in from the cost
        model (:meth:`estimate_service_rate`) at the start of the run.
    ladder:
        Degradation ladder; a fresh default ladder when omitted.  The
        ladder is reset at the start of every :meth:`run`.
    faults:
        Fault mix to inject; :data:`~repro.serving.faults.NO_FAULTS`
        replays cleanly.
    numerics:
        Optional numeric model; when given, every served request's
        output tensor is computed (per request, deterministic in
        ``(seed, request_id)``) and returned in the report.  ``None``
        serves on the cost plane only — much faster for large traces.
    use_graph:
        Route admission/dispatch pricing through a launch-graph cache
        (:func:`~repro.core.estimator.estimate_model_graphed`): repeat
        shapes replay the captured stream instead of re-pricing it.
        Fault hooks fire per replayed launch exactly as per eager one,
        and a mid-replay fault never touches the (immutable) cached
        graph, so chaos replays are unchanged bit for bit.
    workers:
        Thread count for computing served requests' numeric outputs in
        parallel.  ``1`` (default) is strictly serial.  The worker count
        never changes served bits, the outcome log or the modelled
        timeline — only host wall-clock.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` to observe the run:
        request/stage spans on the simulated clock, the serving metrics
        registry and the kernel segments the Chrome exporter nests the
        spans above.  Telemetry is strictly observational — enabling it
        is bitwise-neutral to outputs, the outcome log and the modelled
        timeline (the neutrality regression test asserts this).
    sharding:
        Multi-device :class:`~repro.serving.sharded.ShardConfig`.  Data
        parallel replicas each run the plan of their Σlen²-routed slice
        of the admitted stream (work stealing moves a ready dispatch to
        an idle device; faulted retries stay on the device that ran the
        attempt).  Tensor-parallel groups price every dispatch at rank
        0's sharded kernel chain, all-reduces included.  The numeric
        plane is untouched in every mode — outputs stay bitwise equal
        to the single-device per-request oracle (see DESIGN.md §14).
        The default single-device config reproduces the unsharded
        runtime exactly.
    """

    def __init__(
        self,
        config: BertConfig,
        *,
        batcher: Batcher | None = None,
        retry: RetryPolicy | None = None,
        admission: AdmissionController | None = None,
        gateway: AdmissionGateway | None = None,
        ladder: DegradationLadder | None = None,
        faults: FaultSpec = NO_FAULTS,
        opt: OptimizationConfig = FUSED_MHA,
        device: DeviceSpec = A100_SPEC,
        numerics: BertEncoderModel | None = None,
        seed: int = 0,
        use_graph: bool = True,
        workers: int = 1,
        telemetry: Telemetry | None = None,
        sharding: ShardConfig | None = None,
    ) -> None:
        self.config = config
        self.batcher = batcher if batcher is not None else TimeoutBatcher()
        self.retry = retry if retry is not None else RetryPolicy()
        self.admission = admission
        self.gateway = gateway
        self.ladder = ladder if ladder is not None else DegradationLadder()
        self.faults = faults
        self.opt = opt
        self.device = device
        self.numerics = numerics
        self.seed = seed
        self.graph_cache = GraphCache() if use_graph else None
        self.workers = workers
        self.telemetry = telemetry
        self._executor = BucketExecutor(workers)
        self._single_estimates: dict[int, float] = {}
        self.sharding = sharding if sharding is not None else ShardConfig()
        #: the priced interconnect (None on a single device)
        self.cluster = self.sharding.build_cluster(device)
        #: rank-0 tensor-parallel shard every dispatch is priced at
        self.shard = self.sharding.shard_spec
        #: independent data-parallel serving lanes
        self.replicas = self.sharding.replicas
        self._router = ShardRouter(self.replicas)

    def _new_ctx(self) -> ExecutionContext:
        """A pricing context on this runtime's device and interconnect."""
        return ExecutionContext(self.device, cluster=self.cluster)

    # ------------------------------------------------------------------
    # pricing helpers (cost plane)

    def _price(
        self,
        ctx: ExecutionContext,
        seq_lens: np.ndarray,
        padded_len: int,
        level: DegradationLevel,
    ) -> float:
        with use_engine(level.engine), force_mha_path(level.mha_path):
            return estimate_model_graphed(
                ctx, self.config, self.opt, seq_lens, padded_len,
                shard=self.shard, cache=self.graph_cache,
            )

    def _price_tile(
        self,
        ctx: ExecutionContext,
        tile: int,
        max_seq_len: int,
        level: DegradationLevel,
    ) -> float:
        """Price a continuous megabatch: the tile's canonical launch
        chain, graph-cached by ``(device, cluster, config, preset, path,
        shard, tile)`` so identical tiles replay regardless of their
        composition."""
        with use_engine(level.engine), force_mha_path(level.mha_path):
            return estimate_model_tiled(
                ctx, self.config, self.opt, tile, max_seq_len,
                shard=self.shard, cache=self.graph_cache,
            )

    def _estimate_service(
        self,
        requests: list[Request],
        max_seq_len: int,
        level: DegradationLevel,
        tile: int | None = None,
    ) -> float:
        """Fault-free service estimate for a group at the given level."""
        if tile is not None:
            return self._price_tile(
                self._new_ctx(), tile, max_seq_len, level
            )
        dispatch = Dispatch(requests=tuple(requests), ready_us=0.0)
        return self._price(
            self._new_ctx(),
            dispatch.seq_lens,
            dispatch_padded_len(dispatch, max_seq_len),
            level,
        )

    def estimate_service_rate(self, max_seq_len: int) -> float:
        """Modelled drain capacity in sequence tokens per simulated µs.

        Prices one full top-rung tile (the continuous batcher's budget
        tile when one is configured, else a 512-token tile capped at
        the trace shape) and divides tokens by modelled time — the rate
        the gateway's virtual DRR drain server runs at, derived from
        the same cost model the dispatches are priced with.
        """
        if isinstance(self.batcher, ContinuousBatcher):
            tile = max(self.batcher.effective_tiles())
        else:
            tile = max(64, min(512, max_seq_len))
        service = self._price_tile(
            self._new_ctx(), tile, max_seq_len,
            self.ladder.levels[0],
        )
        # data-parallel replicas drain independently: aggregate capacity
        # scales with the lane count (tp groups are one lane — their
        # speedup is already in the sharded chain's modelled time)
        return tile / service * self.replicas

    def _single_estimate(self, seq_len: int, max_seq_len: int) -> float:
        """Cached one-request service estimate at the top level."""
        cached = self._single_estimates.get(seq_len)
        if cached is None:
            cached = self._price(
                self._new_ctx(),
                np.asarray([seq_len], dtype=np.int64),
                min(max_seq_len, seq_len),
                self.ladder.levels[0],
            )
            self._single_estimates[seq_len] = cached
        return cached

    # ------------------------------------------------------------------
    # numeric plane

    def _request_input(self, request: Request) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic per-request input, independent of batching."""
        rng = np.random.default_rng([self.seed, request.request_id])
        hidden = self.config.hidden_size
        x = rng.standard_normal((1, request.seq_len, hidden))
        mask = np.ones((1, request.seq_len))
        return x, mask

    def _compute_output(
        self, request: Request, level: DegradationLevel
    ) -> np.ndarray:
        x, mask = self._request_input(request)
        with use_engine(level.engine):
            out = self.numerics.forward(x, mask)
        if self.numerics.arena is not None:
            # arena-backed outputs are views valid only until the next
            # forward; the report keeps them past that
            return out[0].copy()
        return out[0]

    def _compute_batch_outputs(
        self,
        requests: list[Request],
        level: DegradationLevel,
        *,
        max_seq_len: int | None = None,
        tile: int | None = None,
    ) -> list[np.ndarray]:
        """Outputs of one dispatch's served requests, possibly in parallel.

        With a ``tile`` (continuous megabatch), all requests merge into
        one cross-request packed forward and the packed output is
        scattered back per request — bitwise what each request would get
        through its own single-request forward, because the numeric
        plane runs over the real segments only and attention respects
        per-request segment boundaries.

        Otherwise requests are independent (disjoint inputs, disjoint
        outputs), so they fan out across the worker pool when the
        numerics model has no arena (scratch buffers must not be shared
        across concurrent forwards).

        Degraded rungs with ``exact_gelu`` pin the GELU formula for the
        whole computation — identity under exact presets, the
        conservative fallback under ``fast-gelu``.
        """
        pin_gelu = (
            force_gelu_variant("exact")
            if level.exact_gelu
            else contextlib.nullcontext()
        )
        if tile is not None and self.numerics.opt.remove_padding:
            # cross-request packing is a packed-pipeline concept; a
            # padded-preset numerics model serves per request below
            # (same bits — every pipeline computes the same function).
            # forward_packed consults the current executor: with workers
            # it fans contiguous segment chunks out (bitwise-equal to
            # serial by the deterministic-assignment contract).
            x_tile, mega = build_megabatch(
                requests,
                lambda r: self._request_input(r)[0][0],
                max_seq_len,
                tile,
            )
            with pin_gelu, use_engine(level.engine), \
                    use_executor(self._executor):
                out_tile = self.numerics.forward_packed(
                    x_tile, mega, ctx=NullContext()
                )
            return scatter_outputs(out_tile, mega)
        if self._executor.workers > 1 and self.numerics.arena is None:
            with pin_gelu, use_engine(level.engine):
                return self._executor.map(
                    lambda r: np.array(
                        self.numerics.forward(*self._request_input(r))[0]
                    ),
                    requests,
                )
        with pin_gelu:
            return [self._compute_output(r, level) for r in requests]

    # ------------------------------------------------------------------

    def generate(self, trace: ServingTrace, **kwargs):
        """Serve an autoregressive trace through the decode stack.

        Convenience delegate: builds a
        :class:`~repro.serving.generation.GenerationRuntime` sharing
        this runtime's config, device, seed, fault spec, retry policy
        and gateway, and replays ``trace`` through mixed prefill/decode
        rounds.  Keyword arguments are forwarded (e.g.
        ``kv_capacity_tokens=...``, ``batcher=...``).
        """
        from repro.serving.generation import GenerationRuntime

        kwargs.setdefault("retry", self.retry)
        kwargs.setdefault("gateway", self.gateway)
        kwargs.setdefault("faults", self.faults)
        kwargs.setdefault("device", self.device)
        kwargs.setdefault("seed", self.seed)
        kwargs.setdefault("telemetry", self.telemetry)
        runtime = GenerationRuntime(self.config, **kwargs)
        return runtime.run(trace)

    def run(self, trace: ServingTrace) -> ServingReport:
        """Chaos-replay ``trace``; every request gets exactly one outcome.

        With :attr:`telemetry` set, the whole replay runs under
        :func:`~repro.telemetry.use_telemetry`, so instrumented library
        code (batch cuts, cross-request packing, graph capture/replay,
        ladder steps) records into the same tracer and registry.
        """
        with use_telemetry(self.telemetry):
            return self._run(trace)

    def _record_settle(
        self,
        tel: Telemetry,
        request: Request,
        outcome: Outcome,
        reason: str,
        latency_us: float | None,
        retries: int,
    ) -> None:
        """Metrics + the request-root span for one settled request."""
        metrics = tel.metrics
        metrics.counter(
            metric_names.REQUESTS_TOTAL,
            help="settled requests by final outcome",
            outcome=outcome.value,
        ).inc()
        if outcome is Outcome.SHED:
            metrics.counter(
                metric_names.SHED_TOTAL,
                help="shed requests by reason",
                reason=reason,
            ).inc()
        metrics.histogram(
            metric_names.REQUEST_RETRIES,
            help="transient-fault retries per request",
            buckets=COUNT_BUCKETS,
        ).observe(retries)
        end_us = max(request.arrival_us, tel.tracer.now_us)
        if outcome is Outcome.SERVED and latency_us is not None:
            metrics.histogram(
                metric_names.REQUEST_LATENCY_US,
                help="end-to-end latency of served requests (us)",
                buckets=DEFAULT_LATENCY_BUCKETS_US,
            ).observe(latency_us)
            end_us = request.arrival_us + latency_us
        if request.deadline_us is not None:
            metrics.counter(
                metric_names.DEADLINE_REQUESTS_TOTAL,
                help="settled requests that carried a deadline",
            ).inc()
            if (
                outcome is Outcome.SERVED
                and latency_us is not None
                and latency_us <= request.deadline_us
            ):
                metrics.counter(
                    metric_names.DEADLINE_MET_TOTAL,
                    help="deadline-carrying requests served in time",
                ).inc()
        if request.tenant:
            # tenant-labelled mirrors of the serving series; new metric
            # names so the un-labelled global series (and everything
            # reading them) stay exactly as before
            metrics.counter(
                metric_names.TENANT_REQUESTS_TOTAL,
                help="settled requests by tenant and final outcome",
                tenant=request.tenant,
                outcome=outcome.value,
            ).inc()
            if outcome is Outcome.SHED:
                metrics.counter(
                    metric_names.TENANT_SHED_TOTAL,
                    help="shed requests by tenant and reason",
                    tenant=request.tenant,
                    reason=reason,
                ).inc()
            if outcome is Outcome.SERVED and latency_us is not None:
                metrics.histogram(
                    metric_names.TENANT_REQUEST_LATENCY_US,
                    help="end-to-end served latency by tenant (us)",
                    buckets=DEFAULT_LATENCY_BUCKETS_US,
                    tenant=request.tenant,
                ).observe(latency_us)
            if request.deadline_us is not None:
                metrics.counter(
                    metric_names.TENANT_DEADLINE_REQUESTS_TOTAL,
                    help="deadline-carrying settled requests by tenant",
                    tenant=request.tenant,
                ).inc()
                if (
                    outcome is Outcome.SERVED
                    and latency_us is not None
                    and latency_us <= request.deadline_us
                ):
                    metrics.counter(
                        metric_names.TENANT_DEADLINE_MET_TOTAL,
                        help="deadline-carrying requests served in time, "
                        "by tenant",
                        tenant=request.tenant,
                    ).inc()
        root_attrs: dict = {}
        if request.tenant:
            # only multi-tenant traces grow the attr, so single-tenant
            # span dumps stay byte-identical to earlier releases
            root_attrs["tenant"] = request.tenant
        tel.tracer.add_span(
            "request",
            category=REQUEST_CATEGORY,
            start_us=request.arrival_us,
            end_us=end_us,
            request_id=request.request_id,
            seq_len=request.seq_len,
            outcome=outcome.value,
            reason=reason,
            retries=retries,
            **root_attrs,
        )

    def _run(self, trace: ServingTrace) -> ServingReport:
        self.ladder.reset()
        if self.numerics is not None and isinstance(
            self.batcher, ContinuousBatcher
        ):
            # size the arena for every tile the batcher can emit before
            # the first dispatch: steady-state serving then never pays a
            # warm-up overflow alloc
            self.numerics.prereserve_tiles(
                self.batcher.effective_tiles(), trace.max_seq_len
            )
        plan_faults = FaultPlan(self.faults, seed=self.seed)
        jitter_rng = np.random.default_rng([self.seed, 0x5E])
        outcomes: dict[int, RequestOutcome] = {}
        outputs: dict[int, np.ndarray] = {}
        gateway = self.gateway
        #: gateway-admitted requests by id, keyed to the *original*
        #: (pre-re-anchoring) request — settling always accounts against
        #: the original arrival and deadline
        originals: dict[int, Request] = {}
        #: per-SLO-tenant running [settled, bad] counts for budget burn
        burn_stats: dict[str, list[int]] = {}
        tel = self.telemetry
        if tel is not None and not tel.owns_current_thread():
            tel = None

        def settle(
            request: Request,
            outcome: Outcome,
            reason: str,
            latency_us: float | None,
            retries: int,
            *,
            now_us: float | None = None,
            level: str | None = None,
        ) -> None:
            orig = originals.get(request.request_id, request)
            if (
                latency_us is not None
                and orig.arrival_us != request.arrival_us
            ):
                # dispatches hold gateway-re-anchored requests; fold the
                # gateway queue wait back in so the recorded latency is
                # end-to-end from the original arrival
                latency_us += request.arrival_us - orig.arrival_us
            if orig.request_id in outcomes:
                raise RuntimeError(
                    f"request {orig.request_id} settled twice"
                )
            outcomes[orig.request_id] = RequestOutcome(
                request_id=orig.request_id,
                outcome=outcome,
                reason=reason,
                latency_us=latency_us,
                retries=retries,
                level=level if level is not None else self.ladder.level.name,
                tenant=orig.tenant,
            )
            if gateway is not None:
                policy = gateway.policies.get(orig.tenant)
                if policy is not None and policy.qos is QosClass.LATENCY_SLO:
                    stats = burn_stats.setdefault(orig.tenant, [0, 0])
                    stats[0] += 1
                    if outcome is not Outcome.SERVED:
                        stats[1] += 1
                    budget = 1.0 - policy.slo_target
                    if budget > 0.0 and stats[1] / stats[0] > budget:
                        # the tenant's error budget is burning: pressure
                        # the ladder so *batch-class* dispatches degrade
                        # (SLO dispatches stay pinned to the top rung)
                        t = now_us
                        if t is None:
                            t = orig.arrival_us + (latency_us or 0.0)
                        self.ladder.record_budget_burn(t)
            if tel is not None:
                self._record_settle(
                    tel, orig, outcome, reason, latency_us, retries
                )

        #: (qos, home device, pending dispatches) in replay-priority
        #: order; qos is None on the single-tenant path.  Each entry is
        #: one data-parallel replica's plan over its Σlen²-routed slice
        #: of a class — a single queue on device 0 when unsharded.
        queues: list[tuple[QosClass | None, int, deque[Dispatch]]] = []

        def plan_routed(
            qos: QosClass | None, requests: list[Request]
        ) -> None:
            """Route a class across replicas and plan each slice."""
            for dev, bucket in enumerate(self._router.route(requests)):
                if not bucket:
                    continue
                sub_trace = ServingTrace(
                    requests=tuple(bucket), max_seq_len=trace.max_seq_len
                )
                routed_plan = sorted(
                    self.batcher.plan(sub_trace), key=lambda d: d.ready_us
                )
                queues.append((qos, dev, deque(routed_plan)))

        if gateway is not None:
            # -- multi-tenant gateway pre-pass --------------------------
            if gateway.service_rate is None:
                gateway.service_rate = self.estimate_service_rate(
                    trace.max_seq_len
                )
            gate = gateway.process(trace)
            for event in gate.rejected:
                if tel is not None:
                    tel.tracer.set_now(event.t_us)
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
                            buckets=DEFAULT_LATENCY_BUCKETS_US,
                        ).observe(event.retry_after_us)
                    tel.tracer.instant(
                        "gateway.reject",
                        category="gateway",
                        t_us=event.t_us,
                        request_id=event.request.request_id,
                        tenant=event.request.tenant,
                        reason=event.reason,
                    )
                settle(
                    event.request, Outcome.REJECTED, event.reason, None, 0,
                    now_us=event.t_us,
                )
            for event in gate.shed:
                if tel is not None:
                    tel.tracer.set_now(event.t_us)
                    tel.tracer.instant(
                        "gateway.shed",
                        category="gateway",
                        t_us=event.t_us,
                        request_id=event.request.request_id,
                        tenant=event.request.tenant,
                        reason=event.reason,
                    )
                settle(
                    event.request, Outcome.SHED, event.reason, None, 0,
                    now_us=event.t_us,
                )
            by_class: dict[QosClass, list[Request]] = {
                QosClass.LATENCY_SLO: [],
                QosClass.THROUGHPUT_BATCH: [],
            }
            for sched in gate.admitted:
                orig = sched.request
                originals[orig.request_id] = orig
                wait = sched.release_us - orig.arrival_us
                if tel is not None:
                    tel.tracer.set_now(sched.release_us)
                    tel.metrics.histogram(
                        metric_names.GATEWAY_RELEASE_WAIT_US,
                        help="gateway queue wait of admitted requests (us)",
                        buckets=DEFAULT_LATENCY_BUCKETS_US,
                    ).observe(wait)
                deadline = orig.deadline_us
                if deadline is not None:
                    deadline = deadline - wait
                    if deadline <= 0.0:
                        # the deadline expired while queued at the gateway
                        self.ladder.record_deadline_miss(sched.release_us)
                        settle(
                            orig, Outcome.SHED, REASON_DEADLINE, None, 0,
                            now_us=sched.release_us,
                        )
                        continue
                by_class[gateway.qos_of(orig.tenant)].append(
                    replace(
                        orig,
                        arrival_us=sched.release_us,
                        deadline_us=deadline,
                    )
                )
            # class-pure plans: each QoS class is batched on its own, so
            # a dispatch is degradable (batch) or protected (SLO) as a
            # whole; SLO before batch is the replay priority order, and
            # each class is Σlen²-routed across the replicas on its own
            for qos in (QosClass.LATENCY_SLO, QosClass.THROUGHPUT_BATCH):
                if by_class[qos]:
                    plan_routed(qos, by_class[qos])
        else:
            # -- admission: reject early under overload -----------------
            admitted: list[Request] = []
            committed_until = 0.0
            for request in trace.requests:
                backlog = max(0.0, committed_until - request.arrival_us)
                if tel is not None:
                    tel.tracer.set_now(request.arrival_us)
                    tel.metrics.histogram(
                        metric_names.ADMISSION_BACKLOG_US,
                        help="committed backlog seen at each arrival (us)",
                        buckets=DEFAULT_LATENCY_BUCKETS_US,
                    ).observe(backlog)
                if self.admission is not None and not self.admission.admit(
                    backlog
                ):
                    if tel is not None:
                        tel.tracer.instant(
                            "admission.shed",
                            category="admission",
                            t_us=request.arrival_us,
                            request_id=request.request_id,
                            backlog_us=backlog,
                        )
                    settle(request, Outcome.SHED, REASON_ADMISSION, None, 0)
                    continue
                if tel is not None:
                    tel.tracer.instant(
                        "admission.admit",
                        category="admission",
                        t_us=request.arrival_us,
                        request_id=request.request_id,
                        backlog_us=backlog,
                    )
                admitted.append(request)
                # replicas drain the backlog in parallel, so each
                # admitted request commits 1/replicas of its estimate
                committed_until = max(
                    committed_until, request.arrival_us
                ) + self._single_estimate(
                    request.seq_len, trace.max_seq_len
                ) / self.replicas

            # -- batch plan over the admitted sub-trace -----------------
            if admitted:
                plan_routed(None, admitted)

        def dispatch_level(qos: QosClass | None) -> DegradationLevel:
            """Rung a dispatch of the given class is priced/served at:
            latency-SLO dispatches are pinned to the top rung; batch
            (and single-tenant) dispatches ride the ladder."""
            if qos is QosClass.LATENCY_SLO:
                return self.ladder.levels[0]
            return self.ladder.level

        free = [0.0] * self.replicas
        busy = [0.0] * self.replicas
        steals = 0
        batch_id = -1

        while any(q for _, _, q in queues):
            qos: QosClass | None = None
            home = 0
            picked: deque[Dispatch] | None = None
            for cls, dev, q in queues:
                # queues are priority-ordered (SLO before batch): the
                # first class with a head ready on its free home device
                # runs next
                if q and q[0].ready_us <= free[dev]:
                    qos, home, picked = cls, dev, q
                    break
            if picked is None:
                # nothing ready on its home device yet: take the head
                # that can start earliest (ready time vs device free
                # time; on one device this is exactly the earliest head)
                qos, home, picked = min(
                    ((cls, dev, q) for cls, dev, q in queues if q),
                    key=lambda item: max(
                        item[2][0].ready_us, free[item[1]]
                    ),
                )
            dispatch = picked.popleft()
            batch_id += 1
            # work stealing: a routed dispatch runs on whichever device
            # can start it soonest; ties stay home, so the single-device
            # runtime never "steals" from itself
            exec_dev = home
            if self.replicas > 1:
                best = min(
                    range(self.replicas),
                    key=lambda d: (max(dispatch.ready_us, free[d]), d),
                )
                if max(dispatch.ready_us, free[best]) < max(
                    dispatch.ready_us, free[home]
                ):
                    exec_dev = best
                    steals += 1
                    if tel is not None:
                        tel.tracer.instant(
                            "dispatch.steal",
                            category="dispatch",
                            t_us=max(dispatch.ready_us, free[best]),
                            batch_id=batch_id,
                            home=home,
                            device=best,
                        )
            start = max(dispatch.ready_us, free[exec_dev])
            if tel is not None:
                tel.tracer.set_now(start)
                tel.tracer.begin(
                    "dispatch.megabatch"
                    if dispatch.tile is not None
                    else "dispatch.batch",
                    category="dispatch",
                    start_us=start,
                    batch_id=batch_id,
                    request_ids=[r.request_id for r in dispatch.requests],
                    tile=dispatch.tile,
                    ready_us=dispatch.ready_us,
                )
            alive, expired = shed_expired(list(dispatch.requests), start)
            for request in expired:
                self.ladder.record_deadline_miss(start)
                settle(
                    request, Outcome.SHED, REASON_DEADLINE, None, 0,
                    now_us=start,
                )
            if alive:
                # shed members that cannot finish inside their budget even
                # if the dispatch started right now
                est = self._estimate_service(
                    alive, trace.max_seq_len, dispatch_level(qos),
                    tile=dispatch.tile,
                )
                still_alive = []
                for request in alive:
                    limit = request.absolute_deadline_us
                    if limit is not None and start + est > limit:
                        self.ladder.record_deadline_miss(start)
                        settle(
                            request, Outcome.SHED, REASON_DEADLINE, None, 0,
                            now_us=start,
                        )
                    else:
                        still_alive.append(request)
                alive = still_alive

            attempt = 0
            while alive:
                level = dispatch_level(qos)
                ctx = plan_faults.install(self._new_ctx())
                lens = np.asarray(
                    [r.seq_len for r in alive], dtype=np.int64
                )
                tile = None
                padded = None
                if tel is not None:
                    tel.tracer.set_now(start)
                    tel.tracer.begin(
                        "attempt",
                        category="attempt",
                        start_us=start,
                        attempt=attempt,
                        level=level.name,
                        batch=len(alive),
                        device=exec_dev,
                    )
                try:
                    if dispatch.tile is not None:
                        # megabatch: survivors of a faulted attempt were
                        # re-shed above, so this attempt covers only the
                        # still-affected segments — re-quantized, usually
                        # onto a smaller (still graph-cached) tile
                        tile = retile(
                            int(lens.sum()), self.batcher, dispatch.tile
                        )
                        service = self._price_tile(
                            ctx, tile, trace.max_seq_len, level
                        )
                    else:
                        padded = dispatch_padded_len(
                            Dispatch(requests=tuple(alive), ready_us=start),
                            trace.max_seq_len,
                        )
                        service = self._price(ctx, lens, padded, level)
                except TransientFault:
                    # the chain ran up to the faulted kernel: that time is
                    # burnt on the device that ran the attempt, and the
                    # retry stays on that same device (segment-scoped,
                    # device-local — no cross-device re-route mid-request)
                    partial = ctx.elapsed_us()
                    busy[exec_dev] += partial
                    now = start + partial
                    if tel is not None:
                        tel.tracer.set_now(now)
                        tel.tracer.end(fault=True)  # the attempt span
                        tel.add_kernel_segment(
                            start, ctx.records, device=exec_dev
                        )
                        tel.metrics.counter(
                            metric_names.FAULTS_TOTAL,
                            help="transient faults injected into attempts",
                        ).inc()
                        tel.tracer.instant(
                            "fault", category="fault", t_us=now,
                            attempt=attempt,
                        )
                    self.ladder.record_fault(now)
                    if attempt >= self.retry.max_retries:
                        free[exec_dev] = now
                        for request in alive:
                            settle(
                                request,
                                Outcome.FAILED,
                                REASON_RETRY_BUDGET,
                                None,
                                attempt,
                                now_us=now,
                            )
                        alive = []
                        break
                    backoff = self.retry.backoff_us(attempt, jitter_rng)
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
                    alive, expired = shed_expired(alive, start)
                    for request in expired:
                        self.ladder.record_deadline_miss(start)
                        settle(
                            request, Outcome.SHED, REASON_DEADLINE, None,
                            attempt, now_us=start,
                        )
                    continue
                finish = start + service
                busy[exec_dev] += service
                free[exec_dev] = finish
                if tel is not None:
                    tel.tracer.set_now(finish)
                    tel.add_kernel_segment(
                        start, ctx.records, device=exec_dev
                    )
                    valid = int(lens.sum())
                    capacity = (
                        tile if tile is not None else len(alive) * padded
                    )
                    tel.metrics.histogram(
                        metric_names.VALID_TOKEN_UTILIZATION,
                        help="valid tokens over dispatch capacity",
                        buckets=RATIO_BUCKETS,
                    ).observe(valid / capacity)
                    tel.metrics.histogram(
                        metric_names.US_PER_TOKEN,
                        help="modelled service time per valid token (us)",
                        buckets=COUNT_BUCKETS,
                    ).observe(service / valid)
                if self.numerics is not None:
                    for request, output in zip(
                        alive,
                        self._compute_batch_outputs(
                            alive, level,
                            max_seq_len=trace.max_seq_len, tile=tile,
                        ),
                    ):
                        outputs[request.request_id] = output
                for request in alive:
                    settle(
                        request,
                        Outcome.SERVED,
                        "",
                        finish - request.arrival_us,
                        attempt,
                        now_us=finish,
                        level=level.name,
                    )
                self.ladder.record_success(finish)
                if tel is not None:
                    top = self.ladder.levels[0]
                    attempt_attrs: dict = {"served": len(alive)}
                    if level is not top:
                        # ladder-penalty baseline for the critical-path
                        # walker: the same group priced at the top rung.
                        # Priced on a hook-free context, so the fault
                        # plan's ordinal and the replay's launch stream
                        # are untouched — observation only.
                        attempt_attrs["service_top_us"] = (
                            self._estimate_service(
                                alive, trace.max_seq_len, top,
                                tile=tile,
                            )
                        )
                    tel.tracer.end(**attempt_attrs)  # the attempt span
                alive = []
            if tel is not None:
                tel.tracer.end()  # the dispatch span

        busy_us = sum(busy)
        makespan_us = max(free)
        if tel is not None:
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
            ).set(
                busy_us / (makespan_us * self.replicas)
                if makespan_us
                else 0.0
            )
            if self.replicas > 1:
                # per-device series only exist on multi-device runs, so
                # a single-device registry is unchanged byte for byte
                for dev, dev_busy in enumerate(busy):
                    gauges.gauge(
                        metric_names.DEVICE_BUSY_US,
                        help="modelled busy time per device (us)",
                        device=str(dev),
                    ).set(dev_busy)
                mean_busy = busy_us / self.replicas
                gauges.gauge(
                    metric_names.DEVICE_IMBALANCE,
                    help="max over mean per-device busy time",
                ).set(max(busy) / mean_busy if mean_busy else 0.0)
                gauges.counter(
                    metric_names.STEALS_TOTAL,
                    help="dispatches run away from their routed device",
                ).inc(steals)
            if self.graph_cache is not None:
                lookups = self.graph_cache.hits + self.graph_cache.misses
                gauges.gauge(
                    metric_names.GRAPH_REPLAY_HIT_RATE,
                    help="launch-graph cache hit rate over the run",
                ).set(self.graph_cache.hits / lookups if lookups else 0.0)

        # -- the no-silent-loss contract, enforced ----------------------
        missing = [
            r.request_id
            for r in trace.requests
            if r.request_id not in outcomes
        ]
        if missing:
            raise RuntimeError(
                f"serving runtime lost requests {missing}: every request "
                "must settle as served/shed/failed/rejected"
            )

        return ServingReport(
            outcomes=tuple(
                outcomes[r.request_id] for r in trace.requests
            ),
            transitions=tuple(self.ladder.transitions),
            injected_faults=tuple(plan_faults.injected),
            top_level=self.ladder.levels[0].name,
            gpu_busy_us=busy_us,
            makespan_us=makespan_us,
            outputs=outputs,
            device_busy_us=tuple(busy),
            work_steals=steals,
        )
