"""The fault-tolerant serving runtime: chaos-replay a request trace.

:class:`ServingRuntime` layers the robustness machinery over the
existing trace replay: a seeded :class:`~repro.serving.faults.FaultPlan`
injects transient kernel faults into the dispatch pricing path, a
:class:`~repro.serving.retry.RetryPolicy` re-issues faulted dispatches
with exponential backoff on the simulated clock, deadline shedding and
:class:`~repro.serving.admission.AdmissionController` keep overload from
turning into late timeouts, and a
:class:`~repro.serving.degradation.DegradationLadder` steps pricing
onto conservative attention paths under pressure and back up after a
cool-down.  The replay itself is the shared
:class:`~repro.serving.loop.ServingLoop`; this module holds the
encoder's round planner: pre-planned class-pure dispatch queues over
data-parallel replicas, work stealing, estimate-based pre-shedding and
the numeric plane.

Two planes, one contract
------------------------
Latency lives on the *cost plane*: each dispatch's service time is the
modelled time of the kernel chain the active degradation level implies
(fused / zeropad / unfused attention), and faults strike that chain.
Served bits live on the *numeric plane*: outputs are computed
per-request by the numeric model.  Every attention fallback computes
the same function, so a chaos replay must serve outputs bit-identical
to a fault-free replay of the same requests.  The chaos test suite
asserts exactly that.
"""

from __future__ import annotations

import contextlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.config import FUSED_MHA, BertConfig, OptimizationConfig
from repro.core.estimator import estimate_model_graphed, estimate_model_tiled
from repro.core.model import BertEncoderModel
from repro.core.parallel import BucketExecutor, use_executor
from repro.gpusim.graph import GraphCache
from repro.kernels.activation import force_gelu_variant
from repro.gpusim.device import A100_SPEC, DeviceSpec
from repro.gpusim.stream import ExecutionContext, NullContext
from repro.serving.continuous import (
    ContinuousBatcher,
    build_megabatch,
    retile,
    scatter_outputs,
)
from repro.serving.admission import AdmissionController
from repro.serving.degradation import DegradationLadder, DegradationLevel
from repro.serving.faults import NO_FAULTS, FaultSpec
from repro.serving.gateway import AdmissionGateway, QosClass
from repro.serving.loop import ServingLoop
from repro.serving.report import (
    Outcome,
    REASON_RETRY_BUDGET,
    ServingReport,
)
from repro.serving.retry import RetryPolicy
from repro.serving.sharded import ShardConfig, ShardRouter
from repro.telemetry import RATIO_BUCKETS, Telemetry
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
        self.sharding = sharding if sharding is not None else ShardConfig()
        #: the priced interconnect (None on a single device)
        self.cluster = self.sharding.build_cluster(device)
        #: rank-0 tensor-parallel shard every dispatch is priced at
        self.shard = self.sharding.shard_spec
        #: independent data-parallel serving lanes
        self.replicas = self.sharding.replicas
        self._router = ShardRouter(self.replicas)
        self._executor = BucketExecutor(workers)
        self._single_estimates: dict[int, float] = {}

    def _new_ctx(self) -> ExecutionContext:
        """A pricing context on this runtime's device and interconnect."""
        return ExecutionContext(self.device, cluster=self.cluster)

    def _price(
        self,
        ctx: ExecutionContext,
        seq_lens: np.ndarray,
        padded_len: int,
        level: DegradationLevel,
    ) -> float:
        return estimate_model_graphed(
            ctx, self.config, self.opt, seq_lens, padded_len,
            mha=level.mha_path, shard=self.shard, cache=self.graph_cache,
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
        return estimate_model_tiled(
            ctx, self.config, self.opt, tile, max_seq_len,
            mha=level.mha_path, shard=self.shard, cache=self.graph_cache,
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
            self._new_ctx(), tile, max_seq_len, self.ladder.levels[0]
        )
        # data-parallel replicas drain independently: aggregate capacity
        # scales with the lane count (tp groups are one lane — their
        # speedup is already in the sharded chain's modelled time)
        return tile / service * self.replicas

    def run(self, trace: ServingTrace) -> ServingReport:
        """Chaos-replay ``trace``; every request gets exactly one outcome."""
        return ServingLoop(self).run(trace, _EncoderPlanner(self))


@dataclass
class _DispatchUnit:
    """One planned dispatch in flight: its survivors and last attempt."""

    dispatch: Dispatch
    qos: QosClass | None
    device: int
    batch_id: int
    ready_us: float
    alive: list[Request]
    #: tile, valid tokens and capacity of the last priced attempt
    tile: int | None = None
    tokens: int = 0
    capacity: int = 0

    @property
    def size(self) -> int:
        return len(self.alive)


class _EncoderPlanner:
    """The encoder's round planner for :class:`ServingLoop`.

    Each QoS class is batched on its own (class-pure dispatches) and
    Σlen²-routed across the data-parallel replicas; every replica's
    slice is planned up front by the runtime's batcher.  Dispatches run
    in priority order with work stealing, shed members that cannot meet
    their deadline before each attempt, and compute outputs per request
    or as one cross-request megabatch.
    """

    def __init__(self, runtime: ServingRuntime) -> None:
        self.rt = runtime
        self.replicas = runtime.replicas
        self.new_ctx = runtime._new_ctx
        self.steals = 0

    def _price_group(
        self,
        ctx: ExecutionContext,
        requests: list[Request],
        level: DegradationLevel,
        tile: int | None,
    ) -> tuple[float, int]:
        """Modelled service of ``requests`` at ``level`` — as one
        megabatch ``tile``, or as one padded batch — and the token
        capacity it is priced at."""
        rt = self.rt
        if tile is not None:
            return rt._price_tile(ctx, tile, self.max_seq_len, level), tile
        dispatch = Dispatch(requests=tuple(requests), ready_us=0.0)
        padded = dispatch_padded_len(dispatch, self.max_seq_len)
        service = rt._price(ctx, dispatch.seq_lens, padded, level)
        return service, len(requests) * padded

    def admission_estimate_us(
        self, request: Request, max_seq_len: int
    ) -> float:
        """Cached one-request service estimate at the top level; the
        replicas drain the backlog in parallel, so each admitted request
        commits 1/replicas of it."""
        rt = self.rt
        cached = rt._single_estimates.get(request.seq_len)
        if cached is None:
            cached = rt._price(
                rt._new_ctx(),
                np.asarray([request.seq_len], dtype=np.int64),
                min(max_seq_len, request.seq_len),
                rt.ladder.levels[0],
            )
            rt._single_estimates[request.seq_len] = cached
        return cached / rt.replicas

    # ------------------------------------------------------------------
    # numeric plane

    def _request_input(self, request: Request) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic per-request input, independent of batching."""
        rng = np.random.default_rng([self.rt.seed, request.request_id])
        hidden = self.rt.config.hidden_size
        x = rng.standard_normal((1, request.seq_len, hidden))
        mask = np.ones((1, request.seq_len))
        return x, mask

    def _compute_batch_outputs(
        self,
        requests: list[Request],
        level: DegradationLevel,
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
        numerics, executor = self.rt.numerics, self.rt._executor
        pin_gelu = (
            force_gelu_variant("exact")
            if level.exact_gelu
            else contextlib.nullcontext()
        )
        if tile is not None and numerics.opt.remove_padding:
            # cross-request packing is a packed-pipeline concept; a
            # padded-preset numerics model serves per request below
            # (same bits — every pipeline computes the same function).
            # forward_packed consults the current executor: with workers
            # it fans each op out by rows and attention buckets
            # (bitwise-equal to serial by the aligned row split).
            x_tile, mega = build_megabatch(
                requests,
                lambda r: self._request_input(r)[0][0],
                self.max_seq_len,
                tile,
            )
            with pin_gelu, use_executor(executor):
                out_tile = numerics.forward_packed(
                    x_tile, mega, ctx=NullContext()
                )
            return scatter_outputs(out_tile, mega)
        # a copy: arena-backed outputs are views valid only until the
        # next forward, and the report keeps them past that
        forward = lambda r: np.array(  # noqa: E731
            numerics.forward(*self._request_input(r))[0]
        )
        with pin_gelu:
            if executor.workers > 1 and numerics.arena is None:
                return executor.map(forward, requests)
            return [forward(r) for r in requests]

    # ------------------------------------------------------------------
    # the planner protocol

    def start(
        self, loop: ServingLoop, trace: ServingTrace, admitted: list[Request]
    ) -> None:
        rt = self.rt
        #: the batcher's tile set, read once per run (a retried
        #: megabatch re-quantizes onto it)
        self.tiles = (
            rt.batcher.effective_tiles()
            if isinstance(rt.batcher, ContinuousBatcher)
            else ()
        )
        if rt.numerics is not None and self.tiles:
            # size the arena for every tile the batcher can emit before
            # the first dispatch: steady-state serving then never pays a
            # warm-up overflow alloc
            rt.numerics.prereserve_tiles(self.tiles, trace.max_seq_len)
        self.loop = loop
        self.max_seq_len = trace.max_seq_len
        self.outputs: dict[int, np.ndarray] = {}
        self.batch_id = -1
        #: (qos, home device, pending dispatches) in replay-priority
        #: order; qos is None on the single-tenant path.  Each entry is
        #: one data-parallel replica's plan over its Σlen²-routed slice
        #: of a class — a single queue on device 0 when unsharded.
        self.queues: list[tuple[QosClass | None, int, deque[Dispatch]]] = []
        gateway = loop.gateway
        by_class: dict[QosClass | None, list[Request]] = {}
        for request in admitted:
            qos = gateway.qos_of(request.tenant) if gateway else None
            by_class.setdefault(qos, []).append(request)
        # class-pure plans: each QoS class is batched on its own, so a
        # dispatch is degradable (batch) or protected (SLO) as a whole;
        # SLO before batch is the replay priority order, and each class
        # is Σlen²-routed across the replicas on its own
        for qos in (QosClass.LATENCY_SLO, QosClass.THROUGHPUT_BATCH, None):
            for dev, bucket in enumerate(
                rt._router.route(by_class.get(qos, []))
            ):
                if not bucket:
                    continue
                sub_trace = ServingTrace(
                    requests=tuple(bucket), max_seq_len=trace.max_seq_len
                )
                routed_plan = sorted(
                    rt.batcher.plan(sub_trace), key=lambda d: d.ready_us
                )
                self.queues.append((qos, dev, deque(routed_plan)))

    def next_unit(self) -> _DispatchUnit | None:
        queues, free = self.queues, self.loop.free
        if not any(q for _, _, q in queues):
            return None
        picked: deque[Dispatch] | None = None
        for cls, dev, q in queues:
            # queues are priority-ordered (SLO before batch): the first
            # class with a head ready on its free home device runs next
            if q and q[0].ready_us <= free[dev]:
                qos, home, picked = cls, dev, q
                break
        if picked is None:
            # nothing ready on its home device yet: take the head that
            # can start earliest (ready time vs device free time; on one
            # device this is exactly the earliest head)
            qos, home, picked = min(
                ((cls, dev, q) for cls, dev, q in queues if q),
                key=lambda item: max(item[2][0].ready_us, free[item[1]]),
            )
        dispatch = picked.popleft()
        self.batch_id += 1
        # work stealing: a routed dispatch runs on whichever device can
        # start it soonest; ties stay home, so the single-device runtime
        # never "steals" from itself
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
                self.steals += 1
                tel = self.loop.tel
                if tel is not None:
                    tel.tracer.instant(
                        "dispatch.steal",
                        category="dispatch",
                        t_us=max(dispatch.ready_us, free[best]),
                        batch_id=self.batch_id,
                        home=home,
                        device=best,
                    )
        return _DispatchUnit(
            dispatch=dispatch,
            qos=qos,
            device=exec_dev,
            batch_id=self.batch_id,
            ready_us=dispatch.ready_us,
            alive=list(dispatch.requests),
        )

    def span(self, unit: _DispatchUnit) -> tuple[str, str, dict]:
        dispatch = unit.dispatch
        return (
            "dispatch.megabatch" if dispatch.tile is not None
            else "dispatch.batch",
            "dispatch",
            dict(
                batch_id=unit.batch_id,
                request_ids=[r.request_id for r in dispatch.requests],
                tile=dispatch.tile,
                ready_us=dispatch.ready_us,
            ),
        )

    def shed(self, unit: _DispatchUnit, now: float, attempt: int) -> None:
        """Shed members whose deadline has passed; before the first
        attempt, also those that cannot finish inside their budget even
        if the dispatch started right now."""
        loop = self.loop
        unit.alive, expired = shed_expired(unit.alive, now)
        for request in expired:
            loop.miss_deadline(request, now, attempt)
        if attempt or not unit.alive:
            return
        est, _ = self._price_group(
            self.new_ctx(), unit.alive, loop.level_for(unit.qos),
            unit.dispatch.tile,
        )
        still_alive = []
        for request in unit.alive:
            limit = request.absolute_deadline_us
            if limit is not None and now + est > limit:
                loop.miss_deadline(request, now)
            else:
                still_alive.append(request)
        unit.alive = still_alive

    def price(
        self,
        unit: _DispatchUnit,
        ctx: ExecutionContext,
        level: DegradationLevel,
    ) -> float:
        unit.tokens = sum(r.seq_len for r in unit.alive)
        if unit.dispatch.tile is not None:
            # megabatch: survivors of a faulted attempt were re-shed, so
            # this attempt covers only the still-affected segments —
            # re-quantized, usually onto a smaller (still graph-cached)
            # tile
            unit.tile = retile(unit.tokens, self.tiles, unit.dispatch.tile)
        service, unit.capacity = self._price_group(
            ctx, unit.alive, level, unit.tile
        )
        return service

    def price_top(self, unit: _DispatchUnit) -> float:
        # priced on a hook-free context, so the fault plan's ordinal and
        # the replay's launch stream are untouched
        return self._price_group(
            self.new_ctx(), unit.alive, self.rt.ladder.levels[0], unit.tile
        )[0]

    def commit(
        self,
        unit: _DispatchUnit,
        level: DegradationLevel,
        finish: float,
        attempt: int,
    ) -> None:
        loop = self.loop
        if loop.tel is not None:
            loop.tel.metrics.histogram(
                metric_names.VALID_TOKEN_UTILIZATION,
                help="valid tokens over dispatch capacity",
                buckets=RATIO_BUCKETS,
            ).observe(unit.tokens / unit.capacity)
        if self.rt.numerics is not None:
            for request, output in zip(
                unit.alive,
                self._compute_batch_outputs(unit.alive, level, unit.tile),
            ):
                self.outputs[request.request_id] = output
        for request in unit.alive:
            loop.settle(
                request,
                Outcome.SERVED,
                "",
                finish - request.arrival_us,
                attempt,
                now_us=finish,
                level=level.name,
            )

    def fail(self, unit: _DispatchUnit, now: float, attempt: int) -> None:
        for request in unit.alive:
            self.loop.settle(
                request, Outcome.FAILED, REASON_RETRY_BUDGET, None, attempt,
                now_us=now,
            )
        unit.alive = []

    def gauges(self, metrics) -> None:
        pass

    def report(self, **common) -> ServingReport:
        return ServingReport(
            **common,
            outputs=self.outputs,
            device_busy_us=tuple(self.loop.busy),
            work_steals=self.steals,
        )
