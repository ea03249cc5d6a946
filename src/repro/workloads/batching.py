"""Online batching policies for the serving emulator.

ByteTransformer's setting is online inference: requests with different
lengths arrive continuously.  *How* they are grouped into GPU batches is
a serving-side policy, orthogonal to the engine — and it interacts with
the padding story: a FIFO batcher mixes long and short sentences (worst
padding for a padded engine, irrelevant for a packed one), while a
length-bucketed batcher trades queueing delay for tighter batches.

Four policies are provided, each a generator of dispatch decisions over
a :class:`~repro.workloads.serving.ServingTrace`:

* :class:`FifoBatcher` — dispatch in arrival order once ``batch_size``
  requests are waiting (or the horizon ends);
* :class:`TimeoutBatcher` — dispatch when the batch fills *or* the oldest
  waiting request has waited ``timeout_us``;
* :class:`BucketBatcher` — like TimeoutBatcher, but requests are queued
  into length buckets and each dispatch drains one bucket — the serving-
  side analogue of TurboTransformer's smart batching;
* :class:`ContinuousBatcher` — token-budget megabatching: requests of
  any length are merged into one packed dispatch bounded by a *token*
  budget rather than a request count, and the packed shape is quantized
  to a small set of tiles (:data:`DEFAULT_TILES`) so the launch-graph
  cache key recurs under live traffic.

:func:`replay` runs a policy against a framework cost model on a single
simulated GPU and returns per-request latencies.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.config import BertConfig
from repro.frameworks.base import Framework
from repro.telemetry import COUNT_BUCKETS, RATIO_BUCKETS, current_telemetry
from repro.telemetry.slo import BATCH_FILL_RATIO, QUEUE_DEPTH
from repro.workloads.serving import Request, ServingTrace


def _observe_cut(
    queue_depth: int,
    cut: Sequence[Request],
    ready_us: float,
    *,
    tile: int | None = None,
    fill: float | None = None,
) -> None:
    """Record one batch cut into the installed telemetry (if any).

    Observation only: called after the cut is decided, never influencing
    which requests ship.  ``queue_depth`` is the waiting-pool size
    *before* the cut — the queue-pressure signal.
    """
    tel = current_telemetry()
    if tel is None or not tel.owns_current_thread():
        return
    tel.metrics.histogram(
        QUEUE_DEPTH,
        help="waiting requests when a batch was cut",
        buckets=COUNT_BUCKETS,
    ).observe(queue_depth)
    if fill is not None:
        tel.metrics.histogram(
            BATCH_FILL_RATIO,
            help="filled fraction of the batch budget at each cut",
            buckets=RATIO_BUCKETS,
        ).observe(fill)
    tel.tracer.instant(
        "batch.cut",
        category="batcher",
        t_us=ready_us,
        segments=len(cut),
        tokens=int(sum(r.seq_len for r in cut)),
        tile=tile,
    )


class TokenBudgetExceededError(ValueError):
    """A single request carries more valid tokens than the token budget.

    An encoder request is a single sequence: its tokens attend to each
    other, so it cannot be split across megabatches the way a decoder
    prompt can be chunked.  The batcher rejects it with this typed error
    instead of silently dropping or deadlocking on it.
    """


@dataclass(frozen=True)
class Dispatch:
    """One batch handed to the GPU.

    ``tile`` is ``None`` for the per-request batchers (FIFO / timeout /
    bucket).  A continuous megabatch sets it to the quantized token
    budget the packed buffer is shaped to; segment metadata
    (:attr:`segment_offsets`) then locates each request's rows inside
    the packed tensor so results can be scattered back to their owners.
    """

    requests: tuple[Request, ...]
    #: time at which the batch became eligible to start
    ready_us: float
    #: quantized token-budget tile for megabatch dispatches, else None
    tile: int | None = None

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a dispatch needs at least one request")
        if self.tile is not None and self.tile < self.total_tokens:
            raise ValueError(
                f"tile {self.tile} cannot hold {self.total_tokens} "
                "merged tokens"
            )

    @property
    def seq_lens(self) -> np.ndarray:
        return np.asarray([r.seq_len for r in self.requests], dtype=np.int64)

    @property
    def total_tokens(self) -> int:
        return int(sum(r.seq_len for r in self.requests))

    @property
    def segment_offsets(self) -> np.ndarray:
        """Row offsets of each request's segment in the packed buffer:
        ``offsets[i]:offsets[i+1]`` are request ``i``'s valid tokens."""
        offsets = np.zeros(len(self.requests) + 1, dtype=np.int64)
        np.cumsum(self.seq_lens, out=offsets[1:])
        return offsets


class Batcher(abc.ABC):
    """A batching policy: trace in, dispatches out."""

    name: str = "batcher"

    @abc.abstractmethod
    def plan(self, trace: ServingTrace) -> list[Dispatch]:
        """Partition the trace into dispatches with readiness times."""

    @staticmethod
    def _validate_cover(trace: ServingTrace, plan: list[Dispatch]) -> None:
        planned = sorted(
            r.request_id for d in plan for r in d.requests
        )
        expected = sorted(r.request_id for r in trace.requests)
        if planned != expected:
            raise AssertionError("batching plan lost or duplicated requests")


@dataclass
class FifoBatcher(Batcher):
    """Arrival-order batches of exactly ``batch_size`` (last one ragged)."""

    batch_size: int = 8
    name: str = "fifo"

    def plan(self, trace: ServingTrace) -> list[Dispatch]:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        plan = []
        for group in trace.batches(self.batch_size):
            plan.append(
                Dispatch(
                    requests=tuple(group),
                    ready_us=max(r.arrival_us for r in group),
                )
            )
        self._validate_cover(trace, plan)
        return plan


@dataclass
class TimeoutBatcher(Batcher):
    """Dispatch on full batch or when the head request ages out."""

    batch_size: int = 8
    timeout_us: float = 2000.0
    name: str = "timeout"

    def plan(self, trace: ServingTrace) -> list[Dispatch]:
        if self.batch_size <= 0 or self.timeout_us < 0:
            raise ValueError("invalid batcher parameters")
        plan: list[Dispatch] = []
        waiting: list[Request] = []
        for request in trace.requests:
            # before accepting this arrival, flush any group whose head
            # would exceed its deadline by then
            while waiting and (
                request.arrival_us
                > waiting[0].arrival_us + self.timeout_us
            ):
                depth = len(waiting)
                cut = waiting[: self.batch_size]
                waiting = waiting[self.batch_size :]
                ready = cut[0].arrival_us + self.timeout_us
                _observe_cut(
                    depth, cut, ready, fill=len(cut) / self.batch_size
                )
                plan.append(
                    Dispatch(requests=tuple(cut), ready_us=ready)
                )
            waiting.append(request)
            if len(waiting) >= self.batch_size:
                depth = len(waiting)
                cut = waiting[: self.batch_size]
                waiting = waiting[self.batch_size :]
                ready = cut[-1].arrival_us
                _observe_cut(
                    depth, cut, ready, fill=len(cut) / self.batch_size
                )
                plan.append(
                    Dispatch(requests=tuple(cut), ready_us=ready)
                )
        while waiting:
            depth = len(waiting)
            cut = waiting[: self.batch_size]
            waiting = waiting[self.batch_size :]
            ready = cut[0].arrival_us + self.timeout_us
            _observe_cut(
                depth, cut, ready, fill=len(cut) / self.batch_size
            )
            plan.append(
                Dispatch(requests=tuple(cut), ready_us=ready)
            )
        self._validate_cover(trace, plan)
        return plan


@dataclass
class BucketBatcher(Batcher):
    """Length-bucketed batching (serving-side smart batching).

    Requests are queued per length bucket (bucket ``i`` holds lengths in
    ``(i*width, (i+1)*width]``); a bucket dispatches when it has
    ``batch_size`` requests or its oldest member ages out.
    """

    batch_size: int = 8
    timeout_us: float = 2000.0
    bucket_width: int = 128
    name: str = "bucket"

    def plan(self, trace: ServingTrace) -> list[Dispatch]:
        if min(self.batch_size, self.bucket_width) <= 0 or self.timeout_us < 0:
            raise ValueError("invalid batcher parameters")
        buckets: dict[int, list[Request]] = {}
        plan: list[Dispatch] = []

        def flush(bucket: list[Request], ready: float) -> None:
            plan.append(Dispatch(requests=tuple(bucket), ready_us=ready))

        for request in trace.requests:
            # age out any bucket head older than the timeout at this time
            for key in list(buckets):
                queue = buckets[key]
                if (
                    queue
                    and request.arrival_us
                    > queue[0].arrival_us + self.timeout_us
                ):
                    flush(queue, queue[0].arrival_us + self.timeout_us)
                    buckets[key] = []
            key = (request.seq_len - 1) // self.bucket_width
            queue = buckets.setdefault(key, [])
            queue.append(request)
            if len(queue) >= self.batch_size:
                flush(queue, request.arrival_us)
                buckets[key] = []
        for queue in buckets.values():
            if queue:
                flush(queue, queue[0].arrival_us + self.timeout_us)
        plan.sort(key=lambda d: d.ready_us)
        self._validate_cover(trace, plan)
        return plan


#: default token-budget tiles the continuous batcher quantizes to — a
#: handful of compiled shapes, the CUDA-graph analogue of
#: :data:`SHAPE_GRANULARITY` for padded engines
DEFAULT_TILES = (512, 1024, 2048)


def quantize_tile(total_tokens: int, tiles: Sequence[int]) -> int:
    """Smallest tile that holds ``total_tokens`` valid tokens.

    Quantization padding is therefore bounded by ``tile - 1`` tokens per
    megabatch (one token over the next-smaller tile is the worst case).
    """
    if total_tokens <= 0:
        raise ValueError(f"total_tokens must be positive, got {total_tokens}")
    for tile in sorted(tiles):
        if total_tokens <= tile:
            return int(tile)
    raise TokenBudgetExceededError(
        f"{total_tokens} tokens exceed the largest tile {max(tiles)}"
    )


@dataclass
class ContinuousBatcher(Batcher):
    """Token-budget megabatching with shape-quantized dispatches.

    Requests are admitted into a rolling megabatch bounded by
    ``token_budget`` *valid tokens* (not a request count): a dispatch
    cuts when the waiting pool reaches the budget or the oldest waiting
    request ages past ``timeout_us``.  The fill is deadline-aware —
    requests with the earliest absolute deadlines are packed first, so a
    tight-deadline straggler is not starved by later bulk arrivals — but
    the oldest request is always included, which bounds head-of-line
    wait and guarantees the planner makes progress.

    Each dispatch is quantized to the smallest tile in ``tiles`` that
    holds its merged tokens (tiles above ``token_budget`` are never
    used; the budget itself is always available as the largest tile), so
    the (device, config, preset, tile) launch-graph key recurs and
    steady-state serving replays captured graphs instead of dispatching
    eagerly.  A request longer than the budget raises
    :class:`TokenBudgetExceededError`: an encoder sequence cannot be
    split across megabatches.
    """

    token_budget: int = 2048
    timeout_us: float = 2000.0
    tiles: tuple[int, ...] = DEFAULT_TILES
    #: fraction of the head request's deadline budget it may spend
    #: waiting in the queue before the megabatch is cut regardless of
    #: fill.  Under sustained arrivals the budget cut keeps firing and
    #: the plain head timeout never does — without this bound a head
    #: request with a deadline tighter than ``timeout_us`` would sit
    #: behind deadline-sorted later arrivals until it could only be
    #: shed (the head-timeout starvation bug).
    deadline_slack: float = 0.5
    name: str = "continuous"

    def effective_tiles(self) -> tuple[int, ...]:
        """Tiles actually used: those under the budget, plus the budget."""
        under = sorted(t for t in self.tiles if t < self.token_budget)
        return tuple(under) + (self.token_budget,)

    def _head_due_us(self, head: Request) -> float:
        """Latest instant the head may still be waiting uncut.

        The plain policy is ``arrival + timeout_us``; a head carrying a
        deadline must ship earlier — after ``deadline_slack`` of its
        budget — so the dispatch still has the remaining
        ``(1 - deadline_slack)`` of the budget to actually run in.
        """
        due = head.arrival_us + self.timeout_us
        if head.deadline_us is not None:
            due = min(
                due, head.arrival_us + self.deadline_slack * head.deadline_us
            )
        return due

    def plan(self, trace: ServingTrace) -> list[Dispatch]:
        if self.token_budget <= 0 or self.timeout_us < 0:
            raise ValueError("invalid batcher parameters")
        if not 0.0 < self.deadline_slack <= 1.0:
            raise ValueError(
                f"deadline_slack must be in (0, 1], got {self.deadline_slack}"
            )
        if self.tiles and min(self.tiles) <= 0:
            raise ValueError("tiles must be positive")
        for request in trace.requests:
            if request.seq_len > self.token_budget:
                raise TokenBudgetExceededError(
                    f"request {request.request_id} has {request.seq_len} "
                    f"tokens, more than the {self.token_budget}-token "
                    "budget; an encoder sequence cannot be split"
                )
        tel = current_telemetry()
        if tel is not None and not tel.owns_current_thread():
            tel = None
        plan: list[Dispatch] = []
        waiting: list[Request] = []
        #: valid tokens in ``waiting``, kept as requests join and leave
        waiting_tokens = 0

        def cut(ready_us: float) -> None:
            nonlocal waiting_tokens
            dispatch = self._cut(waiting, ready_us)
            waiting_tokens -= dispatch.total_tokens
            plan.append(dispatch)

        for request in trace.requests:
            # flush any megabatch whose head ages out — or would burn
            # too much of its deadline budget — before this arrival
            while waiting and (
                request.arrival_us > self._head_due_us(waiting[0])
            ):
                cut(self._head_due_us(waiting[0]))
            waiting.append(request)
            waiting_tokens += request.seq_len
            if tel is not None:
                tel.metrics.counter(
                    "batcher_admitted_total",
                    help="requests admitted into the rolling megabatch",
                ).inc()
            while waiting_tokens >= self.token_budget:
                cut(request.arrival_us)
        while waiting:
            plan.append(self._cut(waiting, self._head_due_us(waiting[0])))
        plan.sort(key=lambda d: d.ready_us)
        self._validate_cover(trace, plan)
        return plan

    def _cut(self, waiting: list[Request], ready_us: float) -> Dispatch:
        """Fill one megabatch from ``waiting`` (mutating it) and tile it."""
        # the head always ships (progress guarantee); the rest of the
        # budget goes to the tightest deadlines first, among requests
        # that have actually arrived by the cut instant (a timeout cut
        # fires before later queue members exist)
        chosen = {0}
        used = waiting[0].seq_len
        by_deadline = sorted(
            (
                i
                for i in range(1, len(waiting))
                if waiting[i].arrival_us <= ready_us
            ),
            key=lambda i: (
                waiting[i].absolute_deadline_us is None,
                waiting[i].absolute_deadline_us or 0.0,
                waiting[i].arrival_us,
                waiting[i].request_id,
            ),
        )
        for i in by_deadline:
            if used + waiting[i].seq_len <= self.token_budget:
                chosen.add(i)
                used += waiting[i].seq_len
        depth = len(waiting)
        cut = [r for i, r in enumerate(waiting) if i in chosen]
        waiting[:] = [r for i, r in enumerate(waiting) if i not in chosen]
        tile = quantize_tile(used, self.effective_tiles())
        _observe_cut(
            depth, cut, ready_us, tile=tile, fill=used / self.token_budget
        )
        return Dispatch(requests=tuple(cut), ready_us=ready_us, tile=tile)


@dataclass(frozen=True)
class DecodeRound:
    """One mixed prefill/decode megabatch cut by the mixed batcher.

    ``decode_ids`` are in-flight requests stepping one token each this
    round; ``prefills`` are newly admitted prompts prefilled in the same
    packed dispatch.  The total valid-token load of the round is
    ``prefill_tokens + decode_batch`` (one QKV row per decode step).
    ``prefill_tile`` is the quantized tile the prefill segment is priced
    at (0 when the round carries no prefills).
    """

    decode_ids: tuple[int, ...]
    prefills: tuple[Request, ...]
    ready_us: float
    prefill_tile: int = 0

    def __post_init__(self) -> None:
        if not self.decode_ids and not self.prefills:
            raise ValueError("a decode round needs prefill or decode work")
        if self.prefills and self.prefill_tile < self.prefill_tokens:
            raise ValueError(
                f"prefill tile {self.prefill_tile} cannot hold "
                f"{self.prefill_tokens} prompt tokens"
            )

    @property
    def prefill_tokens(self) -> int:
        return int(sum(r.seq_len for r in self.prefills))

    @property
    def decode_batch(self) -> int:
        return len(self.decode_ids)

    @property
    def total_tokens(self) -> int:
        return self.prefill_tokens + self.decode_batch


@dataclass
class MixedContinuousBatcher:
    """Continuous batching with prefills and decode steps in one budget.

    Each round spends the same ``token_budget`` the encoder megabatcher
    uses, but on two kinds of work: every in-flight request contributes
    one decode-step row, and the residual budget admits waiting prompts
    (tightest deadline first, head-of-queue always eligible).  The
    ``decode_priority`` knob caps how much of the budget decode steps
    may claim while prompts are waiting — at 1.0 in-flight streams are
    never slowed by new arrivals (maximum streaming smoothness, worst
    prompt queueing); lower values admit prompts sooner at the cost of
    skipped decode steps for some streams.  With nothing waiting, decode
    always gets the whole budget.

    Unlike the encoder batchers this is not a trace-in/plan-out policy:
    decode rounds depend on runtime state (which requests are still
    generating), so the serving runtime calls :meth:`plan_round` once
    per round with the live picture.
    """

    token_budget: int = 2048
    tiles: tuple[int, ...] = DEFAULT_TILES
    #: budget fraction decode steps may claim while prompts are waiting
    decode_priority: float = 0.75
    name: str = "mixed"

    def __post_init__(self) -> None:
        if self.token_budget <= 0:
            raise ValueError("token_budget must be positive")
        if not 0.0 < self.decode_priority <= 1.0:
            raise ValueError(
                f"decode_priority must be in (0, 1], got "
                f"{self.decode_priority}"
            )
        if self.tiles and min(self.tiles) <= 0:
            raise ValueError("tiles must be positive")

    def effective_tiles(self) -> tuple[int, ...]:
        """Tiles actually used: those under the budget, plus the budget."""
        under = sorted(t for t in self.tiles if t < self.token_budget)
        return tuple(under) + (self.token_budget,)

    def plan_round(
        self,
        waiting: Sequence[Request],
        active_decode_ids: Sequence[int],
        now_us: float,
    ) -> DecodeRound | None:
        """Cut one mixed round from the live serving state.

        ``waiting`` are admitted-but-unprefilled requests (any order;
        arrivals after ``now_us`` are ignored); ``active_decode_ids``
        are in-flight request ids in activation order — the order is the
        fairness policy when the decode cap bites.  Returns ``None``
        when there is nothing to do this round (the empty-round case:
        the runtime advances its clock to the next arrival instead).
        """
        arrived = [r for r in waiting if r.arrival_us <= now_us]
        for request in arrived:
            if request.seq_len > self.token_budget:
                raise TokenBudgetExceededError(
                    f"request {request.request_id} has {request.seq_len} "
                    f"prompt tokens, more than the {self.token_budget}-"
                    "token budget; a prompt cannot be split"
                )
        cap = (
            self.token_budget
            if not arrived
            else max(1, round(self.token_budget * self.decode_priority))
        )
        decode_ids = tuple(active_decode_ids[:cap])
        residual = self.token_budget - len(decode_ids)
        by_deadline = sorted(
            range(len(arrived)),
            key=lambda i: (
                arrived[i].absolute_deadline_us is None,
                arrived[i].absolute_deadline_us or 0.0,
                arrived[i].arrival_us,
                arrived[i].request_id,
            ),
        )
        chosen: list[Request] = []
        used = 0
        for i in by_deadline:
            if used + arrived[i].seq_len <= residual:
                chosen.append(arrived[i])
                used += arrived[i].seq_len
        if not decode_ids and not chosen:
            return None
        tile = (
            quantize_tile(used, self.effective_tiles()) if chosen else 0
        )
        round_ = DecodeRound(
            decode_ids=decode_ids,
            prefills=tuple(chosen),
            ready_us=now_us,
            prefill_tile=tile,
        )
        _observe_cut(
            len(waiting),
            chosen,
            now_us,
            tile=tile or None,
            fill=round_.total_tokens / self.token_budget,
        )
        return round_


@dataclass(frozen=True)
class ReplayResult:
    """Per-request latencies of one (policy, framework) replay."""

    policy: str
    framework: str
    latencies_us: np.ndarray
    gpu_busy_us: float
    makespan_us: float

    @property
    def mean_ms(self) -> float:
        return float(self.latencies_us.mean()) / 1000.0

    @property
    def p99_ms(self) -> float:
        return float(np.percentile(self.latencies_us, 99)) / 1000.0

    @property
    def utilisation(self) -> float:
        return self.gpu_busy_us / self.makespan_us if self.makespan_us else 0.0


def shed_expired(
    requests: Sequence[Request], now_us: float
) -> tuple[list[Request], list[Request]]:
    """Split ``requests`` into ``(alive, expired)`` at simulated ``now_us``.

    A request whose absolute deadline is at or before ``now_us`` can no
    longer be served in time (any service takes strictly positive time),
    so the batcher sheds it instead of burning GPU time on a response
    nobody will wait for.  Deadline-free requests are always alive.
    """
    alive: list[Request] = []
    expired: list[Request] = []
    for request in requests:
        limit = request.absolute_deadline_us
        if limit is not None and limit <= now_us:
            expired.append(request)
        else:
            alive.append(request)
    return alive, expired


#: per-dispatch padded shapes are rounded up to this granularity, the
#: way serving deployments keep a small set of compiled shapes
SHAPE_GRANULARITY = 64


def dispatch_padded_len(dispatch: Dispatch, cap: int) -> int:
    """Padded sequence length a serving system would use for this batch:
    the batch maximum rounded up to :data:`SHAPE_GRANULARITY`, capped at
    the model's maximum."""
    longest = int(dispatch.seq_lens.max())
    rounded = -(-longest // SHAPE_GRANULARITY) * SHAPE_GRANULARITY
    return min(cap, rounded)


def replay(
    trace: ServingTrace,
    batcher: Batcher,
    framework: Framework,
    config: BertConfig,
) -> ReplayResult:
    """Run a batching policy against a framework on one simulated GPU.

    Batches execute serially in readiness order.  Each batch is padded to
    its own rounded maximum (see :func:`dispatch_padded_len`) — so a
    length-homogeneous policy directly shrinks the padded engines' work,
    while packed engines only ever pay for valid tokens.
    """
    plan = sorted(batcher.plan(trace), key=lambda d: d.ready_us)
    latencies = np.empty(trace.num_requests)
    gpu_free_at = 0.0
    busy = 0.0
    for dispatch in plan:
        start = max(dispatch.ready_us, gpu_free_at)
        service = framework.latency_us(
            config,
            dispatch.seq_lens,
            dispatch_padded_len(dispatch, trace.max_seq_len),
        )
        finish = start + service
        gpu_free_at = finish
        busy += service
        for request in dispatch.requests:
            latencies[request.request_id] = finish - request.arrival_us
    return ReplayResult(
        policy=batcher.name,
        framework=framework.name,
        latencies_us=latencies,
        gpu_busy_us=busy,
        makespan_us=gpu_free_at,
    )
