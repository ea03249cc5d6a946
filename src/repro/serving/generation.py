"""Decode serving: continuous prefill/decode batching over a paged KV arena.

:class:`GenerationRuntime` is the autoregressive sibling of
:class:`~repro.serving.runtime.ServingRuntime`: it replays a trace of
:class:`~repro.workloads.serving.GenerationRequest`\\ s through mixed
prefill/decode rounds cut by a
:class:`~repro.workloads.batching.MixedContinuousBatcher`, holds every
in-flight request's KV history in a
:class:`~repro.decoder.paged_kv.PagedKVArena`, and prices each round as
one batched kernel chain (fused QKV GEMM + packed varlen prefill
attention + paged varlen decode attention + output GEMM), graph-cached
under tile-quantized keys.

Two planes, one contract — decode edition
-----------------------------------------
Latency lives on the *cost plane*: a round's service time is the
modelled batched chain at the ladder's current rung (``batched`` paged
varlen or the ``looped`` per-request fallback), and injected faults
strike that chain.  Generated tokens live on the *numeric plane*: every
round commits one packed QKV GEMM over all its rows, per-request
attention over the K/V the paged arena mirrors contiguously per
request, and one packed output GEMM.  Row-stacked GEMMs are bitwise
row-equal to per-request GEMMs (the M=1 pinning + row-split invariance
contract in :mod:`repro.kernels.gemm`), and the arena's mirror holds
exactly the contiguous K/V layout the per-request cache holds — so
every request's token stream is *bitwise* equal to the looped
:func:`~repro.decoder.generation.generate_cell_reference` oracle,
however the scheduler interleaved, preempted or resumed it.  The chaos
tests assert exactly that.

The numeric plane is float64 (prompts, KV arena, activations).  The
decode-cell weights are float32, so a numeric runtime casts them to
float64 once, at construction, instead of leaving numpy to re-cast
them inside every GEMM of every round.  The oracle keeps the float32
weights and the per-call cast; both make the same dgemm call on the
same float64 operands, so the bits are the same and the oracle tests
compare cast-once against cast-per-call on every served stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import BertConfig
from repro.decoder.estimator import (
    estimate_decode_round_looped,
    estimate_decode_round_tiled,
)
from repro.decoder.generation import (
    DecodeCellWeights,
    attend_to_cache,
    init_decode_cell,
    max_decode_steps,
)
from repro.decoder.paged_kv import (
    DEFAULT_KV_BLOCK_TOKENS,
    PagedKVArena,
)
from repro.gpusim.device import A100_SPEC, DeviceSpec
from repro.gpusim.graph import GraphCache
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import BYTES_PER_ELEMENT
from repro.gpusim.stream import ExecutionContext, NullContext
from repro.kernels.gemm import gemm
from repro.serving.degradation import (
    DECODE_LEVELS,
    DegradationLadder,
    DegradationLevel,
)
from repro.serving.faults import NO_FAULTS, FaultSpec
from repro.serving.gateway import AdmissionGateway
from repro.serving.loop import ServingLoop
from repro.serving.report import (
    Outcome,
    REASON_ADMISSION,
    REASON_RETRY_BUDGET,
    ServingReport,
)
from repro.serving.retry import RetryPolicy
from repro.telemetry import RATIO_BUCKETS, Telemetry
from repro.telemetry import slo as metric_names
from repro.workloads.batching import (
    DecodeRound,
    MixedContinuousBatcher,
    TokenBudgetExceededError,
    shed_expired,
)
from repro.workloads.serving import Request, ServingTrace


def _kv_swap_launch(tokens: int, hidden: int, name: str) -> KernelLaunch:
    """Host<->device copy of one request's K/V rows (eviction traffic)."""
    return KernelLaunch(
        name=name,
        category="kv_swap",
        grid=max(1, -(-tokens // DEFAULT_KV_BLOCK_TOKENS)),
        block_threads=128,
        dram_bytes=2.0 * tokens * hidden * BYTES_PER_ELEMENT,
        regs_per_thread=32,
    )


@dataclass
class _GenState:
    """One admitted request's progress through the decode runtime."""

    request: Request  # possibly gateway-re-anchored
    steps_total: int
    #: generated hidden rows; the numeric plane only
    tokens: list[np.ndarray] = field(default_factory=list)
    token_times: list[float] = field(default_factory=list)
    retries: int = 0

    @property
    def done(self) -> bool:
        return len(self.token_times) >= self.steps_total


@dataclass(frozen=True)
class GenerationReport(ServingReport):
    """Everything one decode chaos replay is accountable for.

    ``outputs`` holds the generated hidden rows per served request
    (``rid -> [T, H]``).
    """

    #: simulated finish instant of each generated token, per request
    token_times: dict[int, tuple[float, ...]] = field(
        default_factory=dict, compare=False
    )
    generated_tokens: int = 0
    rounds: int = 0
    kv_stats: dict[str, float] = field(default_factory=dict, compare=False)
    graph_hits: int = 0
    graph_lookups: int = 0

    def counts(self) -> dict[str, int]:
        """Outcome tally, without the encoder's served splits."""
        return {
            k: v
            for k, v in super().counts().items()
            if not k.startswith("served-")
        }

    @property
    def us_per_token(self) -> float:
        """Modelled GPU µs per generated token — the headline metric."""
        if not self.generated_tokens:
            return float("inf")
        return self.gpu_busy_us / self.generated_tokens

    @property
    def graph_hit_rate(self) -> float:
        if not self.graph_lookups:
            return 0.0
        return self.graph_hits / self.graph_lookups

    def ttft_us(self, rid: int, arrival_us: float) -> float | None:
        times = self.token_times.get(rid)
        if not times:
            return None
        return times[0] - arrival_us

    def render_text(self) -> str:
        counts = self.counts()
        lines = [
            f"generation report: {len(self.outcomes)} requests, "
            f"{self.generated_tokens} tokens in {self.rounds} rounds, "
            f"makespan {self.makespan_us / 1000:.2f} ms, "
            f"GPU busy {self.gpu_busy_us / 1000:.2f} ms "
            f"({self.us_per_token:.2f} us/token)",
            "  outcomes: "
            + ", ".join(f"{k}={v}" for k, v in counts.items()),
            f"  graph cache: {self.graph_hits}/{self.graph_lookups} replays "
            f"(hit rate {self.graph_hit_rate:.2f})",
        ]
        if self.kv_stats:
            lines.append(
                "  kv arena: "
                + ", ".join(
                    f"{k}={v:g}" for k, v in sorted(self.kv_stats.items())
                )
            )
        return "\n".join(lines + self.transition_lines())


class GenerationRuntime:
    """Serve autoregressive traces through mixed prefill/decode rounds.

    Parameters
    ----------
    config:
        Model shape; the decode cell weights derive from it.
    batcher:
        Round-cutting policy; a default
        :class:`~repro.workloads.batching.MixedContinuousBatcher` when
        omitted.
    retry / gateway / ladder / faults / telemetry:
        The same robustness knobs :class:`ServingRuntime` takes.  The
        default ladder is :data:`~repro.serving.degradation.DECODE_LEVELS`
        (batched paged varlen, then looped per-request pricing — same
        bits on both rungs).
    kv_capacity_tokens:
        KV arena size.  ``None`` sizes it to hold every admitted
        request's full trajectory (no eviction ever); smaller values
        exercise swap-out preemption and resume.
    kv_block_tokens:
        Tokens per KV block.
    weights:
        Decode cell weights; defaults to
        :func:`~repro.decoder.generation.init_decode_cell` at ``seed``.
        :attr:`weights` reads back the caller's object unchanged.
    compute_outputs:
        When ``False`` the numeric plane is skipped entirely (cost-plane
        pricing only — much faster for large benches); outputs/token
        bits are then unavailable, but modelled times, outcomes and KV
        block accounting are unchanged (KV bookkeeping runs on lengths
        alone, never on the values), no float64 weight copy is built
        and default weights are not drawn at all.
    """

    #: no high-water-mark controller: without a gateway, the loop's
    #: single-tenant pass admits every request
    admission = None

    def __init__(
        self,
        config: BertConfig,
        *,
        batcher: MixedContinuousBatcher | None = None,
        retry: RetryPolicy | None = None,
        gateway: AdmissionGateway | None = None,
        ladder: DegradationLadder | None = None,
        faults: FaultSpec = NO_FAULTS,
        device: DeviceSpec = A100_SPEC,
        seed: int = 0,
        use_graph: bool = True,
        kv_capacity_tokens: int | None = None,
        kv_block_tokens: int = DEFAULT_KV_BLOCK_TOKENS,
        weights: DecodeCellWeights | None = None,
        compute_outputs: bool = True,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config
        self.batcher = (
            batcher if batcher is not None else MixedContinuousBatcher()
        )
        self.retry = retry if retry is not None else RetryPolicy()
        self.gateway = gateway
        self.ladder = (
            ladder if ladder is not None else DegradationLadder(DECODE_LEVELS)
        )
        self.faults = faults
        self.device = device
        self.seed = seed
        self.graph_cache = GraphCache() if use_graph else None
        self.kv_capacity_tokens = kv_capacity_tokens
        self.kv_block_tokens = kv_block_tokens
        self.compute_outputs = compute_outputs
        # the numeric plane runs in float64 (prompts and the KV arena):
        # cast the weights to it once here, not on every GEMM of every
        # round; a cost-plane runtime never builds the copy
        self._weights64: DecodeCellWeights | None = None
        if compute_outputs:
            self._weights64 = (
                weights
                if weights is not None
                else init_decode_cell(config, seed)
            ).astype(np.float64)
        # drawn weights are never kept in float32 (see `weights`), so a
        # numeric runtime holds one set of weights and a cost-plane
        # runtime none
        self._weights = weights
        self.telemetry = telemetry
        #: the arena of the most recent run (inspection/tests)
        self.arena: PagedKVArena | None = None

    @property
    def weights(self) -> DecodeCellWeights:
        """The decode-cell weights the runtime was built with.

        The caller's object when one was passed.  Otherwise the float32
        weights drawn at ``seed``: a fresh copy rounded back from the
        float64 numeric copy when there is one, which is exactly the
        drawn values (float32 -> float64 -> float32 is lossless), else
        a fresh :func:`~repro.decoder.generation.init_decode_cell` draw,
        which is deterministic in ``seed``.
        """
        if self._weights is not None:
            return self._weights
        if self._weights64 is not None:
            return self._weights64.astype(np.float32)
        return init_decode_cell(self.config, self.seed)

    # ------------------------------------------------------------------

    def prompt_for(self, request: Request) -> np.ndarray:
        """Deterministic ``[len, H]`` prompt, independent of batching."""
        rng = np.random.default_rng([self.seed, request.request_id])
        return rng.standard_normal(
            (request.seq_len, self.config.hidden_size)
        )

    def decode_steps_for(self, request: Request, max_context: int) -> int:
        """Tokens ``request`` actually gets under the context cap."""
        return max_decode_steps(
            request.seq_len,
            getattr(request, "decode_tokens", 1),
            max_context,
        )

    def estimate_service_rate(self, max_seq_len: int) -> float:
        """Modelled drain capacity in tokens/µs for the gateway DRR."""
        tile = max(self.batcher.effective_tiles())
        service = estimate_decode_round_tiled(
            ExecutionContext(self.device),
            self.config,
            prefill_tile=tile,
            decode_batch=0,
            kv_tokens=0,
            max_seq_len=max_seq_len,
            block_tokens=self.kv_block_tokens,
        )
        return tile / service

    def run(self, trace: ServingTrace) -> GenerationReport:
        """Replay ``trace``; every request gets exactly one outcome."""
        return ServingLoop(self).run(trace, _DecodePlanner(self))


@dataclass
class _RoundUnit:
    """One mixed prefill/decode round, as cut and trimmed."""

    round_: DecodeRound
    prefills: list[Request]
    decode_ids: list[int]
    decode_contexts: list[int]
    ready_us: float
    device: int = 0
    qos: None = None

    @property
    def size(self) -> int:
        return len(self.prefills) + len(self.decode_ids)

    @property
    def tokens(self) -> int:
        """Tokens the round commits (at least 1): the prompts and decode
        steps left after KV pressure evicted or deferred rows, not the
        round as planned."""
        return max(
            1, sum(r.seq_len for r in self.prefills) + len(self.decode_ids)
        )


class _DecodePlanner:
    """The decode round planner for :class:`ServingLoop`.

    Rounds are cut from the live state (arrivals, waiting prompts,
    in-flight streams) by the runtime's
    :class:`~repro.workloads.batching.MixedContinuousBatcher`.  Before a
    round, paused streams swap back in while their blocks fit; under KV
    pressure the youngest active streams swap out and the least urgent
    prompts defer.  A served round commits on the numeric plane and
    appends every row to the paged KV arena.
    """

    replicas = 1
    steals = 0

    def __init__(self, runtime: GenerationRuntime) -> None:
        self.rt = runtime
        self._rate: float | None = None

    def new_ctx(self) -> ExecutionContext:
        return ExecutionContext(self.rt.device)

    def admission_estimate_us(
        self, request: Request, max_seq_len: int
    ) -> float:
        """The rows the request puts through rounds (its prompt and
        every decode step after the first token) at the modelled
        drain rate."""
        if self._rate is None:
            self._rate = self.rt.estimate_service_rate(max_seq_len)
        steps = self.rt.decode_steps_for(request, max_seq_len)
        return (request.seq_len + steps - 1) / self._rate

    def _price_round(
        self,
        ctx: ExecutionContext,
        level: DegradationLevel,
        unit: _RoundUnit,
        cache: GraphCache | None,
    ) -> float:
        rt = self.rt
        prefill_lens = [r.seq_len for r in unit.prefills]
        if level.decode_path == "looped":
            return estimate_decode_round_looped(
                ctx,
                rt.config,
                np.asarray(prefill_lens, dtype=np.int64),
                np.asarray(unit.decode_contexts, dtype=np.int64),
            )
        return estimate_decode_round_tiled(
            ctx,
            rt.config,
            prefill_tile=unit.round_.prefill_tile if prefill_lens else 0,
            decode_batch=len(unit.decode_contexts),
            kv_tokens=int(sum(unit.decode_contexts)),
            max_seq_len=self.max_context,
            block_tokens=rt.kv_block_tokens,
            cache=cache,
        )

    # ------------------------------------------------------------------
    # the planner protocol

    def start(
        self, loop: ServingLoop, trace: ServingTrace, admitted: list[Request]
    ) -> None:
        rt = self.rt
        for request in trace.requests:
            if request.seq_len > rt.batcher.token_budget:
                raise TokenBudgetExceededError(
                    f"request {request.request_id} has {request.seq_len} "
                    f"prompt tokens, more than the "
                    f"{rt.batcher.token_budget}-token budget"
                )
        self.loop = loop
        self.max_context = max_context = trace.max_seq_len
        admitted = sorted(admitted, key=lambda r: (r.arrival_us, r.request_id))

        # -- the arena, sized to the admitted stream -------------------
        block = rt.kv_block_tokens
        if rt.kv_capacity_tokens is not None:
            capacity = rt.kv_capacity_tokens
        else:
            # full-trajectory blocks per request: never any eviction
            capacity = max(
                block,
                sum(
                    self._blocks(
                        r.seq_len + rt.decode_steps_for(r, max_context) - 1
                    )
                    * block
                    for r in admitted
                ),
            )
        self.arena = arena = PagedKVArena(
            rt.config.hidden_size, capacity, block_tokens=block
        )
        rt.arena = arena

        self.states: dict[int, _GenState] = {}
        for request in admitted:
            self.states[request.request_id] = _GenState(
                request=request,
                steps_total=rt.decode_steps_for(request, max_context),
            )
            if self._blocks(request.seq_len) > arena.num_blocks:
                # the prompt alone can never fit the arena: refuse at
                # admission instead of deadlocking the eviction loop
                loop.settle(
                    request, Outcome.SHED, REASON_ADMISSION, None, 0,
                    now_us=request.arrival_us,
                )
                del self.states[request.request_id]

        self.pending: deque[Request] = deque(
            s.request
            for s in sorted(
                self.states.values(),
                key=lambda s: (s.request.arrival_us, s.request.request_id),
            )
        )
        self.waiting: list[Request] = []
        self.active: list[int] = []
        self.paused: list[int] = []
        self.now = 0.0
        self.rounds = 0
        self.generated = 0

    def _blocks(self, tokens: int) -> int:
        """KV blocks that hold ``tokens`` rows."""
        return -(-tokens // self.rt.kv_block_tokens)

    def _charge_swap(self, tokens: int, name: str) -> None:
        """Price a KV swap copy and run it on the device."""
        ctx = self.new_ctx()
        ctx.launch(_kv_swap_launch(tokens, self.rt.config.hidden_size, name))
        us = ctx.elapsed_us()
        self.loop.busy[0] += us
        self.now += us
        self.loop.free[0] = self.now

    def next_unit(self) -> _RoundUnit | None:
        loop, arena, states = self.loop, self.arena, self.states
        while self.pending or self.waiting or self.active or self.paused:
            while self.pending and self.pending[0].arrival_us <= self.now:
                self.waiting.append(self.pending.popleft())
            alive, expired = shed_expired(self.waiting, self.now)
            for request in expired:
                loop.miss_deadline(request, self.now)
                states.pop(request.request_id, None)
            self.waiting = alive
            # resume preempted requests (oldest paused first) while their
            # blocks fit; the swap-in copy is priced, and the restored
            # K/V are bit-for-bit what was evicted
            while self.paused:
                rid = self.paused[0]
                state = states[rid]
                need = self._blocks(
                    state.request.seq_len + len(state.token_times) - 1
                )
                if need > arena.free_blocks:
                    break
                self._charge_swap(arena.swap_in(rid), "kv_swap_in")
                self.paused.pop(0)
                self.active.append(rid)
            round_ = self.rt.batcher.plan_round(
                self.waiting, self.active, self.now
            )
            if round_ is None:
                if self.pending:
                    self.now = max(self.now, self.pending[0].arrival_us)
                    continue
                if self.paused and not self.active and not self.waiting:
                    # can't happen with a paused-fits-alone arena (the
                    # admission check refused larger prompts), but never
                    # spin silently
                    raise RuntimeError(
                        f"paused requests {self.paused} can never resume"
                    )
                return None
            decode_ids = list(round_.decode_ids)
            prefills = list(round_.prefills)

            # -- KV pressure: evict the youngest active streams --------
            def blocks_required() -> int:
                need = sum(arena.blocks_needed(rid, 1) for rid in decode_ids)
                need += sum(self._blocks(r.seq_len) for r in prefills)
                return need

            while blocks_required() > arena.free_blocks and self.active:
                victim = max(
                    self.active,
                    key=lambda rid: (states[rid].request.arrival_us, rid),
                )
                self._charge_swap(arena.swap_out(victim), "kv_swap_out")
                self.active.remove(victim)
                self.paused.append(victim)
                if victim in decode_ids:
                    decode_ids.remove(victim)
                if loop.tel is not None:
                    loop.tel.metrics.counter(
                        metric_names.KV_EVICTIONS_TOTAL,
                        help="KV arena swap-out preemptions",
                    ).inc()
            while blocks_required() > arena.free_blocks and prefills:
                # even an empty pool can't host every prompt this round:
                # defer the least urgent admissions to a later round
                prefills.pop()
            if not decode_ids and not prefills:
                # everything this round was evicted or deferred.  The
                # eviction freed blocks (or a deferral shrank the ask),
                # so the next iteration's swap-in/plan makes progress:
                # the admission check guarantees any single prompt or
                # paused stream fits an otherwise-empty arena.
                continue

            self.rounds += 1
            return _RoundUnit(
                round_=round_,
                prefills=prefills,
                decode_ids=decode_ids,
                decode_contexts=[
                    arena.context_len(rid) + 1 for rid in decode_ids
                ],
                ready_us=self.now,
            )
        return None

    def span(self, unit: _RoundUnit) -> tuple[str, str, dict]:
        # not a "dispatch": the critical-path walker keeps decode
        # streams as single undecomposed edges
        return (
            "round",
            "decode",
            dict(
                prefills=len(unit.prefills),
                decode=len(unit.decode_ids),
                tile=unit.round_.prefill_tile or None,
            ),
        )

    def shed(self, unit: _RoundUnit, now: float, attempt: int) -> None:
        # waiting prompts were shed for their deadlines before the cut;
        # a round in flight runs to completion
        pass

    def price(
        self,
        unit: _RoundUnit,
        ctx: ExecutionContext,
        level: DegradationLevel,
    ) -> float:
        return self._price_round(ctx, level, unit, self.rt.graph_cache)

    def price_top(self, unit: _RoundUnit) -> float:
        # no graph cache: observation must not move the cache counters
        return self._price_round(
            self.new_ctx(), self.rt.ladder.levels[0], unit, None
        )

    def _settle_served(self, state: _GenState, finish: float) -> None:
        rid = state.request.request_id
        self.loop.settle(
            state.request, Outcome.SERVED, "",
            finish - state.request.arrival_us, state.retries,
            now_us=finish, level=self.rt.ladder.level.name,
            token_times=tuple(state.token_times),
        )
        self.arena.free(rid)
        if rid in self.active:
            self.active.remove(rid)

    def commit(
        self,
        unit: _RoundUnit,
        level: DegradationLevel,
        finish: float,
        attempt: int,
    ) -> None:
        rt, arena, states = self.rt, self.arena, self.states
        hidden, heads = rt.config.hidden_size, rt.config.num_heads
        prefills, decode_ids = unit.prefills, unit.decode_ids
        self.now = finish

        # -- commit (numeric plane) ------------------------------------
        # One packed QKV GEMM over every row in the round, then
        # per-request attention over views of the arena's contiguous K/V
        # mirrors, then one packed output GEMM.  KV state mutates only
        # here — a faulted attempt never touched it.  Prefills append
        # their prompt rows, decode steps one row each.
        rows = [(r.request_id, r.seq_len) for r in prefills]
        rows += [(rid, 1) for rid in decode_ids]
        out = None
        if rt.compute_outputs:
            weights = rt._weights64
            null_ctx = NullContext()
            segments = [rt.prompt_for(r) for r in prefills]
            if decode_ids:
                segments.append(
                    np.stack([states[rid].tokens[-1] for rid in decode_ids])
                )
            qkv = gemm(
                np.concatenate(segments), weights.qkv_weight,
                bias=weights.qkv_bias,
                ctx=null_ctx, name="decode_qkv", category="decode_gemm",
            )
            attn_rows = []
            offset = 0
            for rid, count in rows:
                seg = qkv[offset : offset + count]
                offset += count
                arena.append_rows(
                    rid, seg[:, hidden : 2 * hidden], seg[:, 2 * hidden :]
                )
                keys, values = arena.gathered(rid)
                attn_rows.append(
                    attend_to_cache(seg[-1, :hidden], keys, values, heads)
                )
            out = gemm(
                np.stack(attn_rows), weights.out_weight,
                bias=weights.out_bias,
                ctx=null_ctx, name="decode_out", category="decode_gemm",
            )
        else:
            # KV bookkeeping runs on lengths alone
            for rid, count in rows:
                arena.append_tokens(rid, count)

        for i, (rid, _) in enumerate(rows):
            state = states[rid]
            if out is not None:
                state.tokens.append(out[i])
            state.token_times.append(finish)
            state.retries += attempt
            self.generated += 1
            prefilled = i < len(prefills)
            if prefilled:
                self.waiting = [r for r in self.waiting if r.request_id != rid]
            if state.done:
                self._settle_served(state, finish)
            elif prefilled:
                self.active.append(rid)
        tel = self.loop.tel
        if tel is not None:
            tel.metrics.counter(
                metric_names.DECODE_TOKENS_TOTAL,
                help="tokens generated by decode rounds",
            ).inc(len(prefills) + len(decode_ids))
            tel.metrics.histogram(
                metric_names.KV_BLOCK_OCCUPANCY,
                help="valid-token fraction of live KV blocks per round",
                buckets=RATIO_BUCKETS,
            ).observe(arena.occupancy)
            tel.tracer.instant(
                "decode.round",
                category="dispatch",
                t_us=finish,
                prefills=len(prefills),
                decode=len(decode_ids),
                tile=unit.round_.prefill_tile or None,
            )

    def fail(self, unit: _RoundUnit, now: float, attempt: int) -> None:
        loop, states = self.loop, self.states
        self.now = now
        for request in unit.prefills:
            loop.settle(
                request, Outcome.FAILED, REASON_RETRY_BUDGET, None, attempt,
                now_us=now,
            )
            states.pop(request.request_id, None)
            self.waiting = [
                r for r in self.waiting if r.request_id != request.request_id
            ]
        for rid in unit.decode_ids:
            loop.settle(
                states[rid].request, Outcome.FAILED, REASON_RETRY_BUDGET,
                None, states[rid].retries + attempt, now_us=now,
            )
            self.arena.free(rid)
            self.active.remove(rid)
            del states[rid]

    def gauges(self, metrics) -> None:
        metrics.gauge(
            metric_names.KV_BYTES_LIVE,
            help="modelled KV bytes live at the end of the replay",
        ).set(self.arena.live_bytes)
        metrics.gauge(
            metric_names.KV_BYTES_PEAK,
            help="modelled peak KV bytes over the replay",
        ).set(self.arena.peak_live_bytes)

    def report(self, **common) -> GenerationReport:
        arena, cache = self.arena, self.rt.graph_cache
        served = {
            o.request_id for o in common["outcomes"]
            if o.outcome is Outcome.SERVED
        }
        return GenerationReport(
            **common,
            outputs={
                rid: np.stack(state.tokens)
                for rid, state in self.states.items()
                if state.tokens and rid in served and self.rt.compute_outputs
            },
            token_times={
                rid: tuple(state.token_times)
                for rid, state in self.states.items()
                if state.token_times
            },
            generated_tokens=self.generated,
            rounds=self.rounds,
            kv_stats={
                "capacity_tokens": float(arena.capacity_tokens),
                "peak_live_bytes": float(arena.peak_live_bytes),
                "evictions": float(arena.evictions),
                "swap_ins": float(arena.swap_ins),
                "overflow_allocs": float(arena.overflow_allocs),
            },
            graph_hits=cache.hits if cache else 0,
            graph_lookups=cache.hits + cache.misses if cache else 0,
        )


def generate_reference_outputs(
    runtime: GenerationRuntime,
    trace: ServingTrace,
) -> dict[int, np.ndarray]:
    """Looped per-request oracle outputs for every request in ``trace``.

    Each request runs alone through
    :func:`~repro.decoder.generation.generate_cell_reference` with the
    same deterministic prompt and step count the runtime uses — the
    bitwise target the batched paged path must reproduce.  It takes the
    float32 :attr:`~GenerationRuntime.weights`, which every GEMM casts
    per call, against the runtime's cast-once float64 copy.
    """
    from repro.decoder.generation import generate_cell_reference

    weights = runtime.weights
    outputs: dict[int, np.ndarray] = {}
    for request in trace.requests:
        steps = runtime.decode_steps_for(request, trace.max_seq_len)
        outputs[request.request_id] = generate_cell_reference(
            weights,
            runtime.prompt_for(request),
            steps,
            runtime.config.num_heads,
        )
    return outputs
