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
attention over KV gathered from the paged arena, and one packed output
GEMM.  Row-stacked GEMMs are bitwise row-equal to per-request GEMMs
(the M=1 pinning + row-split invariance contract in
:mod:`repro.kernels.gemm`), and the arena gathers exactly the
contiguous K/V layout the per-request cache holds — so every request's
token stream is *bitwise* equal to the looped
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

import math
from collections import deque
from dataclasses import dataclass, field, replace

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
from repro.gpusim.errors import TransientFault
from repro.gpusim.graph import GraphCache
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import BYTES_PER_ELEMENT
from repro.gpusim.stream import ExecutionContext, NullContext
from repro.kernels.gemm import gemm
from repro.serving.degradation import (
    DECODE_LEVELS,
    DegradationLadder,
    DegradationLevel,
    LadderTransition,
)
from repro.serving.faults import NO_FAULTS, FaultPlan, FaultSpec, InjectedFault
from repro.serving.gateway import AdmissionGateway, QosClass
from repro.serving.report import (
    Outcome,
    REASON_ADMISSION,
    REASON_DEADLINE,
    REASON_RETRY_BUDGET,
    RequestOutcome,
)
from repro.serving.retry import RetryPolicy
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
    tokens: list[np.ndarray] = field(default_factory=list)
    token_times: list[float] = field(default_factory=list)
    retries: int = 0

    @property
    def done(self) -> bool:
        return len(self.tokens) >= self.steps_total


@dataclass(frozen=True)
class GenerationReport:
    """Everything one decode chaos replay is accountable for."""

    outcomes: tuple[RequestOutcome, ...]
    transitions: tuple[LadderTransition, ...]
    injected_faults: tuple[InjectedFault, ...]
    top_level: str
    gpu_busy_us: float
    makespan_us: float
    #: generated hidden rows per served request: ``rid -> [T, H]``
    outputs: dict[int, np.ndarray] = field(default_factory=dict, compare=False)
    #: simulated finish instant of each generated token, per request
    token_times: dict[int, tuple[float, ...]] = field(
        default_factory=dict, compare=False
    )
    generated_tokens: int = 0
    rounds: int = 0
    kv_stats: dict[str, float] = field(default_factory=dict, compare=False)
    graph_hits: int = 0
    graph_lookups: int = 0

    def by_outcome(self, outcome: Outcome) -> tuple[RequestOutcome, ...]:
        return tuple(o for o in self.outcomes if o.outcome is outcome)

    @property
    def served(self) -> tuple[RequestOutcome, ...]:
        return self.by_outcome(Outcome.SERVED)

    def counts(self) -> dict[str, int]:
        return {
            "served": len(self.served),
            "shed": len(self.by_outcome(Outcome.SHED)),
            "failed": len(self.by_outcome(Outcome.FAILED)),
            "rejected": len(self.by_outcome(Outcome.REJECTED)),
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
        if self.transitions:
            lines.append("  degradation transitions:")
            for t in self.transitions:
                lines.append(
                    f"    {t.time_us / 1000:10.2f} ms  "
                    f"{t.from_level} -> {t.to_level}  ({t.reason})"
                )
        else:
            lines.append("  degradation transitions: none")
        return "\n".join(lines)


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
        alone, never on the values), and no float64 weight copy is
        built.
    """

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
        drawn = weights is None
        if drawn:
            weights = init_decode_cell(config, seed)
        # the numeric plane runs in float64 (prompts and the KV arena):
        # cast the weights to it once here, not on every GEMM of every
        # round; a cost-plane runtime never builds the copy
        self._weights64 = (
            weights.astype(np.float64) if compute_outputs else None
        )
        # drawn weights live on only as that copy (see `weights`), so a
        # numeric runtime holds one set of weights, not two
        self._weights = None if drawn and compute_outputs else weights
        self.telemetry = telemetry
        #: the arena of the most recent run (inspection/tests)
        self.arena: PagedKVArena | None = None

    @property
    def weights(self) -> DecodeCellWeights:
        """The decode-cell weights the runtime was built with.

        The caller's object when one was passed.  Otherwise the float32
        weights drawn at ``seed``: a fresh copy rounded back from the
        float64 numeric copy when there is one, which is exactly the
        drawn values (float32 -> float64 -> float32 is lossless).
        """
        if self._weights is None:
            return self._weights64.astype(np.float32)
        return self._weights

    # ------------------------------------------------------------------

    def _new_ctx(self) -> ExecutionContext:
        return ExecutionContext(self.device)

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
            self._new_ctx(),
            self.config,
            prefill_tile=tile,
            decode_batch=0,
            kv_tokens=0,
            max_seq_len=max_seq_len,
            block_tokens=self.kv_block_tokens,
        )
        return tile / service

    def _price_round(
        self,
        ctx: ExecutionContext,
        level: DegradationLevel,
        prefill_lens: list[int],
        prefill_tile: int,
        decode_contexts: list[int],
        max_seq_len: int,
    ) -> float:
        if level.decode_path == "looped":
            return estimate_decode_round_looped(
                ctx,
                self.config,
                np.asarray(prefill_lens, dtype=np.int64),
                np.asarray(decode_contexts, dtype=np.int64),
            )
        return estimate_decode_round_tiled(
            ctx,
            self.config,
            prefill_tile=prefill_tile if prefill_lens else 0,
            decode_batch=len(decode_contexts),
            kv_tokens=int(sum(decode_contexts)),
            max_seq_len=max_seq_len,
            block_tokens=self.kv_block_tokens,
            cache=self.graph_cache,
        )

    # ------------------------------------------------------------------

    def run(self, trace: ServingTrace) -> GenerationReport:
        """Replay ``trace``; every request gets exactly one outcome."""
        with use_telemetry(self.telemetry):
            return self._run(trace)

    def _run(self, trace: ServingTrace) -> GenerationReport:
        self.ladder.reset()
        config = self.config
        hidden = config.hidden_size
        heads = config.num_heads
        max_context = trace.max_seq_len
        for request in trace.requests:
            if request.seq_len > self.batcher.token_budget:
                raise TokenBudgetExceededError(
                    f"request {request.request_id} has {request.seq_len} "
                    f"prompt tokens, more than the "
                    f"{self.batcher.token_budget}-token budget"
                )
        plan_faults = FaultPlan(self.faults, seed=self.seed)
        jitter_rng = np.random.default_rng([self.seed, 0x5E])
        outcomes: dict[int, RequestOutcome] = {}
        originals: dict[int, Request] = {}
        burn_stats: dict[str, list[int]] = {}
        tel = self.telemetry
        if tel is not None and not tel.owns_current_thread():
            tel = None
        gateway = self.gateway

        # -- gateway pre-pass ------------------------------------------
        admitted: list[Request] = []
        if gateway is not None:
            if gateway.service_rate is None:
                gateway.service_rate = self.estimate_service_rate(max_context)
            gate = gateway.process(trace)
            for event in gate.rejected:
                originals[event.request.request_id] = event.request
                self._settle(
                    outcomes, originals, burn_stats, tel,
                    event.request, Outcome.REJECTED, event.reason, None, 0,
                    now_us=event.t_us,
                )
            for event in gate.shed:
                originals[event.request.request_id] = event.request
                self._settle(
                    outcomes, originals, burn_stats, tel,
                    event.request, Outcome.SHED, event.reason, None, 0,
                    now_us=event.t_us,
                )
            for sched in gate.admitted:
                orig = sched.request
                originals[orig.request_id] = orig
                wait = sched.release_us - orig.arrival_us
                deadline = orig.deadline_us
                if deadline is not None:
                    deadline = deadline - wait
                    if deadline <= 0.0:
                        self.ladder.record_deadline_miss(sched.release_us)
                        self._settle(
                            outcomes, originals, burn_stats, tel,
                            orig, Outcome.SHED, REASON_DEADLINE, None, 0,
                            now_us=sched.release_us,
                        )
                        continue
                admitted.append(
                    replace(
                        orig,
                        arrival_us=sched.release_us,
                        deadline_us=deadline,
                    )
                )
            admitted.sort(key=lambda r: (r.arrival_us, r.request_id))
        else:
            for request in trace.requests:
                originals[request.request_id] = request
                admitted.append(request)

        # -- the arena, sized to the admitted stream -------------------
        block = self.kv_block_tokens
        if self.kv_capacity_tokens is not None:
            capacity = self.kv_capacity_tokens
        else:
            # full-trajectory blocks per request: never any eviction
            capacity = max(
                block,
                sum(
                    -(
                        -(
                            r.seq_len
                            + self.decode_steps_for(r, max_context)
                            - 1
                        )
                        // block
                    )
                    * block
                    for r in admitted
                ),
            )
        arena = PagedKVArena(
            hidden, capacity, block_tokens=block, dtype=np.float64
        )
        self.arena = arena

        states: dict[int, _GenState] = {}
        for request in admitted:
            states[request.request_id] = _GenState(
                request=request,
                steps_total=self.decode_steps_for(request, max_context),
            )
            prompt_blocks = -(-request.seq_len // block)
            if prompt_blocks > arena.num_blocks:
                # the prompt alone can never fit the arena: refuse at
                # admission instead of deadlocking the eviction loop
                self._settle(
                    outcomes, originals, burn_stats, tel,
                    request, Outcome.SHED, REASON_ADMISSION, None, 0,
                    now_us=request.arrival_us,
                )
                del states[request.request_id]

        pending: deque[Request] = deque(
            s.request
            for s in sorted(
                states.values(),
                key=lambda s: (s.request.arrival_us, s.request.request_id),
            )
        )
        waiting: list[Request] = []
        active: list[int] = []
        paused: list[int] = []
        busy = 0.0
        now = 0.0
        makespan = 0.0
        rounds = 0
        generated = 0
        weights = self._weights64
        null_ctx = NullContext()

        def settle_served(state: _GenState, finish: float) -> None:
            nonlocal generated
            rid = state.request.request_id
            self._settle(
                outcomes, originals, burn_stats, tel,
                state.request, Outcome.SERVED, "",
                finish - state.request.arrival_us, state.retries,
                now_us=finish, level=self.ladder.level.name,
                token_times=tuple(state.token_times),
            )
            arena.free(rid)
            if rid in active:
                active.remove(rid)

        def charge_swap(tokens: int, name: str) -> float:
            ctx = self._new_ctx()
            ctx.launch(_kv_swap_launch(tokens, hidden, name))
            return ctx.elapsed_us()

        while pending or waiting or active or paused:
            while pending and pending[0].arrival_us <= now:
                waiting.append(pending.popleft())
            alive, expired = shed_expired(waiting, now)
            for request in expired:
                self.ladder.record_deadline_miss(now)
                self._settle(
                    outcomes, originals, burn_stats, tel,
                    request, Outcome.SHED, REASON_DEADLINE, None, 0,
                    now_us=now,
                )
                states.pop(request.request_id, None)
            waiting = alive
            # resume preempted requests (oldest paused first) while their
            # blocks fit; the swap-in copy is priced, and the restored
            # K/V are bit-for-bit what was evicted
            while paused:
                rid = paused[0]
                need = -(-(states[rid].request.seq_len
                           + len(states[rid].tokens) - 1) // block)
                if need > arena.free_blocks:
                    break
                restored = arena.swap_in(rid)
                us = charge_swap(restored, "kv_swap_in")
                busy += us
                now += us
                makespan = max(makespan, now)
                paused.pop(0)
                active.append(rid)
            round_ = self.batcher.plan_round(waiting, active, now)
            if round_ is None:
                if pending:
                    now = max(now, pending[0].arrival_us)
                    continue
                if paused and not active and not waiting:
                    # can't happen with a paused-fits-alone arena (the
                    # admission check refused larger prompts), but never
                    # spin silently
                    raise RuntimeError(
                        f"paused requests {paused} can never resume"
                    )
                break
            decode_ids = list(round_.decode_ids)
            prefills = list(round_.prefills)

            # -- KV pressure: evict the youngest active streams --------
            def blocks_required() -> int:
                need = sum(arena.blocks_needed(rid, 1) for rid in decode_ids)
                need += sum(-(-r.seq_len // block) for r in prefills)
                return need

            while blocks_required() > arena.free_blocks and active:
                victim = max(
                    active,
                    key=lambda rid: (
                        states[rid].request.arrival_us,
                        rid,
                    ),
                )
                swapped = arena.swap_out(victim)
                us = charge_swap(swapped, "kv_swap_out")
                busy += us
                now += us
                makespan = max(makespan, now)
                active.remove(victim)
                paused.append(victim)
                if victim in decode_ids:
                    decode_ids.remove(victim)
                if tel is not None:
                    tel.metrics.counter(
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

            prefill_lens = [r.seq_len for r in prefills]
            decode_contexts = [
                arena.context_len(rid) + 1 for rid in decode_ids
            ]
            rounds += 1

            # -- the attempt loop (cost plane) -------------------------
            start = now
            attempt = 0
            abandoned = False
            while True:
                level = self.ladder.level
                ctx = plan_faults.install(self._new_ctx())
                try:
                    service = self._price_round(
                        ctx, level, prefill_lens, round_.prefill_tile,
                        decode_contexts, max_context,
                    )
                except TransientFault:
                    partial = ctx.elapsed_us()
                    busy += partial
                    fault_now = start + partial
                    self.ladder.record_fault(fault_now)
                    if tel is not None:
                        tel.metrics.counter(
                            metric_names.FAULTS_TOTAL,
                            help="transient faults injected into attempts",
                        ).inc()
                    if attempt >= self.retry.max_retries:
                        for request in prefills:
                            self._settle(
                                outcomes, originals, burn_stats, tel,
                                request, Outcome.FAILED,
                                REASON_RETRY_BUDGET, None, attempt,
                                now_us=fault_now,
                            )
                            states.pop(request.request_id, None)
                            waiting = [
                                r for r in waiting
                                if r.request_id != request.request_id
                            ]
                        for rid in decode_ids:
                            self._settle(
                                outcomes, originals, burn_stats, tel,
                                states[rid].request, Outcome.FAILED,
                                REASON_RETRY_BUDGET, None,
                                states[rid].retries + attempt,
                                now_us=fault_now,
                            )
                            arena.free(rid)
                            active.remove(rid)
                            del states[rid]
                        now = fault_now
                        makespan = max(makespan, now)
                        abandoned = True
                        break
                    backoff = self.retry.backoff_us(attempt, jitter_rng)
                    if tel is not None:
                        tel.metrics.counter(
                            metric_names.RETRIES_TOTAL,
                            help="dispatch retries after transient faults",
                        ).inc()
                    start = fault_now + backoff
                    attempt += 1
                    continue
                break
            if abandoned:
                continue

            finish = start + service
            busy += service
            now = finish
            makespan = max(makespan, finish)

            # -- commit (numeric plane) --------------------------------
            # One packed QKV GEMM over every row in the round, then
            # per-request attention over arena-gathered K/V, then one
            # packed output GEMM.  KV state mutates only here — a
            # faulted attempt never touched it.
            if self.compute_outputs:
                segments = [self.prompt_for(r) for r in prefills]
                if decode_ids:
                    segments.append(
                        np.stack(
                            [states[rid].tokens[-1] for rid in decode_ids]
                        )
                    )
                packed = np.concatenate(segments) if segments else None
                qkv = gemm(
                    packed, weights.qkv_weight, bias=weights.qkv_bias,
                    ctx=null_ctx, name="decode_qkv", category="decode_gemm",
                )
                attn_rows = []
                offset = 0
                for request in prefills:
                    rid = request.request_id
                    seg = qkv[offset : offset + request.seq_len]
                    offset += request.seq_len
                    arena.append_rows(
                        rid,
                        seg[:, hidden : 2 * hidden],
                        seg[:, 2 * hidden :],
                    )
                    keys, values = arena.gathered(rid)
                    attn_rows.append(
                        attend_to_cache(
                            seg[-1, :hidden], keys, values, heads
                        )
                    )
                for rid in decode_ids:
                    row = qkv[offset]
                    offset += 1
                    arena.append_rows(
                        rid,
                        row[None, hidden : 2 * hidden],
                        row[None, 2 * hidden :],
                    )
                    keys, values = arena.gathered(rid)
                    attn_rows.append(
                        attend_to_cache(row[:hidden], keys, values, heads)
                    )
                out = gemm(
                    np.stack(attn_rows), weights.out_weight,
                    bias=weights.out_bias,
                    ctx=null_ctx, name="decode_out", category="decode_gemm",
                )
            else:
                out = None
                for request in prefills:
                    arena.append_rows(
                        request.request_id,
                        np.zeros((request.seq_len, hidden)),
                        np.zeros((request.seq_len, hidden)),
                    )
                for rid in decode_ids:
                    arena.append_rows(
                        rid, np.zeros((1, hidden)), np.zeros((1, hidden))
                    )

            for i, request in enumerate(prefills):
                rid = request.request_id
                state = states[rid]
                state.tokens.append(
                    out[i] if out is not None else np.zeros(hidden)
                )
                state.token_times.append(finish)
                state.retries += attempt
                generated += 1
                waiting = [r for r in waiting if r.request_id != rid]
                if state.done:
                    settle_served(state, finish)
                else:
                    active.append(rid)
            for j, rid in enumerate(decode_ids):
                state = states[rid]
                state.tokens.append(
                    out[len(prefills) + j]
                    if out is not None
                    else np.zeros(hidden)
                )
                state.token_times.append(finish)
                state.retries += attempt
                generated += 1
                if state.done:
                    settle_served(state, finish)
            self.ladder.record_success(finish)
            if tel is not None:
                tel.tracer.set_now(finish)
                tel.metrics.counter(
                    metric_names.DECODE_TOKENS_TOTAL,
                    help="tokens generated by decode rounds",
                ).inc(len(prefills) + len(decode_ids))
                tel.metrics.histogram(
                    metric_names.KV_BLOCK_OCCUPANCY,
                    help="valid-token fraction of live KV blocks per round",
                    buckets=RATIO_BUCKETS,
                ).observe(arena.occupancy)
                tel.metrics.histogram(
                    metric_names.US_PER_TOKEN,
                    help="modelled service time per valid token (us)",
                    buckets=COUNT_BUCKETS,
                ).observe(service / max(1, round_.total_tokens))
                tel.tracer.instant(
                    "decode.round",
                    category="dispatch",
                    t_us=finish,
                    prefills=len(prefills),
                    decode=len(decode_ids),
                    tile=round_.prefill_tile or None,
                )

        # -- end-of-run gauges & the no-silent-loss contract -----------
        if tel is not None:
            tel.tracer.set_now(makespan)
            tel.metrics.gauge(
                metric_names.KV_BYTES_LIVE,
                help="modelled KV bytes live at the end of the replay",
            ).set(arena.live_bytes)
            tel.metrics.gauge(
                metric_names.KV_BYTES_PEAK,
                help="modelled peak KV bytes over the replay",
            ).set(arena.peak_live_bytes)
            tel.metrics.gauge(
                metric_names.GPU_BUSY_US,
                help="modelled GPU busy time (us)",
            ).set(busy)
            tel.metrics.gauge(
                metric_names.MAKESPAN_US,
                help="modelled makespan of the replay (us)",
            ).set(makespan)
            if self.graph_cache is not None:
                lookups = self.graph_cache.hits + self.graph_cache.misses
                tel.metrics.gauge(
                    metric_names.GRAPH_REPLAY_HIT_RATE,
                    help="launch-graph cache hit rate over the run",
                ).set(
                    self.graph_cache.hits / lookups if lookups else 0.0
                )
        missing = [
            r.request_id
            for r in trace.requests
            if r.request_id not in outcomes
        ]
        if missing:
            raise RuntimeError(
                f"generation runtime lost requests {missing}: every "
                "request must settle as served/shed/failed/rejected"
            )
        outputs = {
            rid: np.stack(state.tokens)
            for rid, state in states.items()
            if state.tokens
            and outcomes[rid].outcome is Outcome.SERVED
            and self.compute_outputs
        }
        token_times = {
            rid: tuple(state.token_times)
            for rid, state in states.items()
            if state.token_times
        }
        return GenerationReport(
            outcomes=tuple(
                outcomes[r.request_id] for r in trace.requests
            ),
            transitions=tuple(self.ladder.transitions),
            injected_faults=tuple(plan_faults.injected),
            top_level=self.ladder.levels[0].name,
            gpu_busy_us=busy,
            makespan_us=makespan,
            outputs=outputs,
            token_times=token_times,
            generated_tokens=generated,
            rounds=rounds,
            kv_stats={
                "capacity_tokens": float(arena.capacity_tokens),
                "peak_live_bytes": float(arena.peak_live_bytes),
                "evictions": float(arena.evictions),
                "swap_ins": float(arena.swap_ins),
                "overflow_allocs": float(arena.overflow_allocs),
            },
            graph_hits=self.graph_cache.hits if self.graph_cache else 0,
            graph_lookups=(
                self.graph_cache.hits + self.graph_cache.misses
                if self.graph_cache
                else 0
            ),
        )

    # ------------------------------------------------------------------

    def _settle(
        self,
        outcomes: dict[int, RequestOutcome],
        originals: dict[int, Request],
        burn_stats: dict[str, list[int]],
        tel: Telemetry | None,
        request: Request,
        outcome: Outcome,
        reason: str,
        latency_us: float | None,
        retries: int,
        *,
        now_us: float,
        level: str | None = None,
        token_times: tuple[float, ...] = (),
    ) -> None:
        orig = originals.get(request.request_id, request)
        if latency_us is not None and orig.arrival_us != request.arrival_us:
            latency_us += request.arrival_us - orig.arrival_us
        if orig.request_id in outcomes:
            raise RuntimeError(f"request {orig.request_id} settled twice")
        outcomes[orig.request_id] = RequestOutcome(
            request_id=orig.request_id,
            outcome=outcome,
            reason=reason,
            latency_us=latency_us,
            retries=retries,
            level=level if level is not None else self.ladder.level.name,
            tenant=orig.tenant,
        )
        gateway = self.gateway
        policy = (
            gateway.policies.get(orig.tenant) if gateway is not None else None
        )
        # per-token streaming accounting: TTFT then inter-token gaps,
        # measured from the ORIGINAL arrival (gateway wait included)
        per_token: list[float] = []
        if token_times:
            gateway_wait = request.arrival_us - orig.arrival_us
            per_token.append(token_times[0] - request.arrival_us + gateway_wait)
            per_token.extend(
                b - a for a, b in zip(token_times, token_times[1:])
            )
        if tel is not None:
            tel.metrics.counter(
                metric_names.REQUESTS_TOTAL,
                help="settled requests by final outcome",
                outcome=outcome.value,
            ).inc()
            if outcome is Outcome.SHED:
                tel.metrics.counter(
                    metric_names.SHED_TOTAL,
                    help="shed requests by reason",
                    reason=reason,
                ).inc()
            if outcome is Outcome.SERVED and latency_us is not None:
                tel.metrics.histogram(
                    metric_names.REQUEST_LATENCY_US,
                    help="end-to-end latency of served requests (us)",
                    buckets=DEFAULT_LATENCY_BUCKETS_US,
                ).observe(latency_us)
            if per_token:
                tel.metrics.histogram(
                    metric_names.TTFT_US,
                    help="time to first generated token (us)",
                    buckets=DEFAULT_LATENCY_BUCKETS_US,
                ).observe(per_token[0])
                for gap in per_token[1:]:
                    tel.metrics.histogram(
                        metric_names.INTER_TOKEN_US,
                        help="gap between consecutive tokens (us)",
                        buckets=DEFAULT_LATENCY_BUCKETS_US,
                    ).observe(gap)
                if orig.tenant:
                    for value in per_token:
                        tel.metrics.histogram(
                            metric_names.TENANT_DECODE_TOKEN_LATENCY_US,
                            help="per-token latency by tenant (us)",
                            buckets=DEFAULT_LATENCY_BUCKETS_US,
                            tenant=orig.tenant,
                        ).observe(value)
            tel.tracer.add_span(
                "request",
                category=REQUEST_CATEGORY,
                start_us=orig.arrival_us,
                end_us=max(orig.arrival_us, now_us),
                request_id=orig.request_id,
                seq_len=orig.seq_len,
                outcome=outcome.value,
                reason=reason,
                retries=retries,
            )
        if policy is not None and policy.qos is QosClass.LATENCY_SLO:
            stats = burn_stats.setdefault(orig.tenant, [0, 0])
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
                self.ladder.record_budget_burn(now_us)


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
