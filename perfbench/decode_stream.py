"""``decode-stream``: open-loop generation through the paged KV arena.

``GenerationRuntime`` with a ``MixedContinuousBatcher`` serves streams
with Poisson arrivals: prompts up to 128 tokens at alpha = 0.6, about 16
generated tokens each, BERT-base width at two layers.  The KV arena is
smaller than the streams' total need, so swap-out and resume happen, and
a small fault rate on the batched decode-attention kernel steps the
ladder to the looped decode rung.  This is the only workload that runs
``decoder.paged_kv``, decode-kind graph replay and the small-M GEMMs of
decode rounds.

The modelled clock is identical whether or not the runtime computes
outputs (it prices lengths, never values), so the modelled percentiles
pool three 1200-stream traces replayed on the cost plane, with faults,
and the host clock times fault-free numeric replays of the first
trace's leading streams.  A few faults among those streams step the
ladder on some seeds and not others, which moved the host rate by up to
70 % between seeds; the clean path keeps the host metric about the
program.  A gate checks that both planes settle those streams
identically.
"""

from __future__ import annotations

import statistics

import numpy as np

from repro.core.config import BertConfig
from repro.serving import FaultSpec
from repro.serving.generation import GenerationRuntime, generate_reference_outputs
from repro.workloads.batching import MixedContinuousBatcher
from repro.workloads.serving import GenerationRequest, ServingTrace

from common import (
    SLO_US,
    Ledger,
    Metric,
    cache_counters,
    check_settled,
    clock,
    pct_metrics,
    serving_counts,
    timed_replays,
)
from stats import slo_capacity

LAYERS = 2
MAX_PROMPT = 128
ALPHA = 0.6
#: context cap; prompt plus generated tokens always fit
MAX_CONTEXT = MAX_PROMPT + 64
DECODE_TOKENS = 16
#: streams per modelled trace; the modelled metrics pool TRACES of them
STREAMS = 1200
TRACES = 3
MEAN_GAP_US = 1000.0
KV_CAPACITY_TOKENS = 4096
FAULT_RATE = 0.003
#: leading streams of the trace replayed with numerics in the timed window
NUMERIC_STREAMS = 32
#: streams of the numeric replay checked against the looped oracle
ORACLE_STREAMS = 8
#: fixed ladder of offered generated tokens per second; each rung is a
#: fault-free trace of LADDER_STREAMS streams
LADDER = (192_000.0, 256_000.0, 288_000.0, 320_000.0, 352_000.0, 384_000.0,
          416_000.0, 448_000.0, 512_000.0, 640_000.0)
LADDER_STREAMS = 600
ATTAINMENT = 0.99
#: a stream meets its SLO when its first token lands within 25 ms and no
#: gap between its tokens exceeds this (a decode round is ~80 us)
ITL_SLO_US = 5_000.0


#: prompt lengths are drawn one per stratum within each block of this
#: many consecutive streams, so every block-aligned prefix of a trace has
#: the same length mix up to the jitter inside each stratum
STRATA = 16


def make_trace(seed: int, stream: int, streams: int, mean_gap_us: float) -> ServingTrace:
    rng = np.random.default_rng([seed, 4, stream])
    low = (2.0 * ALPHA - 1.0) * MAX_PROMPT
    blocks = -(-streams // STRATA)
    u = np.concatenate(
        [(rng.permutation(STRATA) + rng.random(STRATA)) / STRATA for _ in range(blocks)]
    )[:streams]
    lens = np.clip(np.round(low + u * (MAX_PROMPT - low)), 1, MAX_PROMPT)
    arrivals = np.cumsum(rng.exponential(mean_gap_us, streams))
    return ServingTrace(
        requests=tuple(
            GenerationRequest(
                request_id=i, arrival_us=float(arrivals[i]), seq_len=int(lens[i]),
                decode_tokens=DECODE_TOKENS,
            )
            for i in range(streams)
        ),
        max_seq_len=MAX_CONTEXT,
    )


def stream_times(report, trace: ServingTrace):
    """Per served stream: (ttft, last-token latency, inter-token gaps)."""
    by_id = {r.request_id: r for r in trace.requests}
    out = []
    for o in report.served:
        times = report.token_times[o.request_id]
        arrival = by_id[o.request_id].arrival_us
        gaps = [b - a for a, b in zip(times, times[1:])]
        out.append((times[0] - arrival, times[-1] - arrival, gaps))
    return out


def meets_slo(ttft: float, gaps: list[float]) -> bool:
    return ttft <= SLO_US and all(g <= ITL_SLO_US for g in gaps)


class DecodeStream:
    name = "decode-stream"
    setup_reps = 7
    primary_host_metric = "host_tokens_per_s"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = BertConfig(num_layers=LAYERS)
        self.trace = make_trace(seed, 0, STREAMS, MEAN_GAP_US)
        self.numeric_trace = ServingTrace(
            requests=self.trace.requests[:NUMERIC_STREAMS], max_seq_len=MAX_CONTEXT
        )

    def build_runtime(
        self, compute_outputs: bool, fault_rate: float = FAULT_RATE, seed: int | None = None
    ) -> GenerationRuntime:
        return GenerationRuntime(
            self.config,
            batcher=MixedContinuousBatcher(),
            faults=FaultSpec(
                launch_failure_rate=fault_rate / 2,
                transient_oom_rate=fault_rate / 2,
                target_prefixes=("paged_decode",),
            ),
            seed=self.seed if seed is None else seed,
            kv_capacity_tokens=KV_CAPACITY_TOKENS,
            compute_outputs=compute_outputs,
        )

    def setup(self) -> GenerationRuntime:
        """Build a numeric runtime (decode-cell weights) and warm its
        launch-graph cache with one short replay."""
        runtime = self.build_runtime(compute_outputs=True, fault_rate=0.0)
        runtime.run(ServingTrace(requests=self.trace.requests[:4], max_seq_len=MAX_CONTEXT))
        return runtime

    def prepare(self, runtime: GenerationRuntime, ledger: Ledger) -> float:
        self.runtime = runtime
        return 0.0

    def cache_counters(self) -> dict[str, int]:
        return cache_counters(self.runtime.graph_cache)

    def _gates(self, report, trace: ServingTrace, ledger: Ledger, what: str) -> None:
        check_settled(report, trace.num_requests, ledger, what)
        overflow = int(report.kv_stats.get("overflow_allocs", 0))
        ledger.check(overflow == 0, f"{what}: KV arena made {overflow} overflow allocs")

    def _check(self, report) -> None:
        """Every numeric replay must generate the first one's tokens at
        the first one's times."""
        self._gates(report, self.numeric_trace, self.ledger, "numeric replay")
        if not hasattr(self, "numeric_report"):
            self.numeric_report = report
        else:
            self.ledger.check(
                report.token_times == self.numeric_report.token_times
                and all(np.array_equal(report.outputs[k], v)
                        for k, v in self.numeric_report.outputs.items()),
                "numeric replay generated different tokens or times",
            )

    def measure(self, seconds: float, ledger: Ledger) -> dict[str, Metric]:
        """Numeric replays of the leading streams for ``seconds``."""
        self.ledger = ledger
        times = timed_replays(
            seconds, lambda: self.runtime.run(self.numeric_trace), self._check
        )
        self.passes = float(len(times))
        self.tokens_per_pass = float(self.numeric_report.generated_tokens)
        mid = statistics.median(times)
        note = f", {clock.note()}"
        return {
            "host_tokens_per_s": Metric(
                self.numeric_report.generated_tokens / mid, "token/s", len(times),
                f"generated tokens of {NUMERIC_STREAMS} streams over the median replay" + note,
            ),
            "host_requests_per_s": Metric(
                NUMERIC_STREAMS / mid, "1/s", len(times),
                "streams per replay over the median replay" + note,
            ),
        }

    def _ladder_meets(self, offered: float) -> bool:
        gap = 1e6 * DECODE_TOKENS / offered
        trace = make_trace(self.seed, 1 + LADDER.index(offered), LADDER_STREAMS, gap)
        report = self.build_runtime(compute_outputs=False, fault_rate=0.0).run(trace)
        self._gates(report, trace, self.ledger, f"ladder {offered:g}")
        good = sum(meets_slo(t, g) for t, _, g in stream_times(report, trace))
        return good >= ATTAINMENT * trace.num_requests

    def modelled(self, ledger: Ledger) -> dict[str, Metric]:
        self.ledger = ledger
        prefix = self.build_runtime(compute_outputs=False, fault_rate=0.0).run(
            self.numeric_trace
        )
        ledger.check(
            prefix.outcomes == self.numeric_report.outcomes
            and prefix.token_times == self.numeric_report.token_times,
            "cost-plane replay settled the numeric streams differently",
        )
        self.report = self.build_runtime(compute_outputs=False).run(self.trace)
        runs = [(self.trace, self.report)]
        for k in range(1, TRACES):
            # each further trace gets a fault stream of its own
            trace = make_trace(self.seed, 100 + k, STREAMS, MEAN_GAP_US)
            runtime = self.build_runtime(False, seed=self.seed * TRACES + k)
            runs.append((trace, runtime.run(trace)))
        per_stream, busy_us, generated, sent = [], 0.0, 0, 0
        for k, (trace, report) in enumerate(runs):
            self._gates(report, trace, ledger, f"modelled trace {k}")
            per_stream += stream_times(report, trace)
            busy_us += report.gpu_busy_us
            generated += report.generated_tokens
            sent += trace.num_requests
        # each stream's mean gap between tokens: single gaps of an idle
        # server repeat one round's modelled time exactly, so their median
        # would read the same on every seed
        per_token = [sum(gs) / len(gs) for _, _, gs in per_stream if gs]
        good = sum(meets_slo(t, g) for t, _, g in per_stream)
        capacity = slo_capacity(LADDER, self._ladder_meets)
        ledger.check(capacity.capacity is not None, "lowest capacity rung missed the SLO")
        self._oracle(ledger)
        metrics = {
            "modelled_us_per_token": Metric(
                busy_us / generated, "us/token", generated,
                "modelled GPU us per generated token",
            ),
            "goodput_ratio": Metric(
                good / sent, "ratio", sent,
                "streams with TTFT within 25 ms and every gap within 5 ms, over sent",
            ),
            "modelled_slo_capacity_tokens_per_s": Metric(
                capacity.capacity or 0.0, "token/s", len(capacity.rungs),
                "rungs " + " ".join(f"{r / 1e3:g}k:{'ok' if ok else 'miss'}"
                                    for r, ok in capacity.rungs),
            ),
        }
        metrics.update(pct_metrics("modelled_ttft", [t for t, _, _ in per_stream]))
        metrics.update(pct_metrics("modelled_itl", per_token))
        metrics.update(pct_metrics("modelled_latency", [e for _, e, _ in per_stream]))
        return metrics

    def _oracle(self, ledger: Ledger) -> None:
        """A seeded sample of the numeric streams against the looped
        per-request reference, bit for bit."""
        rng = np.random.default_rng([self.seed, 5])
        picks = np.sort(rng.choice(NUMERIC_STREAMS, ORACLE_STREAMS, replace=False))
        sample = ServingTrace(
            requests=tuple(self.numeric_trace.requests[i] for i in picks),
            max_seq_len=MAX_CONTEXT,
        )
        reference = generate_reference_outputs(self.runtime, sample)
        for rid, expected in reference.items():
            served = self.numeric_report.outputs.get(rid)
            ledger.check(
                served is not None and np.array_equal(served, expected),
                f"stream {rid}: generated tokens != looped reference",
            )

    def served_ratio(self, ledger: Ledger) -> Metric:
        sent = self.trace.num_requests
        return Metric(len(self.report.served) / sent, "ratio", sent,
                      "streams of the first modelled trace served over sent")

    def layer_counts(self) -> dict[str, float]:
        report = self.report
        return {
            **serving_counts(report),
            "decoder.kv.swap_outs": report.kv_stats.get("evictions", 0.0),
            "decoder.kv.swap_ins": report.kv_stats.get("swap_ins", 0.0),
            "decoder.kv.peak_live_bytes": report.kv_stats.get("peak_live_bytes", 0.0),
            "decoder.graph.hit_ratio": report.graph_hit_rate,
        }
