"""``tenant-serving``: open-loop multi-tenant serving on the cost plane.

A 12-layer BERT-base is priced (never computed) through
``ServingRuntime`` with an ``AdmissionGateway`` in front of a
``ContinuousBatcher``.  Two tenants: an interactive latency-SLO tenant
(zipf-mixed short lengths, Poisson arrivals, 25 ms deadline, one 3x
flash crowd) and a rate-limited throughput-batch analytics tenant
(uniform lengths at alpha = 0.7, bursty arrivals).  A small seeded
fault rate strikes the fused attention kernels, so retries and the
degradation ladder run.  Queueing, batching, retries and the ladder
decide latency here, and the host time is all in the serving,
workloads and gpusim layers: the kernels do no work.

Offered loads are absolute rates fixed below, chosen once against the
cost model's capacity when the benchmark was written; they are never
re-derived from the program at run time.
"""

from __future__ import annotations

import statistics

import numpy as np

from repro.attention.dispatch import force_mha_path
from repro.core.config import FUSED_MHA, BertConfig
from repro.core.estimator import estimate_model_tiled
from repro.core.model import BertEncoderModel
from repro.gpusim.stream import ExecutionContext
from repro.serving import (
    AdmissionGateway,
    FaultSpec,
    Outcome,
    QosClass,
    RetryPolicy,
    ServingRuntime,
    TenantPolicy,
)
from repro.serving.degradation import DEFAULT_LEVELS
from repro.workloads.batching import ContinuousBatcher
from repro.workloads.serving import Request, ServingTrace

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

MAX_SEQ_LEN = 512
#: the cost model's drain capacity for this model and batcher, in
#: sequence tokens per simulated microsecond (fixed; see module doc)
SERVICE_TOKENS_PER_US = 0.6664
HORIZON_US = 3_000_000.0
#: interactive offered load at the nominal point, tokens per second
INTERACTIVE_TOKENS_PER_S = 120_000.0
#: the interactive flash crowd: 3x the steady rate inside the window
CROWD = (0.40 * HORIZON_US, 0.10 * HORIZON_US, 3.0)
#: analytics offered load (bursty) and its token-bucket limit
ANALYTICS_TOKENS_PER_S = 160_000.0
ANALYTICS_LIMIT_TOKENS_PER_S = 130_000.0
#: the analytics MMPP: hot state at 3x the quiet rate; mean dwell times
MMPP_HOT_FACTOR = 3.0
MMPP_DWELL_US = (40_000.0, 10_000.0)
#: share of eligible fused-attention launches that fault
FAULT_RATE = 0.005
#: retries per dispatch: latency-SLO dispatches always run the fused
#: kernel, and with the default three a run of faults fails a request
#: now and then
MAX_RETRIES = 6
#: interactive offered loads (tokens/s) of the capacity ladder, each
#: replayed fault-free and without the crowd for LADDER_HORIZON_US
LADDER = (150_000.0, 165_000.0, 180_000.0, 200_000.0, 220_000.0, 240_000.0,
          265_000.0, 290_000.0, 320_000.0, 350_000.0)
LADDER_HORIZON_US = 1_000_000.0
#: requests replayed with numerics for the per-request oracle
ORACLE_REQUESTS = 16
ORACLE_LAYERS = 1
ATTAINMENT = 0.99

ZIPF_EXPONENT = 1.2
ZIPF_TAIL_SHARE = 0.2


def interactive_lengths(rng: np.random.Generator, n: int) -> np.ndarray:
    """Zipf body (mostly short) plus a uniform long-prompt tail."""
    # a continuous zipf body: whole ranks alone would give a handful of
    # distinct lengths (512, 256, 171, ...) and step-shaped medians
    body = MAX_SEQ_LEN / (rng.zipf(ZIPF_EXPONENT, n) + rng.random(n))
    tail = rng.uniform(0.6 * MAX_SEQ_LEN, MAX_SEQ_LEN, n)
    lens = np.where(rng.random(n) < ZIPF_TAIL_SHARE, tail, body)
    return np.clip(np.round(lens), 1, MAX_SEQ_LEN).astype(np.int64)


def analytics_lengths(rng: np.random.Generator, n: int) -> np.ndarray:
    lens = rng.uniform(0.4 * MAX_SEQ_LEN, MAX_SEQ_LEN, n)
    return np.clip(np.round(lens), 1, MAX_SEQ_LEN).astype(np.int64)


def poisson_arrivals(rng: np.random.Generator, rate_per_us: float,
                     start: float, end: float) -> np.ndarray:
    n = rng.poisson(rate_per_us * (end - start))
    return np.sort(rng.uniform(start, end, n))


def mmpp_arrivals(rng: np.random.Generator, mean_rate_per_us: float,
                  horizon: float) -> np.ndarray:
    """Two-state bursty arrivals whose time-averaged rate is the mean."""
    quiet_dwell, hot_dwell = MMPP_DWELL_US
    hot_share = hot_dwell / (quiet_dwell + hot_dwell)
    quiet = mean_rate_per_us / (1.0 + hot_share * (MMPP_HOT_FACTOR - 1.0))
    out, t, hot = [], 0.0, False
    while t < horizon:
        end = min(horizon, t + rng.exponential(hot_dwell if hot else quiet_dwell))
        rate = quiet * (MMPP_HOT_FACTOR if hot else 1.0)
        out.append(poisson_arrivals(rng, rate, t, end))
        t, hot = end, not hot
    return np.concatenate(out)


def make_trace(seed: int, stream: int, interactive_tokens_per_s: float,
               horizon: float, crowd: bool) -> ServingTrace:
    rng = np.random.default_rng([seed, 2, stream])
    mean_len = float(interactive_lengths(np.random.default_rng(0), 65536).mean())
    rate = interactive_tokens_per_s / 1e6 / mean_len
    arrivals = [poisson_arrivals(rng, rate, 0.0, horizon)]
    if crowd:
        start, length, factor = CROWD
        arrivals.append(poisson_arrivals(rng, (factor - 1.0) * rate, start, start + length))
    inter = np.sort(np.concatenate(arrivals))
    batch = mmpp_arrivals(
        rng, ANALYTICS_TOKENS_PER_S / 1e6 / (0.7 * MAX_SEQ_LEN), horizon
    )
    rows = [(t, int(n), "interactive", SLO_US)
            for t, n in zip(inter, interactive_lengths(rng, len(inter)))]
    rows += [(t, int(n), "analytics", None)
             for t, n in zip(batch, analytics_lengths(rng, len(batch)))]
    rows.sort(key=lambda r: r[0])
    return ServingTrace(
        requests=tuple(
            Request(i, float(t), n, deadline, tenant)
            for i, (t, n, tenant, deadline) in enumerate(rows)
        ),
        max_seq_len=MAX_SEQ_LEN,
    )


def policies() -> list[TenantPolicy]:
    limit = ANALYTICS_LIMIT_TOKENS_PER_S
    return [
        TenantPolicy("interactive", qos=QosClass.LATENCY_SLO, max_queue_tokens=1 << 30),
        TenantPolicy(
            "analytics",
            qos=QosClass.THROUGHPUT_BATCH,
            rate_tokens_per_s=limit,
            burst_tokens=max(MAX_SEQ_LEN, 0.01 * limit),
            max_queue_tokens=int(SERVICE_TOKENS_PER_US * 3_000.0),
            slo_target=0.5,
        ),
    ]


def within_deadline(o, request: Request) -> bool:
    return o.outcome is Outcome.SERVED and (
        request.deadline_us is None or o.latency_us <= request.deadline_us
    )


class TenantServing:
    name = "tenant-serving"
    setup_reps = 9
    primary_host_metric = "host_requests_per_s"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = BertConfig()
        self.trace = make_trace(seed, 0, INTERACTIVE_TOKENS_PER_S, HORIZON_US, crowd=True)
        self.tokens = sum(r.seq_len for r in self.trace.requests)

    def build_runtime(
        self, numerics: BertEncoderModel | None = None, fault_rate: float = FAULT_RATE
    ) -> ServingRuntime:
        return ServingRuntime(
            self.config,
            batcher=ContinuousBatcher(),
            gateway=AdmissionGateway(
                policies(),
                service_rate_tokens_per_us=SERVICE_TOKENS_PER_US,
                max_total_queue_tokens=int(SERVICE_TOKENS_PER_US * 40_000.0),
            ),
            retry=RetryPolicy(max_retries=MAX_RETRIES),
            faults=FaultSpec(
                launch_failure_rate=fault_rate / 2,
                transient_oom_rate=fault_rate / 2,
                target_prefixes=("fused_mha", "fmha_"),
            ),
            numerics=numerics,
            seed=self.seed,
        )

    def setup(self) -> ServingRuntime:
        """Build a runtime and capture every tile's launch graph at every
        ladder rung's attention path."""
        runtime = self.build_runtime()
        for level in DEFAULT_LEVELS:
            with force_mha_path(level.mha_path):
                for tile in runtime.batcher.effective_tiles():
                    estimate_model_tiled(
                        ExecutionContext(), self.config, FUSED_MHA, tile,
                        MAX_SEQ_LEN, cache=runtime.graph_cache,
                    )
        return runtime

    def prepare(self, runtime: ServingRuntime, ledger: Ledger) -> float:
        self.runtime = runtime
        return 0.0

    def cache_counters(self) -> dict[str, int]:
        return cache_counters(self.runtime.graph_cache)

    def _check(self, report) -> None:
        """Every nominal replay must settle the same outcome log as the
        first."""
        check_settled(report, self.trace.num_requests, self.ledger, "nominal replay")
        if not hasattr(self, "report"):
            self.report = report
        else:
            self.ledger.check(
                report.outcome_log() == self.report.outcome_log(),
                "nominal replay settled a different outcome log",
            )

    def measure(self, seconds: float, ledger: Ledger) -> dict[str, Metric]:
        """Replay the nominal trace until ``seconds`` have passed."""
        self.ledger = ledger
        times = timed_replays(seconds, lambda: self.runtime.run(self.trace), self._check)
        self.passes = float(len(times))
        self.tokens_per_pass = float(self.tokens)
        mid = statistics.median(times)
        note = f", {clock.note()}"
        return {
            "host_requests_per_s": Metric(
                self.trace.num_requests / mid, "1/s", len(times),
                "requests per replay over the median replay" + note,
            ),
            "host_tokens_per_s": Metric(
                self.tokens / mid, "token/s", len(times),
                "sequence tokens per replay over the median replay" + note,
            ),
        }

    def _ladder_meets(self, rate: float) -> bool:
        trace = make_trace(self.seed, 1 + LADDER.index(rate), rate,
                           LADDER_HORIZON_US, crowd=False)
        report = self.ladder_runtime.run(trace)
        check_settled(report, trace.num_requests, self.ledger, f"ladder {rate:g}")
        by_id = {r.request_id: r for r in trace.requests}
        sent = [o for o in report.outcomes if o.tenant == "interactive"]
        good = sum(within_deadline(o, by_id[o.request_id]) for o in sent)
        return good >= ATTAINMENT * len(sent)

    def modelled(self, ledger: Ledger) -> dict[str, Metric]:
        report, trace = self.report, self.trace
        by_id = {r.request_id: r for r in trace.requests}
        served = report.served
        inter = [o.latency_us for o in served if o.tenant == "interactive"]
        # a request's whole output lands at once: its time per output
        # token is its latency over its length
        per_token = [o.latency_us / by_id[o.request_id].seq_len for o in served]
        served_tokens = sum(by_id[o.request_id].seq_len for o in served)
        good = sum(within_deadline(o, by_id[o.request_id]) for o in report.outcomes)

        self.ledger = ledger
        self.ladder_runtime = self.build_runtime(fault_rate=0.0)
        capacity = slo_capacity(LADDER, self._ladder_meets)
        metrics = {
            "modelled_us_per_token": Metric(
                report.gpu_busy_us / served_tokens, "us/token", served_tokens
            ),
            "goodput_ratio": Metric(
                good / trace.num_requests, "ratio", trace.num_requests,
                "served within deadline over sent, nominal load",
            ),
            "modelled_slo_capacity_tokens_per_s": Metric(
                capacity.capacity or 0.0, "token/s", len(capacity.rungs),
                "rungs " + " ".join(f"{r / 1e3:g}k:{'ok' if ok else 'miss'}"
                                    for r, ok in capacity.rungs),
            ),
        }
        ledger.check(capacity.capacity is not None, "lowest capacity rung missed the SLO")
        metrics.update(pct_metrics("modelled_latency", inter))
        metrics.update(pct_metrics("modelled_ttft", [o.latency_us for o in served]))
        metrics.update(pct_metrics("modelled_itl", per_token))
        self._oracle(ledger)
        return metrics

    def _oracle(self, ledger: Ledger) -> None:
        """Replay a seeded sample with numerics; every served output must
        equal the request's own single forward bit for bit."""
        rng = np.random.default_rng([self.seed, 3])
        picks = np.sort(rng.choice(self.trace.num_requests, ORACLE_REQUESTS, replace=False))
        sample = ServingTrace(
            requests=tuple(self.trace.requests[i] for i in picks),
            max_seq_len=MAX_SEQ_LEN,
        )
        numeric_config = BertConfig(num_layers=ORACLE_LAYERS)
        runtime = self.build_runtime(
            BertEncoderModel(numeric_config, FUSED_MHA, seed=self.seed)
        )
        report = runtime.run(sample)
        check_settled(report, sample.num_requests, ledger, "oracle sample")
        oracle = BertEncoderModel(numeric_config, FUSED_MHA, seed=self.seed)
        for request in sample.requests:
            out = report.outputs.get(request.request_id)
            if out is None:
                continue
            x = np.random.default_rng([self.seed, request.request_id]).standard_normal(
                (1, request.seq_len, numeric_config.hidden_size)
            )
            ledger.check(
                np.array_equal(out, oracle.forward(x, np.ones((1, request.seq_len)))[0]),
                f"request {request.request_id}: served output != per-request forward",
            )

    def served_ratio(self, ledger: Ledger) -> Metric:
        sent = self.trace.num_requests
        return Metric(
            len(self.report.served) / sent, "ratio", sent,
            "served over sent at the nominal load",
        )

    def layer_counts(self) -> dict[str, float]:
        out = serving_counts(self.report)
        for tenant in ("interactive", "analytics"):
            mine = self.report.by_tenant(tenant)
            out[f"serving.gateway.shed.{tenant}"] = sum(o.outcome is Outcome.SHED for o in mine)
            out[f"serving.gateway.rejected.{tenant}"] = sum(
                o.outcome is Outcome.REJECTED for o in mine
            )
        return out
