"""Chaos acceptance suite for the fault-tolerant serving runtime.

The headline contracts from the robustness work:

* no silent loss — every request settles exactly once, even at 10%
  injected fault rates;
* served bits are identical to a fault-free replay of the same trace;
* the same fault seed reproduces the same outcome log;
* the degradation ladder is genuinely exercised: at least one step-down
  and at least one recovery under sustained fault pressure.
"""

import numpy as np
import pytest

from repro.core.config import BertConfig
from repro.core.model import BertEncoderModel
from repro.serving import (
    NO_FAULTS,
    NO_RETRIES,
    AdmissionController,
    DegradationLadder,
    FaultSpec,
    Outcome,
    REASON_ADMISSION,
    REASON_DEADLINE,
    REASON_RETRY_BUDGET,
    RetryPolicy,
    ServingRuntime,
)
from repro.serving import (
    AdmissionGateway,
    QosClass,
    REASON_RATE_LIMIT,
    TenantPolicy,
)
from repro.serving.degradation import BUDGET_BURN
from repro.telemetry import Telemetry
from repro.telemetry.slo import SloReport
from repro.workloads.batching import TimeoutBatcher
from repro.workloads.serving import Request, ServingTrace, make_trace

CONFIG = BertConfig(num_heads=4, head_size=16, num_layers=2)

#: ~10% of eligible fused-attention launches fault (plus some slowdowns)
CHAOS = FaultSpec(
    launch_failure_rate=0.06,
    transient_oom_rate=0.04,
    slow_rate=0.05,
    slow_factor=4.0,
    target_prefixes=("fused_mha", "fmha_"),
)


def runtime(faults=NO_FAULTS, *, seed=7, numerics=False, **kwargs):
    return ServingRuntime(
        CONFIG,
        batcher=TimeoutBatcher(batch_size=8, timeout_us=2000.0),
        ladder=DegradationLadder(
            trip_threshold=2, window_us=20_000.0, cooldown_us=15_000.0
        ),
        faults=faults,
        numerics=BertEncoderModel(CONFIG, seed=seed) if numerics else None,
        seed=seed,
        **kwargs,
    )


def trace(n=60, **kwargs):
    kwargs.setdefault("mean_interarrival_us", 350.0)
    kwargs.setdefault("seed", 7)
    return make_trace(n, 128, **kwargs)


class TestNoSilentLoss:
    def test_every_request_settles_exactly_once_under_chaos(self):
        t = trace(80)
        report = runtime(CHAOS).run(t)
        assert report.num_requests == t.num_requests
        ids = [o.request_id for o in report.outcomes]
        assert sorted(ids) == [r.request_id for r in t.requests]
        assert len(set(ids)) == len(ids)
        counts = report.counts()
        assert counts["served"] + counts["shed"] + counts["failed"] == 80

    def test_faults_were_actually_injected(self):
        report = runtime(CHAOS).run(trace(80))
        assert report.injected_faults
        assert any(o.retries > 0 for o in report.served)


class TestBitIdentity:
    def test_chaos_outputs_match_fault_free_replay(self):
        t = trace(80)
        clean = runtime(NO_FAULTS, numerics=True).run(t)
        chaos = runtime(CHAOS, numerics=True).run(t)
        # chaos visits degraded levels, so the comparison is meaningful
        assert any(o.level != chaos.top_level for o in chaos.served)
        both = sorted(set(clean.outputs) & set(chaos.outputs))
        assert both, "no served requests in common to compare"
        for rid in both:
            assert np.array_equal(clean.outputs[rid], chaos.outputs[rid])


class TestDeterminism:
    def test_same_seed_reproduces_outcome_log(self):
        t = trace(60)
        a = runtime(CHAOS).run(t)
        b = runtime(CHAOS).run(t)
        assert a.outcome_log() == b.outcome_log()
        assert a.transitions == b.transitions
        assert a.fault_counts() == b.fault_counts()

    def test_different_fault_seed_changes_the_log(self):
        t = trace(60)
        a = runtime(CHAOS, seed=7).run(t)
        b = runtime(CHAOS, seed=8).run(t)
        assert a.outcome_log() != b.outcome_log()


class TestDegradationLadderExercised:
    def test_steps_down_and_recovers_under_fault_pressure(self):
        report = runtime(CHAOS).run(trace(150))
        reasons = [t.reason for t in report.transitions]
        assert "fault-pressure" in reasons
        assert "recovered" in reasons
        # some requests were served while degraded
        assert any(o.level != report.top_level for o in report.served)


class TestDeadlinesAndAdmission:
    def test_tight_deadlines_shed_instead_of_serving_late(self):
        t = trace(60, mean_interarrival_us=15.0, deadline_us=1200.0)
        report = runtime(NO_FAULTS).run(t)
        shed = report.shed
        assert shed
        assert all(o.reason == REASON_DEADLINE for o in shed)
        by_id = {r.request_id: r for r in t.requests}
        for o in report.served:
            assert o.latency_us <= by_id[o.request_id].deadline_us

    def test_admission_controller_rejects_early_under_overload(self):
        t = trace(60, mean_interarrival_us=15.0, deadline_us=1200.0)
        report = runtime(
            NO_FAULTS, admission=AdmissionController(high_water_us=1200.0)
        ).run(t)
        admission_shed = [
            o for o in report.shed if o.reason == REASON_ADMISSION
        ]
        assert admission_shed
        # rejected requests never consume GPU time, so makespan shrinks
        baseline = runtime(NO_FAULTS).run(t)
        assert report.gpu_busy_us < baseline.gpu_busy_us

    def test_deadline_free_trace_never_sheds(self):
        report = runtime(NO_FAULTS).run(trace(30))
        assert not report.shed
        assert not report.failed


class TestRetryBudget:
    def test_certain_faults_with_no_retries_fail_everything(self):
        # rate-1.0 faults with no targeting hit every level's kernels,
        # so no amount of degradation escapes them
        always = FaultSpec(launch_failure_rate=1.0)
        report = runtime(always, retry=NO_RETRIES).run(trace(20))
        assert not report.served
        assert all(o.reason == REASON_RETRY_BUDGET for o in report.failed)
        assert report.counts()["failed"] + report.counts()["shed"] == 20

    def test_retries_recover_from_transient_faults(self):
        flaky = FaultSpec(
            launch_failure_rate=0.2, target_prefixes=("fused_mha", "fmha_")
        )
        report = runtime(
            flaky, retry=RetryPolicy(max_retries=5)
        ).run(trace(40))
        assert report.served
        assert any(o.retries > 0 for o in report.served)


class TestDeviceTime:
    #: most fused-attention launches fault, so dispatches often empty
    #: (every member past its deadline) during a retry backoff
    HEAVY = FaultSpec(
        launch_failure_rate=0.3,
        transient_oom_rate=0.2,
        target_prefixes=("fused_mha", "fmha_"),
    )

    @pytest.mark.parametrize("seed", range(8))
    def test_attempts_on_one_device_never_overlap(self, seed):
        # a faulted attempt holds the device until it ends, even when
        # the backoff shed empties its dispatch and no retry follows
        tel = Telemetry()
        ServingRuntime(
            CONFIG,
            batcher=TimeoutBatcher(batch_size=8, timeout_us=100.0),
            faults=self.HEAVY,
            seed=seed,
            telemetry=tel,
        ).run(
            make_trace(
                64, 128, mean_interarrival_us=30.0, seed=seed,
                deadline_us=600.0,
            )
        )
        spans = sorted(
            (s.start_us, s.end_us)
            for s in tel.tracer.completed()
            if s.name == "attempt"
        )
        assert len(spans) > 8
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end


class TestReport:
    def test_latency_summary_groups(self):
        report = runtime(CHAOS).run(trace(80))
        summary = report.latency_summary()
        assert "all" in summary
        for stats in summary.values():
            assert stats["p50_ms"] <= stats["p95_ms"] <= stats["p99_ms"]

    def test_render_text_mentions_everything(self):
        text = runtime(CHAOS).run(trace(40)).render_text()
        assert "serving report" in text
        assert "injected faults" in text
        assert "degradation transitions" in text

    def test_outputs_empty_without_numerics(self):
        report = runtime(NO_FAULTS).run(trace(10))
        assert report.outputs == {}


def tenant_trace(rows, max_seq_len=128):
    """Trace from (arrival_us, seq_len, tenant[, deadline]) tuples."""
    requests = tuple(
        Request(
            request_id=i,
            arrival_us=float(row[0]),
            seq_len=int(row[1]),
            deadline_us=row[3] if len(row) > 3 else None,
            tenant=row[2],
        )
        for i, row in enumerate(sorted(rows, key=lambda r: r[0]))
    )
    return ServingTrace(requests=requests, max_seq_len=max_seq_len)


def gateway_runtime(gateway, *, numerics=False, telemetry=None, seed=7):
    return ServingRuntime(
        CONFIG,
        batcher=TimeoutBatcher(batch_size=8, timeout_us=2000.0),
        ladder=DegradationLadder(
            trip_threshold=2, window_us=20_000.0, cooldown_us=15_000.0
        ),
        numerics=BertEncoderModel(CONFIG, seed=seed) if numerics else None,
        telemetry=telemetry,
        gateway=gateway,
        seed=seed,
    )


class TestGatewayPath:
    """The multi-tenant pre-pass composed with the replay runtime."""

    def mixed_rows(self, n=24):
        rows = []
        for i in range(n):
            rows.append((400.0 * i, 32 + (i % 4) * 24, "slo", 40_000.0))
            rows.append((400.0 * i + 150.0, 64, "bulk"))
        return rows

    def mixed_gateway(self, **overrides):
        kwargs = dict(service_rate_tokens_per_us=0.5)
        kwargs.update(overrides)
        return AdmissionGateway(
            [
                TenantPolicy(
                    "slo",
                    qos=QosClass.LATENCY_SLO,
                    weight=3.0,
                    slo_target=0.99,
                ),
                TenantPolicy("bulk", qos=QosClass.THROUGHPUT_BATCH),
            ],
            **kwargs,
        )

    def test_served_bits_match_per_request_oracle(self):
        trace = tenant_trace(self.mixed_rows())
        report = gateway_runtime(self.mixed_gateway(), numerics=True).run(
            trace
        )
        assert report.served and report.outputs
        oracle = BertEncoderModel(CONFIG, seed=7)
        hidden = CONFIG.hidden_size
        for rid, got in report.outputs.items():
            req = next(r for r in trace.requests if r.request_id == rid)
            rng = np.random.default_rng([7, rid])
            x = rng.standard_normal((1, req.seq_len, hidden))
            mask = np.ones((1, req.seq_len))
            assert np.array_equal(got, oracle.forward(x, mask)[0])

    def test_conservation_with_rejections_and_sheds(self):
        gw = self.mixed_gateway()
        # throttle bulk hard so rate-limit rejections actually occur
        gw = AdmissionGateway(
            [
                TenantPolicy("slo", qos=QosClass.LATENCY_SLO, weight=3.0),
                TenantPolicy(
                    "bulk",
                    qos=QosClass.THROUGHPUT_BATCH,
                    rate_tokens_per_s=20_000.0,
                    burst_tokens=64.0,
                    max_queue_tokens=256,
                ),
            ],
            service_rate_tokens_per_us=0.05,
        )
        trace = tenant_trace(self.mixed_rows(40))
        report = gateway_runtime(gw).run(trace)
        counts = report.counts()
        assert counts["rejected"] > 0
        assert (
            counts["served"]
            + counts["shed"]
            + counts["failed"]
            + counts["rejected"]
        ) == trace.num_requests
        ids = sorted(o.request_id for o in report.outcomes)
        assert ids == [r.request_id for r in trace.requests]
        limited = [
            o for o in report.outcomes if o.outcome is Outcome.REJECTED
        ]
        assert limited
        assert all(o.reason == REASON_RATE_LIMIT for o in limited)
        assert all(o.tenant == "bulk" for o in limited)

    def test_deadline_expired_in_gateway_queue_is_shed(self):
        # a near-frozen drain server: queued SLO requests outlive their
        # deadlines at the gateway and must settle as deadline sheds
        gw = self.mixed_gateway(service_rate_tokens_per_us=1e-4)
        rows = [(10.0 * i, 64, "slo", 2_000.0) for i in range(12)]
        report = gateway_runtime(gw).run(tenant_trace(rows))
        deadline_sheds = [
            o
            for o in report.outcomes
            if o.outcome is Outcome.SHED and o.reason == REASON_DEADLINE
        ]
        assert deadline_sheds
        assert len(report.outcomes) == 12

    def test_budget_burn_pressures_the_ladder(self):
        # each 64-token request holds the drain server 6.4 ms: queued
        # arrivals outlive their 2 ms deadlines back to back, so the
        # burn incidents cluster inside the ladder's 20 ms trip window
        gw = self.mixed_gateway(service_rate_tokens_per_us=0.01)
        rows = [(10.0 * i, 64, "slo", 2_000.0) for i in range(12)]
        rt = gateway_runtime(gw)
        rt.run(tenant_trace(rows))
        assert any(
            t.reason.startswith(BUDGET_BURN)
            for t in rt.ladder.transitions
        )

    def test_per_tenant_slo_report_matches_outcome_log(self):
        tel = Telemetry()
        trace = tenant_trace(self.mixed_rows())
        report = gateway_runtime(
            self.mixed_gateway(), telemetry=tel
        ).run(trace)
        for tenant in ("slo", "bulk"):
            view = SloReport.for_tenant(tel.metrics, tenant)
            settled = report.by_tenant(tenant)
            assert view.total == len(settled)
            assert view.served == sum(
                1 for o in settled if o.outcome is Outcome.SERVED
            )

    def test_gateway_run_is_deterministic(self):
        trace = tenant_trace(self.mixed_rows())
        a = gateway_runtime(self.mixed_gateway(), numerics=True).run(trace)
        b = gateway_runtime(self.mixed_gateway(), numerics=True).run(trace)
        assert [o.outcome for o in a.outcomes] == [
            o.outcome for o in b.outcomes
        ]
        assert all(
            np.array_equal(a.outputs[k], b.outputs[k]) for k in a.outputs
        )
