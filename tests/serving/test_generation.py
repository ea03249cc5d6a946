"""Decode serving runtime: batched rounds bitwise-equal to the oracle."""

import sys
import tracemalloc

import numpy as np
import pytest

from repro.core.config import BertConfig
from repro.decoder.generation import init_decode_cell
from repro.decoder.paged_kv import PagedKVArena
from repro.serving.faults import FaultSpec
from repro.serving.gateway import AdmissionGateway, QosClass, TenantPolicy
from repro.serving.generation import (
    GenerationRuntime,
    _DecodePlanner,
    generate_reference_outputs,
)
from repro.serving.report import Outcome, REASON_ADMISSION
from repro.serving.runtime import ServingRuntime
from repro.telemetry import Histogram, Telemetry
from repro.telemetry.slo import (
    DECODE_TOKENS_TOTAL,
    GATEWAY_REJECTED_TOTAL,
    GATEWAY_RELEASE_WAIT_US,
    KV_BYTES_PEAK,
    KV_EVICTIONS_TOTAL,
    TENANT_REQUESTS_TOTAL,
    US_PER_TOKEN,
)
from repro.workloads.serving import (
    GenerationRequest,
    ServingTrace,
    make_generation_trace,
)

CFG = BertConfig(num_heads=4, head_size=16, num_layers=2)


def gen_trace(n=10, msl=64, **kwargs):
    kwargs.setdefault("decode_tokens", 8)
    kwargs.setdefault("mean_interarrival_us", 25.0)
    return make_generation_trace(n, msl, **kwargs)


def assert_served_bitwise(runtime, trace, report):
    oracle = generate_reference_outputs(runtime, trace)
    assert report.outputs, "nothing served"
    for rid, out in report.outputs.items():
        np.testing.assert_array_equal(out, oracle[rid])


class TestCleanServing:
    def test_all_served_bitwise_equal_to_oracle(self):
        trace = gen_trace()
        runtime = GenerationRuntime(CFG, seed=0)
        report = runtime.run(trace)
        assert report.counts() == {
            "served": 10, "shed": 0, "failed": 0, "rejected": 0,
        }
        assert_served_bitwise(runtime, trace, report)
        assert report.kv_stats["overflow_allocs"] == 0

    def test_conservation_every_request_settles_once(self):
        trace = gen_trace(n=16)
        report = GenerationRuntime(CFG, seed=1).run(trace)
        assert len(report.outcomes) == trace.num_requests
        assert sorted(o.request_id for o in report.outcomes) == list(
            range(trace.num_requests)
        )

    def test_one_token_prompt(self):
        trace = ServingTrace(
            requests=(
                GenerationRequest(
                    request_id=0, arrival_us=1.0, seq_len=1, decode_tokens=5
                ),
            ),
            max_seq_len=64,
        )
        runtime = GenerationRuntime(CFG, seed=0)
        report = runtime.run(trace)
        assert report.outputs[0].shape == (5, CFG.hidden_size)
        assert_served_bitwise(runtime, trace, report)

    def test_max_context_truncates_the_stream(self):
        # prompt 60 of 64: the last token appends no KV row, so exactly
        # max_context - prompt + 1 = 5 decode steps fit the window
        trace = ServingTrace(
            requests=(
                GenerationRequest(
                    request_id=0, arrival_us=1.0, seq_len=60, decode_tokens=50
                ),
            ),
            max_seq_len=64,
        )
        runtime = GenerationRuntime(CFG, seed=0)
        report = runtime.run(trace)
        assert report.generated_tokens == 5
        assert_served_bitwise(runtime, trace, report)

    def test_stalled_arrivals_advance_the_clock(self):
        # gaps far beyond a round's service time: every round between
        # arrivals is empty and the runtime must jump, not spin
        trace = gen_trace(n=4, mean_interarrival_us=1e6)
        report = GenerationRuntime(CFG, seed=0).run(trace)
        assert len(report.served) == 4
        assert report.makespan_us > 1e5

    def test_grouping_independence_exact(self):
        # same streams, radically different round cuts (budget squeeze):
        # generated bits must not change
        trace = gen_trace(n=6)
        from repro.workloads.batching import MixedContinuousBatcher

        wide = GenerationRuntime(CFG, seed=3)
        narrow = GenerationRuntime(
            CFG,
            seed=3,
            batcher=MixedContinuousBatcher(token_budget=80),
        )
        out_w = wide.run(trace).outputs
        out_n = narrow.run(trace).outputs
        assert out_w.keys() == out_n.keys()
        for rid in out_w:
            np.testing.assert_array_equal(out_w[rid], out_n[rid])


class TestKVPressure:
    def test_eviction_resume_is_bitwise(self):
        trace = gen_trace(n=10, mean_interarrival_us=5.0)
        runtime = GenerationRuntime(CFG, seed=0, kv_capacity_tokens=128)
        report = runtime.run(trace)
        assert report.kv_stats["evictions"] >= 1
        assert report.kv_stats["swap_ins"] >= 1
        assert report.kv_stats["overflow_allocs"] == 0
        assert len(report.served) == 10
        assert_served_bitwise(runtime, trace, report)

    def test_cost_plane_books_lengths_without_rows(self, monkeypatch):
        trace = gen_trace(n=10, mean_interarrival_us=5.0)
        faults = FaultSpec(
            launch_failure_rate=0.15,
            transient_oom_rate=0.05,
            target_prefixes=("paged_decode",),
        )

        def run(compute_outputs):
            return GenerationRuntime(
                CFG, seed=0, kv_capacity_tokens=128, faults=faults,
                compute_outputs=compute_outputs,
            ).run(trace)

        numeric = run(True)
        # every array the decode runtime or its arena builds on the cost
        # plane, by shape
        shapes = []
        owners = {"repro.serving.generation", "repro.decoder.paged_kv"}

        def recorded(make):
            def wrapper(*args, **kwargs):
                out = make(*args, **kwargs)
                if sys._getframe(1).f_globals.get("__name__") in owners:
                    shapes.append(np.shape(out))
                return out

            return wrapper

        for name in ("zeros", "empty", "stack", "concatenate"):
            monkeypatch.setattr(np, name, recorded(getattr(np, name)))

        def no_rows(*args, **kwargs):
            raise AssertionError("the cost plane appended K/V rows")

        monkeypatch.setattr(PagedKVArena, "append_rows", no_rows)
        cost = run(False)
        monkeypatch.undo()
        assert [s for s in shapes if CFG.hidden_size in s] == []
        assert cost.kv_stats["evictions"] >= 1
        assert cost.outcomes == numeric.outcomes
        assert cost.token_times == numeric.token_times
        assert cost.kv_stats == numeric.kv_stats

    def test_impossible_prompt_shed_at_admission(self):
        trace = ServingTrace(
            requests=(
                GenerationRequest(
                    request_id=0, arrival_us=1.0, seq_len=60, decode_tokens=2
                ),
            ),
            max_seq_len=64,
        )
        report = GenerationRuntime(CFG, seed=0, kv_capacity_tokens=32).run(
            trace
        )
        (outcome,) = report.outcomes
        assert outcome.outcome is Outcome.SHED
        assert outcome.reason == REASON_ADMISSION

    def test_kv_telemetry_gauges(self):
        tel = Telemetry()
        trace = gen_trace(n=8, mean_interarrival_us=5.0)
        GenerationRuntime(
            CFG, seed=0, kv_capacity_tokens=128, telemetry=tel
        ).run(trace)
        snapshot = str(tel.metrics.snapshot())
        assert KV_BYTES_PEAK in snapshot
        assert KV_EVICTIONS_TOTAL in snapshot
        assert DECODE_TOKENS_TOTAL in snapshot

    def test_round_price_counts_committed_tokens(self, monkeypatch):
        """``serving_us_per_token`` is a round's service over the tokens
        it commits.  Under KV pressure the cut round loses evicted
        decode rows and deferred prompts; they must not dilute the
        price."""
        services, rounds = [], []
        price, commit = _DecodePlanner.price, _DecodePlanner.commit

        def priced(self, unit, ctx, level):
            services.append(price(self, unit, ctx, level))
            return services[-1]

        def committed(self, unit, level, finish, attempt):
            rows = sum(r.seq_len for r in unit.prefills)
            rows += len(unit.decode_ids)
            rounds.append((rows, unit.round_.total_tokens))
            return commit(self, unit, level, finish, attempt)

        monkeypatch.setattr(_DecodePlanner, "price", priced)
        monkeypatch.setattr(_DecodePlanner, "commit", committed)
        tel = Telemetry()
        trace = gen_trace(n=12, mean_interarrival_us=5.0)
        GenerationRuntime(
            CFG, seed=0, kv_capacity_tokens=96, telemetry=tel,
            compute_outputs=False,
        ).run(trace)
        assert any(rows < planned for rows, planned in rounds)
        samples = tel.metrics.find(US_PER_TOKEN)._samples
        assert samples == [
            service / rows for service, (rows, _) in zip(services, rounds)
        ]


class TestChaos:
    def test_served_streams_survive_faults_bitwise(self):
        trace = gen_trace(n=10)
        runtime = GenerationRuntime(
            CFG,
            seed=0,
            faults=FaultSpec(
                launch_failure_rate=0.25,
                transient_oom_rate=0.1,
                target_prefixes=("paged_decode",),
            ),
        )
        report = runtime.run(trace)
        assert report.injected_faults
        assert len(report.outcomes) == 10
        assert_served_bitwise(runtime, trace, report)

    def test_ladder_escapes_to_looped_decode(self):
        trace = gen_trace(n=12)
        runtime = GenerationRuntime(
            CFG,
            seed=0,
            faults=FaultSpec(
                launch_failure_rate=0.5,
                target_prefixes=("paged_decode",),
            ),
        )
        report = runtime.run(trace)
        assert any(
            t.to_level == "decode-looped" for t in report.transitions
        )
        assert_served_bitwise(runtime, trace, report)

    def test_chaos_with_eviction_pressure(self):
        trace = gen_trace(n=10, mean_interarrival_us=5.0)
        runtime = GenerationRuntime(
            CFG,
            seed=0,
            kv_capacity_tokens=128,
            faults=FaultSpec(
                launch_failure_rate=0.15,
                transient_oom_rate=0.05,
                target_prefixes=("paged_decode",),
            ),
        )
        report = runtime.run(trace)
        assert report.kv_stats["evictions"] >= 1
        assert report.kv_stats["overflow_allocs"] == 0
        assert_served_bitwise(runtime, trace, report)


class TestGateway:
    def test_decode_slo_tenant_settles_everything(self):
        trace = gen_trace(n=8, tenant="chat")
        runtime = GenerationRuntime(
            CFG,
            seed=0,
            gateway=AdmissionGateway(
                [
                    TenantPolicy(
                        "chat",
                        qos=QosClass.LATENCY_SLO,
                        slo_target=0.5,
                        decode_slo_us=1.0,  # every token is "late"
                    )
                ]
            ),
        )
        report = runtime.run(trace)
        assert len(report.outcomes) == 8
        assert len(report.served) == 8
        assert_served_bitwise(runtime, trace, report)


class TestReport:
    def test_us_per_token_and_hit_rate(self):
        trace = gen_trace(n=10)
        report = GenerationRuntime(CFG, seed=0).run(trace)
        assert report.us_per_token == pytest.approx(
            report.gpu_busy_us / report.generated_tokens
        )
        assert 0.0 <= report.graph_hit_rate <= 1.0
        text = report.render_text()
        assert "generation report" in text
        assert "kv arena" in text

    def test_token_times_are_monotone(self):
        trace = gen_trace(n=6)
        report = GenerationRuntime(CFG, seed=0).run(trace)
        for times in report.token_times.values():
            assert list(times) == sorted(times)
            assert len(set(times)) == len(times)


def weight_arrays(weights):
    return (
        weights.qkv_weight, weights.qkv_bias,
        weights.out_weight, weights.out_bias,
    )


def construction_bytes(**kwargs):
    """Bytes a runtime still holds after construction."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        runtime = GenerationRuntime(BertConfig(), **kwargs)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held


class TestNumericWeights:
    """The numeric plane casts the float32 decode-cell weights to float64
    once per runtime; the oracle keeps casting per GEMM call."""

    def test_weights_stay_the_callers_object(self):
        weights = init_decode_cell(CFG, seed=3)
        for compute_outputs in (True, False):
            runtime = GenerationRuntime(
                CFG, weights=weights, compute_outputs=compute_outputs
            )
            assert runtime.weights is weights

    def test_drawn_weights_read_back_as_float32_bits(self):
        expected = init_decode_cell(CFG, seed=5)
        for compute_outputs in (True, False):
            runtime = GenerationRuntime(
                CFG, seed=5, compute_outputs=compute_outputs
            )
            for got, want in zip(
                weight_arrays(runtime.weights), weight_arrays(expected)
            ):
                assert got.dtype == np.float32
                assert np.array_equal(got, want)

    def test_cost_plane_runtime_builds_no_float64_copy(self):
        weights = init_decode_cell(BertConfig(), seed=0)
        copy_bytes = 2 * sum(a.nbytes for a in weight_arrays(weights))
        cost_plane = construction_bytes(
            weights=weights, compute_outputs=False
        )
        numeric = construction_bytes(weights=weights, compute_outputs=True)
        assert cost_plane < copy_bytes // 10
        assert numeric >= copy_bytes

    def test_numeric_runtime_holds_one_set_of_drawn_weights(self):
        weights = init_decode_cell(BertConfig(), seed=0)
        copy_bytes = 2 * sum(a.nbytes for a in weight_arrays(weights))
        held = construction_bytes(seed=0, compute_outputs=True)
        assert copy_bytes <= held < copy_bytes + copy_bytes // 10

    def test_cost_plane_runtime_draws_no_weights(self, monkeypatch):
        import repro.serving.generation as generation

        def no_draw(*args, **kwargs):
            raise AssertionError("cost-plane runtime drew weights")

        monkeypatch.setattr(generation, "init_decode_cell", no_draw)
        GenerationRuntime(BertConfig(), seed=0, compute_outputs=False)

    def test_cost_plane_drawn_weights_equal_a_fresh_draw(self):
        runtime = GenerationRuntime(CFG, seed=4, compute_outputs=False)
        for got, want in zip(
            weight_arrays(runtime.weights),
            weight_arrays(init_decode_cell(CFG, seed=4)),
        ):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_cost_plane_runtime_holds_no_drawn_weights(self):
        weights = init_decode_cell(BertConfig(), seed=0)
        copy_bytes = sum(a.nbytes for a in weight_arrays(weights))
        held = construction_bytes(seed=0, compute_outputs=False)
        assert held < copy_bytes // 10

    def test_replay_bitwise_equals_float32_oracle(self):
        weights = init_decode_cell(CFG, seed=2)
        trace = gen_trace(n=8)
        runtime = GenerationRuntime(CFG, weights=weights, seed=2)
        report = runtime.run(trace)
        assert runtime.weights.qkv_weight.dtype == np.float32
        assert len(report.served) == trace.num_requests
        assert_served_bitwise(runtime, trace, report)


def tenant_gen_trace():
    """Two tenants: a deadline-carrying chat tenant and a rate-limited,
    queue-bounded bulk tenant, arriving fast enough to reject and shed."""
    base = gen_trace(n=24, mean_interarrival_us=8.0, seed=6)
    return ServingTrace(
        requests=tuple(
            GenerationRequest(
                request_id=r.request_id,
                arrival_us=r.arrival_us,
                seq_len=r.seq_len,
                deadline_us=150.0 if r.request_id % 2 == 0 else None,
                tenant="chat" if r.request_id % 2 == 0 else "bulk",
                decode_tokens=r.decode_tokens,
            )
            for r in base.requests
        ),
        max_seq_len=base.max_seq_len,
    )


def two_tenant_gateway():
    return AdmissionGateway(
        [
            TenantPolicy("chat", qos=QosClass.LATENCY_SLO, slo_target=0.9),
            TenantPolicy(
                "bulk",
                qos=QosClass.THROUGHPUT_BATCH,
                rate_tokens_per_s=400_000.0,
                burst_tokens=96,
                max_queue_tokens=96,
            ),
        ],
        service_rate_tokens_per_us=0.5,
    )


def gateway_view(tel):
    """The gateway's metric series and instants of one observed run."""
    series = {
        (m.name, m.labels): (
            (m.count, m.sum) if isinstance(m, Histogram) else m.value
        )
        for m in tel.metrics.collect()
        if m.name.startswith("gateway_")
    }
    instants = [
        (s.name, s.start_us, s.request_id, dict(s.attrs))
        for s in tel.tracer.spans
        if s.category == "gateway"
    ]
    return series, instants


class TestSharedTelemetry:
    """Decode runs record the serving loop's telemetry: the gateway
    front end and the settlement ledger are the encoder's."""

    def test_gateway_series_match_an_encoder_run(self):
        trace = tenant_gen_trace()
        views = []
        for runtime in (
            GenerationRuntime(
                CFG, seed=0, compute_outputs=False,
                gateway=two_tenant_gateway(), telemetry=Telemetry(),
            ),
            ServingRuntime(
                CFG, gateway=two_tenant_gateway(), seed=0,
                telemetry=Telemetry(),
            ),
        ):
            runtime.run(trace)
            views.append(gateway_view(runtime.telemetry))
        decode, encoder = views
        assert decode == encoder
        series, instants = decode
        assert {name for name, _ in series} >= {
            GATEWAY_REJECTED_TOTAL, GATEWAY_RELEASE_WAIT_US,
        }
        assert {name for name, *_ in instants} == {
            "gateway.reject", "gateway.shed",
        }

    def test_tenant_request_totals_equal_report_counts(self):
        tel = Telemetry()
        report = GenerationRuntime(
            CFG, seed=0, compute_outputs=False,
            gateway=two_tenant_gateway(), telemetry=tel,
        ).run(tenant_gen_trace())
        for tenant in ("chat", "bulk"):
            settled = report.by_tenant(tenant)
            assert settled
            for outcome in Outcome:
                metric = tel.metrics.find(
                    TENANT_REQUESTS_TOTAL,
                    tenant=tenant,
                    outcome=outcome.value,
                )
                recorded = 0 if metric is None else metric.value
                assert recorded == sum(
                    o.outcome is outcome for o in settled
                )

    def test_rounds_stay_undecomposed_for_critical_path(self):
        from repro.observe import CriticalPathReport

        tel = Telemetry()
        GenerationRuntime(
            CFG, seed=0, compute_outputs=False, telemetry=tel,
            faults=FaultSpec(
                launch_failure_rate=0.2, target_prefixes=("paged_decode",)
            ),
        ).run(gen_trace())
        names = {s.name for s in tel.tracer.completed()}
        assert {"round", "attempt", "request"} <= names
        assert tel.tracer.depth == 0
        paths = CriticalPathReport.from_telemetry(tel).requests
        assert paths and not any(p.decomposed for p in paths)
