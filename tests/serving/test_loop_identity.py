"""Pinned replay digests for the encoder and decode serving runtimes.

Each case replays a fixed scenario and hashes everything the replay is
accountable for:

- every request outcome (latency at full precision), the ladder
  transitions and the injected faults;
- ``repr`` of GPU busy time, makespan, per-device busy time and steals;
- per-request token times (decode);
- the served outputs, compared bit for bit with the per-request oracle
  (:meth:`BertEncoderModel.forward` on the request alone, or
  :func:`generate_reference_outputs`) computed in the same process;
- for encoder cases, the Prometheus exposition and the JSONL span dump.

Served output bytes are not hashed raw: they come from the host's BLAS
kernels, which differ between CPUs.  The digest pins the shape, dtype
and oracle verdict of every served output instead, so a served bit that
moves away from the oracle changes the digest on any host.

The grid covers the bucket, timeout and continuous encoder batchers,
the single-tenant ``AdmissionController`` and a two-tenant gateway,
faults off and on (with retry-budget exhaustion), one device, ``dp`` x4
and ``tp`` x2, numerics on and off, and decode with and without a
gateway, with an unbounded and a tight KV arena, faults off and on.

The digests were computed before the serving loop was shared between
the two runtimes.  A new digest is a behaviour change: it has to be
reviewed as one, never refreshed to make this test pass.  Run this file
as a script to print the current digests.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.config import BertConfig
from repro.core.model import BertEncoderModel
from repro.serving import (
    AdmissionController,
    AdmissionGateway,
    DegradationLadder,
    FaultSpec,
    NO_FAULTS,
    QosClass,
    RetryPolicy,
    ServingRuntime,
    TenantPolicy,
)
from repro.serving.generation import (
    GenerationRuntime,
    generate_reference_outputs,
)
from repro.serving.sharded import ShardConfig
from repro.telemetry import Telemetry
from repro.telemetry.export import telemetry_to_jsonl
from repro.workloads.batching import (
    BucketBatcher,
    ContinuousBatcher,
    MixedContinuousBatcher,
    TimeoutBatcher,
)
from repro.workloads.serving import (
    GenerationRequest,
    Request,
    ServingTrace,
    make_generation_trace,
    make_trace,
)

CONFIG = BertConfig(num_heads=4, head_size=16, num_layers=2)
SEED = 11

CHAOS = FaultSpec(
    launch_failure_rate=0.06,
    transient_oom_rate=0.04,
    slow_rate=0.05,
    slow_factor=4.0,
    target_prefixes=("fused_mha", "fmha_"),
)
#: faults often enough that one retry is not always enough
HEAVY = FaultSpec(
    launch_failure_rate=0.25,
    transient_oom_rate=0.15,
    target_prefixes=("fused_mha", "fmha_", "allreduce"),
)
DECODE_CHAOS = FaultSpec(
    launch_failure_rate=0.1,
    transient_oom_rate=0.1,
    target_prefixes=("paged_decode",),
)


def ladder() -> DegradationLadder:
    return DegradationLadder(
        trip_threshold=2, window_us=20_000.0, cooldown_us=15_000.0
    )


def tenant_trace(
    n: int, max_seq_len: int, *, generation: bool, deadline_us: float
) -> ServingTrace:
    """Alternating interactive (with a deadline) and bulk requests."""
    base = (
        make_generation_trace(
            n, max_seq_len, decode_tokens=6, mean_interarrival_us=60.0,
            seed=4,
        )
        if generation
        else make_trace(n, max_seq_len, mean_interarrival_us=90.0, seed=4)
    )
    requests = []
    for r in base.requests:
        interactive = r.request_id % 2 == 0
        fields = dict(
            request_id=r.request_id,
            arrival_us=r.arrival_us,
            seq_len=r.seq_len,
            deadline_us=deadline_us if interactive else None,
            tenant="interactive" if interactive else "bulk",
        )
        if generation:
            requests.append(
                GenerationRequest(**fields, decode_tokens=r.decode_tokens)
            )
        else:
            requests.append(Request(**fields))
    return ServingTrace(requests=tuple(requests), max_seq_len=max_seq_len)


def gateway(service_rate: float | None = None) -> AdmissionGateway:
    return AdmissionGateway(
        [
            TenantPolicy(
                "interactive", qos=QosClass.LATENCY_SLO, weight=2.0,
                slo_target=0.9, decode_slo_us=400.0,
            ),
            TenantPolicy(
                "bulk",
                qos=QosClass.THROUGHPUT_BATCH,
                rate_tokens_per_s=300_000.0,
                burst_tokens=256,
                max_queue_tokens=512,
            ),
        ],
        service_rate_tokens_per_us=service_rate,
        max_total_queue_tokens=1024,
    )


# -- encoder cases ------------------------------------------------------


def encoder_case(
    *,
    batcher,
    faults=NO_FAULTS,
    n=32,
    deadline_us=None,
    interarrival=250.0,
    numerics=False,
    trace=None,
    **kwargs,
):
    def run():
        replay = trace or make_trace(
            n, 96, mean_interarrival_us=interarrival, seed=5,
            deadline_us=deadline_us,
        )
        tel = Telemetry()
        runtime = ServingRuntime(
            CONFIG,
            batcher=batcher(),
            ladder=ladder(),
            faults=faults,
            numerics=BertEncoderModel(CONFIG, seed=SEED) if numerics else None,
            seed=SEED,
            telemetry=tel,
            **kwargs,
        )
        report = runtime.run(replay)
        return replay, report, tel

    return run


def timeout():
    return TimeoutBatcher(batch_size=8, timeout_us=2000.0)


def continuous():
    return ContinuousBatcher(token_budget=1024)


def bucket():
    return BucketBatcher(batch_size=8, timeout_us=2000.0)


ENCODER_CASES = {
    "enc-timeout-clean": encoder_case(batcher=timeout),
    "enc-timeout-chaos": encoder_case(
        batcher=timeout, faults=CHAOS, n=48, deadline_us=50_000.0
    ),
    "enc-bucket-chaos": encoder_case(
        batcher=bucket, faults=CHAOS, deadline_us=50_000.0
    ),
    "enc-continuous-clean": encoder_case(batcher=continuous),
    "enc-continuous-chaos": encoder_case(
        batcher=continuous, faults=CHAOS, n=48, deadline_us=50_000.0
    ),
    "enc-retry-budget": encoder_case(
        batcher=continuous, faults=HEAVY, retry=RetryPolicy(max_retries=1)
    ),
    "enc-admission": encoder_case(
        batcher=timeout,
        faults=CHAOS,
        n=48,
        interarrival=40.0,
        admission=AdmissionController(high_water_us=1_500.0),
    ),
    "enc-gateway": encoder_case(
        batcher=continuous,
        trace=tenant_trace(40, 96, generation=False, deadline_us=25_000.0),
        gateway=gateway(),
    ),
    "enc-gateway-chaos": encoder_case(
        batcher=timeout,
        faults=HEAVY,
        trace=tenant_trace(40, 96, generation=False, deadline_us=25_000.0),
        gateway=gateway(0.5),
        retry=RetryPolicy(max_retries=1),
    ),
    "enc-dp4-chaos": encoder_case(
        batcher=lambda: ContinuousBatcher(token_budget=256, timeout_us=200.0),
        faults=HEAVY,
        n=64,
        interarrival=1.0,
        deadline_us=20_000.0,
        sharding=ShardConfig(devices=4, mode="dp"),
    ),
    "enc-tp2-chaos": encoder_case(
        batcher=timeout,
        faults=HEAVY,
        sharding=ShardConfig(devices=2, mode="tp"),
    ),
    "enc-numeric-timeout-chaos": encoder_case(
        batcher=timeout, faults=HEAVY, n=20, numerics=True
    ),
    "enc-numeric-continuous-chaos": encoder_case(
        batcher=continuous, faults=HEAVY, n=20, numerics=True
    ),
    "enc-numeric-dp4": encoder_case(
        batcher=continuous,
        faults=CHAOS,
        n=20,
        numerics=True,
        sharding=ShardConfig(devices=4, mode="dp"),
    ),
}


# -- decode cases -------------------------------------------------------


def decode_case(
    *,
    faults=NO_FAULTS,
    kv_capacity_tokens=None,
    gated=False,
    compute_outputs=True,
    **kwargs,
):
    def run():
        replay = (
            tenant_trace(16, 64, generation=True, deadline_us=400.0)
            if gated
            else make_generation_trace(
                12, 64, decode_tokens=6, mean_interarrival_us=30.0, seed=3
            )
        )
        runtime = GenerationRuntime(
            CONFIG,
            batcher=MixedContinuousBatcher(token_budget=256),
            ladder=ladder(),
            faults=faults,
            seed=SEED,
            kv_capacity_tokens=kv_capacity_tokens,
            compute_outputs=compute_outputs,
            gateway=gateway() if gated else None,
            **kwargs,
        )
        report = runtime.run(replay)
        return replay, report, runtime

    return run


DECODE_CASES = {
    "dec-clean": decode_case(),
    "dec-tight-clean": decode_case(kv_capacity_tokens=128),
    "dec-chaos": decode_case(faults=DECODE_CHAOS),
    "dec-tight-chaos-budget": decode_case(
        faults=DECODE_CHAOS,
        kv_capacity_tokens=128,
        retry=RetryPolicy(max_retries=0),
    ),
    "dec-gateway": decode_case(gated=True),
    "dec-gateway-tight-chaos": decode_case(
        gated=True, faults=DECODE_CHAOS, kv_capacity_tokens=128
    ),
    "dec-cost-plane-tight-chaos": decode_case(
        faults=DECODE_CHAOS, kv_capacity_tokens=96, compute_outputs=False
    ),
}


# -- digests --------------------------------------------------------------


def _common_parts(report) -> list[str]:
    return [
        repr(
            [
                (
                    o.request_id, o.outcome.value, o.reason, o.latency_us,
                    o.retries, o.level, o.tenant,
                )
                for o in report.outcomes
            ]
        ),
        repr(report.transitions),
        repr(report.injected_faults),
        repr(report.gpu_busy_us),
        repr(report.makespan_us),
    ]


def _output_parts(outputs: dict, oracle: dict) -> str:
    return repr(
        [
            (
                rid,
                outputs[rid].shape,
                str(outputs[rid].dtype),
                bool(np.array_equal(outputs[rid], oracle[rid])),
            )
            for rid in sorted(outputs)
        ]
    )


def _encoder_oracle(trace: ServingTrace, outputs: dict) -> dict:
    model = BertEncoderModel(CONFIG, seed=SEED)
    oracle = {}
    for request in trace.requests:
        if request.request_id not in outputs:
            continue
        rng = np.random.default_rng([SEED, request.request_id])
        x = rng.standard_normal((1, request.seq_len, CONFIG.hidden_size))
        oracle[request.request_id] = np.array(
            model.forward(x, np.ones((1, request.seq_len)))[0]
        )
    return oracle


def encoder_digest(name: str) -> str:
    trace, report, tel = ENCODER_CASES[name]()
    parts = _common_parts(report)
    parts += [
        repr(report.device_busy_us),
        repr(report.work_steals),
        _output_parts(report.outputs, _encoder_oracle(trace, report.outputs)),
        tel.metrics.to_prometheus(),
        telemetry_to_jsonl(tel),
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def decode_digest(name: str) -> str:
    trace, report, runtime = DECODE_CASES[name]()
    parts = _common_parts(report)
    parts += [
        repr(sorted(report.token_times.items())),
        repr((report.generated_tokens, report.rounds)),
        repr(sorted(report.kv_stats.items())),
        _output_parts(
            report.outputs,
            generate_reference_outputs(runtime, trace)
            if report.outputs
            else {},
        ),
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


DIGESTS = {
    'enc-admission': '7ef75a4ce3073ecb85ac3829baae19f4c2f10eddcff98b70526dbca3055f6abe',
    'enc-bucket-chaos': '99d5ce3b63657b7fe6c298d3eafcb4bee367aa5810a7ac458b91fbe29c1eb397',
    'enc-continuous-chaos': 'ca7f2245e4792595b50c485600c71ee564f4da5a2d8a572689474a88293c61e9',
    'enc-continuous-clean': '03658f0fb6b431ce96dbd7c7703b4ac6100dbe2e2d4b2781ec58ce18d279833c',
    'enc-dp4-chaos': 'fa2d9c62b73471537570e1a59145fa1d798c1b5c3f9e704020334582f595ff89',
    'enc-gateway': '32340f241a143f29ea1ba3700bc52b5b2543548bdf2d645295c7eab620c1aa11',
    'enc-gateway-chaos': '0f2cbabb716a62ccb629a81ab94ec931e902bd01b64c8505d6e74992a409bb65',
    'enc-numeric-continuous-chaos': 'dae52eaad0da3a7947f052a428d2e098da95b9b3637c8b648a3b2ae9d73175b1',
    'enc-numeric-dp4': 'f3d293cb75c1e048cf4a1cc526cd44e0c1c9db738db24e23a4009d1a137f6b13',
    'enc-numeric-timeout-chaos': '7c0199f66f776388a847a60234b27f4db039d1988f01cea842f3f146a9f28769',
    'enc-retry-budget': 'c988160a35c1f4aa921862bce781aa9d1a9b75df0799d8fe549ca363128d53d0',
    'enc-timeout-chaos': 'ac18e2a2645b8e26f5ebfc8fe5291733104ccc811c9dd6c4a9bf04f26650cb47',
    'enc-timeout-clean': '7983a98784c7c70fb329290c15fc74131e76e48eb24f64960caf2c69e5407dc5',
    'enc-tp2-chaos': '5d49e4a885a725ff98c15052456f826370045295b982a8d9fab3691febed1cfc',
    'dec-chaos': '929a41ed0536a9009254d72efe197460c54dbdc62bbae19b03608b02fec54da9',
    'dec-clean': '2d79be00221399a49e454b3044b7a7a98885747e23e0ccb8174f0c28574a1e03',
    'dec-cost-plane-tight-chaos': '8fb8c5cd7919b030f9cdc9a0c1d1b2fba75a03249630999515f7dcdfd9d98dcb',
    'dec-gateway': '334e6ea84a9672f3c8c6fdde4938db5bd3d4efb6835b70ce7c0ecc274d0ff1c3',
    'dec-gateway-tight-chaos': 'bd2352fa592f5a9eacbcd16766c93634a04edbd6f3f00ef20afc48282a8567b4',
    'dec-tight-chaos-budget': '902dd6c3485a8faf2ac24fdb1968363ee360d7f1bc6b4f2c7c953df8dccb06f6',
    'dec-tight-clean': '87a1b7a7db84034ea2ab12217f6dfda6d7c3cb8b41c7ed2c61efa510e689b3cc',
}


@pytest.mark.parametrize("name", sorted(ENCODER_CASES))
def test_encoder_replay_digest(name):
    assert encoder_digest(name) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DECODE_CASES))
def test_decode_replay_digest(name):
    assert decode_digest(name) == DIGESTS[name]


if __name__ == "__main__":
    for case in sorted(ENCODER_CASES):
        print(f"    {case!r}: {encoder_digest(case)!r},")
    for case in sorted(DECODE_CASES):
        print(f"    {case!r}: {decode_digest(case)!r},")
