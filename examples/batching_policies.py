"""Online batching policies x inference engines.

Serving-side batching interacts with the padding story: FIFO batches mix
lengths (maximal padding for padded engines), length-bucketed batching
makes batches homogeneous at the cost of queueing delay, and a packed
engine like ByteTransformer is largely indifferent — it only ever pays
for valid tokens.  This example serves one dense request trace through
:class:`~repro.serving.ServingRuntime` under three policies, once with a
padded engine (the ``baseline`` preset with cuBLAS batched-GEMM MHA) and
once with the packed one (the ``fused MHA`` preset), reporting latency
percentiles and GPU busy time.

Run:  python examples/batching_policies.py
"""

from __future__ import annotations

from repro.core.config import BASELINE, FUSED_MHA, BertConfig
from repro.serving import DegradationLadder, DegradationLevel, ServingRuntime
from repro.workloads.batching import (
    BucketBatcher,
    FifoBatcher,
    TimeoutBatcher,
)
from repro.workloads.serving import make_trace


def main() -> None:
    config = BertConfig()  # 12 layers
    trace = make_trace(
        200, 384, alpha=0.6, mean_interarrival_us=250.0, seed=11
    )
    policies = [
        FifoBatcher(batch_size=8),
        TimeoutBatcher(batch_size=8, timeout_us=2000.0),
        BucketBatcher(batch_size=8, bucket_width=64, timeout_us=4000.0),
    ]
    # the padded engine pads MHA too: its one rung is the padded
    # batched-GEMM attention path
    padded_ladder = DegradationLadder((DegradationLevel("padded", "cublas"),))
    engines = [
        ("padded", BASELINE, padded_ladder),
        ("packed", FUSED_MHA, None),
    ]

    print(
        f"trace: {trace.num_requests} requests, max seq {trace.max_seq_len}, "
        f"mean interarrival 250 us\n"
    )
    print(
        f"{'engine':<10}{'policy':<10}{'mean_ms':>9}{'p99_ms':>9}"
        f"{'gpu_busy_ms':>13}{'batches':>9}"
    )
    for engine, opt, ladder in engines:
        for policy in policies:
            runtime = ServingRuntime(
                config, batcher=policy, opt=opt, ladder=ladder
            )
            report = runtime.run(trace)
            latency = report.latency_summary()["all"]
            batches = len(policy.plan(trace))
            print(
                f"{engine:<10}{policy.name:<10}"
                f"{latency['mean_ms']:>9.2f}{latency['p99_ms']:>9.2f}"
                f"{report.gpu_busy_us / 1000:>13.1f}{batches:>9}"
            )
        print()
    print(
        "Bucketing tries to do at the scheduler level what the zero-\n"
        "padding algorithm does at the kernel level.  At this arrival\n"
        "rate the buckets rarely fill, so bucketing mostly fragments the\n"
        "batches (more, smaller launches) — it roughly breaks even for\n"
        "the padded engine and strictly hurts the packed one, which was\n"
        "already padding-free under plain FIFO.  The packed engine wins\n"
        "every policy, with its best case being the simplest one."
    )


if __name__ == "__main__":
    main()
