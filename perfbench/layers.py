"""Per-layer instrumentation: which public calls are wrapped, and the
per-layer metrics derived from their spans.

Layer names follow the program's package layout (``core``, ``kernels``,
``attention``, ``gpusim``, ``workloads``, ``serving``, ``decoder``).
Timing metrics are self time per timed pass, where one pass is one
sweep of the workload's timed unit (a grid pass or a trace replay), so
a run that fits more passes into its window reports the same scale.
"""

from __future__ import annotations

from stats import percentile, self_time_by_name

from spans import Recorder, Target


def _gemm_flop(rec: Recorder, args, kwargs, out) -> None:
    a = args[0]
    rec.add("gemm.calls")
    rec.add("gemm.flop", 2.0 * out.size * a.shape[-1])


def _grouped_gemm_flop(rec: Recorder, args, kwargs, out) -> None:
    rec.add("gemm.calls")
    rec.add(
        "gemm.flop",
        sum(2.0 * r.size * a.shape[-1] for a, r in zip(args[0], out)),
    )


def _attention_tokens(kind: str):
    def observe(rec: Recorder, args, kwargs, out) -> None:
        rec.add(f"attention.{kind}.tokens", args[0].shape[0])

    return observe


def _plan(rec: Recorder, args, kwargs, plan) -> None:
    rec.add("batching.dispatches", len(plan))
    rec.add("batching.tokens", sum(d.total_tokens for d in plan))
    rec.add("batching.tile_tokens", sum(d.tile or d.total_tokens for d in plan))


def _plan_round(rec: Recorder, args, kwargs, round_) -> None:
    if round_ is None:
        return
    rec.add("batching.rounds")
    rec.add("batching.decode_batch", round_.decode_batch)
    rec.add("batching.prefill_tokens", round_.prefill_tokens)


def _gateway(rec: Recorder, args, kwargs, result) -> None:
    for scheduled in result.admitted:
        rec.sample(
            "gateway.queue_wait_us",
            scheduled.release_us - scheduled.request.arrival_us,
        )


def _kv_append(rec: Recorder, args, kwargs, out) -> None:
    rec.sample("kv.occupancy", args[0].occupancy)


#: every wrapped public entry point, by layer
TARGETS: list[Target] = [
    ("repro.core.model", "BertEncoderModel.forward", "core.forward", None),
    ("repro.core.model", "BertEncoderModel.forward_packed", "core.forward", None),
    ("repro.core.padding", "pack", "core.padding", None),
    ("repro.core.padding", "unpack", "core.padding", None),
    ("repro.core.padding", "packing_from_mask", "core.padding", None),
    ("repro.core.padding", "packing_from_lengths", "core.padding", None),
    ("repro.core.padding", "merge_request_lengths", "core.padding", None),
    ("repro.core.padding", "pack_segments", "core.padding", None),
    ("repro.core.padding", "scatter_segments", "core.padding", None),
    ("repro.kernels.gemm", "gemm", "kernels.gemm", _gemm_flop),
    ("repro.kernels.batched_gemm", "batched_gemm", "kernels.gemm", _gemm_flop),
    ("repro.kernels.batched_gemm", "tile_gemm", "kernels.gemm", _gemm_flop),
    ("repro.kernels.grouped_gemm", "grouped_gemm", "kernels.gemm", _grouped_gemm_flop),
    ("repro.kernels.layernorm", "layernorm", "kernels.layernorm", None),
    ("repro.kernels.layernorm", "layernorm_into", "kernels.layernorm", None),
    ("repro.kernels.layernorm", "add_bias_residual", "kernels.layernorm", None),
    ("repro.kernels.layernorm", "add_bias_residual_layernorm", "kernels.layernorm", None),
    ("repro.kernels.layernorm", "add_bias_residual_layernorm_unfused", "kernels.layernorm", None),
    ("repro.kernels.activation", "gelu", "kernels.activation", None),
    ("repro.kernels.activation", "gelu_into", "kernels.activation", None),
    ("repro.kernels.activation", "gelu_tanh_into", "kernels.activation", None),
    ("repro.kernels.activation", "add_bias", "kernels.activation", None),
    ("repro.kernels.activation", "add_bias_gelu", "kernels.activation", None),
    ("repro.kernels.softmax", "softmax", "kernels.softmax", None),
    ("repro.kernels.softmax", "masked_softmax", "kernels.softmax", None),
    ("repro.kernels.softmax", "zeropad_softmax", "kernels.softmax", None),
    ("repro.kernels.softmax", "softmax_reference", "kernels.softmax", None),
    ("repro.attention.bucketed", "softmax_lastaxis_inplace", "kernels.softmax", None),
    ("repro.attention.fused_short", "fused_short_mha", "attention.short", _attention_tokens("short")),
    ("repro.attention.fused_long", "fused_long_mha", "attention.long", _attention_tokens("long")),
    ("repro.gpusim.stream", "ExecutionContext.launch", "gpusim.price", None),
    ("repro.gpusim.graph", "LaunchGraph.replay", "gpusim.price", None),
    ("repro.core.estimator", "estimate_model", "gpusim.price", None),
    ("repro.core.estimator", "estimate_model_graphed", "gpusim.price", None),
    ("repro.core.estimator", "estimate_model_tiled", "gpusim.price", None),
    ("repro.decoder.estimator", "estimate_decode_round_tiled", "gpusim.price", None),
    ("repro.decoder.estimator", "estimate_decode_round_looped", "gpusim.price", None),
    ("repro.workloads.batching", "ContinuousBatcher.plan", "workloads.batching", _plan),
    ("repro.workloads.batching", "MixedContinuousBatcher.plan_round", "workloads.batching", _plan_round),
    ("repro.serving.gateway", "AdmissionGateway.process", "serving.gateway", _gateway),
    ("repro.serving.runtime", "ServingRuntime.run", "serving.runtime", None),
    ("repro.serving.generation", "GenerationRuntime.run", "serving.generation", None),
    ("repro.decoder.paged_kv", "PagedKVArena.gathered", "decoder.kv.gather", None),
    ("repro.decoder.paged_kv", "PagedKVArena.append_rows", "decoder.kv.append", _kv_append),
    ("repro.decoder.generation", "attend_to_cache", "decoder.step", None),
]

#: name -> unit of every per-layer metric, in report order
PER_LAYER: dict[str, str] = {
    "core.forward.self_us_per_token": "us/token",
    "core.padding.pack_us": "us",
    "core.padding.cache_hit_ratio": "ratio",
    "core.arena.overflow_allocs": "count",
    "core.arena.footprint_bytes": "bytes",
    "kernels.gemm.self_us": "us",
    "kernels.gemm.calls": "count",
    "kernels.gemm.gflop": "GFLOP",
    "kernels.gemm.gflop_per_s": "GFLOP/s",
    "kernels.layernorm.self_us": "us",
    "kernels.activation.self_us": "us",
    "kernels.softmax.self_us": "us",
    "attention.short.self_us": "us",
    "attention.short.tokens": "count",
    "attention.long.self_us": "us",
    "attention.long.tokens": "count",
    "gpusim.price.self_us": "us",
    "gpusim.graph.hit_ratio": "ratio",
    "gpusim.graph.captures": "count",
    "gpusim.launches_per_token": "1/token",
    "workloads.batching.plan_us": "us",
    "workloads.batching.fill_ratio": "ratio",
    "workloads.batching.dispatches": "count",
    "workloads.batching.tokens_per_dispatch": "token",
    "workloads.batching.decode_batch_mean": "count",
    "workloads.batching.prefill_tokens_per_round": "token",
    "serving.gateway.self_us": "us",
    "serving.runtime.self_us": "us",
    "serving.gateway.queue_wait_p50_us": "us",
    "serving.gateway.queue_wait_p99_us": "us",
    "serving.gateway.shed.interactive": "count",
    "serving.gateway.shed.analytics": "count",
    "serving.gateway.rejected.interactive": "count",
    "serving.gateway.rejected.analytics": "count",
    "serving.retry.attempts": "count",
    "serving.retry.useful_ratio": "ratio",
    "serving.faults.injected": "count",
    "serving.degradation.degraded_share": "ratio",
    "serving.degradation.transitions": "count",
    "serving.generation.self_us": "us",
    "decoder.kv.swap_outs": "count",
    "decoder.kv.swap_ins": "count",
    "decoder.kv.occupancy_mean": "ratio",
    "decoder.kv.peak_live_bytes": "bytes",
    "decoder.kv.gather_us": "us",
    "decoder.step.self_us": "us",
    "decoder.graph.hit_ratio": "ratio",
    "bench.trace_overhead_ratio": "ratio",
}


def span_metrics(rec: Recorder, passes: float, tokens_per_pass: float) -> dict[str, float]:
    """Per-layer metrics measured by the wrappers, per timed pass."""
    own = self_time_by_name(rec.spans)
    c = rec.counters

    def per_pass_us(name: str) -> float:
        return own.get(name, 0.0) * 1e6 / passes

    gemm_s = own.get("kernels.gemm", 0.0)
    out = {
        "core.forward.self_us_per_token": (
            per_pass_us("core.forward") / tokens_per_pass if tokens_per_pass else 0.0
        ),
        "core.padding.pack_us": per_pass_us("core.padding"),
        "kernels.gemm.self_us": per_pass_us("kernels.gemm"),
        "kernels.gemm.calls": c.get("gemm.calls", 0.0) / passes,
        "kernels.gemm.gflop": c.get("gemm.flop", 0.0) / 1e9 / passes,
        "kernels.gemm.gflop_per_s": (
            c.get("gemm.flop", 0.0) / 1e9 / gemm_s if gemm_s else 0.0
        ),
        "kernels.layernorm.self_us": per_pass_us("kernels.layernorm"),
        "kernels.activation.self_us": per_pass_us("kernels.activation"),
        "kernels.softmax.self_us": per_pass_us("kernels.softmax"),
        "attention.short.self_us": per_pass_us("attention.short"),
        "attention.short.tokens": c.get("attention.short.tokens", 0.0) / passes,
        "attention.long.self_us": per_pass_us("attention.long"),
        "attention.long.tokens": c.get("attention.long.tokens", 0.0) / passes,
        "gpusim.price.self_us": per_pass_us("gpusim.price"),
        "workloads.batching.plan_us": per_pass_us("workloads.batching"),
        "workloads.batching.fill_ratio": (
            c["batching.tokens"] / c["batching.tile_tokens"]
            if c.get("batching.tile_tokens") else 0.0
        ),
        "workloads.batching.dispatches": c.get("batching.dispatches", 0.0) / passes,
        "workloads.batching.tokens_per_dispatch": (
            c["batching.tokens"] / c["batching.dispatches"]
            if c.get("batching.dispatches") else 0.0
        ),
        "workloads.batching.decode_batch_mean": (
            c["batching.decode_batch"] / c["batching.rounds"]
            if c.get("batching.rounds") else 0.0
        ),
        "workloads.batching.prefill_tokens_per_round": (
            c["batching.prefill_tokens"] / c["batching.rounds"]
            if c.get("batching.rounds") else 0.0
        ),
        "serving.gateway.self_us": per_pass_us("serving.gateway"),
        "serving.runtime.self_us": per_pass_us("serving.runtime"),
        "serving.generation.self_us": per_pass_us("serving.generation"),
        "decoder.kv.gather_us": per_pass_us("decoder.kv.gather"),
        "decoder.step.self_us": per_pass_us("decoder.step"),
        "decoder.kv.occupancy_mean": (
            sum(rec.samples["kv.occupancy"]) / len(rec.samples["kv.occupancy"])
            if rec.samples.get("kv.occupancy") else 0.0
        ),
    }
    waits = rec.samples.get("gateway.queue_wait_us")
    out["serving.gateway.queue_wait_p50_us"] = percentile(waits, 50).value if waits else 0.0
    out["serving.gateway.queue_wait_p99_us"] = percentile(waits, 99).value if waits else 0.0
    return out


def cache_metrics(before: dict[str, int], after: dict[str, int]) -> dict[str, float]:
    """Cache metrics from counters taken around the traced window.

    Hit ratios count only the window, so they do not grow with the
    number of passes a host fits into it; captures are lifetime counts,
    set-up included, and do not depend on the window.
    """

    def ratio(hits: str, misses: str) -> float:
        h, m = after[hits] - before[hits], after[misses] - before[misses]
        return h / (h + m) if h + m else 0.0

    out = {
        "gpusim.graph.captures": after["graph.captures"],
        "gpusim.graph.hit_ratio": ratio("graph.replays", "graph.captures"),
    }
    if "packing.hits" in after:
        out["core.padding.cache_hit_ratio"] = ratio("packing.hits", "packing.misses")
    return out
