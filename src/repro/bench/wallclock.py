"""Deterministic bench gates: ``repro bench`` and ``BENCH_wallclock.json``.

Every number this harness reports is on the **modelled** clock (the
simulated GPU time a :class:`~repro.gpusim.stream.ExecutionContext`
accumulates from :class:`~repro.gpusim.kernel.KernelLaunch`
descriptors) or is an exact check: bitwise outputs, launch-stream
identity, allocation counts.  None of it reads the host clock, so
every gate is hard: a failure is a code change, on any host.  The host
clock is measured only by perfbench (``perfbench/run.py``), with a
drift-scaled clock, a host fingerprint and seeded spreads; the module
and output file keep their ``wallclock`` names so history records,
artifacts and links stay valid.

Sections and their ``--check`` gates (:func:`check_invariants`):

* top-level ``invariants`` — the looped and vectorized engines run the
  same forward: outputs agree within ``atol=1e-6`` and the launch
  streams are identical.
* ``graph_replay`` — the estimator's launch chain (the stream serving
  admission prices per dispatch) eager vs replayed from a
  :class:`~repro.gpusim.graph.GraphCache`: identical records,
  ``start_us`` and ``modelled_us``.  The numeric steady state (arena +
  graph model vs the plain vectorized model) must be bitwise equal at
  the same modelled µs.
* ``steady_state_alloc`` — tracemalloc proof that a warm arena-backed
  forward performs **zero** new large (>= 1 MiB) ndarray allocations,
  keeps the traced-peak delta within a budget proportional to the
  arena footprint (transient sub-threshold temporaries scale with the
  token count; floor 1 MiB), and never overflows the arena.
* ``host_parallel`` — one tile-quantized megabatch run serially and
  fanned out over a ``max(2, workers)``-wide thread pool: bitwise
  equal outputs, identical launch stream and modelled µs.  The nested
  ``fast_gelu`` block swaps in the tanh GELU and must land within the
  end-to-end tolerance ``layers * FAST_GELU_ATOL`` (per-application
  error compounds at most linearly through the depth) without touching
  the stream.
* ``sharded_serving`` — data-parallel modelled scaling floors, served
  outputs bitwise equal to the per-request oracle clean and under
  chaos, and collective-targeted chaos that actually fires.
* ``continuous_serving`` — the continuous token-budget batcher vs the
  BucketBatcher baseline on the α-distributed trace: a modelled µs per
  token floor and a steady-state graph hit-rate floor.
* ``decode_serving`` — mixed prefill/decode continuous batching vs a
  naive serial prefill-then-decode baseline: a modelled speedup floor,
  a steady ``decode``-graph hit-rate floor, zero KV overflow
  allocations and bitwise oracle legs (clean, and chaos with forced
  eviction/resume).

A section's ``floor`` is the minimum ``speedup_vs_reference`` the gate
enforces; every floored section is a modelled-clock ratio.

Host time of the code these sections exercise is a perfbench metric:
the full forward and the fan-out are encoder-offline
``host_tokens_per_s`` (and ``core.forward.self_us_per_token``), the
attention hot path ``attention.short.self_us`` and
``attention.long.self_us``, packing metadata ``core.padding.pack_us``,
graph pricing and replay tenant-serving ``gpusim.price.self_us``, and
the GELU ``kernels.activation.self_us``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import tracemalloc
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.config import FAST_GELU, BertConfig, STEPWISE_PRESETS
from repro.core.engine import LOOPED, VECTORIZED, use_engine
from repro.core.estimator import estimate_model, estimate_model_graphed
from repro.core.memory_planner import LiveArena
from repro.core.model import BertEncoderModel
from repro.core.padding import (
    default_packing_cache,
    merge_request_lengths,
    packing_from_mask,
)
from repro.core.parallel import (
    SERIAL_EXECUTOR,
    BucketExecutor,
    use_executor,
)
from repro.gpusim.graph import GraphCache
from repro.gpusim.profiler import CacheStats
from repro.gpusim.stream import ExecutionContext, NullContext
from repro.kernels.activation import FAST_GELU_ATOL
from repro.workloads.generator import make_batch

#: an ndarray allocation at least this big counts as "large" for the
#: steady-state zero-allocation gate
LARGE_ALLOC_BYTES = 1 << 20

#: shape overrides applied by ``--quick`` (the CI smoke shape)
QUICK_OVERRIDES: dict[str, Any] = {
    "batch": 4,
    "max_seq_len": 64,
    "layers": 2,
    "serve_requests": 12,
}

_PRESETS_BY_LABEL = {p.label: p for p in (*STEPWISE_PRESETS, FAST_GELU)}


def _launches_identical(
    records_a: list, records_b: list
) -> bool:
    """Whether two kernel-record streams are byte-identical (descriptor
    equality and modelled-time equality, launch by launch, in order)."""
    if len(records_a) != len(records_b):
        return False
    return all(
        a.launch == b.launch and a.time_us == b.time_us
        for a, b in zip(records_a, records_b)
    )


def _continuous_serving_section(
    config: BertConfig,
    opt: Any,
    max_seq_len: int,
    alpha: float,
    seed: int,
    num_requests: int,
    token_budget: int = 2048,
    telemetry: Any = None,
) -> dict[str, Any]:
    """Continuous token-budget batching vs the BucketBatcher baseline.

    Both policies replay the same α-distributed trace twice on the cost
    plane; the *second* run is the steady state reported (graph caches
    and single-request admission estimates are warm), so the numbers
    reflect a long-running deployment rather than cold-start captures.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) observes only
    the continuous batcher's measured steady-state run — one coherent
    simulated timeline for the exported trace, not three overlapped ones.
    """
    from repro.serving.runtime import ServingRuntime
    from repro.workloads.batching import BucketBatcher, ContinuousBatcher
    from repro.workloads.serving import make_trace

    trace = make_trace(num_requests, max_seq_len, alpha=alpha, seed=seed)
    served_tokens = int(sum(r.seq_len for r in trace.requests))

    def steady_run(batcher: Any, tel: Any = None) -> dict[str, Any]:
        rt = ServingRuntime(config, batcher=batcher, opt=opt, use_graph=True)
        rt.run(trace)  # warm-up: graph captures + admission estimates
        hits0, misses0 = rt.graph_cache.hits, rt.graph_cache.misses
        rt.telemetry = tel  # observe only the measured steady run
        report = rt.run(trace)
        d_hits = rt.graph_cache.hits - hits0
        d_lookups = d_hits + rt.graph_cache.misses - misses0
        return {
            "batcher": batcher.name,
            "gpu_busy_us": report.gpu_busy_us,
            "served_tokens": served_tokens,
            "us_per_token": report.gpu_busy_us / served_tokens,
            "steady_hit_rate": d_hits / max(1, d_lookups),
            "graph_kinds": rt.graph_cache.kind_counts(),
        }

    baseline = steady_run(BucketBatcher())
    continuous = steady_run(
        ContinuousBatcher(token_budget=token_budget), tel=telemetry
    )
    return {
        "trace": {
            "requests": num_requests,
            "alpha": alpha,
            "max_seq_len": max_seq_len,
        },
        "token_budget": token_budget,
        "baseline": baseline,
        "continuous": continuous,
        # lower modelled µs/token than the baseline => speedup > 1
        "speedup_vs_reference": (
            baseline["us_per_token"] / continuous["us_per_token"]
        ),
        "floor": 1.0,
        "hit_rate_floor": 0.9,
    }


def _decode_serving_section(
    config: BertConfig,
    max_seq_len: int,
    seed: int,
    num_requests: int,
    decode_tokens: int,
) -> dict[str, Any]:
    """Mixed prefill/decode serving vs naive serial prefill-then-decode.

    The baseline serves the same generation trace one request at a time:
    a looped prefill round, then one single-request decode round per
    generated token — no cross-request batching anywhere, which is what
    a per-request serving loop without continuous batching would price.
    The mixed side is :class:`~repro.serving.generation.GenerationRuntime`
    (paged KV arena + :class:`MixedContinuousBatcher` + the batched
    varlen decode estimator) on the same trace, warm-run first so the
    reported numbers are the steady state: graph captures done, every
    round replayed from the ``decode``-kind graph keys.

    Both clocks are modelled (deterministic), so the speedup floor and
    the steady-state hit-rate floor are hard ``--check`` gates, as is
    zero KV-arena overflow allocations.  Two small bitwise legs ride
    along on the numeric plane: every *served* output must be
    byte-identical to the per-request oracle, clean and under seeded
    chaos with a KV arena tight enough to force eviction/resume.
    """
    from repro.decoder import estimate_decode_round_looped, max_decode_steps
    from repro.gpusim.device import A100_SPEC
    from repro.serving.faults import FaultSpec
    from repro.serving.generation import (
        GenerationRuntime,
        generate_reference_outputs,
    )
    from repro.workloads.serving import make_generation_trace

    # interarrival far below per-round service time, so requests overlap
    # and the batcher actually mixes prefills with in-flight decodes
    trace = make_generation_trace(
        num_requests,
        max_seq_len,
        decode_tokens=decode_tokens,
        mean_interarrival_us=25.0,
        seed=seed,
    )

    # ---- baseline: serial per-request prefill-then-decode ------------
    base_ctx = ExecutionContext(A100_SPEC)
    empty = np.asarray([], dtype=np.int64)
    base_tokens = 0
    for r in trace.requests:
        steps = max_decode_steps(r.seq_len, r.decode_tokens, max_seq_len)
        estimate_decode_round_looped(
            base_ctx, config, np.asarray([r.seq_len], dtype=np.int64), empty
        )
        for s in range(1, steps):
            estimate_decode_round_looped(
                base_ctx,
                config,
                empty,
                np.asarray([r.seq_len + s], dtype=np.int64),
            )
        base_tokens += steps
    base_us = base_ctx.elapsed_us()

    # ---- mixed continuous batching, steady state ---------------------
    rt = GenerationRuntime(config, seed=seed, compute_outputs=False)
    rt.run(trace)  # warm-up: decode-graph captures + tile captures
    hits0, misses0 = rt.graph_cache.hits, rt.graph_cache.misses
    report = rt.run(trace)
    d_hits = rt.graph_cache.hits - hits0
    d_lookups = d_hits + rt.graph_cache.misses - misses0
    mixed = {
        "gpu_busy_us": report.gpu_busy_us,
        "generated_tokens": report.generated_tokens,
        "rounds": report.rounds,
        "us_per_token": report.us_per_token,
        "steady_hit_rate": d_hits / max(1, d_lookups),
        "graph_kinds": rt.graph_cache.kind_counts(),
        "kv": report.kv_stats,
    }

    # ---- numeric-plane bitwise legs (small shapes) -------------------
    def bitwise_leg(
        faults: FaultSpec, kv_capacity_tokens: int | None
    ) -> dict[str, Any]:
        leg_msl = min(64, max_seq_len)
        leg_trace = make_generation_trace(
            8,
            leg_msl,
            decode_tokens=8,
            mean_interarrival_us=5.0,
            seed=seed + 1,
        )
        leg_rt = GenerationRuntime(
            config,
            seed=seed,
            faults=faults,
            kv_capacity_tokens=kv_capacity_tokens,
        )
        leg_report = leg_rt.run(leg_trace)
        oracle = generate_reference_outputs(leg_rt, leg_trace)
        equal = bool(leg_report.outputs) and all(
            np.array_equal(out, oracle[rid])
            for rid, out in leg_report.outputs.items()
        )
        return {
            "served": len(leg_report.outputs),
            "outputs_bitwise_equal": equal,
            "evictions": int(leg_report.kv_stats["evictions"]),
            "injected_faults": len(leg_report.injected_faults),
        }

    bitwise = {
        "clean": bitwise_leg(FaultSpec(), None),
        # arena below the concurrent working set => forced preemption,
        # plus seeded launch chaos on top of the swap traffic
        "chaos_evict": bitwise_leg(
            FaultSpec(launch_failure_rate=0.05, transient_oom_rate=0.02),
            128,
        ),
    }

    return {
        "trace": {
            "requests": num_requests,
            "max_seq_len": max_seq_len,
            "decode_tokens": decode_tokens,
        },
        "baseline": {
            "modelled_us": base_us,
            "generated_tokens": base_tokens,
            "us_per_token": base_us / base_tokens,
        },
        "mixed": mixed,
        # lower modelled µs per generated token => speedup > 1
        "speedup_vs_reference": (
            (base_us / base_tokens) / mixed["us_per_token"]
        ),
        "floor": 1.5,
        "hit_rate_floor": 0.9,
        "bitwise": bitwise,
    }


def _sharded_serving_section(
    devices: int,
    shard_mode: str,
    seed: int,
) -> dict[str, Any] | None:
    """Multi-device sharded serving: scaling, bitwise oracle, crossover.

    Three legs, all deterministic:

    * ``scaling`` — the Σlen²-routed data-parallel replay on the cost
      plane: one saturating trace replayed on 1, 2, 4, … ``devices``
      devices; the modelled-makespan speedup must clear a hard floor
      (0.8× the device count, 6.5× at 8 devices) because the modelled
      clock is deterministic.  With ``--shard tp|both`` the headline
      leg reruns in that mode instead; tensor parallelism is
      comm-bound by construction, so those modes report speedup
      without a floor.
    * ``bitwise`` — the numeric plane under sharding: every served
      output must be byte-identical to the per-request oracle forward,
      clean and under seeded chaos — including chaos aimed exclusively
      at the interconnect collectives (``allreduce*``), which must
      actually fire.
    * ``crossover`` — the tile × device comm/compute sweep: eager
      tensor-parallel estimates per (tile, tp) cell with the profiler's
      collective share, plus the analytic ring/tree crossover payloads.

    ``None`` when ``devices < 2`` (nothing to shard).
    """
    if devices < 2:
        return None
    from repro.core.estimator import estimate_model
    from repro.core.sharding import ShardSpec
    from repro.gpusim.interconnect import (
        NVLINK3_LINK,
        crossover_bytes,
        make_cluster,
    )
    from repro.gpusim.profiler import ProfileReport
    from repro.serving.runtime import ServingRuntime
    from repro.serving.faults import FaultSpec
    from repro.serving.sharded import ShardConfig
    from repro.workloads.batching import ContinuousBatcher
    from repro.workloads.serving import make_trace

    opt = _PRESETS_BY_LABEL["fused MHA"]

    # ---- scaling leg (cost plane, hard-floored) ----------------------
    # Saturating shape: arrivals outpace one device so the makespan is
    # work-bound, small tiles keep per-device dispatch granularity fine
    # enough that ceil(dispatches / devices) does not cap the speedup.
    scale_config = BertConfig(num_layers=4)
    scale_trace = make_trace(
        384, 128, alpha=0.6, mean_interarrival_us=1.0, seed=3
    )

    def replay(num_devices: int, mode: str) -> Any:
        sharding = None
        if num_devices > 1:
            sharding = ShardConfig(
                devices=num_devices,
                mode=mode,
                tp_size=2 if mode == "both" else None,
            )
        runtime = ServingRuntime(
            scale_config,
            batcher=ContinuousBatcher(token_budget=512, timeout_us=100.0),
            seed=5,
            sharding=sharding,
        )
        return runtime.run(scale_trace)

    base = replay(1, "dp")
    scale_points = sorted({d for d in (2, 4, devices) if d <= devices})
    points = []
    for d in scale_points:
        mode = shard_mode if d == devices else "dp"
        if mode == "both" and d % 2:
            mode = "dp"  # 'both' needs tp_size=2 to divide the devices
        report = replay(d, mode)
        speedup = base.makespan_us / report.makespan_us
        busy = list(report.device_busy_us)
        mean_busy = sum(busy) / len(busy) if busy else 0.0
        point = {
            "devices": d,
            "mode": mode,
            "makespan_us": report.makespan_us,
            "speedup_vs_single_device": speedup,
            "served": len(report.served),
            "device_busy_us": busy,
            "imbalance": (max(busy) / mean_busy) if mean_busy else 1.0,
            "work_steals": report.work_steals,
        }
        if mode == "dp":
            # modelled-clock metric: deterministic, so the floor is hard
            point["floor"] = 6.5 if d >= 8 else 0.8 * d
        else:
            point["comm_bound"] = True
        points.append(point)
    headline = points[-1]
    scaling = {
        "trace": {"requests": 384, "max_seq_len": 128, "alpha": 0.6},
        "base_makespan_us": base.makespan_us,
        "points": points,
    }

    # ---- bitwise oracle legs (numeric plane) -------------------------
    oracle_config = BertConfig(num_heads=2, head_size=16, num_layers=2)
    oracle_trace = make_trace(24, 64, alpha=0.6, seed=seed)
    oracle = BertEncoderModel(oracle_config, _PRESETS_BY_LABEL["fused MHA"],
                              seed=seed)

    def bitwise_leg(
        sharding: ShardConfig, faults: FaultSpec | None = None
    ) -> dict[str, Any]:
        runtime = ServingRuntime(
            oracle_config,
            batcher=ContinuousBatcher(token_budget=256, timeout_us=200.0),
            numerics=BertEncoderModel(
                oracle_config, _PRESETS_BY_LABEL["fused MHA"], seed=seed
            ),
            faults=faults if faults is not None else FaultSpec(),
            seed=seed,
            sharding=sharding,
        )
        report = runtime.run(oracle_trace)
        by_id = {r.request_id: r for r in oracle_trace.requests}
        mismatches = 0
        for rid in sorted(report.outputs):
            request = by_id[rid]
            rng = np.random.default_rng([seed, rid])
            x = rng.standard_normal(
                (1, request.seq_len, oracle_config.hidden_size)
            )
            mask = np.ones((1, request.seq_len))
            if not np.array_equal(
                report.outputs[rid], oracle.forward(x, mask)[0]
            ):
                mismatches += 1
        collective_faults = sum(
            1
            for fault in report.injected_faults
            if fault.kernel.startswith("allreduce")
        )
        return {
            "devices": sharding.devices,
            "mode": sharding.mode,
            "served": len(report.served),
            "checked": len(report.outputs),
            "outputs_bitwise_equal": mismatches == 0,
            "fault_counts": report.fault_counts(),
            "collective_faults_injected": collective_faults,
            "work_steals": report.work_steals,
        }

    bitwise = {
        "dp_clean": bitwise_leg(
            ShardConfig(devices=min(4, devices), mode="dp")
        ),
        "dp_compute_chaos": bitwise_leg(
            ShardConfig(devices=min(4, devices), mode="dp"),
            FaultSpec(launch_failure_rate=0.05, transient_oom_rate=0.05),
        ),
        # chaos aimed only at the interconnect: the retry path must
        # survive collective-kernel failures bit for bit
        "tp_collective_chaos": bitwise_leg(
            ShardConfig(devices=2, mode="tp"),
            FaultSpec(
                launch_failure_rate=0.1, target_prefixes=("allreduce",)
            ),
        ),
    }

    # ---- tile x device comm/compute crossover ------------------------
    sweep_config = BertConfig(num_layers=4)
    rows = []
    for tile in (128, 256, 512, 1024, 2048):
        seq_lens = np.asarray([tile], dtype=np.int64)
        base_ctx = ExecutionContext()
        base_us = estimate_model(base_ctx, sweep_config, opt, seq_lens, tile)
        for d in (2, 4, 8):
            cluster = make_cluster(d)
            ctx = ExecutionContext(cluster.device, cluster=cluster)
            total_us = estimate_model(
                ctx, sweep_config, opt, seq_lens, tile,
                shard=ShardSpec(tp=d, rank=0),
            )
            profile = ProfileReport.from_context(ctx)
            rows.append(
                {
                    "tile": tile,
                    "tp": d,
                    "total_us": total_us,
                    "comm_fraction": profile.comm_fraction,
                    "speedup_vs_single_device": base_us / total_us,
                }
            )
    # smallest tile where the tensor-parallel estimate beats one device
    tp_break_even = {
        str(d): next(
            (
                r["tile"]
                for r in rows
                if r["tp"] == d and r["speedup_vs_single_device"] > 1.0
            ),
            None,
        )
        for d in (2, 4, 8)
    }
    crossover = {
        "rows": rows,
        "tp_break_even_tile": tp_break_even,
        "ring_tree_crossover_bytes": {
            str(d): crossover_bytes(d, NVLINK3_LINK) for d in (2, 4, 8)
        },
    }

    section: dict[str, Any] = {
        "devices": devices,
        "mode": shard_mode,
        "speedup_vs_reference": headline["speedup_vs_single_device"],
        "scaling": scaling,
        "bitwise": bitwise,
        "crossover": crossover,
    }
    if "floor" in headline:
        section["floor"] = headline["floor"]
    else:
        section["comm_bound"] = True
    return section


def _host_parallel_section(
    config: BertConfig,
    opt: Any,
    data: Any,
    max_seq_len: int,
    workers: int,
    seed: int,
) -> dict[str, Any] | None:
    """Megabatch fan-out: serial vs a ``max(2, workers)``-wide thread pool.

    The whole batch is merged into one tile-quantized megabatch (the
    continuous-serving hot path) and run three ways on the numeric
    plane: serially, fanned out over the thread pool (workers write
    their rows of one arena buffer), and under the fast-GELU preset.
    The pool is at least two wide, so the equality gates compare a real
    fan-out with the serial run even at ``--workers 1``; same bits at
    any width holds on one core too.
    The parallel run must be **bitwise** equal to the serial one and
    leave the modelled launch chain untouched; fast-GELU must land
    within the documented end-to-end tolerance — one GELU application
    per layer, each within
    :data:`~repro.kernels.activation.FAST_GELU_ATOL`, compounds at
    most linearly in depth (layernorm renormalises between layers, so
    there is no multiplicative blow-up), hence ``layers * atol`` — with
    an identical launch stream.  ``None`` when the preset keeps padding
    (no packed pipeline to fan out).
    """
    if not opt.remove_padding:
        return None
    seq_lens = np.asarray(data.mask.sum(axis=1), dtype=np.int64)
    total = int(seq_lens.sum())
    tile = -(-total // 512) * 512
    mega = merge_request_lengths(seq_lens, max_seq_len, tile, cache=None)
    flat = data.x.reshape(-1, config.hidden_size)
    packing = packing_from_mask(data.mask, ctx=NullContext())
    x_tile = np.zeros((tile, config.hidden_size), dtype=flat.dtype)
    x_tile[:total] = flat[packing.gather_idx]

    def tile_model(run_opt: Any, ex: Any) -> BertEncoderModel:
        model = BertEncoderModel(
            config, opt=run_opt, seed=seed, arena=LiveArena()
        )
        with use_executor(ex):  # warm up: arena reserve + first forward
            model.forward_packed(x_tile, mega, ctx=NullContext())
        return model

    def stream_of(model: BertEncoderModel, ex: Any) -> tuple:
        ctx = ExecutionContext()
        with use_executor(ex):
            out = model.forward_packed(x_tile, mega, ctx=ctx)
        return out, ctx

    # the serial reference and the fast-GELU run pin SERIAL_EXECUTOR so
    # an ambient executor (e.g. the CLI's use_workers wrapper) cannot
    # leak fan-out into the baselines
    serial_model = tile_model(opt, SERIAL_EXECUTOR)
    serial_out, serial_ctx = stream_of(serial_model, SERIAL_EXECUTOR)
    serial_out = serial_out.copy()

    ex = BucketExecutor(max(2, workers))
    par_model = tile_model(opt, ex)
    par_out, par_ctx = stream_of(par_model, ex)
    outputs_bitwise = bool(np.array_equal(par_out, serial_out))
    streams_identical = _launches_identical(
        serial_ctx.records, par_ctx.records
    )
    modelled_equal = serial_ctx.elapsed_us() == par_ctx.elapsed_us()
    ex.shutdown()

    fast_opt = dataclasses.replace(opt, gelu_variant="tanh")
    fast_model = tile_model(fast_opt, SERIAL_EXECUTOR)
    fast_out, fast_ctx = stream_of(fast_model, SERIAL_EXECUTOR)
    fast_diff = float(np.max(np.abs(fast_out - serial_out)))

    return {
        "executor": ex.kind,
        "workers": ex.workers,
        "tile": tile,
        "segments": int(seq_lens.shape[0]),
        "total_tokens": total,
        "outputs_bitwise_equal": outputs_bitwise,
        "launch_streams_identical": streams_identical,
        "modelled_us_equal": modelled_equal,
        "fast_gelu": {
            "max_abs_diff": fast_diff,
            "atol_per_gelu": FAST_GELU_ATOL,
            "atol": config.num_layers * FAST_GELU_ATOL,
            "within_atol": bool(
                fast_diff <= config.num_layers * FAST_GELU_ATOL
            ),
            "launch_streams_identical": _launches_identical(
                serial_ctx.records, fast_ctx.records
            ),
        },
    }


def run_wallclock_bench(
    *,
    batch: int = 16,
    max_seq_len: int = 256,
    alpha: float = 0.6,
    layers: int = 12,
    preset: str = "fused MHA",
    seed: int = 0,
    serve_requests: int = 48,
    workers: int | None = None,
    devices: int = 8,
    shard: str = "dp",
    telemetry: Any = None,
) -> dict[str, Any]:
    """Run every deterministic bench section and return the result dict.

    See the module docstring for the sections; :func:`check_invariants`
    turns the result into ``--check`` failures.  Both engines run the
    same weights on the same batch, so their outputs must agree within
    ``atol=1e-6`` and their kernel-launch streams (and therefore every
    modelled statistic) must be identical.  No value in the result is a
    host wall time.
    """
    if preset not in _PRESETS_BY_LABEL:
        raise ValueError(
            f"unknown preset {preset!r}; pick one of "
            f"{sorted(_PRESETS_BY_LABEL)}"
        )
    opt = _PRESETS_BY_LABEL[preset]
    cores = os.cpu_count() or 1
    if workers is None:
        workers = cores
    config = BertConfig(num_layers=layers)
    data = make_batch(
        batch, max_seq_len, config.hidden_size, alpha=alpha, seed=seed
    )
    model = BertEncoderModel(config, opt=opt, seed=seed)

    # ---- full forward under both engines: correctness + invariants ----
    outputs: dict[str, np.ndarray] = {}
    records: dict[str, list] = {}
    modelled: dict[str, float] = {}
    for engine in (LOOPED, VECTORIZED):
        with use_engine(engine):
            ctx = ExecutionContext()
            outputs[engine] = model.forward(data.x, data.mask, ctx=ctx)
            records[engine] = ctx.records
            modelled[engine] = ctx.elapsed_us()

    max_abs_diff = float(
        np.max(
            np.abs(
                outputs[LOOPED].astype(np.float64)
                - outputs[VECTORIZED].astype(np.float64)
            )
        )
    )
    outputs_match = bool(
        np.allclose(outputs[LOOPED], outputs[VECTORIZED], atol=1e-6)
    )
    launches_identical = _launches_identical(
        records[LOOPED], records[VECTORIZED]
    )

    # ---- launch-graph capture & replay -------------------------------
    # Cost plane: the estimator's launch chain — the exact stream serving
    # admission prices per dispatch — eager vs replayed from the cache.
    seq_lens = np.asarray(data.mask.sum(axis=1), dtype=np.int64)
    graph_cache = GraphCache()
    estimate_model_graphed(  # capture
        ExecutionContext(), config, opt, seq_lens, max_seq_len,
        cache=graph_cache,
    )
    check_eager = ExecutionContext()
    check_replay = ExecutionContext()
    modelled_eager = estimate_model(
        check_eager, config, opt, seq_lens, max_seq_len
    )
    modelled_replay = estimate_model_graphed(
        check_replay, config, opt, seq_lens, max_seq_len, cache=graph_cache
    )
    graph_modelled_equal = modelled_eager == modelled_replay
    graph_streams_identical = _launches_identical(
        check_eager.records, check_replay.records
    ) and all(
        a.start_us == b.start_us
        for a, b in zip(check_eager.records, check_replay.records)
    )

    # Numeric steady state: arena + graph model vs the plain vectorized
    # engine, bit for bit.
    fast_model = BertEncoderModel(
        config, opt=opt, seed=seed, arena=LiveArena(),
        graph_cache=GraphCache(),
    )
    with use_engine(VECTORIZED):
        for _ in range(2):  # warm up: arena growth + graph capture
            fast_model.forward(data.x, data.mask, ctx=ExecutionContext())
        steady_ctx = ExecutionContext()
        steady_out = fast_model.forward(data.x, data.mask, ctx=steady_ctx)
        steady_outputs_bitwise = bool(
            np.array_equal(steady_out, outputs[VECTORIZED])
        )
        steady_modelled_equal = steady_ctx.elapsed_us() == modelled[VECTORIZED]

        # ---- steady-state allocation audit (tracemalloc) -------------
        arena_engaged = (
            fast_model.arena is not None
            and opt.remove_padding
            and fast_model.arena.forwards > 0
        )
        tracemalloc.start()
        snap_before = tracemalloc.take_snapshot()
        tracemalloc.reset_peak()
        traced_base, _ = tracemalloc.get_traced_memory()
        fast_model.forward(data.x, data.mask, ctx=ExecutionContext())
        _, traced_peak = tracemalloc.get_traced_memory()
        snap_after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        large_allocation_count = sum(
            1
            for stat in snap_after.compare_to(snap_before, "lineno")
            if stat.size_diff >= LARGE_ALLOC_BYTES
        )
        peak_delta_bytes = traced_peak - traced_base

    arena_footprint = (
        fast_model.arena.footprint_bytes if fast_model.arena else 0
    )
    # transient sub-threshold temporaries (the exempt two-phase softmax
    # reduction, per-bucket row stats) scale with the token count, so the
    # traced-peak budget is proportional to the arena, floored at 1 MiB
    peak_budget_bytes = max(LARGE_ALLOC_BYTES, arena_footprint // 8)
    steady_state_alloc_section = {
        "arena_engaged": arena_engaged,
        "large_allocation_count": large_allocation_count,
        "large_alloc_threshold_bytes": LARGE_ALLOC_BYTES,
        "peak_delta_bytes": peak_delta_bytes,
        "peak_budget_bytes": peak_budget_bytes,
        "arena_footprint_bytes": arena_footprint,
        "arena_overflow_allocs": (
            fast_model.arena.overflow_allocs if fast_model.arena else 0
        ),
    }

    # ---- host-path parallelism: the megabatch fan-out ----------------
    host_parallel_section = _host_parallel_section(
        config, opt, data, max_seq_len, workers, seed
    )

    # ---- multi-device sharded serving --------------------------------
    sharded_serving_section = _sharded_serving_section(devices, shard, seed)

    result: dict[str, Any] = {
        "config": {
            "batch": batch,
            "max_seq_len": max_seq_len,
            "alpha": alpha,
            "layers": layers,
            "preset": preset,
            "seed": seed,
            "serve_requests": serve_requests,
            "workers": workers,
            "devices": devices,
            "shard": shard,
            "hidden_size": config.hidden_size,
            "num_heads": config.num_heads,
            "total_tokens": int(np.sum(data.mask)),
            "host": platform.machine(),
            "cores": cores,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        # gpusim-modelled time: identical for both engines by construction
        "modelled_us": modelled[VECTORIZED],
        "sections": {
            "graph_replay": {"modelled_us": modelled_replay},
            "steady_state_alloc": steady_state_alloc_section,
            **(
                {"host_parallel": host_parallel_section}
                if host_parallel_section is not None
                else {}
            ),
            **(
                {"sharded_serving": sharded_serving_section}
                if sharded_serving_section is not None
                else {}
            ),
            "continuous_serving": _continuous_serving_section(
                config,
                opt,
                max_seq_len,
                alpha,
                seed,
                serve_requests,
                telemetry=telemetry,
            ),
            "decode_serving": _decode_serving_section(
                config,
                max_seq_len,
                seed,
                serve_requests,
                decode_tokens=max(16, max_seq_len // 8),
            ),
        },
        "invariants": {
            "outputs_match_atol_1e-6": outputs_match,
            "max_abs_diff": max_abs_diff,
            "launch_streams_identical": launches_identical,
            "kernel_count": len(records[VECTORIZED]),
            "modelled_us_looped": modelled[LOOPED],
            "modelled_us_vectorized": modelled[VECTORIZED],
            "graph_modelled_us_equal": graph_modelled_equal,
            "graph_streams_identical": graph_streams_identical,
            "steady_outputs_bitwise_equal": steady_outputs_bitwise,
            "steady_modelled_us_equal": steady_modelled_equal,
            "steady_large_allocation_count": large_allocation_count,
            "steady_arena_engaged": arena_engaged,
        },
        "cache_stats": [
            dataclasses.asdict(stats)
            for stats in (
                CacheStats.from_cache("packing", default_packing_cache()),
                CacheStats.from_cache("estimator_graphs", graph_cache),
                CacheStats.from_cache(
                    "model_graphs", fast_model.graph_cache
                ),
            )
        ],
        "notes": (
            "modelled_us is simulated GPU time, identical under both "
            "engines; no value here is a host time. Host time is "
            "measured by perfbench (perfbench/run.py), not by this bench."
        ),
    }
    return result


def write_bench_json(result: dict[str, Any], path: str | Path) -> Path:
    """Write a bench result dict as pretty-printed JSON."""
    out = Path(path)
    out.write_text(json.dumps(result, indent=2, sort_keys=False) + "\n")
    return out


def format_summary(result: dict[str, Any]) -> str:
    """Human-readable one-screen summary of a bench result."""
    cfg = result["config"]
    lines = [
        f"bench: {cfg['preset']} preset, "
        f"B={cfg['batch']} S={cfg['max_seq_len']} "
        f"alpha={cfg['alpha']} layers={cfg['layers']} (modelled clock)",
    ]
    alloc = result["sections"].get("steady_state_alloc")
    if alloc is not None:
        lines.append(
            f"  steady mem: {alloc['large_allocation_count']} large allocs "
            f"(>= {alloc['large_alloc_threshold_bytes'] >> 20} MiB), peak "
            f"delta {alloc['peak_delta_bytes'] / 1024:.0f} KiB, arena "
            f"{alloc['arena_footprint_bytes'] / (1 << 20):.1f} MiB "
            f"({alloc['arena_overflow_allocs']} overflow allocs)"
        )
    hp = result["sections"].get("host_parallel")
    if hp is not None:
        fg = hp["fast_gelu"]
        lines.append(
            f"  host-par  : {hp['executor']}({hp['workers']}) vs serial, "
            f"bitwise={hp['outputs_bitwise_equal']}, "
            f"stream identical={hp['launch_streams_identical']}; "
            f"fast-gelu |diff| {fg['max_abs_diff']:.1e} <= {fg['atol']:g}"
        )
    sharded = result["sections"].get("sharded_serving")
    if sharded is not None:
        head = sharded["scaling"]["points"][-1]
        tp_leg = sharded["bitwise"]["tp_collective_chaos"]
        bitwise_ok = all(
            leg["outputs_bitwise_equal"]
            for leg in sharded["bitwise"].values()
        )
        lines.append(
            f"  sharded   : {head['mode']} x{head['devices']} modelled "
            f"speedup {head['speedup_vs_single_device']:.2f}x"
            + (
                f" (floor {head['floor']:g})"
                if "floor" in head
                else " (comm-bound)"
            )
            + f"; imbalance {head['imbalance']:.3f}, "
            f"steals {head['work_steals']}; oracle bitwise={bitwise_ok} "
            f"({tp_leg['collective_faults_injected']} collective faults)"
        )
    serving = result["sections"].get("continuous_serving")
    if serving is not None:
        cont = serving["continuous"]
        base = serving["baseline"]
        lines.append(
            f"  serving   : {cont['us_per_token']:9.3f} modelled us/token "
            f"continuous vs {base['us_per_token']:9.3f} bucket "
            f"({serving['speedup_vs_reference']:.2f}x); steady graph hit "
            f"rate {cont['steady_hit_rate']:.3f} "
            f"(tile budget {serving['token_budget']})"
        )
    decode = result["sections"].get("decode_serving")
    if decode is not None:
        mixed = decode["mixed"]
        base = decode["baseline"]
        bitwise_ok = all(
            leg["outputs_bitwise_equal"]
            for leg in decode["bitwise"].values()
        )
        lines.append(
            f"  decode    : {mixed['us_per_token']:9.3f} modelled us/token "
            f"mixed vs {base['us_per_token']:9.3f} serial "
            f"({decode['speedup_vs_reference']:.2f}x); steady graph hit "
            f"rate {mixed['steady_hit_rate']:.3f}; oracle "
            f"bitwise={bitwise_ok} "
            f"({decode['bitwise']['chaos_evict']['evictions']} evictions)"
        )
    inv = result["invariants"]
    lines.append(
        f"  invariants: outputs_match={inv['outputs_match_atol_1e-6']} "
        f"(max |diff| {inv['max_abs_diff']:.2e}), "
        f"launch_streams_identical={inv['launch_streams_identical']}, "
        f"graph_streams_identical={inv.get('graph_streams_identical')}, "
        f"steady_outputs_bitwise={inv.get('steady_outputs_bitwise_equal')}, "
        f"modelled {result['modelled_us'] / 1e3:.1f} ms"
    )
    return "\n".join(lines)


def check_invariants(result: dict[str, Any]) -> list[str]:
    """The ``--check`` gate over a bench result; returns failure messages.

    An empty list means the run is clean: every section floor (all of
    them modelled-clock ratios) holds, outputs are equivalent, launch
    streams are identical looped vs vectorized *and* eager vs
    graph-replayed, (when the arena engaged) the steady state makes zero
    large allocations within the traced-peak budget, and every
    fan-out, sharded and decode equality leg holds.  Every check is
    deterministic, so any failure is a code change, on any host.
    """
    inv = result["invariants"]
    failures = []
    for name, section in result["sections"].items():
        floor = section.get("floor") if isinstance(section, dict) else None
        if floor is None:
            continue
        if section["speedup_vs_reference"] < floor:
            failures.append(
                f"section {name}: speedup_vs_reference "
                f"{section['speedup_vs_reference']:.3f} below floor {floor}"
            )
    sharded = result["sections"].get("sharded_serving")
    if sharded is not None:
        for point in sharded["scaling"]["points"]:
            floor = point.get("floor")
            if (
                floor is not None
                and point["speedup_vs_single_device"] < floor
            ):
                failures.append(
                    f"sharded serving at {point['devices']} devices: "
                    f"modelled speedup "
                    f"{point['speedup_vs_single_device']:.3f} below floor "
                    f"{floor:g}"
                )
        for name, leg in sharded["bitwise"].items():
            if leg["served"] == 0:
                failures.append(f"sharded bitwise leg {name}: nothing served")
            if not leg["outputs_bitwise_equal"]:
                failures.append(
                    f"sharded bitwise leg {name}: served outputs != "
                    "per-request oracle"
                )
        if (
            sharded["bitwise"]["tp_collective_chaos"][
                "collective_faults_injected"
            ]
            < 1
        ):
            failures.append(
                "collective-targeted chaos injected no faults into "
                "allreduce kernels"
            )
    serving = result["sections"].get("continuous_serving")
    if serving is not None:
        hit_rate = serving["continuous"]["steady_hit_rate"]
        if hit_rate < serving["hit_rate_floor"]:
            failures.append(
                f"continuous serving steady-state graph hit rate "
                f"{hit_rate:.3f} below floor {serving['hit_rate_floor']}"
            )
    decode = result["sections"].get("decode_serving")
    if decode is not None:
        hit_rate = decode["mixed"]["steady_hit_rate"]
        if hit_rate < decode["hit_rate_floor"]:
            failures.append(
                f"decode serving steady-state graph hit rate "
                f"{hit_rate:.3f} below floor {decode['hit_rate_floor']}"
            )
        overflow = decode["mixed"]["kv"]["overflow_allocs"]
        if overflow != 0:
            failures.append(
                f"paged KV arena performed {overflow:.0f} overflow "
                "allocations (plan-driven pre-sizing should leave zero)"
            )
        for name, leg in decode["bitwise"].items():
            if leg["served"] == 0:
                failures.append(f"decode bitwise leg {name}: nothing served")
            if not leg["outputs_bitwise_equal"]:
                failures.append(
                    f"decode bitwise leg {name}: served generations != "
                    "per-request oracle"
                )
        if decode["bitwise"]["chaos_evict"]["evictions"] < 1:
            failures.append(
                "decode chaos leg evicted nothing: KV pressure path "
                "never exercised preempt/resume"
            )
    if not inv["outputs_match_atol_1e-6"]:
        failures.append(
            f"engine outputs diverge (max |diff| {inv['max_abs_diff']:.2e})"
        )
    if not inv["launch_streams_identical"]:
        failures.append("looped vs vectorized launch streams differ")
    if not inv.get("graph_modelled_us_equal", True):
        failures.append("graph replay changed modelled_us")
    if not inv.get("graph_streams_identical", True):
        failures.append("graph replay stream != eager stream")
    if not inv.get("steady_outputs_bitwise_equal", True):
        failures.append("arena+graph forward output != vectorized output")
    if not inv.get("steady_modelled_us_equal", True):
        failures.append("arena+graph forward changed modelled_us")
    if inv.get("steady_arena_engaged"):
        alloc = result["sections"]["steady_state_alloc"]
        if alloc["large_allocation_count"] != 0:
            failures.append(
                f"steady state performed "
                f"{alloc['large_allocation_count']} large allocations"
            )
        budget = alloc.get("peak_budget_bytes", LARGE_ALLOC_BYTES)
        if alloc["peak_delta_bytes"] >= budget:
            failures.append(
                f"steady-state traced peak grew by "
                f"{alloc['peak_delta_bytes']} bytes "
                f"(budget {budget})"
            )
        # satellite gate: plan-driven pre-sizing means the arena never
        # falls back to np.empty, warm-up included
        if alloc.get("arena_overflow_allocs", 0) != 0:
            failures.append(
                f"arena performed {alloc['arena_overflow_allocs']} "
                "overflow allocations (pre-sizing should leave zero)"
            )
    hp = result["sections"].get("host_parallel")
    if hp is not None:
        # the parallel path's correctness invariants are deterministic,
        # so they gate hard regardless of core count
        if not hp["outputs_bitwise_equal"]:
            failures.append(
                f"{hp['executor']} executor output != serial output"
            )
        if not hp["launch_streams_identical"]:
            failures.append(
                f"{hp['executor']} executor changed the launch stream"
            )
        if not hp["modelled_us_equal"]:
            failures.append(
                f"{hp['executor']} executor changed modelled_us"
            )
        fg = hp["fast_gelu"]
        if not fg["within_atol"]:
            failures.append(
                f"fast-gelu max |diff| {fg['max_abs_diff']:.2e} exceeds "
                f"atol {fg['atol']}"
            )
        if not fg["launch_streams_identical"]:
            failures.append("fast-gelu changed the launch stream")
    return failures

