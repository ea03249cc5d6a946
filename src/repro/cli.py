"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``experiments`` — list or run the paper's experiment harnesses;
* ``profile`` — run one configuration and print the kernel breakdown,
  optionally dumping a chrome://tracing JSON;
* ``compare`` — one-line end-to-end framework comparison for a shape;
* ``bench`` — wall-clock benchmark of the host execution engines
  (``--quick`` for a CI smoke run, ``--out`` to write the JSON,
  ``--check`` to gate on the output/stream-identity invariants,
  ``--workers`` to fan the megabatch segments out over a thread pool);
  prints the cache hit/miss/eviction table;
* ``serve-chaos`` — chaos-replay a serving trace with injected kernel
  faults, deadlines, retry/backoff and graceful degradation
  (``--workers`` compute independent requests on a thread pool); prints the cache hit/miss/eviction table and the SLO
  summary, and can export the observed replay (``--trace-out`` Chrome
  trace, ``--metrics-out`` JSONL);
* ``generate`` — serve autoregressive generation streams (synthetic
  traffic or ``--prompt-file``, one whitespace-tokenised prompt per
  line) through the mixed prefill/decode runtime: paged KV arena,
  continuous batching with a decode-priority knob, optional kernel
  chaos.  Prints the per-token latency table (TTFT + inter-token gaps);
  ``--check`` gates conservation, zero KV overflow allocations and
  bitwise equality of every served stream against the per-request
  decode loop; ``--out`` writes the report JSON for CI artifacts;
* ``metrics`` — replay a small serving trace with telemetry on and emit
  the metrics registry (``--format prom|json|text``, ``--check`` parses
  the Prometheus exposition back);
* ``loadtest`` — replay open-loop multi-tenant traffic (Poisson /
  bursty / diurnal arrivals, seeded flash crowds) through the admission
  gateway and print per-tenant SLO reports; the scenario is sized as
  fractions of the modelled GPU capacity so the flash crowd genuinely
  overloads the system.  ``--check`` gates conservation, SLO-tenant
  deadline attainment, batch-first shedding and (with ``--oracle``)
  bitwise equality of served outputs against the per-request oracle;
  ``--report-out`` writes the per-tenant report JSON for CI artifacts;
* ``devices`` — show the simulated device presets.

``bench`` accepts the same ``--trace-out``/``--metrics-out`` pair; there
they observe the continuous-serving steady-state run.

Command functions raise ``ValueError``/``GpuSimError`` on bad input;
:func:`main` converts those into a one-line message and exit code 2, the
same contract argparse uses for unparseable arguments.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from repro.core.config import FAST_GELU, STEPWISE_PRESETS, BertConfig
from repro.core.estimator import estimate_model
from repro.experiments import ALL_EXPERIMENTS
from repro.frameworks import all_frameworks
from repro.gpusim import (
    A10_SPEC,
    A100_SPEC,
    V100_SPEC,
    ExecutionContext,
    GpuSimError,
    ProfileReport,
)
from repro.gpusim.roofline import roofline_report
from repro.gpusim.trace import write_chrome_trace
from repro.serving.sharded import SHARD_MODES
from repro.workloads.generator import uniform_lengths

DEVICES = {spec.name: spec for spec in (A100_SPEC, V100_SPEC, A10_SPEC)}
#: CLI-selectable presets: the Figure 13 ladder plus the opt-in
#: fast-GELU preset (approximate within FAST_GELU_ATOL, never implied)
PRESETS = {
    preset.label: preset for preset in (*STEPWISE_PRESETS, FAST_GELU)
}


def _add_shape_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--batch", type=int, default=16)
    parser.add_argument("--max-seq-len", type=int, default=256)
    parser.add_argument("--alpha", type=float, default=0.6)
    parser.add_argument("--layers", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--device", choices=sorted(DEVICES), default=A100_SPEC.name
    )


def _workload(args: argparse.Namespace) -> tuple[BertConfig, np.ndarray]:
    config = BertConfig(num_layers=args.layers)
    rng = np.random.default_rng(args.seed)
    lens = uniform_lengths(args.batch, args.max_seq_len, args.alpha, rng)
    return config, lens


def cmd_experiments(args: argparse.Namespace) -> int:
    """List or run the experiment harnesses."""
    if args.summary:
        from repro.experiments.report import collect

        report = collect(fast=args.fast)
        print(
            report.render_markdown() if args.markdown
            else report.render_text()
        )
        return 0
    if args.list or not args.names:
        print("available experiments:")
        for name, module in ALL_EXPERIMENTS.items():
            print(f"  {name:<12} {module.__doc__.splitlines()[0]}")
        return 0
    unknown = [n for n in args.names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}", file=sys.stderr)
        return 2
    for name in args.names:
        ALL_EXPERIMENTS[name].main()
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile one pipeline configuration on one device."""
    config, lens = _workload(args)
    preset = PRESETS[args.preset]
    ctx = ExecutionContext(DEVICES[args.device])
    total = estimate_model(ctx, config, preset, lens, args.max_seq_len)
    print(
        f"{preset.label!r} on {args.device}: {total:.1f} us, "
        f"{ctx.kernel_count()} kernels, "
        f"{ctx.total_flops() / 1e9:.2f} GFLOP, "
        f"{ctx.total_dram_bytes() / 1e6:.1f} MB DRAM"
    )
    print(ProfileReport.from_context(ctx).to_table("breakdown"))
    if args.roofline:
        print(roofline_report(ctx).to_table())
    if args.trace:
        path = write_chrome_trace(ctx, args.trace)
        print(f"chrome trace written to {path}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Compare every framework model on one shape."""
    config, lens = _workload(args)
    device = DEVICES[args.device]
    print(
        f"end-to-end BERT ({config.num_layers} layers), batch {args.batch}, "
        f"max seq {args.max_seq_len}, alpha {args.alpha}, {args.device}"
    )
    rows = []
    for fw in all_frameworks():
        if not fw.supports(args.max_seq_len):
            rows.append((fw.name, None))
            continue
        ctx = ExecutionContext(device)
        fw.estimate(ctx, config, lens, args.max_seq_len)
        rows.append((fw.name, ctx.elapsed_us()))
    best = min(t for _, t in rows if t is not None)
    for name, t in rows:
        if t is None:
            print(f"  {name:<20} unsupported shape")
        else:
            print(f"  {name:<20} {t / 1000:9.2f} ms   ({t / best:4.2f}x)")
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    """Quick numerical cross-validation: every pipeline == the oracle,
    and every packed pipeline's live arena is planned exactly."""
    del args
    from repro.core.config import STEPWISE_PRESETS
    from repro.core.memory_planner import LiveArena
    from repro.core.model import BertEncoderModel
    from repro.core.reference import reference_encoder
    from repro.core.weights import init_model_weights
    from repro.workloads.generator import make_batch

    config = BertConfig(num_heads=4, head_size=16, num_layers=2)
    weights = init_model_weights(config, seed=0)
    # the second batch's longest sequence (492) is past the short fused
    # kernel's limit, so the fused presets run the grouped long kernel
    batches = [
        make_batch(4, 48, config.hidden_size, alpha=0.6, seed=1),
        make_batch(3, 512, config.hidden_size, alpha=0.6, seed=1),
    ]
    failed = False
    for batch in batches:
        print(f"  B{len(batch.seq_lens)} S{batch.max_seq_len}:")
        oracle = reference_encoder(batch.x, weights, config, batch.mask)
        valid = batch.mask.astype(bool)
        for preset in STEPWISE_PRESETS:
            model = BertEncoderModel(config, preset, weights=weights)
            out = model.forward(batch.x, batch.mask)
            err = float(np.abs(out[valid] - oracle[valid]).max())
            ok = err < 1e-3
            failed |= not ok
            print(
                f"    {preset.label:<26} max|err| vs oracle = {err:.2e}  "
                f"{'ok' if ok else 'FAIL'}"
            )
            if not preset.remove_padding:
                continue
            # the arena is reserved from its plan before the first
            # forward: an overflow means the plan missed a take
            for dtype in (np.float32, np.float64):
                x = batch.x.astype(dtype)
                arena = LiveArena()
                backed = BertEncoderModel(
                    config, preset, weights=weights, arena=arena
                )
                same = np.array_equal(
                    backed.forward(x, batch.mask), model.forward(x, batch.mask)
                )
                ok = same and arena.overflow_allocs == 0
                failed |= not ok
                print(
                    f"      live arena {np.dtype(dtype).name:<8} "
                    f"{arena.overflow_allocs} overflow allocs, "
                    f"{'bitwise equal' if same else 'BITS DIFFER'}  "
                    f"{'ok' if ok else 'FAIL'}"
                )
    print("selftest " + ("FAILED" if failed else "passed"))
    return 1 if failed else 0


def _export_telemetry(tel, trace_out, metrics_out, process_name) -> None:
    """Write the Chrome trace and/or JSONL dump a command was asked for."""
    if trace_out:
        from repro.gpusim.trace import write_telemetry_trace

        path = write_telemetry_trace(tel, trace_out, process_name=process_name)
        print(f"telemetry trace written to {path}")
    if metrics_out:
        from repro.telemetry import write_telemetry_jsonl

        path = write_telemetry_jsonl(tel, metrics_out)
        print(f"telemetry JSONL written to {path}")


def _git_sha() -> str:
    """Short sha of HEAD, or "" outside a git checkout."""
    import subprocess

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return proc.stdout.strip() if proc.returncode == 0 else ""


def cmd_bench(args: argparse.Namespace) -> int:
    """Wall-clock benchmark: vectorized engine vs looped reference."""
    from repro.bench.wallclock import (
        QUICK_OVERRIDES,
        check_invariants,
        check_warnings,
        format_summary,
        run_wallclock_bench,
        write_bench_json,
    )
    from repro.core.parallel import use_workers
    from repro.gpusim.profiler import CacheStats, format_cache_stats

    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    kwargs = dict(
        batch=args.batch,
        max_seq_len=args.max_seq_len,
        alpha=args.alpha,
        layers=args.layers,
        preset=args.preset,
        repeats=args.repeats,
        seed=args.seed,
        workers=args.workers,
        devices=args.devices,
        shard=args.shard,
    )
    if args.quick:
        # --quick shrinks shapes but never the device count: the CI
        # smoke leg pins --devices explicitly and must keep it
        kwargs.update(QUICK_OVERRIDES)
    tel = None
    if args.trace_out or args.metrics_out:
        from repro.telemetry import Telemetry

        tel = Telemetry()
        kwargs["telemetry"] = tel
    with use_workers(args.workers):
        result = run_wallclock_bench(**kwargs)
    print(format_summary(result))
    if tel is not None:
        _export_telemetry(
            tel, args.trace_out, args.metrics_out, "bench continuous serving"
        )
    print(
        format_cache_stats(
            [CacheStats(**d) for d in result.get("cache_stats", [])]
        )
    )
    if args.out:
        path = write_bench_json(result, args.out)
        print(f"wrote {path}")
    exit_code = 0
    if args.baseline is not None:
        from repro.observe.history import (
            append_record,
            baseline_gate,
            load_history,
            record_from_result,
        )

        record = record_from_result(result, git_sha=_git_sha())
        gate = baseline_gate(
            record,
            load_history(args.baseline),
            k=args.history_k,
            history_dir=str(args.baseline),
        )
        # append before judging: a regressed run is still a data point
        record_path = append_record(args.baseline, record)
        print(f"bench history record appended: {record_path}")
        print(gate.render_text())
        if not gate.passed:
            exit_code = 1
    if args.check:
        failures = check_invariants(result)
        for warning in check_warnings(result):
            # Amdahl-capped and wall-clock floor breaches (forward,
            # attention, host_parallel): visible, but not fatal
            print(f"invariant WARNING: {warning}", file=sys.stderr)
        if failures:
            for failure in failures:
                print(f"invariant FAILED: {failure}", file=sys.stderr)
            return 1
        print("all invariants hold")
    return exit_code


def cmd_serve_chaos(args: argparse.Namespace) -> int:
    """Chaos-replay a serving trace through the fault-tolerant runtime."""
    from repro.serving import (
        AdmissionController,
        DegradationLadder,
        FaultSpec,
        RetryPolicy,
        ServingRuntime,
    )
    from repro.telemetry import SloPolicy, SloReport, Telemetry
    from repro.workloads.batching import (
        BucketBatcher,
        ContinuousBatcher,
        FifoBatcher,
        TimeoutBatcher,
    )
    from repro.workloads.serving import make_trace

    if args.requests <= 0:
        raise ValueError(f"--requests must be positive, got {args.requests}")
    if args.quick:
        # CI smoke shape: a few dozen requests on a small model
        args.requests = min(args.requests, 24)
        args.layers = min(args.layers, 2)
        args.max_seq_len = min(args.max_seq_len, 64)
    trace = make_trace(
        args.requests,
        args.max_seq_len,
        alpha=args.alpha,
        mean_interarrival_us=args.mean_interarrival_us,
        seed=args.seed,
        deadline_us=args.deadline_us if args.deadline_us > 0 else None,
    )
    if args.batcher == "continuous":
        batcher = ContinuousBatcher(
            token_budget=args.token_budget, timeout_us=args.timeout_us
        )
    elif args.batcher == "bucket":
        batcher = BucketBatcher(
            batch_size=args.batch_size, timeout_us=args.timeout_us
        )
    elif args.batcher == "fifo":
        batcher = FifoBatcher(batch_size=args.batch_size)
    else:
        batcher = TimeoutBatcher(
            batch_size=args.batch_size, timeout_us=args.timeout_us
        )
    spec = FaultSpec(
        launch_failure_rate=args.fault_rate / 2.0,
        transient_oom_rate=args.fault_rate / 2.0,
        slow_rate=args.slow_rate,
        slow_factor=args.slow_factor,
        target_prefixes=(
            tuple(args.target) if args.target else ("fused_mha", "fmha_")
        ),
    )
    sharding = None
    if args.devices > 1:
        from repro.serving.sharded import ShardConfig

        sharding = ShardConfig(
            devices=args.devices,
            mode=args.shard,
            tp_size=2 if args.shard == "both" else None,
        )
    tel = Telemetry()
    runtime = ServingRuntime(
        BertConfig(num_layers=args.layers),
        batcher=batcher,
        retry=RetryPolicy(max_retries=args.max_retries),
        admission=(
            AdmissionController(high_water_us=args.high_water_us)
            if args.high_water_us > 0
            else None
        ),
        ladder=DegradationLadder(
            trip_threshold=args.trip_threshold,
            window_us=args.ladder_window_us,
            cooldown_us=args.ladder_cooldown_us,
        ),
        faults=spec,
        device=DEVICES[args.device],
        seed=args.seed,
        workers=args.workers,
        telemetry=tel,
        sharding=sharding,
    )
    print(
        f"chaos replay: {args.requests} requests, fault rate "
        f"{args.fault_rate:.0%} (+{args.slow_rate:.0%} slow), seed {args.seed}"
        + (
            f", {args.devices} devices ({args.shard})"
            if args.devices > 1
            else ""
        )
    )
    report = runtime.run(trace)
    print(report.render_text())
    if args.devices > 1:
        busy = report.device_busy_us
        mean_busy = sum(busy) / len(busy) if busy else 0.0
        imbalance = (max(busy) / mean_busy) if mean_busy else 1.0
        print(
            "  devices: "
            + ", ".join(f"d{i} {b / 1000:.2f} ms" for i, b in enumerate(busy))
            + f"; imbalance {imbalance:.3f}, steals {report.work_steals}"
        )
    from repro.core.padding import default_packing_cache
    from repro.gpusim.profiler import CacheStats, format_cache_stats

    stats = [CacheStats.from_cache("packing", default_packing_cache())]
    if runtime.graph_cache is not None:
        stats.append(CacheStats.from_cache("launch_graphs", runtime.graph_cache))
    print(format_cache_stats(stats))
    if runtime.graph_cache is not None:
        kinds = runtime.graph_cache.kind_counts()
        if kinds:
            parts = ", ".join(
                f"{kind}: {c['captures']} captured / {c['replays']} replayed"
                for kind, c in sorted(kinds.items())
            )
            print(f"graph kinds: {parts}")
    policy = SloPolicy(
        success_target=args.slo_target,
        latency_target_us=(
            args.deadline_us if args.deadline_us > 0 else None
        ),
    )
    print(SloReport.from_registry(tel.metrics, policy).render_text())
    _export_telemetry(tel, args.trace_out, args.metrics_out, "serve-chaos")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Attribute a replay's microseconds: critical path, tail, knobs."""
    import json
    from pathlib import Path

    from repro.core.config import BertConfig
    from repro.gpusim.profiler import ProfileReport
    from repro.observe import (
        CriticalPathReport,
        KnobConfig,
        format_knob_table,
        sweep_knobs,
        tail_forensics,
    )
    from repro.serving import FaultSpec, RetryPolicy, ServingRuntime
    from repro.telemetry import SloPolicy, SloReport, Telemetry
    from repro.workloads.batching import ContinuousBatcher
    from repro.workloads.serving import make_trace

    if args.requests <= 0:
        raise ValueError(f"--requests must be positive, got {args.requests}")
    if args.quick:
        args.requests = min(args.requests, 24)
        args.layers = min(args.layers, 2)
        args.max_seq_len = min(args.max_seq_len, 64)
        args.token_budget = min(args.token_budget, 512)
    trace = make_trace(
        args.requests,
        args.max_seq_len,
        alpha=args.alpha,
        mean_interarrival_us=args.mean_interarrival_us,
        seed=args.seed,
        deadline_us=args.deadline_us if args.deadline_us > 0 else None,
    )
    sharding = None
    if args.devices > 1:
        from repro.serving.sharded import ShardConfig

        sharding = ShardConfig(devices=args.devices, mode=args.shard)
    tel = Telemetry()
    runtime = ServingRuntime(
        BertConfig(num_layers=args.layers),
        batcher=ContinuousBatcher(
            token_budget=args.token_budget, timeout_us=args.timeout_us
        ),
        retry=RetryPolicy(max_retries=args.max_retries),
        faults=FaultSpec(
            launch_failure_rate=args.fault_rate / 2.0,
            transient_oom_rate=args.fault_rate / 2.0,
            target_prefixes=("fused_mha", "fmha_"),
        ),
        device=DEVICES[args.device],
        seed=args.seed,
        telemetry=tel,
        sharding=sharding,
    )
    print(
        f"explain: {args.requests} requests, fault rate "
        f"{args.fault_rate:.0%}, seed {args.seed}"
        + (
            f", {args.devices} devices ({args.shard})"
            if args.devices > 1
            else ""
        )
    )
    report = runtime.run(trace)
    cp = CriticalPathReport.from_telemetry(tel)
    print(cp.render_text(top=args.top))
    print(
        ProfileReport.from_segments(tel.kernel_segments).to_table(
            "kernel profile"
        )
    )
    tail = tail_forensics(cp)
    print(SloReport.from_registry(tel.metrics, SloPolicy())
          .with_tail(tail).render_text())

    knob_results = None
    if args.knobs:
        cfg = (
            KnobConfig.quick()
            if args.quick
            else KnobConfig(
                token_budget=args.token_budget, timeout_us=args.timeout_us
            )
        )
        knob_results = sweep_knobs(cfg)
        print(format_knob_table(knob_results))

    if args.json:
        payload = {
            "critical_path": cp.to_json(),
            "tail": tail.to_dict() if tail is not None else None,
        }
        if knob_results is not None:
            payload["knobs"] = [s.to_dict() for s in knob_results]
        out = Path(args.json)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"explain report written to {out}")
    if args.trace_out:
        from repro.gpusim.trace import write_telemetry_trace

        path = write_telemetry_trace(
            tel,
            args.trace_out,
            process_name="explain",
            critical_path=cp.critical_request(),
        )
        print(f"telemetry trace written to {path}")

    if args.check:
        failures: list[str] = []
        latency = {
            o.request_id: o.latency_us
            for o in report.outcomes
            if o.latency_us is not None
        }
        outcomes = {o.request_id: o.outcome.value for o in report.outcomes}
        paths = {p.request_id: p for p in cp.requests}
        for rid, outcome in outcomes.items():
            path = paths.get(rid)
            if path is None:
                failures.append(f"request {rid} has no critical path")
                continue
            if outcome != "served":
                continue
            gap = path.path_us - latency[rid]
            if gap > 1e-6:
                failures.append(
                    f"request {rid}: path {path.path_us:.3f} us exceeds "
                    f"latency {latency[rid]:.3f} us"
                )
            elif path.decomposed and abs(gap) > 1e-6:
                failures.append(
                    f"request {rid}: decomposed path {path.path_us:.3f} us "
                    f"!= latency {latency[rid]:.3f} us"
                )
        if failures:
            for failure in failures:
                print(f"explain check FAILED: {failure}", file=sys.stderr)
            return 1
        print(
            f"all explain checks hold ({len(outcomes)} request paths "
            "sum-checked against the serving report)"
        )
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    """Replay open-loop multi-tenant traffic through the gateway."""
    import json
    from pathlib import Path

    from repro.core.config import FUSED_MHA
    from repro.core.model import BertEncoderModel
    from repro.serving import (
        AdmissionGateway,
        Outcome,
        QosClass,
        REASON_QUEUE_OVERFLOW,
        ServingRuntime,
        TenantPolicy,
    )
    from repro.telemetry import SloPolicy, SloReport, Telemetry
    from repro.workloads.batching import ContinuousBatcher
    from repro.workloads.generator import LengthDistribution
    from repro.workloads.traffic import (
        DiurnalArrivals,
        FlashCrowd,
        LengthProfile,
        MmppArrivals,
        PoissonArrivals,
        TenantTraffic,
        generate_traffic,
    )

    if args.horizon_us <= 0:
        raise ValueError(f"--horizon-us must be positive, got {args.horizon_us}")
    if not 0.0 < args.slo_load < 1.0 or not 0.0 < args.batch_load < 1.0:
        raise ValueError("--slo-load and --batch-load must be in (0, 1)")
    if not 0.0 < args.batch_limit < 1.0:
        raise ValueError(f"--batch-limit must be in (0, 1), got {args.batch_limit}")
    if args.quick:
        # CI smoke shape: tiny hidden size so the bitwise oracle is
        # cheap, a short horizon, and a throttled virtual service rate
        # so the capacity-relative scenario stays a few hundred requests
        args.horizon_us = min(args.horizon_us, 150_000.0)
        args.layers = min(args.layers, 2)
        args.max_seq_len = min(args.max_seq_len, 128)
        args.heads = min(args.heads, 2)
        args.head_size = min(args.head_size, 16)
        args.oracle = True
        if args.service_tokens_per_s <= 0:
            args.service_tokens_per_s = 250_000.0

    config = BertConfig(
        num_heads=args.heads, head_size=args.head_size, num_layers=args.layers
    )
    batcher = ContinuousBatcher(
        token_budget=args.token_budget, timeout_us=args.timeout_us
    )
    tel = Telemetry()
    numerics = (
        BertEncoderModel(config, FUSED_MHA, seed=args.seed)
        if args.oracle
        else None
    )
    runtime = ServingRuntime(
        config,
        batcher=batcher,
        device=DEVICES[args.device],
        numerics=numerics,
        seed=args.seed,
        telemetry=tel,
    )
    # virtual drain rate the scenario is sized against: the cost model's
    # capacity by default, an explicit throttle for the CI smoke shape
    if args.service_tokens_per_s > 0:
        rate = args.service_tokens_per_s / 1e6
    else:
        rate = runtime.estimate_service_rate(args.max_seq_len)
    capacity_s = rate * 1e6  # sequence tokens per simulated second

    # -- scenario: 2 tenants, sized as fractions of capacity -----------
    slo_profile = LengthProfile.zipf_mixed(args.max_seq_len)
    batch_profile = LengthProfile.single(
        args.max_seq_len, LengthDistribution.UNIFORM, alpha=0.7
    )
    mean_slo = float(slo_profile.sample(4096, np.random.default_rng(0)).mean())
    mean_batch = float(
        batch_profile.sample(4096, np.random.default_rng(1)).mean()
    )
    slo_req_rate = args.slo_load * capacity_s / mean_slo
    batch_req_rate = args.batch_load * capacity_s / mean_batch
    crowd = FlashCrowd(
        start_us=0.35 * args.horizon_us,
        duration_us=0.25 * args.horizon_us,
        multiplier=args.crowd_multiplier,
    )
    if args.quick:
        slo_arrivals = PoissonArrivals(slo_req_rate)
        batch_arrivals = PoissonArrivals(batch_req_rate)
    else:
        # richer arrival mix off the CI path: a diurnal swing for the
        # interactive tenant (phased so the flash crowd lands on the
        # downslope, not on top of the peak) and bursty MMPP batch
        slo_arrivals = DiurnalArrivals(
            slo_req_rate, period_us=args.horizon_us, depth=0.2, phase=0.5
        )
        probe = MmppArrivals(1.0)
        batch_arrivals = MmppArrivals(
            batch_req_rate / (probe.mean_rate_per_us * 1e6)
        )
    tenants = [
        TenantTraffic(
            "interactive",
            slo_arrivals,
            slo_profile,
            deadline_us=args.deadline_us,
            flash_crowds=(crowd,),
        ),
        TenantTraffic("analytics", batch_arrivals, batch_profile),
    ]
    trace = generate_traffic(tenants, args.horizon_us, seed=args.seed)

    limit_tokens_s = args.batch_limit * capacity_s
    policies = [
        TenantPolicy(
            "interactive",
            qos=QosClass.LATENCY_SLO,
            weight=args.slo_weight,
            max_queue_tokens=1 << 30,  # bounded only by global pressure
            slo_target=args.slo_target,
            attainment_target=args.attainment_target,
        ),
        TenantPolicy(
            "analytics",
            qos=QosClass.THROUGHPUT_BATCH,
            weight=1.0,
            rate_tokens_per_s=limit_tokens_s,
            # a small burst so the crowd actually empties the bucket
            # inside the horizon; never below one max-length request
            burst_tokens=max(args.max_seq_len, 0.01 * limit_tokens_s),
            # ~3 ms of capacity queued before oldest-shed kicks in
            max_queue_tokens=max(4 * args.max_seq_len, int(rate * 3_000.0)),
            slo_target=0.5,  # bulk traffic: no availability promise
        ),
    ]
    runtime.gateway = AdmissionGateway(
        policies,
        service_rate_tokens_per_us=rate,
        quantum_tokens=args.quantum,
        max_total_queue_tokens=max(
            8 * args.max_seq_len, int(rate * 40_000.0)
        ),
    )

    crowd_end_ms = (crowd.start_us + crowd.duration_us) / 1000
    print(
        f"loadtest: {trace.num_requests} requests / "
        f"{args.horizon_us / 1000:.0f} ms horizon, capacity "
        f"{capacity_s / 1e6:.2f}M tokens/s"
        f"{' (throttled)' if args.service_tokens_per_s > 0 else ''}, "
        f"seed {args.seed}"
    )
    print(
        f"  interactive: latency-slo, {args.slo_load:.0%} load, "
        f"{args.crowd_multiplier:g}x flash crowd "
        f"{crowd.start_us / 1000:.0f}-{crowd_end_ms:.0f} ms, "
        f"deadline {args.deadline_us / 1000:.0f} ms"
    )
    print(
        f"  analytics:   throughput-batch, {args.batch_load:.0%} load, "
        f"rate-limited to {args.batch_limit:.0%}"
    )
    report = runtime.run(trace)
    print(report.render_text())

    # -- per-tenant SLO table ------------------------------------------
    tenant_reports: dict[str, SloReport] = {}
    print("== per-tenant SLO ==")
    print(
        f"  {'tenant':<13}{'qos':<18}{'total':>6}{'served':>7}{'shed':>6}"
        f"{'rej':>5}{'avail':>8}{'attain':>8}{'p99 ms':>8}{'burn':>7}"
    )
    for policy in policies:
        slo = SloReport.for_tenant(
            tel.metrics,
            policy.name,
            SloPolicy(success_target=policy.slo_target),
        )
        tenant_reports[policy.name] = slo
        attainment = slo.deadline_attainment
        burn = slo.budget_burn
        p99 = slo.latency_quantile_us
        print(
            f"  {policy.name:<13}{policy.qos.value:<18}{slo.total:>6}"
            f"{slo.served:>7}{slo.shed:>6}{slo.rejected:>5}"
            f"{slo.availability:>8.2%}"
            + (
                f"{attainment:>8.2%}"
                if attainment is not None
                else f"{'n/a':>8}"
            )
            + (f"{p99 / 1000:>8.2f}" if p99 is not None else f"{'n/a':>8}")
            + (f"{burn:>6.2f}x" if burn is not None else f"{'n/a':>7}")
        )

    # -- gates ----------------------------------------------------------
    failures: list[str] = []
    counts = report.counts()
    settled = (
        counts["served"] + counts["shed"] + counts["failed"]
        + counts["rejected"]
    )
    if settled != trace.num_requests:
        failures.append(
            f"conservation: {settled} settled of {trace.num_requests}"
        )
    if counts["failed"]:
        failures.append(f"{counts['failed']} requests failed")
    for policy in policies:
        slo = tenant_reports[policy.name]
        if policy.qos is QosClass.LATENCY_SLO:
            attainment = slo.deadline_attainment
            if attainment is None or attainment < policy.attainment_target:
                got = "n/a" if attainment is None else f"{attainment:.2%}"
                failures.append(
                    f"{policy.name}: deadline attainment {got} < target "
                    f"{policy.attainment_target:.2%}"
                )
            overflow = sum(
                1
                for o in report.by_tenant(policy.name)
                if o.outcome is Outcome.SHED
                and o.reason == REASON_QUEUE_OVERFLOW
            )
            if overflow:
                failures.append(
                    f"{policy.name}: {overflow} latency-slo requests shed "
                    "by overload while batch traffic remained"
                )
    if args.crowd_multiplier > 1.0:
        absorbed = sum(
            tenant_reports[p.name].shed + tenant_reports[p.name].rejected
            for p in policies
            if p.qos is QosClass.THROUGHPUT_BATCH
        )
        if absorbed == 0:
            failures.append(
                "flash crowd produced no batch-tenant sheds/rejections "
                "(overload never materialised)"
            )
    oracle_checked = 0
    if numerics is not None:
        oracle = BertEncoderModel(config, FUSED_MHA, seed=args.seed)
        by_id = {r.request_id: r for r in trace.requests}
        for rid in sorted(report.outputs):
            request = by_id[rid]
            rng = np.random.default_rng([args.seed, rid])
            x = rng.standard_normal((1, request.seq_len, config.hidden_size))
            mask = np.ones((1, request.seq_len))
            if not np.array_equal(report.outputs[rid], oracle.forward(x, mask)[0]):
                failures.append(
                    f"request {rid}: served output != per-request oracle"
                )
                break
            oracle_checked += 1
        print(
            f"oracle: {oracle_checked}/{len(report.outputs)} served outputs "
            "bitwise-equal to the per-request forward"
        )

    if args.report_out:
        payload = {
            "seed": args.seed,
            "horizon_us": args.horizon_us,
            "capacity_tokens_per_s": capacity_s,
            "crowd_multiplier": args.crowd_multiplier,
            "totals": counts,
            "oracle_checked": oracle_checked,
            "gate_failures": failures,
            "tenants": {
                policy.name: {
                    "qos": policy.qos.value,
                    "weight": policy.weight,
                    "total": tenant_reports[policy.name].total,
                    "served": tenant_reports[policy.name].served,
                    "shed": tenant_reports[policy.name].shed,
                    "rejected": tenant_reports[policy.name].rejected,
                    "availability": tenant_reports[policy.name].availability,
                    "deadline_attainment": (
                        tenant_reports[policy.name].deadline_attainment
                    ),
                    "p99_latency_us": (
                        tenant_reports[policy.name].latency_quantile_us
                    ),
                    "error_budget_burn": (
                        tenant_reports[policy.name].budget_burn
                    ),
                    "attainment_target": policy.attainment_target,
                }
                for policy in policies
            },
        }
        out = Path(args.report_out)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"per-tenant SLO report written to {out}")

    if args.check:
        if failures:
            for failure in failures:
                print(f"loadtest gate FAILED: {failure}", file=sys.stderr)
            return 1
        print("all loadtest gates hold")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    """Serve an autoregressive generation trace through the decode runtime."""
    import json
    from pathlib import Path

    from repro.serving import FaultSpec, RetryPolicy
    from repro.serving.generation import (
        GenerationRuntime,
        generate_reference_outputs,
    )
    from repro.workloads.batching import MixedContinuousBatcher
    from repro.workloads.serving import (
        GenerationRequest,
        ServingTrace,
        make_generation_trace,
    )

    if args.quick:
        # CI smoke shape: a dozen short streams on a tiny model
        args.requests = min(args.requests, 12)
        args.layers = min(args.layers, 2)
        args.max_seq_len = min(args.max_seq_len, 64)
        args.decode_tokens = min(args.decode_tokens, 8)
    if args.requests <= 0:
        raise ValueError(f"--requests must be positive, got {args.requests}")
    if args.decode_tokens < 1:
        raise ValueError(
            f"--decode-tokens must be >= 1, got {args.decode_tokens}"
        )
    deadline = args.deadline_us if args.deadline_us > 0 else None
    if args.prompt_file:
        path = Path(args.prompt_file)
        if not path.is_file():
            raise ValueError(f"prompt file not found: {path}")
        prompts = [
            line for line in path.read_text().splitlines() if line.strip()
        ]
        if not prompts:
            raise ValueError(f"prompt file {path} has no non-empty lines")
        lens = [len(line.split()) for line in prompts]
        for i, n in enumerate(lens):
            if n > args.max_seq_len:
                raise ValueError(
                    f"prompt line {i + 1} has {n} tokens "
                    f"> --max-seq-len {args.max_seq_len}"
                )
        rng = np.random.default_rng(args.seed)
        arrivals = np.cumsum(
            rng.exponential(args.mean_interarrival_us, size=len(lens))
        )
        trace = ServingTrace(
            requests=tuple(
                GenerationRequest(
                    request_id=i,
                    arrival_us=float(arrivals[i]),
                    seq_len=lens[i],
                    deadline_us=deadline,
                    decode_tokens=args.decode_tokens,
                )
                for i in range(len(lens))
            ),
            max_seq_len=args.max_seq_len,
        )
    else:
        trace = make_generation_trace(
            args.requests,
            args.max_seq_len,
            decode_tokens=args.decode_tokens,
            alpha=args.alpha,
            mean_interarrival_us=args.mean_interarrival_us,
            seed=args.seed,
            deadline_us=deadline,
        )
    runtime = GenerationRuntime(
        BertConfig(num_layers=args.layers),
        batcher=MixedContinuousBatcher(
            token_budget=args.token_budget,
            decode_priority=args.decode_priority,
        ),
        retry=RetryPolicy(max_retries=args.max_retries),
        faults=FaultSpec(
            launch_failure_rate=args.fault_rate / 2.0,
            transient_oom_rate=args.fault_rate / 2.0,
            # by default only the batched decode-attention kernel is
            # flaky, so stepping the ladder to the looped path escapes
            target_prefixes=(
                tuple(args.target) if args.target else ("paged_decode",)
            ),
        ),
        device=DEVICES[args.device],
        seed=args.seed,
        kv_block_tokens=args.kv_block,
        kv_capacity_tokens=(
            args.kv_capacity_tokens if args.kv_capacity_tokens > 0 else None
        ),
    )
    print(
        f"generate: {trace.num_requests} streams "
        f"({'prompt file' if args.prompt_file else 'synthetic'}), "
        f"~{args.decode_tokens} tokens each, fault rate "
        f"{args.fault_rate:.0%}, seed {args.seed}"
    )
    report = runtime.run(trace)
    print(report.render_text())

    # -- per-token latency table ---------------------------------------
    by_id = {r.request_id: r for r in trace.requests}
    print("== per-token latency ==")
    print(
        f"  {'req':>4}{'prompt':>8}{'tokens':>8}{'ttft ms':>9}"
        f"{'itl us':>9}  outcome"
    )
    itl_all: list[float] = []
    ttft_all: list[float] = []
    for outcome in report.outcomes:
        rid = outcome.request_id
        times = report.token_times.get(rid, ())
        gaps = [b - a for a, b in zip(times, times[1:])]
        itl_all.extend(gaps)
        ttft = report.ttft_us(rid, by_id[rid].arrival_us)
        if ttft is not None:
            ttft_all.append(ttft)
        print(
            f"  {rid:>4}{by_id[rid].seq_len:>8}{len(times):>8}"
            + (f"{ttft / 1000:>9.2f}" if ttft is not None else f"{'-':>9}")
            + (
                f"{sum(gaps) / len(gaps):>9.1f}"
                if gaps
                else f"{'-':>9}"
            )
            + f"  {outcome.outcome.value}"
            + (f" ({outcome.reason})" if outcome.reason else "")
        )
    if ttft_all:
        print(
            f"  ttft p50/p99: {np.percentile(ttft_all, 50) / 1000:.2f}/"
            f"{np.percentile(ttft_all, 99) / 1000:.2f} ms"
            + (
                f"; itl p50/p99: {np.percentile(itl_all, 50):.1f}/"
                f"{np.percentile(itl_all, 99):.1f} us"
                if itl_all
                else ""
            )
        )

    # -- caches (same columns bench/serve-chaos print, incl. the
    #    decode graph kind) ---------------------------------------------
    from repro.core.padding import default_packing_cache
    from repro.gpusim.profiler import CacheStats, format_cache_stats

    stats = [CacheStats.from_cache("packing", default_packing_cache())]
    if runtime.graph_cache is not None:
        stats.append(
            CacheStats.from_cache("launch_graphs", runtime.graph_cache)
        )
    print(format_cache_stats(stats))
    if runtime.graph_cache is not None:
        kinds = runtime.graph_cache.kind_counts()
        if kinds:
            parts = ", ".join(
                f"{kind}: {c['captures']} captured / {c['replays']} replayed"
                for kind, c in sorted(kinds.items())
            )
            print(f"graph kinds: {parts}")

    # -- gates ----------------------------------------------------------
    failures: list[str] = []
    counts = report.counts()
    settled = sum(counts.values())
    if settled != trace.num_requests:
        failures.append(
            f"conservation: {settled} settled of {trace.num_requests}"
        )
    overflow = int(report.kv_stats.get("overflow_allocs", 0))
    if overflow:
        failures.append(f"paged KV arena made {overflow} overflow allocs")
    oracle_checked = 0
    if args.check:
        oracle = generate_reference_outputs(runtime, trace)
        for rid in sorted(report.outputs):
            if not np.array_equal(report.outputs[rid], oracle[rid]):
                failures.append(
                    f"request {rid}: generated tokens != per-request oracle"
                )
                break
            oracle_checked += 1
        print(
            f"oracle: {oracle_checked}/{len(report.outputs)} served streams "
            "bitwise-equal to the per-request decode loop"
        )
    if args.out:
        payload = {
            "seed": args.seed,
            "streams": trace.num_requests,
            "totals": counts,
            "generated_tokens": report.generated_tokens,
            "rounds": report.rounds,
            "us_per_token": report.us_per_token,
            "graph_hit_rate": report.graph_hit_rate,
            "kv_stats": report.kv_stats,
            "ttft_p50_us": (
                float(np.percentile(ttft_all, 50)) if ttft_all else None
            ),
            "ttft_p99_us": (
                float(np.percentile(ttft_all, 99)) if ttft_all else None
            ),
            "itl_p50_us": (
                float(np.percentile(itl_all, 50)) if itl_all else None
            ),
            "itl_p99_us": (
                float(np.percentile(itl_all, 99)) if itl_all else None
            ),
            "oracle_checked": oracle_checked,
            "gate_failures": failures,
        }
        out = Path(args.out)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"generation report written to {out}")
    if args.check:
        if failures:
            for failure in failures:
                print(f"generate gate FAILED: {failure}", file=sys.stderr)
            return 1
        print("all generate gates hold")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Replay a small serving trace with telemetry on; emit the registry."""
    import json
    from pathlib import Path

    from repro.serving import FaultSpec, ServingRuntime
    from repro.telemetry import (
        SloPolicy,
        SloReport,
        Telemetry,
        parse_prometheus,
    )
    from repro.workloads.batching import ContinuousBatcher, TimeoutBatcher
    from repro.workloads.serving import make_trace

    if args.requests <= 0:
        raise ValueError(f"--requests must be positive, got {args.requests}")
    if args.quick:
        args.requests = min(args.requests, 24)
        args.layers = min(args.layers, 2)
        args.max_seq_len = min(args.max_seq_len, 64)
    trace = make_trace(
        args.requests,
        args.max_seq_len,
        alpha=args.alpha,
        seed=args.seed,
        deadline_us=args.deadline_us if args.deadline_us > 0 else None,
    )
    batcher = (
        ContinuousBatcher(token_budget=args.token_budget)
        if args.batcher == "continuous"
        else TimeoutBatcher()
    )
    tel = Telemetry()
    runtime = ServingRuntime(
        BertConfig(num_layers=args.layers),
        batcher=batcher,
        faults=FaultSpec(
            launch_failure_rate=args.fault_rate / 2.0,
            transient_oom_rate=args.fault_rate / 2.0,
            target_prefixes=("fused_mha", "fmha_"),
        ),
        device=DEVICES[args.device],
        seed=args.seed,
        telemetry=tel,
    )
    runtime.run(trace)
    exposition = tel.metrics.to_prometheus()
    if args.format == "prom":
        text = exposition
    elif args.format == "json":
        text = json.dumps(tel.metrics.snapshot(), indent=2, sort_keys=True)
    else:
        report = SloReport.from_registry(tel.metrics, SloPolicy())
        text = report.render_text()
    if args.out:
        out = Path(args.out)
        out.write_text(text if text.endswith("\n") else text + "\n")
        print(f"wrote {out}")
    else:
        print(text)
    if args.check:
        series = parse_prometheus(exposition)
        if not series:
            print("metrics check FAILED: empty exposition", file=sys.stderr)
            return 1
        print(f"prometheus exposition OK: {len(series)} series parsed")
    return 0


def cmd_devices(args: argparse.Namespace) -> int:
    """Print the simulated device presets."""
    del args
    header = (
        f"{'device':<18}{'SMs':>5}{'TC TFLOPS':>11}{'DRAM GB/s':>11}"
        f"{'L2 MB':>7}{'smem/SM KB':>12}"
    )
    print(header)
    for spec in DEVICES.values():
        print(
            f"{spec.name:<18}{spec.num_sms:>5}"
            f"{spec.tensor_fp16_tflops:>11.0f}"
            f"{spec.dram_bandwidth_gbs:>11.0f}"
            f"{spec.l2_bytes / 1e6:>7.0f}"
            f"{spec.shared_mem_per_sm / 1024:>12.0f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ByteTransformer reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("experiments", help="list or run experiment harnesses")
    p.add_argument("names", nargs="*", help="experiment ids (empty = list)")
    p.add_argument("--list", action="store_true")
    p.add_argument(
        "--summary",
        action="store_true",
        help="one consolidated paper-vs-measured table",
    )
    p.add_argument("--fast", action="store_true", help="smaller sweeps")
    p.add_argument("--markdown", action="store_true")
    p.set_defaults(func=cmd_experiments)

    p = sub.add_parser("profile", help="profile one pipeline configuration")
    _add_shape_args(p)
    p.add_argument(
        "--preset", choices=sorted(PRESETS), default="fused MHA"
    )
    p.add_argument("--trace", help="write a chrome://tracing JSON here")
    p.add_argument(
        "--roofline",
        action="store_true",
        help="classify each kernel as compute/memory/launch bound",
    )
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("compare", help="compare all frameworks on a shape")
    _add_shape_args(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "bench",
        help="wall-clock benchmark: vectorized engine vs looped reference",
    )
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--max-seq-len", type=int, default=256)
    p.add_argument("--alpha", type=float, default=0.6)
    p.add_argument("--layers", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--preset", choices=sorted(PRESETS), default="fused MHA")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument(
        "--quick",
        action="store_true",
        help="tiny-shape smoke run (overrides batch/seq/layers/repeats)",
    )
    p.add_argument(
        "--out",
        default=None,
        help="also write the result JSON here (e.g. BENCH_wallclock.json)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="thread-pool fan-out width (1 = serial)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if any output/stream-identity invariant fails",
    )
    p.add_argument(
        "--devices",
        type=int,
        default=8,
        help="device count for the sharded-serving section "
        "(1 skips the section; --quick never overrides this)",
    )
    p.add_argument(
        "--shard",
        choices=SHARD_MODES,
        default="dp",
        help="sharding mode of the headline scaling leg: data parallel "
        "(hard-floored), tensor parallel, or both (tp groups of 2)",
    )
    p.add_argument(
        "--trace-out",
        default=None,
        help="write a Chrome trace of the continuous-serving steady run",
    )
    p.add_argument(
        "--metrics-out",
        default=None,
        help="write the steady run's span/metric JSONL dump here",
    )
    p.add_argument(
        "--baseline",
        nargs="?",
        const="benchmarks/history",
        default=None,
        metavar="DIR",
        help="gate this run against the bench history in DIR "
        "(default benchmarks/history) and append it as a new record; "
        "exits 1 on a hard (modelled-metric) regression",
    )
    p.add_argument(
        "--history-k",
        type=int,
        default=5,
        help="same-shape history records the baseline median uses",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "serve-chaos",
        help="chaos-replay a serving trace with injected kernel faults",
    )
    p.add_argument("--requests", type=int, default=200)
    p.add_argument("--max-seq-len", type=int, default=256)
    p.add_argument("--alpha", type=float, default=0.6)
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--device", choices=sorted(DEVICES), default=A100_SPEC.name
    )
    p.add_argument("--mean-interarrival-us", type=float, default=400.0)
    p.add_argument(
        "--deadline-us",
        type=float,
        default=0.0,
        help="per-request latency budget in us (0 = no deadlines)",
    )
    p.add_argument(
        "--fault-rate",
        type=float,
        default=0.1,
        help="transient fault probability per targeted launch "
        "(split evenly between launch failures and OOMs)",
    )
    p.add_argument("--slow-rate", type=float, default=0.05)
    p.add_argument("--slow-factor", type=float, default=4.0)
    p.add_argument(
        "--target",
        action="append",
        help="kernel-name prefix eligible for faults (repeatable; "
        "default: the fused attention kernels, so degradation can "
        "escape them; pass '' to make every kernel eligible)",
    )
    p.add_argument(
        "--batcher",
        choices=("timeout", "fifo", "bucket", "continuous"),
        default="timeout",
        help="batching policy; 'continuous' packs requests into "
        "token-budget megabatches quantized to graph-cached tiles",
    )
    p.add_argument(
        "--token-budget",
        type=int,
        default=2048,
        help="valid-token budget per continuous megabatch",
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke shape (caps requests/layers/seq-len)",
    )
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--timeout-us", type=float, default=2000.0)
    p.add_argument("--max-retries", type=int, default=3)
    p.add_argument(
        "--high-water-us",
        type=float,
        default=0.0,
        help="admission-control backlog high-water mark (0 = admit all)",
    )
    p.add_argument("--trip-threshold", type=int, default=3)
    p.add_argument("--ladder-window-us", type=float, default=50_000.0)
    p.add_argument("--ladder-cooldown-us", type=float, default=100_000.0)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel request-compute threads (1 = serial)",
    )
    p.add_argument(
        "--slo-target",
        type=float,
        default=0.99,
        help="success-rate SLO target for the error-budget summary",
    )
    p.add_argument(
        "--devices",
        type=int,
        default=1,
        help="spread the replay over this many simulated devices",
    )
    p.add_argument(
        "--shard",
        choices=SHARD_MODES,
        default="dp",
        help="how --devices shard: data parallel (Σlen²-routed "
        "replicas), tensor parallel (one group), or both (tp=2 groups)",
    )
    p.add_argument(
        "--trace-out",
        default=None,
        help="write the merged span + kernel Chrome trace here",
    )
    p.add_argument(
        "--metrics-out",
        default=None,
        help="write the span/metric JSONL dump here",
    )
    p.set_defaults(func=cmd_serve_chaos)

    p = sub.add_parser(
        "explain",
        help="attribute a serving replay's microseconds: per-request "
        "critical path, p99-vs-p50 tail forensics, knob sensitivity",
    )
    p.add_argument("--requests", type=int, default=48)
    p.add_argument("--max-seq-len", type=int, default=256)
    p.add_argument("--alpha", type=float, default=0.6)
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--device", choices=sorted(DEVICES), default=A100_SPEC.name
    )
    p.add_argument("--mean-interarrival-us", type=float, default=400.0)
    p.add_argument(
        "--deadline-us",
        type=float,
        default=0.0,
        help="per-request latency budget in us (0 = no deadlines)",
    )
    p.add_argument(
        "--fault-rate",
        type=float,
        default=0.1,
        help="transient fault probability per targeted launch, so the "
        "report has retry- and ladder-penalty edges to attribute",
    )
    p.add_argument(
        "--token-budget",
        type=int,
        default=2048,
        help="valid-token budget per continuous megabatch",
    )
    p.add_argument("--timeout-us", type=float, default=2000.0)
    p.add_argument("--max-retries", type=int, default=3)
    p.add_argument(
        "--devices",
        type=int,
        default=1,
        help="spread the replay over this many simulated devices",
    )
    p.add_argument(
        "--shard",
        choices=SHARD_MODES,
        default="dp",
        help="how --devices shard",
    )
    p.add_argument(
        "--top",
        type=int,
        default=5,
        help="slowest served requests to tabulate",
    )
    p.add_argument(
        "--knobs",
        action="store_true",
        help="also sweep the policy knobs and print the ranked "
        "sensitivity table",
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke shape (caps requests/layers/seq-len/budget)",
    )
    p.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the full attribution report as JSON here",
    )
    p.add_argument(
        "--trace-out",
        default=None,
        help="write the Chrome trace with the highlighted "
        "critical-path lane here",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless every request's critical path sum-checks "
        "against its served latency",
    )
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "loadtest",
        help="replay open-loop multi-tenant traffic through the "
        "admission gateway; per-tenant SLO report and CI gates",
    )
    p.add_argument(
        "--horizon-us",
        type=float,
        default=1_000_000.0,
        help="simulated traffic horizon in us",
    )
    p.add_argument("--max-seq-len", type=int, default=256)
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--heads", type=int, default=12)
    p.add_argument("--head-size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--device", choices=sorted(DEVICES), default=A100_SPEC.name
    )
    p.add_argument("--token-budget", type=int, default=1024)
    p.add_argument("--timeout-us", type=float, default=2000.0)
    p.add_argument(
        "--deadline-us",
        type=float,
        default=25_000.0,
        help="latency budget attached to every interactive request",
    )
    p.add_argument(
        "--slo-load",
        type=float,
        default=0.25,
        help="interactive steady offered load as a fraction of capacity",
    )
    p.add_argument(
        "--batch-load",
        type=float,
        default=0.55,
        help="analytics steady offered load as a fraction of capacity",
    )
    p.add_argument(
        "--batch-limit",
        type=float,
        default=0.4,
        help="analytics token-bucket sustained rate as a capacity fraction",
    )
    p.add_argument(
        "--slo-weight",
        type=float,
        default=3.0,
        help="interactive DRR weight (analytics is 1.0)",
    )
    p.add_argument(
        "--crowd-multiplier",
        type=float,
        default=3.0,
        help="flash-crowd arrival multiplier over the interactive "
        "steady rate (1.0 disables the crowd gate)",
    )
    p.add_argument(
        "--quantum", type=int, default=256, help="DRR quantum in tokens"
    )
    p.add_argument(
        "--service-tokens-per-s",
        type=float,
        default=0.0,
        help="override the virtual drain rate the scenario is sized "
        "against (0 = derive it from the cost model; --quick throttles "
        "it so the oracle-checked trace stays small)",
    )
    p.add_argument(
        "--slo-target",
        type=float,
        default=0.99,
        help="interactive availability target (error-budget burn)",
    )
    p.add_argument(
        "--attainment-target",
        type=float,
        default=0.99,
        help="interactive deadline-attainment floor --check enforces",
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="run the numeric plane and bitwise-compare every served "
        "output to its per-request forward (implied by --quick)",
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke shape: tiny model, short horizon, throttled "
        "capacity, oracle on",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if any gate fails: conservation, zero failures, "
        "SLO-tenant attainment, batch-first shedding, oracle equality",
    )
    p.add_argument(
        "--report-out",
        default=None,
        help="write the per-tenant SLO report JSON here (CI artifact)",
    )
    p.set_defaults(func=cmd_loadtest)

    p = sub.add_parser(
        "generate",
        help="serve autoregressive generation streams through the mixed "
        "prefill/decode runtime; per-token latency table and CI gates",
    )
    p.add_argument(
        "--requests",
        type=int,
        default=32,
        help="synthetic stream count (ignored with --prompt-file)",
    )
    p.add_argument(
        "--prompt-file",
        default=None,
        help="text file, one prompt per line; whitespace token count "
        "becomes the prompt length (replaces the synthetic trace)",
    )
    p.add_argument("--max-seq-len", type=int, default=256)
    p.add_argument(
        "--decode-tokens",
        type=int,
        default=32,
        help="tokens to generate per stream (the synthetic trace draws "
        "per-stream counts around this mean; --prompt-file uses it "
        "exactly); the context window may truncate a stream earlier",
    )
    p.add_argument("--alpha", type=float, default=0.6)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--device", choices=sorted(DEVICES), default=A100_SPEC.name
    )
    p.add_argument("--mean-interarrival-us", type=float, default=25.0)
    p.add_argument(
        "--deadline-us",
        type=float,
        default=0.0,
        help="per-request latency budget in us (0 = no deadlines)",
    )
    p.add_argument(
        "--token-budget",
        type=int,
        default=2048,
        help="valid-token budget per mixed prefill/decode round",
    )
    p.add_argument(
        "--decode-priority",
        type=float,
        default=0.75,
        help="fraction of the round budget reserved for in-flight "
        "decodes when prefills are waiting",
    )
    p.add_argument(
        "--kv-block",
        type=int,
        default=16,
        help="paged KV arena block size in tokens",
    )
    p.add_argument(
        "--kv-capacity-tokens",
        type=int,
        default=0,
        help="paged KV arena capacity in tokens (0 = size to the trace; "
        "smaller values force eviction/preemption under pressure)",
    )
    p.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="transient fault probability per targeted launch "
        "(split evenly between launch failures and OOMs)",
    )
    p.add_argument(
        "--target",
        action="append",
        help="kernel-name prefix eligible for faults (repeatable; "
        "default: the batched paged-decode attention kernel, so the "
        "looped decode rung genuinely escapes)",
    )
    p.add_argument("--max-retries", type=int, default=3)
    p.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke shape (caps streams/layers/seq-len/tokens)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if any gate fails: conservation, zero KV overflow "
        "allocs, bitwise equality of every served stream vs the "
        "per-request decode loop",
    )
    p.add_argument(
        "--out",
        default=None,
        help="write the generation report JSON here (CI artifact)",
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "metrics",
        help="replay a small serving trace and emit the metrics registry",
    )
    p.add_argument("--requests", type=int, default=64)
    p.add_argument("--max-seq-len", type=int, default=128)
    p.add_argument("--alpha", type=float, default=0.6)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--device", choices=sorted(DEVICES), default=A100_SPEC.name
    )
    p.add_argument(
        "--deadline-us",
        type=float,
        default=0.0,
        help="per-request latency budget in us (0 = no deadlines)",
    )
    p.add_argument(
        "--fault-rate",
        type=float,
        default=0.08,
        help="transient fault probability per targeted launch",
    )
    p.add_argument(
        "--batcher",
        choices=("timeout", "continuous"),
        default="continuous",
    )
    p.add_argument("--token-budget", type=int, default=1024)
    p.add_argument(
        "--format",
        choices=("prom", "json", "text"),
        default="prom",
        help="prom = Prometheus text exposition, json = exact snapshot, "
        "text = the SLO summary",
    )
    p.add_argument("--out", default=None, help="write the output here")
    p.add_argument(
        "--check",
        action="store_true",
        help="re-parse the Prometheus exposition; exit 1 if it is "
        "malformed or empty",
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke shape (caps requests/layers/seq-len)",
    )
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("devices", help="show device presets")
    p.set_defaults(func=cmd_devices)

    p = sub.add_parser(
        "selftest",
        help="numerically validate every pipeline against the oracle",
    )
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Invalid arguments — whether rejected by argparse or by a command's
    own validation — exit with code 2 and a one-line message rather than
    a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, GpuSimError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
