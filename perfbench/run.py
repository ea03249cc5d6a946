"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload encoder-offline --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` wraps each
layer's public calls in spans and prints the per-layer metrics plus the
tracing overhead.  The last line of standard output is the result as
one JSON object.  The exit code is non-zero when a correctness check
fails or the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

# string hashing is randomised per process, which moves the host time of
# the dict-heavy serving loop by up to a quarter between runs of one
# seed; a fixed hash seed takes that out.  It only applies at interpreter
# start, so the process replaces itself once.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import env  # noqa: E402  (pins BLAS threads before numpy loads)

BLAS_THREADS = env.pin_blas_threads()

WORKLOADS = ("encoder-offline", "tenant-serving", "decode-stream")


def load_workload(name: str, seed: int):
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no repro package under {src}")
    sys.path.insert(0, str(src))
    if name == "encoder-offline":
        from encoder_offline import EncoderOffline as cls
    elif name == "tenant-serving":
        from tenant_serving import TenantServing as cls
    else:
        from decode_stream import DecodeStream as cls
    return cls(seed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        workload = load_workload(args.workload, args.seed)
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    from common import Ledger, Metric, clock
    from layers import PER_LAYER, TARGETS, cache_metrics, span_metrics
    from spans import Recorder

    fingerprint = env.fingerprint(ROOT, args.seed, BLAS_THREADS)
    print("env " + json.dumps(fingerprint, sort_keys=True))
    ledger = Ledger()

    # the first build is the one measured; the others are only timed, and
    # dropped as soon as they are
    first, took = clock.time(workload.setup)
    setups = [took] + [clock.time(workload.setup)[1] for _ in range(workload.setup_reps - 1)]
    warm_s = workload.prepare(first, ledger)

    if args.trace:
        # the traced window and the untraced one it is compared with each
        # get the whole --seconds
        untraced = workload.measure(args.seconds, ledger)
        recorder = Recorder()
        before = workload.cache_counters()
        recorder.install(TARGETS)
        try:
            traced = workload.measure(args.seconds, ledger)
        finally:
            recorder.uninstall()
        after = workload.cache_counters()
        passes, tokens_per_pass = workload.passes, workload.tokens_per_pass
        # the modelled phase runs the correctness gates and produces the
        # reports the layer counts are read from
        workload.modelled(ledger)
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(workload.layer_counts())
        values.update(cache_metrics(before, after))
        values.update(span_metrics(recorder, passes, tokens_per_pass))
        primary = workload.primary_host_metric
        values["bench.trace_overhead_ratio"] = (
            untraced[primary].value / traced[primary].value - 1.0
        )
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
        for name, unit in PER_LAYER.items():
            print(f"  {name:<46} {values[name]:>16.6g} {unit}")
        out_dir = ROOT / ".perfbench"
        recorder.write(
            out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl",
            {"workload": args.workload, "env": fingerprint},
        )
    else:
        results = workload.measure(args.seconds, ledger)
        # peak memory of set-up and the timed window; the checks after
        # it allocate oracle buffers of their own
        results["peak_rss_mb"] = Metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1
        )
        build_s = statistics.median(setups)
        results["setup_s"] = Metric(
            build_s + warm_s, "s", len(setups),
            f"median of {len(setups)} builds {build_s:.4f} s + warm-up {warm_s:.4f} s,"
            f" {clock.note()}",
        )
        results.update(workload.modelled(ledger))
        results["served_ratio"] = workload.served_ratio(ledger)
        for name in sorted(results):
            m = results[name]
            print(
                f"  {name:<36} {m.value:>16.6g} {m.unit:<9} n={m.n}"
                + (f"  {m.note}" if m.note else "")
            )
        metrics = {
            name: {"value": float(m.value), "unit": m.unit}
            for name, m in sorted(results.items())
        }

    for failure in ledger.failures:
        print(f"check FAILED: {failure}", file=sys.stderr)
    correct = ledger.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
