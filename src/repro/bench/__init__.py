"""The deterministic bench gates behind ``repro bench`` (modelled clock only)."""

from repro.bench.wallclock import (
    QUICK_OVERRIDES,
    run_wallclock_bench,
    write_bench_json,
)

__all__ = ["QUICK_OVERRIDES", "run_wallclock_bench", "write_bench_json"]
