"""Append-only bench history and the baseline gate.

``BENCH_wallclock.json`` is a single overwritten snapshot; this module
gives it a trajectory.  Every gated bench run appends a small record to
``benchmarks/history/`` — environment fingerprint, workload shape, the
per-section metrics worth trending, the git sha — and
:func:`baseline_gate` compares a fresh result against the median of the
last *k* same-shape records with a MAD band around it.

Every trended metric is on the modelled clock (modelled µs, modelled
speedups, graph hit rates): deterministic for a given seed and shape,
so a move outside the band is a code change and fails the gate.  No
host wall time is recorded or gated here; perfbench measures the host
clock, keyed by its own host fingerprint.  Records written before the
bench stopped timing the host still carry wall-clock metrics
(``wall_us``, ``sections/forward/...``); the gate reads only the paths
in :data:`TRENDED_METRICS`, so they load and gate on the modelled
metrics alone.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Sequence

#: bump when the record layout changes; the gate only compares records
#: of the same schema
SCHEMA_VERSION = 1

#: config keys that define a comparable workload shape — records are
#: only gated against history with an identical shape fingerprint, so a
#: ``--quick`` run is never judged against full-shape medians
SHAPE_KEYS = (
    "batch",
    "max_seq_len",
    "alpha",
    "layers",
    "preset",
    "serve_requests",
    "devices",
    "shard",
)

#: consistent with a 3-sigma normal band: MAD * 1.4826 estimates sigma
_MAD_SIGMA = 3.0 * 1.4826
#: minimum relative band, so a near-zero MAD (deterministic history)
#: does not flag float-level jitter
_REL_FLOOR = 0.005


@dataclass(frozen=True)
class MetricSpec:
    """One trended metric: where it lives and which way is worse."""

    path: str
    #: "lower" or "higher" — which direction is *better*
    better: str


#: modelled (deterministic) metrics — a regression fails the gate
TRENDED_METRICS: tuple[MetricSpec, ...] = (
    MetricSpec("modelled_us", "lower"),
    MetricSpec("sections/graph_replay/modelled_us", "lower"),
    MetricSpec("sections/continuous_serving/speedup_vs_reference", "higher"),
    MetricSpec("sections/continuous_serving/continuous/us_per_token", "lower"),
    MetricSpec(
        "sections/continuous_serving/continuous/steady_hit_rate", "higher"
    ),
    MetricSpec("sections/sharded_serving/speedup_vs_reference", "higher"),
    MetricSpec("sections/sharded_serving/scaling/base_makespan_us", "lower"),
    MetricSpec("sections/decode_serving/speedup_vs_reference", "higher"),
    MetricSpec("sections/decode_serving/mixed/us_per_token", "lower"),
)


def _lookup(result: dict, path: str):
    node = result
    for part in path.split("/"):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node if isinstance(node, (int, float)) else None


def record_from_result(
    result: dict,
    *,
    git_sha: str = "",
    recorded_unix: float | None = None,
) -> dict:
    """Distil one ``run_wallclock_bench`` result into a history record.

    Metrics a result does not carry (e.g. ``decode_serving`` before the
    decode bench ran in CI) are simply absent from the record; the gate
    skips them.  ``env.cores`` names the host core count of the run
    (``None`` for a result that did not record it); the gate matches on
    shape, never on env, so records from before the field existed still
    gate.
    """
    config = result.get("config", {})
    metrics = {}
    for spec in TRENDED_METRICS:
        value = _lookup(result, spec.path)
        if value is not None:
            metrics[spec.path] = float(value)
    return {
        "schema": SCHEMA_VERSION,
        "git_sha": git_sha,
        "recorded_unix": (
            recorded_unix if recorded_unix is not None else time.time()
        ),
        "env": {
            "host": config.get("host", ""),
            "cores": config.get("cores"),
            "python": config.get("python", ""),
            "numpy": config.get("numpy", ""),
        },
        "shape": {key: config.get(key) for key in SHAPE_KEYS},
        "metrics": metrics,
    }


def load_history(directory: str | Path) -> list[dict]:
    """Load every ``record-*.json`` in ``directory``, oldest first."""
    root = Path(directory)
    if not root.is_dir():
        return []
    records = []
    for path in sorted(root.glob("record-*.json")):
        with path.open() as handle:
            record = json.load(handle)
        if not isinstance(record, dict):
            raise ValueError(f"{path} is not a history record object")
        records.append(record)
    return records


def append_record(directory: str | Path, record: dict) -> Path:
    """Write ``record`` as the next ``record-NNNN.json`` (append-only)."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    taken = [
        int(p.stem.split("-", 1)[1])
        for p in root.glob("record-*.json")
        if p.stem.split("-", 1)[1].isdigit()
    ]
    index = max(taken) + 1 if taken else 0
    path = root / f"record-{index:04d}.json"
    with path.open("x") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


@dataclass(frozen=True)
class MetricVerdict:
    """One metric's comparison against the same-shape history band."""

    path: str
    current: float
    baseline_median: float
    band: float
    samples: int
    #: "ok", or "fail" for a regression outside the band
    status: str

    @property
    def regressed(self) -> bool:
        return self.status != "ok"


@dataclass(frozen=True)
class GateReport:
    """Outcome of gating one bench result against its history."""

    history_dir: str
    baseline_count: int
    verdicts: tuple[MetricVerdict, ...] = ()
    #: set when no same-shape history exists — the gate passes vacuously
    note: str = ""

    @property
    def failures(self) -> tuple[MetricVerdict, ...]:
        return tuple(v for v in self.verdicts if v.status == "fail")

    @property
    def passed(self) -> bool:
        return not self.failures

    def render_text(self) -> str:
        lines = [
            f"== bench baseline gate ({self.history_dir}, "
            f"{self.baseline_count} same-shape record"
            f"{'s' if self.baseline_count != 1 else ''}) =="
        ]
        if self.note:
            lines.append(f"  {self.note}")
        for v in self.verdicts:
            marker = {"ok": "ok  ", "fail": "FAIL"}[v.status]
            lines.append(
                f"  {marker} {v.path}: {v.current:.4g} vs median "
                f"{v.baseline_median:.4g} +- {v.band:.4g} "
                f"({v.samples} samples)"
            )
        lines.append(
            f"baseline gate: "
            f"{'PASS' if self.passed else 'FAIL'} "
            f"({len(self.failures)} regressions)"
        )
        return "\n".join(lines)


def _shape_fingerprint(record: dict) -> tuple:
    shape = record.get("shape", {})
    return tuple((key, shape.get(key)) for key in SHAPE_KEYS)


def baseline_gate(
    record: dict,
    history: Sequence[dict],
    *,
    k: int = 5,
    history_dir: str = "",
) -> GateReport:
    """Gate ``record`` against the last ``k`` same-shape history records.

    Per metric: baseline is the median of the historical values, the
    acceptance band is ``max(3 * 1.4826 * MAD, rel_floor * |median|)``
    (noise-aware but floored, so a perfectly deterministic history does
    not flag float jitter), and only moves in the metric's *worse*
    direction regress; any regression fails.  Metrics outside
    :data:`TRENDED_METRICS` (a legacy record's wall-clock values) are
    ignored.  With no same-shape history the gate passes vacuously.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    fingerprint = _shape_fingerprint(record)
    matching = [
        r
        for r in history
        if r.get("schema") == record.get("schema")
        and _shape_fingerprint(r) == fingerprint
    ][-k:]
    if not matching:
        return GateReport(
            history_dir=history_dir,
            baseline_count=0,
            note="no same-shape history; gate passes vacuously",
        )
    current_metrics = record.get("metrics", {})
    verdicts = []
    for spec in TRENDED_METRICS:
        current = current_metrics.get(spec.path)
        values = [
            r["metrics"][spec.path]
            for r in matching
            if spec.path in r.get("metrics", {})
        ]
        if current is None or not values:
            continue
        m = median(values)
        mad = median(abs(v - m) for v in values)
        band = max(_MAD_SIGMA * mad, _REL_FLOOR * abs(m))
        if spec.better == "lower":
            regressed = current > m + band
        else:
            regressed = current < m - band
        verdicts.append(
            MetricVerdict(
                path=spec.path,
                current=float(current),
                baseline_median=float(m),
                band=float(band),
                samples=len(values),
                status="fail" if regressed else "ok",
            )
        )
    return GateReport(
        history_dir=history_dir,
        baseline_count=len(matching),
        verdicts=tuple(verdicts),
    )
