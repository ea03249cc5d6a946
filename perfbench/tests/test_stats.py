"""Tests of the benchmark's own statistics and span code.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Recorder  # noqa: E402
from stats import (  # noqa: E402
    MIN_BEYOND,
    Span,
    covered,
    percentile,
    self_time_by_name,
    self_times,
    slo_capacity,
)


# -- percentiles and sample support -------------------------------------


def test_percentile_reports_sample_count_and_beyond():
    p = percentile(range(1, 1001), 99)
    assert p.n == 1000
    assert p.beyond == 10
    assert p.supported


def test_ten_beyond_rule_needs_about_a_thousand_samples_for_p99():
    assert not percentile(range(900), 99).supported
    assert percentile(range(1000), 99).supported
    assert percentile(range(1000), 99).beyond == MIN_BEYOND


def test_beyond_counts_strictly_greater_with_ties():
    p = percentile([5.0] * 50 + [9.0] * 5, 50)
    assert p.value == 5.0
    assert p.beyond == 5
    assert not p.supported


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# -- self time ------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("child", 1.0, 4.0, parent=0),
        Span("grandchild", 2.0, 3.0, parent=1),
        Span("child", 5.0, 6.0, parent=0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert self_time_by_name(spans) == {"root": 6.0, "child": 3.0, "grandchild": 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 5.0, parent=0),
        Span("b", 3.0, 7.0, parent=0),
    ]
    # the children cover [1, 7]: six units, not eight
    assert self_times(spans)[0] == 4.0


def test_self_time_clips_children_to_the_parent():
    spans = [Span("root", 0.0, 4.0), Span("late", 3.0, 9.0, parent=0)]
    assert self_times(spans)[0] == 3.0
    assert covered([(-5.0, 1.0), (2.0, 2.5)], 0.0, 4.0) == 1.5


def test_recorder_builds_parent_links_and_self_time():
    rec = Recorder()
    inner = rec.wrap(lambda: sum(range(1000)), "inner", None)
    outer = rec.wrap(lambda: [inner() for _ in range(3)], "outer", None)
    outer()
    spans = rec.spans
    assert [s.name for s in spans] == ["outer", "inner", "inner", "inner"]
    assert [s.parent for s in spans] == [-1, 0, 0, 0]
    own = self_times(spans)
    assert all(t >= 0 for t in own)
    assert math.isclose(
        own[0] + sum(own[1:]), spans[0].duration, rel_tol=1e-9, abs_tol=1e-12
    )


def test_recorder_folds_reentry_of_the_same_layer():
    rec = Recorder()
    calls = []

    def leaf():
        return 1

    wrapped_leaf = rec.wrap(leaf, "layer", lambda r, a, k, out: calls.append(out))
    wrapped_outer = rec.wrap(lambda: wrapped_leaf() + 1, "layer", None)
    assert wrapped_outer() == 2
    assert len(rec.spans) == 1
    assert calls == []  # the inner call is part of the outer span


def test_recorder_install_patches_every_binding_and_restores():
    import types

    mod = types.ModuleType("repro._perfbench_probe")
    user = types.ModuleType("repro._perfbench_user")

    def f(x):
        return x + 1

    mod.f = f
    user.f = f
    sys.modules[mod.__name__] = mod
    sys.modules[user.__name__] = user
    try:
        rec = Recorder()
        rec.install([(mod.__name__, "f", "probe", None)])
        assert user.f(1) == 2 and mod.f(2) == 3
        assert [s.name for s in rec.spans] == ["probe", "probe"]
        rec.uninstall()
        assert mod.f is f and user.f is f
    finally:
        del sys.modules[mod.__name__], sys.modules[user.__name__]


# -- capacity search --------------------------------------------------------


LADDER = (100.0, 200.0, 300.0, 400.0, 500.0)


def attainment_model(seed: int):
    """A seeded stand-in for a replay: attainment falls with load."""

    def meets(rate: float) -> bool:
        jitter = np.random.default_rng([seed, int(rate)]).uniform(-20.0, 20.0)
        return rate + jitter <= 330.0

    return meets


def test_capacity_is_the_top_of_the_unbroken_passing_run():
    verdicts = {100.0: True, 200.0: True, 300.0: False, 400.0: True, 500.0: True}
    result = slo_capacity(LADDER, verdicts.__getitem__)
    assert result.capacity == 200.0
    # the search stops at the first miss: a lucky rung above never counts
    assert result.rungs == ((100.0, True), (200.0, True), (300.0, False))


def test_capacity_none_when_lowest_rung_misses():
    assert slo_capacity(LADDER, lambda r: False).capacity is None
    assert slo_capacity(LADDER, lambda r: True).capacity == 500.0


@pytest.mark.parametrize("seed", range(5))
def test_capacity_is_deterministic_for_a_fixed_seed(seed):
    first = slo_capacity(LADDER, attainment_model(seed))
    second = slo_capacity(LADDER, attainment_model(seed))
    assert first == second


def test_capacity_is_monotone_in_the_service_limit():
    """Raising the load a system can carry never lowers its capacity."""
    previous = 0.0
    for limit in range(50, 600, 10):
        result = slo_capacity(LADDER, lambda r, lim=limit: r <= lim)
        capacity = result.capacity or 0.0
        assert capacity >= previous
        assert capacity <= limit
        previous = capacity


def test_capacity_ladder_must_increase():
    with pytest.raises(ValueError):
        slo_capacity((200.0, 100.0), lambda r: True)
    with pytest.raises(ValueError):
        slo_capacity((), lambda r: True)


def test_tenant_capacity_search_is_deterministic_for_a_fixed_seed(monkeypatch):
    """The real ladder search, on short rungs, twice with one seed."""
    src = Path(__file__).resolve().parents[2] / "src"
    monkeypatch.syspath_prepend(str(src))
    tenant_serving = pytest.importorskip("tenant_serving")
    from common import Ledger

    monkeypatch.setattr(tenant_serving, "LADDER_HORIZON_US", 100_000.0)
    results = []
    for _ in range(2):
        workload = tenant_serving.TenantServing(seed=3)
        workload.ledger = Ledger()
        workload.ladder_runtime = workload.build_runtime(fault_rate=0.0)
        results.append(
            slo_capacity(tenant_serving.LADDER, workload._ladder_meets)
        )
        assert workload.ledger.failed == 0
    assert results[0] == results[1]
    assert results[0].capacity is not None


def test_cache_hit_ratios_count_only_the_window():
    from layers import cache_metrics

    before = {"graph.captures": 12, "graph.replays": 30, "packing.hits": 5, "packing.misses": 12}
    after = {"graph.captures": 12, "graph.replays": 54, "packing.hits": 29, "packing.misses": 12}
    out = cache_metrics(before, after)
    assert out["gpusim.graph.hit_ratio"] == 1.0
    assert out["core.padding.cache_hit_ratio"] == 1.0
    # captures are a lifetime count: set-up's captures stay in
    assert out["gpusim.graph.captures"] == 12
    no_packing = {k: v for k, v in after.items() if k.startswith("graph.")}
    assert "core.padding.cache_hit_ratio" not in cache_metrics(before, no_packing)


def test_per_layer_metrics_match_the_benchmark_file():
    import json

    from layers import PER_LAYER

    bench = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
    )
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
