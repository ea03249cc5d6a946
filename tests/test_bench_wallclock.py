"""Schema and sanity of the wall-clock benchmark harness (quick shape)."""

from __future__ import annotations

import json

import pytest

from repro.bench.wallclock import (
    QUICK_OVERRIDES,
    check_invariants,
    check_warnings,
    format_summary,
    run_wallclock_bench,
    write_bench_json,
)


@pytest.fixture(scope="module")
def result():
    return run_wallclock_bench(**QUICK_OVERRIDES)


def test_required_schema_keys(result):
    for key in (
        "config",
        "wall_us",
        "modelled_us",
        "reference_wall_us",
        "speedup_vs_reference",
        "sections",
        "invariants",
        "notes",
    ):
        assert key in result, key


def test_config_section(result):
    config = result["config"]
    for key in (
        "batch",
        "max_seq_len",
        "alpha",
        "layers",
        "preset",
        "repeats",
        "seed",
        "hidden_size",
        "num_heads",
        "total_tokens",
    ):
        assert key in config, key
    assert config["batch"] == QUICK_OVERRIDES["batch"]
    assert config["max_seq_len"] == QUICK_OVERRIDES["max_seq_len"]
    assert config["layers"] == QUICK_OVERRIDES["layers"]
    assert config["cores"] >= 1


def test_timings_positive(result):
    assert result["wall_us"] > 0
    assert result["modelled_us"] > 0
    assert result["reference_wall_us"] > 0
    assert result["speedup_vs_reference"] > 0
    packing = result["sections"]["packing"]
    for key in (
        "reference_loop_us",
        "vectorized_build_us",
        "cache_hit_us",
        "speedup_vs_reference",
        "speedup_cache_hit",
    ):
        assert packing[key] > 0, key


def test_invariants_hold(result):
    inv = result["invariants"]
    assert inv["outputs_match_atol_1e-6"] is True
    assert inv["launch_streams_identical"] is True
    assert inv["max_abs_diff"] <= 1e-6
    assert inv["kernel_count"] > 0
    assert inv["modelled_us_looped"] == inv["modelled_us_vectorized"]


def test_attention_section_present_for_fused_preset(result):
    attention = result["sections"]["attention"]
    assert attention["wall_us"] > 0
    assert attention["reference_wall_us"] > 0


def test_graph_replay_section(result):
    graph = result["sections"]["graph_replay"]
    assert graph["eager_us"] > 0
    assert graph["capture_us"] > 0
    assert graph["replay_us"] > 0
    assert graph["speedup_vs_eager"] > 1.0  # replay must beat eager pricing
    steady = graph["steady_state_forward"]
    assert steady["wall_us"] > 0
    assert steady["outputs_bitwise_equal"] is True
    inv = result["invariants"]
    assert inv["graph_modelled_us_equal"] is True
    assert inv["graph_streams_identical"] is True
    assert inv["steady_outputs_bitwise_equal"] is True
    assert inv["steady_modelled_us_equal"] is True


def test_steady_state_alloc_section(result):
    alloc = result["sections"]["steady_state_alloc"]
    assert alloc["arena_engaged"] is True
    assert alloc["large_allocation_count"] == 0
    assert alloc["arena_footprint_bytes"] > 0
    assert 0 <= alloc["peak_delta_bytes"] < alloc["peak_budget_bytes"]


def test_cache_stats_reported(result):
    stats = {s["name"]: s for s in result["cache_stats"]}
    for name in ("packing", "estimator_graphs", "model_graphs"):
        assert name in stats, name
        assert stats[name]["misses"] >= 1
    # the bench exercises every cache's hit path
    assert stats["estimator_graphs"]["hits"] >= 1
    assert stats["model_graphs"]["hits"] >= 1


def test_check_invariants_passes_and_detects_breakage(result):
    assert check_invariants(result) == []
    broken = json.loads(json.dumps(result))  # deep copy
    broken["invariants"]["graph_streams_identical"] = False
    broken["sections"]["steady_state_alloc"]["large_allocation_count"] = 3
    failures = check_invariants(broken)
    assert any("stream" in f for f in failures)
    assert any("large allocations" in f for f in failures)


def test_json_round_trip(result, tmp_path):
    path = write_bench_json(result, tmp_path / "bench.json")
    loaded = json.loads(path.read_text())
    assert loaded["config"]["preset"] == result["config"]["preset"]
    assert loaded["wall_us"] == pytest.approx(result["wall_us"])


def test_summary_renders(result):
    text = format_summary(result)
    assert "wall-clock bench" in text
    assert "invariants" in text


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        run_wallclock_bench(preset="nope", **QUICK_OVERRIDES)


def test_continuous_serving_section(result):
    serving = result["sections"]["continuous_serving"]
    for key in (
        "trace",
        "token_budget",
        "baseline",
        "continuous",
        "speedup_vs_reference",
        "floor",
        "hit_rate_floor",
    ):
        assert key in serving, key
    for run in (serving["baseline"], serving["continuous"]):
        assert run["gpu_busy_us"] > 0
        assert run["served_tokens"] > 0
        assert run["us_per_token"] > 0
        assert 0.0 <= run["steady_hit_rate"] <= 1.0
    # acceptance gates: steady-state tile graphs replay, and merged
    # megabatches price no worse per token than bucketed dispatches
    assert serving["continuous"]["steady_hit_rate"] >= serving["hit_rate_floor"]
    assert serving["speedup_vs_reference"] >= serving["floor"]
    tile = serving["continuous"]["graph_kinds"].get("tile", {})
    assert tile.get("replays", 0) >= 1


def test_floor_fields_present(result):
    assert result["sections"]["forward"]["floor"] == 1.0
    assert result["sections"]["forward"]["amdahl_capped"] is True
    assert result["sections"]["attention"]["floor"] == 1.0
    assert result["sections"]["attention"]["wall_clock_floor"] is True
    assert result["sections"]["host_parallel"]["wall_clock_floor"] is True


def test_floor_breach_fails_only_on_modelled_clock_sections(result):
    # continuous_serving's speedup is a modelled-clock metric
    # (deterministic), so its floor is a hard --check gate
    broken = json.loads(json.dumps(result))  # deep copy
    broken["sections"]["continuous_serving"]["speedup_vs_reference"] = 0.5
    failures = check_invariants(broken)
    assert any("continuous_serving" in f and "floor" in f for f in failures)
    # forward is Amdahl-capped and attention is a noisy wall-clock
    # measurement: their breaches warn but never fail
    warned = json.loads(json.dumps(result))
    warned["sections"]["forward"]["speedup_vs_reference"] = 0.5
    warned["sections"]["attention"]["speedup_vs_reference"] = 0.5
    assert not any(
        "forward" in f or "attention" in f for f in check_invariants(warned)
    )
    warnings = check_warnings(warned)
    assert any("forward" in w and "Amdahl" in w for w in warnings)
    assert any("attention" in w and "wall-clock" in w for w in warnings)


def test_hit_rate_breach_fails(result):
    broken = json.loads(json.dumps(result))
    broken["sections"]["continuous_serving"]["continuous"][
        "steady_hit_rate"
    ] = 0.1
    failures = check_invariants(broken)
    assert any("hit rate" in f for f in failures)


def test_summary_mentions_serving(result):
    assert "serving" in format_summary(result)


def test_host_parallel_section(result):
    hp = result["sections"]["host_parallel"]
    for key in (
        "cores",
        "executor",
        "workers",
        "tile",
        "segments",
        "total_tokens",
        "wall_us",
        "reference_wall_us",
        "speedup_vs_reference",
        "floor",
        "amdahl_capped",
    ):
        assert key in hp, key
    assert hp["floor"] == 1.15
    # the deterministic gates hold regardless of host speed
    assert hp["outputs_bitwise_equal"] is True
    assert hp["launch_streams_identical"] is True
    assert hp["modelled_us_equal"] is True
    fg = hp["fast_gelu"]
    assert fg["wall_us"] > 0
    assert fg["atol"] > 0
    assert 0 < fg["max_abs_diff"] <= fg["atol"]
    assert fg["within_atol"] is True
    assert fg["launch_streams_identical"] is True


def test_host_parallel_deterministic_gates_always_fail_hard(result):
    broken = json.loads(json.dumps(result))  # deep copy
    hp = broken["sections"]["host_parallel"]
    hp["outputs_bitwise_equal"] = False
    hp["modelled_us_equal"] = False
    hp["fast_gelu"]["within_atol"] = False
    failures = check_invariants(broken)
    assert any("executor output != serial output" in f for f in failures)
    assert any("executor changed modelled_us" in f for f in failures)
    assert any("fast-gelu" in f and "atol" in f for f in failures)


def test_host_parallel_floor_warns_when_amdahl_capped(result):
    capped = json.loads(json.dumps(result))
    hp = capped["sections"]["host_parallel"]
    hp["speedup_vs_reference"] = 0.5
    hp["amdahl_capped"] = True
    assert not any(
        "host_parallel" in f for f in check_invariants(capped)
    )
    assert any(
        "host_parallel" in w for w in check_warnings(capped)
    )
    # on a real multi-core fan-out the speedup is still a host
    # wall-clock ratio: the same breach is reported, but never fails
    uncapped = json.loads(json.dumps(capped))
    uncapped["sections"]["host_parallel"]["amdahl_capped"] = False
    assert not any(
        "host_parallel" in f for f in check_invariants(uncapped)
    )
    assert any(
        "host_parallel" in w and "wall-clock" in w
        for w in check_warnings(uncapped)
    )


def test_arena_overflow_gate(result):
    assert (
        result["sections"]["steady_state_alloc"]["arena_overflow_allocs"]
        == 0
    )
    broken = json.loads(json.dumps(result))
    broken["sections"]["steady_state_alloc"]["arena_overflow_allocs"] = 3
    assert any("overflow" in f for f in check_invariants(broken))


def test_summary_mentions_host_parallel(result):
    assert "host-par" in format_summary(result)


def test_sharded_serving_section(result):
    sharded = result["sections"]["sharded_serving"]
    points = sharded["scaling"]["points"]
    assert [p["devices"] for p in points] == [2, 4, 8]
    for point in points:
        assert point["served"] == 384
        # dp floors are hard: the modelled clock is deterministic
        assert point["speedup_vs_single_device"] >= point["floor"]
    assert points[-1]["floor"] == 6.5  # the 8-device acceptance bar
    for name, leg in sharded["bitwise"].items():
        assert leg["served"] > 0, name
        assert leg["outputs_bitwise_equal"] is True, name
    chaos_leg = sharded["bitwise"]["tp_collective_chaos"]
    assert chaos_leg["collective_faults_injected"] >= 1
    rows = sharded["crossover"]["rows"]
    assert rows and all(0.0 < r["comm_fraction"] < 1.0 for r in rows)
    # at a fixed tile, more tensor-parallel ranks shift the balance
    # toward communication: more all-reduce hops, less compute per rank
    for tile in {r["tile"] for r in rows}:
        fracs = [r["comm_fraction"] for r in rows if r["tile"] == tile]
        assert fracs == sorted(fracs)


def test_sharded_floor_breach_fails_check(result):
    broken = json.loads(json.dumps(result))  # deep copy
    point = broken["sections"]["sharded_serving"]["scaling"]["points"][-1]
    point["speedup_vs_single_device"] = 1.0
    failures = check_invariants(broken)
    assert any("sharded serving" in f and "floor" in f for f in failures)
    missed = json.loads(json.dumps(result))
    missed["sections"]["sharded_serving"]["bitwise"]["tp_collective_chaos"][
        "collective_faults_injected"
    ] = 0
    assert any(
        "collective" in f for f in check_invariants(missed)
    )
