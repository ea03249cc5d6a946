"""Schema, sanity and gates of the deterministic bench harness (quick shape)."""

from __future__ import annotations

import json

import pytest

from repro.bench.wallclock import (
    QUICK_OVERRIDES,
    check_invariants,
    format_summary,
    run_wallclock_bench,
    write_bench_json,
)


@pytest.fixture(scope="module")
def result():
    return run_wallclock_bench(**QUICK_OVERRIDES)


def test_required_schema_keys(result):
    for key in ("config", "modelled_us", "sections", "invariants", "notes"):
        assert key in result, key
    # the bench reads no host clock: no value anywhere is a wall time
    def keys(node):
        if isinstance(node, dict):
            for key, value in node.items():
                yield key
                yield from keys(value)
        elif isinstance(node, list):
            for value in node:
                yield from keys(value)

    assert not [k for k in keys(result) if "wall" in k]


def test_config_section(result):
    config = result["config"]
    for key in (
        "batch",
        "max_seq_len",
        "alpha",
        "layers",
        "preset",
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
    assert "repeats" not in config


def test_timings_positive(result):
    # every timing the bench reports is on the modelled clock
    sections = result["sections"]
    assert result["modelled_us"] > 0
    assert sections["graph_replay"]["modelled_us"] > 0
    assert sections["continuous_serving"]["continuous"]["us_per_token"] > 0
    assert sections["decode_serving"]["mixed"]["us_per_token"] > 0
    assert sections["sharded_serving"]["scaling"]["base_makespan_us"] > 0


def test_invariants_hold(result):
    inv = result["invariants"]
    assert inv["outputs_match_atol_1e-6"] is True
    assert inv["launch_streams_identical"] is True
    assert inv["max_abs_diff"] <= 1e-6
    assert inv["kernel_count"] > 0
    assert inv["modelled_us_looped"] == inv["modelled_us_vectorized"]


def test_graph_replay_section(result):
    graph = result["sections"]["graph_replay"]
    # the estimator prices the same launches the numeric forward records
    assert graph["modelled_us"] == pytest.approx(result["modelled_us"])
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
    assert loaded["modelled_us"] == result["modelled_us"]


def test_summary_renders(result):
    text = format_summary(result)
    assert text.startswith("bench:")
    assert "modelled clock" in text
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
    sections = result["sections"]
    assert sections["continuous_serving"]["floor"] == 1.0
    assert sections["decode_serving"]["floor"] == 1.5
    assert sections["sharded_serving"]["floor"] == 6.5
    for section in sections.values():
        assert "amdahl_capped" not in section
        assert "wall_clock_floor" not in section


def test_floor_breach_fails_only_on_modelled_clock_sections(result):
    # every floored section is a modelled-clock (deterministic) ratio,
    # so each floor is a hard --check gate
    floored = {
        name
        for name, section in result["sections"].items()
        if "floor" in section
    }
    assert floored == {
        "sharded_serving",
        "continuous_serving",
        "decode_serving",
    }
    broken = json.loads(json.dumps(result))  # deep copy
    broken["sections"]["continuous_serving"]["speedup_vs_reference"] = 0.5
    failures = check_invariants(broken)
    assert any("continuous_serving" in f and "floor" in f for f in failures)


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
    for key in ("executor", "workers", "tile", "segments", "total_tokens"):
        assert key in hp, key
    # a real fan-out at any --workers, so the equality gates compare
    # two different schedules
    assert hp["executor"] == "thread"
    assert hp["workers"] >= 2
    assert "floor" not in hp
    assert hp["outputs_bitwise_equal"] is True
    assert hp["launch_streams_identical"] is True
    assert hp["modelled_us_equal"] is True
    fg = hp["fast_gelu"]
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


def _leg_gates(section, legs):
    """Both per-leg gates (nothing served, bits differ) of each leg."""
    return [
        gate
        for leg in legs
        for gate in (
            (
                f"{section}-{leg}-served",
                ("sections", f"{section}_serving", "bitwise", leg, "served"),
                0,
                f"{section} bitwise leg {leg}: nothing served",
            ),
            (
                f"{section}-{leg}-bitwise",
                (
                    "sections",
                    f"{section}_serving",
                    "bitwise",
                    leg,
                    "outputs_bitwise_equal",
                ),
                False,
                f"{section} bitwise leg {leg}: served",
            ),
        )
    ]


#: every deterministic --check gate: (id, field path, planted value,
#: text the failure must contain)
GATES = [
    (
        "outputs_match",
        ("invariants", "outputs_match_atol_1e-6"),
        False,
        "engine outputs diverge",
    ),
    (
        "launch_streams_identical",
        ("invariants", "launch_streams_identical"),
        False,
        "looped vs vectorized launch streams differ",
    ),
    (
        "graph_modelled_us_equal",
        ("invariants", "graph_modelled_us_equal"),
        False,
        "graph replay changed modelled_us",
    ),
    (
        "graph_streams_identical",
        ("invariants", "graph_streams_identical"),
        False,
        "graph replay stream != eager stream",
    ),
    (
        "steady_outputs_bitwise_equal",
        ("invariants", "steady_outputs_bitwise_equal"),
        False,
        "arena+graph forward output != vectorized output",
    ),
    (
        "steady_modelled_us_equal",
        ("invariants", "steady_modelled_us_equal"),
        False,
        "arena+graph forward changed modelled_us",
    ),
    (
        "large_allocation_count",
        ("sections", "steady_state_alloc", "large_allocation_count"),
        3,
        "steady state performed 3 large allocations",
    ),
    (
        "peak_delta_bytes",
        ("sections", "steady_state_alloc", "peak_delta_bytes"),
        1 << 40,
        "steady-state traced peak grew",
    ),
    (
        "arena_overflow_allocs",
        ("sections", "steady_state_alloc", "arena_overflow_allocs"),
        3,
        "arena performed 3 overflow allocations",
    ),
    (
        "host_parallel-outputs_bitwise_equal",
        ("sections", "host_parallel", "outputs_bitwise_equal"),
        False,
        "thread executor output != serial output",
    ),
    (
        "host_parallel-launch_streams_identical",
        ("sections", "host_parallel", "launch_streams_identical"),
        False,
        "thread executor changed the launch stream",
    ),
    (
        "host_parallel-modelled_us_equal",
        ("sections", "host_parallel", "modelled_us_equal"),
        False,
        "thread executor changed modelled_us",
    ),
    (
        "fast_gelu-within_atol",
        ("sections", "host_parallel", "fast_gelu", "within_atol"),
        False,
        "fast-gelu max |diff|",
    ),
    (
        "fast_gelu-launch_streams_identical",
        (
            "sections",
            "host_parallel",
            "fast_gelu",
            "launch_streams_identical",
        ),
        False,
        "fast-gelu changed the launch stream",
    ),
    (
        "sharded-floor",
        ("sections", "sharded_serving", "speedup_vs_reference"),
        1.0,
        "section sharded_serving: speedup_vs_reference",
    ),
    (
        "sharded-point-floor",
        (
            "sections",
            "sharded_serving",
            "scaling",
            "points",
            -1,
            "speedup_vs_single_device",
        ),
        1.0,
        "sharded serving at 8 devices: modelled speedup",
    ),
    *_leg_gates(
        "sharded", ("dp_clean", "dp_compute_chaos", "tp_collective_chaos")
    ),
    (
        "sharded-collective_faults",
        (
            "sections",
            "sharded_serving",
            "bitwise",
            "tp_collective_chaos",
            "collective_faults_injected",
        ),
        0,
        "collective-targeted chaos injected no faults",
    ),
    (
        "continuous-floor",
        ("sections", "continuous_serving", "speedup_vs_reference"),
        0.5,
        "section continuous_serving: speedup_vs_reference",
    ),
    (
        "continuous-hit_rate",
        ("sections", "continuous_serving", "continuous", "steady_hit_rate"),
        0.1,
        "continuous serving steady-state graph hit rate",
    ),
    (
        "decode-floor",
        ("sections", "decode_serving", "speedup_vs_reference"),
        1.0,
        "section decode_serving: speedup_vs_reference",
    ),
    (
        "decode-hit_rate",
        ("sections", "decode_serving", "mixed", "steady_hit_rate"),
        0.1,
        "decode serving steady-state graph hit rate",
    ),
    (
        "decode-kv_overflow",
        ("sections", "decode_serving", "mixed", "kv", "overflow_allocs"),
        2,
        "paged KV arena performed 2 overflow allocations",
    ),
    *_leg_gates("decode", ("clean", "chaos_evict")),
    (
        "decode-evictions",
        (
            "sections",
            "decode_serving",
            "bitwise",
            "chaos_evict",
            "evictions",
        ),
        0,
        "decode chaos leg evicted nothing",
    ),
]


@pytest.mark.parametrize(
    "path,value,expected",
    [gate[1:] for gate in GATES],
    ids=[gate[0] for gate in GATES],
)
def test_planted_breakage_fails_check(result, path, value, expected):
    """Flip one gate's field in a copy of a clean result: ``--check``
    must fail with a message naming that gate."""
    assert check_invariants(result) == []
    broken = json.loads(json.dumps(result))  # deep copy
    node = broken
    for key in path[:-1]:
        node = node[key]
    assert node[path[-1]] != value, "the clean run already reads broken"
    node[path[-1]] = value
    failures = check_invariants(broken)
    assert any(expected in f for f in failures), failures
