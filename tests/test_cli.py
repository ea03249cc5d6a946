"""CLI entry points (run in-process via repro.cli.main)."""

import json

import pytest

from repro.cli import main


class TestDevices:
    def test_lists_presets(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "A100" in out and "V100" in out and "A10" in out


class TestExperiments:
    def test_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig14" in out and "table2" in out

    def test_empty_names_lists(self, capsys):
        assert main(["experiments"]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_rejected(self, capsys):
        assert main(["experiments", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_runs_table2(self, capsys):
        assert main(["experiments", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out


class TestProfile:
    def test_profiles_and_traces(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        rc = main(
            [
                "profile",
                "--batch",
                "4",
                "--max-seq-len",
                "128",
                "--layers",
                "2",
                "--trace",
                str(trace),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "kernels" in out and "breakdown" in out
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e.get("ph") == "X" for e in events)

    def test_preset_selectable(self, capsys):
        rc = main(
            [
                "profile",
                "--preset",
                "baseline",
                "--batch",
                "2",
                "--max-seq-len",
                "64",
                "--layers",
                "1",
            ]
        )
        assert rc == 0
        assert "'baseline'" in capsys.readouterr().out

    def test_device_selectable(self, capsys):
        rc = main(
            [
                "profile",
                "--device",
                "V100-SXM2-32GB",
                "--batch",
                "2",
                "--max-seq-len",
                "64",
                "--layers",
                "1",
            ]
        )
        assert rc == 0
        assert "V100" in capsys.readouterr().out


class TestCompare:
    def test_compare_table(self, capsys):
        rc = main(
            [
                "compare",
                "--batch",
                "4",
                "--max-seq-len",
                "128",
                "--layers",
                "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ByteTransformer" in out
        assert "(1.00x)" in out  # someone is fastest

    def test_unsupported_shape_marked(self, capsys):
        rc = main(
            [
                "compare",
                "--batch",
                "2",
                "--max-seq-len",
                "1024",
                "--layers",
                "1",
            ]
        )
        assert rc == 0
        assert "unsupported shape" in capsys.readouterr().out

    def test_bad_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "selftest passed" in out
        assert "fused MHA" in out
        assert "B3 S512:" in out  # the grouped long kernel's batch


class TestServeChaos:
    def _args(self, *extra):
        return [
            "serve-chaos",
            "--requests", "30",
            "--max-seq-len", "128",
            "--layers", "2",
            *extra,
        ]

    def test_clean_replay(self, capsys):
        assert main(self._args("--fault-rate", "0", "--slow-rate", "0")) == 0
        out = capsys.readouterr().out
        assert "serving report: 30 requests" in out
        assert "injected faults: none" in out

    def test_sharded_replay_prints_per_device_accounting(self, capsys):
        rc = main(
            self._args(
                "--devices", "4", "--shard", "dp",
                "--batcher", "continuous",
            )
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 devices (dp)" in out
        assert "imbalance" in out and "steals" in out

    def test_indivisible_shard_group_rejected(self, capsys):
        # 'both' uses tp groups of 2, which cannot tile 3 devices
        assert main(self._args("--devices", "3", "--shard", "both")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_chaos_replay_reports_faults_and_transitions(self, capsys):
        rc = main(
            self._args(
                "--fault-rate", "0.1",
                "--slow-rate", "0.05",
                "--requests", "80",
                "--trip-threshold", "2",
            )
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "injected faults:" in out
        assert "none" not in out.split("injected faults:")[1].splitlines()[0]

    def test_deadlines_and_admission(self, capsys):
        rc = main(
            self._args(
                "--mean-interarrival-us", "15",
                "--deadline-us", "1200",
                "--high-water-us", "1200",
            )
        )
        assert rc == 0
        assert "shed=" in capsys.readouterr().out

    def test_slo_summary_always_printed(self, capsys):
        assert main(self._args("--fault-rate", "0", "--slow-rate", "0")) == 0
        out = capsys.readouterr().out
        assert "== SLO ==" in out
        assert "availability:" in out
        assert "error budget:" in out

    def test_telemetry_exports(self, capsys, tmp_path):
        trace = tmp_path / "chaos-trace.json"
        metrics = tmp_path / "chaos-metrics.jsonl"
        rc = main(
            self._args(
                "--batcher", "continuous",
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
            )
        )
        assert rc == 0
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e.get("name") == "dispatch.megabatch" for e in events)
        records = [
            json.loads(line) for line in metrics.read_text().splitlines()
        ]
        kinds = {r["kind"] for r in records}
        assert kinds == {"span", "metric"}


class TestLoadtest:
    def test_quick_check_passes_and_writes_report(self, capsys, tmp_path):
        report = tmp_path / "slo-report.json"
        rc = main(
            [
                "loadtest",
                "--quick",
                "--check",
                "--report-out", str(report),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "all loadtest gates hold" in out
        assert "interactive" in out and "analytics" in out
        payload = json.loads(report.read_text())
        assert payload["gate_failures"] == []
        assert payload["oracle_checked"] > 0
        assert set(payload["tenants"]) == {"interactive", "analytics"}

    def test_quick_run_is_seed_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["loadtest", "--quick", "--report-out", str(a)]) == 0
        assert main(["loadtest", "--quick", "--report-out", str(b)]) == 0
        capsys.readouterr()
        assert json.loads(a.read_text()) == json.loads(b.read_text())

    def test_invalid_load_rejected(self, capsys):
        assert main(["loadtest", "--slo-load", "1.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestGenerate:
    def test_tight_arena_evicts_resumes_and_passes_check(
        self, capsys, tmp_path
    ):
        report = tmp_path / "generate-report.json"
        rc = main(
            [
                "generate",
                "--quick",
                "--check",
                "--fault-rate", "0.2",
                "--kv-capacity-tokens", "128",
                "--out", str(report),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "all generate gates hold" in out
        payload = json.loads(report.read_text())
        assert payload["gate_failures"] == []
        assert payload["oracle_checked"] > 0
        kv = payload["kv_stats"]
        assert kv["evictions"] > 0 and kv["swap_ins"] > 0
        assert kv["overflow_allocs"] == 0


class TestExplain:
    def _args(self, *extra):
        return ["explain", "--quick", "--seed", "7", *extra]

    def test_quick_check_holds(self, capsys):
        rc = main(self._args("--check"))
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "critical path" in out
        assert "kernel profile" in out
        assert "all explain checks hold" in out

    def test_knobs_and_json_export(self, capsys, tmp_path):
        report = tmp_path / "explain.json"
        rc = main(self._args("--knobs", "--json", str(report)))
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "knob sensitivity" in out
        assert "most sensitive:" in out
        payload = json.loads(report.read_text())
        assert payload["critical_path"]["requests"]
        assert [k["knob"] for k in payload["knobs"]]

    def test_trace_out_carries_critical_lane(self, capsys, tmp_path):
        trace = tmp_path / "explain-trace.json"
        rc = main(self._args("--trace-out", str(trace)))
        capsys.readouterr()
        assert rc == 0
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e.get("cat") == "critical-path" for e in events)

    def test_zero_requests_rejected(self, capsys):
        assert main(["explain", "--requests", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestBenchBaseline:
    def _run(self, history):
        return ["bench", "--quick", "--baseline", str(history)]

    def test_baseline_lifecycle_and_injected_regression(
        self, capsys, tmp_path
    ):
        history = tmp_path / "history"
        # run 1: no history yet -> record appended, vacuous pass
        rc = main(self._run(history))
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "bench history record appended" in out
        assert "baseline gate: PASS" in out
        records = sorted(history.glob("record-*.json"))
        assert [p.name for p in records] == ["record-0000.json"]

        # run 2: same seed, same shape -> gated against run 1, passes
        rc = main(self._run(history))
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "baseline gate: PASS" in out
        assert len(sorted(history.glob("record-*.json"))) == 2

        # inject a synthetic regression: rewrite history so every prior
        # run looks 2x faster than reality on a hard metric
        for path in history.glob("record-*.json"):
            rec = json.loads(path.read_text())
            rec["metrics"]["modelled_us"] *= 0.5
            path.write_text(json.dumps(rec))
        rc = main(self._run(history))
        out = capsys.readouterr().out
        assert rc == 1, out
        assert "baseline gate: FAIL" in out
        assert "FAIL modelled_us" in out
        # the regressed run is still recorded as a data point
        assert len(sorted(history.glob("record-*.json"))) == 3

    def test_invalid_history_k_rejected(self, capsys, tmp_path):
        rc = main(
            self._run(tmp_path / "h") + ["--history-k", "0"]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


class TestMetrics:
    def test_prometheus_exposition_checked(self, capsys):
        assert main(["metrics", "--quick", "--check"]) == 0
        out = capsys.readouterr().out
        assert "serving_requests_total" in out
        assert "prometheus exposition OK" in out

    def test_json_format(self, capsys):
        assert main(["metrics", "--quick", "--format", "json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        names = {e["name"] for e in entries}
        assert "serving_requests_total" in names

    def test_text_format_is_slo_summary(self, capsys):
        assert main(["metrics", "--quick", "--format", "text"]) == 0
        assert "== SLO ==" in capsys.readouterr().out

    def test_out_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "m.prom"
        assert main(
            ["metrics", "--quick", "--out", str(out_path)]
        ) == 0
        from repro.telemetry import parse_prometheus

        series = parse_prometheus(out_path.read_text())
        assert any(k.startswith("serving_requests_total") for k in series)


class TestErrorContract:
    """Invalid arguments exit with code 2 and a one-line message — never
    a raw traceback."""

    def test_command_level_error_is_one_line(self, capsys):
        rc = main(
            [
                "serve-chaos",
                "--requests", "10",
                "--fault-rate", "1.5",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_zero_requests_rejected(self, capsys):
        assert main(["serve-chaos", "--requests", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_bad_device_rejected(self, capsys):
        # argparse choice errors keep the same exit-2 contract
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--device", "TPU-v9"])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_argparse_errors_also_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve-chaos", "--requests", "not-a-number"])
        assert exc.value.code == 2


class TestSummary:
    def test_summary_fast(self, capsys):
        assert main(["experiments", "--summary", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "paper vs measured" in out
        assert "Fig 14" in out

    def test_summary_markdown(self, capsys):
        assert main(["experiments", "--summary", "--fast", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| claim | paper | ours |")
