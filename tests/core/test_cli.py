"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.seed == 7
        assert args.until is None
        assert not args.report

    def test_run_until_parses_date(self):
        args = build_parser().parse_args(["run", "--until", "2010-03-01"])
        assert args.until.month == 3

    def test_bad_date_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--until", "March 1st"])

    def test_sites_intake_limit(self):
        args = build_parser().parse_args(["sites", "--intake-limit", "30"])
        assert args.intake_limit == 30.0

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.seeds == [7, 11, 13, 17]
        assert args.jobs == 1
        assert args.scenario == "paper"
        assert not args.no_cache

    def test_sweep_seed_list_parses(self):
        args = build_parser().parse_args(["sweep", "--seeds", "3,5,9", "--jobs", "4"])
        assert args.seeds == [3, 5, 9]
        assert args.jobs == 4

    def test_sweep_zero_jobs_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--jobs", "0"])

    def test_sweep_bad_seed_list_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--seeds", "seven"])

    def test_sweep_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--scenario", "lunar"])

    def test_run_telemetry_flags_default_off(self):
        args = build_parser().parse_args(["run"])
        assert args.telemetry_out is None
        assert args.run_log is None

    def test_run_telemetry_out_parses(self):
        args = build_parser().parse_args(["run", "--telemetry-out", "t.json"])
        assert args.telemetry_out == "t.json"

    def test_telemetry_defaults(self):
        args = build_parser().parse_args(["telemetry"])
        assert args.seed == 7
        assert args.top == 10
        assert not args.prometheus

    def test_sweep_telemetry_flag(self):
        args = build_parser().parse_args(["sweep", "--telemetry"])
        assert args.telemetry

    def test_sweep_fault_tolerance_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.retries == 0
        assert args.timeout is None
        assert not args.keep_going

    def test_sweep_fault_tolerance_flags_parse(self):
        args = build_parser().parse_args(
            ["sweep", "--retries", "2", "--timeout", "1.5", "--keep-going"]
        )
        assert args.retries == 2
        assert args.timeout == 1.5
        assert args.keep_going

    def test_sweep_negative_retries_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--retries", "-1"])

    def test_sweep_non_positive_timeout_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--timeout", "0"])

    def test_atlas_defaults(self):
        args = build_parser().parse_args(["atlas"])
        assert args.sites == 100
        assert args.seed == 7
        assert args.jobs == 1
        assert args.intake_limit == 27.0
        assert args.top is None
        assert args.cache_dir is None
        assert not args.resumable
        assert not args.keep_going

    def test_atlas_flags_parse(self):
        args = build_parser().parse_args(
            ["atlas", "--sites", "200", "--seed", "3", "--jobs", "4",
             "--resumable", "--top", "10"]
        )
        assert args.sites == 200
        assert args.seed == 3
        assert args.jobs == 4
        assert args.resumable
        assert args.top == 10

    def test_atlas_zero_sites_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["atlas", "--sites", "0"])

    def test_run_degraded_flags_default_off(self):
        args = build_parser().parse_args(["run"])
        assert args.link_faults is None
        assert args.confirm_rounds == 1
        assert args.monitor_retries == 0

    def test_run_link_faults_parses_to_plan(self):
        from repro.monitoring.transport import LinkFaultAction, LinkFaultPlan

        args = build_parser().parse_args(
            ["run", "--link-faults", "storm:0.25:seed=3,5:12:partial:fraction=0.3"]
        )
        assert isinstance(args.link_faults, LinkFaultPlan)
        assert args.link_faults.storm.probability == 0.25
        (fault,) = args.link_faults.faults
        assert fault.action is LinkFaultAction.PARTIAL_TRANSFER

    def test_run_bad_link_faults_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--link-faults", "bogus"])

    def test_run_confirm_rounds_parses(self):
        args = build_parser().parse_args(["run", "--confirm-rounds", "3"])
        assert args.confirm_rounds == 3

    def test_run_zero_confirm_rounds_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--confirm-rounds", "0"])

    def test_run_monitor_retries_parses(self):
        args = build_parser().parse_args(["run", "--monitor-retries", "2"])
        assert args.monitor_retries == 2

    def test_run_negative_monitor_retries_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--monitor-retries", "-1"])


class TestCommands:
    def test_pue_prints_the_paper_number(self, capsys):
        assert main(["pue"]) == 0
        out = capsys.readouterr().out
        assert "1.74" in out

    def test_sites_ranks_helsinki_over_singapore(self, capsys):
        assert main(["sites"]) == 0
        out = capsys.readouterr().out
        assert out.index("helsinki") < out.index("singapore")

    def test_run_truncated_prints_summary(self, capsys):
        assert main(["run", "--until", "2010-02-22", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Prototype" in out
        assert "Workload" in out

    def test_run_report_mode(self, capsys):
        assert main(["run", "--until", "2010-02-22", "--report"]) == 0
        out = capsys.readouterr().out
        assert "PUE of the new cluster" in out

    def test_run_degraded_prints_summary_line(self, capsys):
        assert main([
            "run", "--until", "2010-02-22",
            "--link-faults", "storm:0.5:seed=3",
            "--monitor-retries", "2", "--confirm-rounds", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "degraded-mode:" in out
        assert "ssh timeouts" in out

    def test_run_without_degraded_flags_stays_silent(self, capsys):
        assert main(["run", "--until", "2010-02-22"]) == 0
        assert "degraded-mode:" not in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_runs_and_reports_cache(self, tmp_path, capsys):
        argv = [
            "sweep", "--seeds", "7,11", "--jobs", "2",
            "--until", "2010-02-21", "--cache-dir", str(tmp_path / "runs"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "pooled failure rate" in out
        assert "0 from cache, 2 computed" in out
        # The repeat invocation is served from the record cache.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 from cache, 0 computed" in out

    def test_sweep_no_cache(self, capsys):
        argv = ["sweep", "--seeds", "7", "--until", "2010-02-21", "--no-cache"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 from cache, 1 computed" in out

    def test_sweep_with_retries_reports_fault_note(self, capsys):
        argv = [
            "sweep", "--seeds", "7", "--until", "2010-02-21", "--no-cache",
            "--retries", "1", "--keep-going",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        # fault-free run: no retries happened, so no fault note is shown
        assert "retried" not in out
        assert "failures" not in out


class TestAtlasCommand:
    def test_atlas_prints_ranked_table(self, tmp_path, capsys):
        argv = [
            "atlas", "--sites", "4", "--seed", "7",
            "--cache-dir", str(tmp_path / "atlas"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Free-cooling atlas: 4 sites, seed 7" in out
        assert "USD/yr saved" in out
        assert "site-0000" in out
        assert "0 from cache, 4 computed" in out
        # Rerun: served from cache, table identical.
        assert main(argv) == 0
        again = capsys.readouterr().out
        assert "4 from cache, 0 computed" in again
        assert again.split("(jobs")[0].rsplit("4 site(s)")[0] == (
            out.split("(jobs")[0].rsplit("4 site(s)")[0]
        )

    def test_atlas_top_truncates(self, capsys):
        assert main(["atlas", "--sites", "5", "--seed", "7", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "3 more site(s) not shown" in out

    def test_atlas_progress_out_writes_events(self, tmp_path, capsys):
        import json

        path = tmp_path / "p.jsonl"
        argv = [
            "atlas", "--sites", "3", "--seed", "7",
            "--progress-out", str(path),
        ]
        assert main(argv) == 0
        assert "progress ->" in capsys.readouterr().out
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["kind"] for l in lines] == ["completed"] * 3
        assert lines[-1]["done"] == 3


class TestTelemetryCommands:
    def test_run_with_telemetry_out_and_run_log(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "t.json"
        log_path = tmp_path / "run.jsonl"
        argv = [
            "run", "--until", "2010-02-22",
            "--telemetry-out", str(out_path), "--run-log", str(log_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "telemetry ->" in out
        data = json.loads(out_path.read_text())
        engine_spans = {
            label: stats
            for label, stats in data["spans"].items()
            if label.startswith("engine.")
        }
        assert engine_spans
        assert all(stats["count"] > 0 for stats in engine_spans.values())
        lines = log_path.read_text().splitlines()
        assert lines and all(json.loads(line)["sim_time_s"] >= 0 for line in lines)

    def test_telemetry_verb_prints_report(self, capsys):
        assert main(["telemetry", "--until", "2010-02-22", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Hot labels" in out
        assert "Slowest spans" in out
        assert "engine." in out

    def test_telemetry_verb_prometheus(self, capsys):
        assert main(["telemetry", "--until", "2010-02-22", "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "repro_span_fired_total" in out
        assert "# TYPE repro_monitoring_rounds_total counter" in out

    def test_sweep_telemetry_prints_merged_tallies(self, capsys):
        argv = [
            "sweep", "--seeds", "7", "--until", "2010-02-21",
            "--no-cache", "--telemetry",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Merged telemetry" in out
        assert "engine." in out


class TestExportCommand:
    def test_export_writes_flat_files(self, tmp_path, capsys):
        assert main(["export", str(tmp_path / "dump"), "--until", "2010-02-22"]) == 0
        out = capsys.readouterr().out
        assert "meta.json" in out
        assert (tmp_path / "dump" / "outside_temperature.csv").exists()
        assert (tmp_path / "dump" / "faults.tsv").exists()


class TestObservabilityFlags:
    def test_run_progress_flags_default_off(self):
        args = build_parser().parse_args(["run"])
        assert not args.progress
        assert args.progress_out is None

    def test_run_progress_out_parses(self):
        args = build_parser().parse_args(["run", "--progress-out", "hb.jsonl"])
        assert args.progress_out == "hb.jsonl"

    def test_observe_defaults(self):
        args = build_parser().parse_args(["observe"])
        assert args.hosts == 1900
        assert args.seed == 7
        assert args.pod is None
        assert args.signal == "tent_air_c"
        assert args.capacity == 512
        assert args.top == 5

    def test_observe_drilldown_flags_parse(self):
        args = build_parser().parse_args(
            ["observe", "--pod", "3", "--signal", "energy_kwh", "--capacity", "64"]
        )
        assert args.pod == 3
        assert args.signal == "energy_kwh"
        assert args.capacity == 64

    def test_telemetry_json_and_hosts_parse(self):
        args = build_parser().parse_args(["telemetry", "--json", "--hosts", "190"])
        assert args.json
        assert args.hosts == 190

    def test_sweep_progress_out_parses(self):
        args = build_parser().parse_args(["sweep", "--progress-out", "p.jsonl"])
        assert args.progress_out == "p.jsonl"


class TestObservabilityCommands:
    def test_observe_renders_dashboard(self, capsys):
        argv = [
            "observe", "--hosts", "95", "--until", "2010-02-21",
            "--pod", "2", "--width", "40",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "fleet observatory:" in out
        assert "tent air (fleet median)" in out
        assert "pod 2 vs fleet median" in out
        assert "phase profile" in out
        assert "fleetscale.thermal" in out

    def test_observe_writes_heartbeat_file(self, tmp_path, capsys):
        import json

        hb = tmp_path / "hb.jsonl"
        argv = [
            "observe", "--hosts", "38", "--until", "2010-02-21",
            "--progress-out", str(hb),
        ]
        assert main(argv) == 0
        lines = [json.loads(l) for l in hb.read_text().splitlines()]
        assert lines
        final = lines[-1]
        assert final["type"] == "heartbeat"
        assert final["source"] == "observe"
        assert final["final"] is True
        assert final["done_frac"] == 1.0
        assert "hottest_span" in final

    def test_observe_bad_pod_rejected(self, capsys):
        argv = ["observe", "--hosts", "38", "--until", "2010-02-21", "--pod", "99"]
        assert main(argv) == 2
        assert "--pod must be in" in capsys.readouterr().err

    def test_observe_bad_signal_rejected(self, capsys):
        argv = [
            "observe", "--hosts", "38", "--until", "2010-02-21",
            "--pod", "0", "--signal", "nope",
        ]
        assert main(argv) == 2
        assert "unknown signal" in capsys.readouterr().err

    def test_run_paper_campaign_progress_out(self, tmp_path, capsys):
        import json

        hb = tmp_path / "hb.jsonl"
        argv = ["run", "--until", "2010-02-20", "--progress-out", str(hb)]
        assert main(argv) == 0
        assert "progress  ->" in capsys.readouterr().out
        lines = [json.loads(l) for l in hb.read_text().splitlines()]
        assert lines[-1]["final"] is True
        assert lines[-1]["source"] == "run"
        assert "failures" in lines[-1]

    def test_run_fleet_progress_out(self, tmp_path, capsys):
        import json

        hb = tmp_path / "hb.jsonl"
        argv = [
            "run", "--hosts", "38", "--until", "2010-02-21",
            "--progress-out", str(hb),
        ]
        assert main(argv) == 0
        lines = [json.loads(l) for l in hb.read_text().splitlines()]
        assert lines[-1]["source"] == "fleet"
        assert lines[-1]["final"] is True

    def test_run_fleet_telemetry_out_now_supported(self, tmp_path, capsys):
        import json

        path = tmp_path / "t.json"
        argv = [
            "run", "--hosts", "38", "--until", "2010-02-21",
            "--telemetry-out", str(path),
        ]
        assert main(argv) == 0
        data = json.loads(path.read_text())
        assert any(l.startswith("fleetscale.") for l in data["spans"])

    def test_run_resume_rejects_progress(self, tmp_path, capsys):
        argv = [
            "run", "--resume", str(tmp_path / "nope.json"), "--progress",
        ]
        assert main(argv) == 2
        assert "--progress" in capsys.readouterr().err

    def test_telemetry_json_output(self, capsys):
        import json

        assert main(["telemetry", "--until", "2010-02-22", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == 1
        assert data["hot_labels"]
        assert any(l["label"].startswith("engine.") for l in data["hot_labels"])
        assert "counters" in data and "gauges" in data

    def test_telemetry_json_and_prometheus_conflict(self, capsys):
        argv = ["telemetry", "--json", "--prometheus"]
        assert main(argv) == 2
        assert "pick one" in capsys.readouterr().err

    def test_telemetry_fleet_profile(self, capsys):
        argv = ["telemetry", "--hosts", "38", "--until", "2010-02-21"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "fleetscale.thermal" in out
        assert "Gauges" in out

    def test_sweep_progress_out_writes_events(self, tmp_path, capsys):
        import json

        path = tmp_path / "p.jsonl"
        argv = [
            "sweep", "--seeds", "3,5", "--until", "2010-02-20",
            "--no-cache", "--progress-out", str(path),
        ]
        assert main(argv) == 0
        assert "progress ->" in capsys.readouterr().out
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["kind"] for l in lines] == ["completed", "completed"]
        assert lines[-1]["done"] == 2
        assert lines[-1]["total"] == 2


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects at parse time
        return exc.code


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["run", "--hosts", "0"], "hosts"),
        (["telemetry", "--hosts", "0"], "hosts"),
        (["observe", "--hosts", "0"], "hosts"),
        (["atlas", "--risk-sites", "-1"], "sites to stress"),
        (["atlas", "--top", "-1"], "rows"),
        (["telemetry", "--top", "0"], "rows"),
        (["observe", "--top", "0"], "rows"),
        (["observe", "--width", "0"], "width"),
        (["figures", "--width", "0"], "width"),
        (["run", "--checkpoint-every", "0"], "checkpoint cadence"),
        (["sweep", "--checkpoint-every", "0", "--resumable"], "checkpoint cadence"),
        (
            ["run", "--hosts", "19", "--monitor-retries", "3", "--confirm-rounds", "2"],
            "--monitor-retries, --confirm-rounds",
        ),
        (["sweep", "--checkpoint-every", "2"], "--checkpoint-every needs --resumable"),
        (["control", "compare", "--controllers", ","], "--controllers"),
        (["control", "compare", "--climates", ","], "--climates"),
    ],
)
def test_invalid_counts_and_ignored_flags_exit_2(
    argv, fragment, capsys, monkeypatch, tmp_path
):
    # A regression must not fill the home cache before failing.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and fragment in errors[0]
    assert "Traceback" not in err
