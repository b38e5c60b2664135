"""Tests for the command-line entry point."""

import pytest

from repro.distributed import RunConfig
from repro.harness import cli
from repro.harness.cli import main
from repro.serving import ServingConfig


@pytest.fixture
def handed(monkeypatch):
    """The config ``main`` hands to ``execute``, once per experiment."""
    configs = []
    execute = cli.execute

    def spy(entry, grid, bench_dir, config):
        configs.append(config)
        return execute(entry, grid, bench_dir, config)
    monkeypatch.setattr(cli, "execute", spy)
    return configs


def usage_error(argv, capsys) -> str:
    """``main(argv)`` must exit 2 with argparse's one-line ``error:``."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    return err


class TestCli:
    def test_single_experiment(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "AlexNet" in out

    def test_multiple_experiments(self, capsys):
        assert main(["table2", "figure7"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "Figure 7" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure99"])

    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0


class TestRegistryReaders:
    """The CLI reads the experiment table: which grid, where the file
    goes, what the exit status is."""

    @staticmethod
    def _stub(monkeypatch, name, violated=()):
        """Replace ``name``'s run (records its grid, simulates nothing)."""
        from dataclasses import replace

        from repro.harness import ALL_EXPERIMENTS, ExperimentResult
        grids = []
        entry = ALL_EXPERIMENTS[name]
        monkeypatch.setitem(ALL_EXPERIMENTS, name, replace(
            entry, run=lambda config, **grid: iter([grids.append(grid)]),
            headlines=lambda payload: list(violated),
            table=lambda payload: ExperimentResult(name, "stub", [])))
        return entry, grids

    def test_full_picks_the_grid_named_or_not(self, monkeypatch, capsys):
        entry, grids = self._stub(monkeypatch, "overlap")
        assert main(["overlap"]) == main(["--full", "overlap"]) == 0
        assert grids == [entry.smoke, entry.full]

    def test_violated_headline_fails_and_is_named(self, monkeypatch, capsys):
        self._stub(monkeypatch, "overlap", violated=["eager got slower"])
        assert main(["overlap", "table2"]) == 1
        captured = capsys.readouterr()
        assert "overlap: eager got slower" in captured.err
        assert "Table 2" in captured.out  # the later experiment still ran

    def test_bench_dir_receives_the_payload(self, capsys, tmp_path):
        import json
        assert main(["llmserve", "table2", "--bench-dir",
                     str(tmp_path / "out")]) == 0
        (written,) = (tmp_path / "out").iterdir()  # table2 owns no file
        assert written.name == "BENCH_llmserve.json"
        payload = json.loads(written.read_text())
        assert payload["config"]["model"] == "TF-Tiny"  # the smoke grid
        assert len(payload["cells"]) == 3


class TestCommFlags:
    def test_flags_configure_comm(self, capsys, handed):
        assert main(["--num-cqs", "2", "--qps-per-peer", "8",
                     "table2"]) == 0
        assert handed == [RunConfig(num_cqs=2, num_qps_per_peer=8)]

    def test_defaults_untouched_without_flags(self, capsys, handed):
        assert main(["table2", "figure7"]) == 0
        assert handed == [RunConfig(), RunConfig()]

    def test_invalid_backend_rejected(self, capsys):
        # the knob nothing read is gone, not merely ignored
        assert "--backend" in usage_error(["--backend", "RDMA", "table2"],
                                          capsys)

    def test_invalid_cq_count_rejected(self, capsys):
        assert "num_cqs" in usage_error(["--num-cqs", "0", "table2"], capsys)

    def test_scheduler_flags_configure_comm(self, capsys, handed):
        assert main(["--fusion-mb", "4", "--priority-sched",
                     "--no-eager-flush", "table2"]) == 0
        (config,) = handed
        assert config.fusion_bytes == 4 * 1024 * 1024
        assert config.priority_sched is True
        assert config.eager_flush is False

    def test_fractional_fusion_mb(self, capsys, handed):
        assert main(["--fusion-mb", "0.5", "table2"]) == 0
        assert handed[0].fusion_bytes == 512 * 1024

    def test_eager_flush_default_untouched(self, capsys, handed):
        assert main(["table2"]) == 0
        # no flag given: the config keeps its defaults
        (config,) = handed
        assert config.eager_flush is True
        assert config.priority_sched is False
        assert config.fusion_bytes is None

    def test_invalid_fusion_mb_rejected(self, capsys):
        assert "fusion_bytes" in usage_error(["--fusion-mb", "0", "table2"],
                                             capsys)

    @pytest.mark.parametrize("flags", [
        ["--qps-per-peer", "0"], ["--retry-limit", "-1"],
        ["--retry-timeout", "-1"], ["--racks", "0"],
        ["--topology", "fat-tree", "--racks", "2",
         "--oversubscription", "0.5"],
        ["--qps", "0"], ["--max-batch", "0"], ["--kv-budget-mb", "0"],
        ["--max-width", "0"], ["--fault-spec", "bogus:x=1"],
        ["--loss", "1.0"],
    ], ids=lambda flags: flags[-2])
    def test_bad_flag_values_are_usage_errors(self, flags, capsys):
        usage_error([*flags, "table2"], capsys)


class TestNoAmbientState:
    """A run is a function of its own command line, nothing before it."""

    def test_a_run_cannot_inherit_the_previous_runs_flags(self, capsys):
        assert main(["--topology", "fat-tree", "--racks", "2",
                     "--loss", "0.01", "table2"]) == 0
        capsys.readouterr()
        assert "add --topology fat-tree" in usage_error(
            ["--racks", "4", "table2"], capsys)

    def test_gate_after_a_flagged_run_sees_the_defaults(self, capsys,
                                                        recorded):
        from repro.harness import ALL_EXPERIMENTS, regress
        assert main(["--replicas", "3", "--max-batch", "4", "--num-cqs", "2",
                     "--pipeline-stages", "2", "table2"]) == 0
        report = regress.GateReport()
        for name in ("serving", "llmtrain"):
            regress.probe(report, ALL_EXPERIMENTS[name], recorded.directory,
                          0.05)
        assert report.errors == []


class TestPipelineFlags:
    def test_flags_configure_comm(self, capsys, handed):
        assert main(["--pipeline-stages", "8", "--microbatches", "2",
                     "--schedule", "gpipe", "table2"]) == 0
        assert handed == [RunConfig(pipeline_stages=8, microbatches=2,
                                    schedule="gpipe")]

    def test_defaults_stay_unpinned(self, capsys, handed):
        assert main(["table2"]) == 0
        (config,) = handed
        assert config.pipeline_stages is None
        assert config.microbatches is None
        assert config.schedule is None

    def test_invalid_stage_count_rejected(self, capsys):
        assert "pipeline_stages" in usage_error(
            ["--pipeline-stages", "0", "table2"], capsys)

    def test_invalid_microbatches_rejected(self, capsys):
        assert "microbatches" in usage_error(
            ["--microbatches", "0", "table2"], capsys)

    def test_unknown_schedule_rejected(self):
        with pytest.raises(SystemExit):
            main(["--schedule", "zero-bubble", "table2"])

    def test_pinned_flags_narrow_llmtrain(self, capsys):
        from repro.harness.experiments import ALL_EXPERIMENTS, execute
        entry = ALL_EXPERIMENTS["llmtrain"]
        result = entry.table(execute(entry, dict(
            model="TF-Tiny", stage_counts=(2, 4, 8), batch_size=4,
            iterations=2), config=RunConfig(
                pipeline_stages=2, microbatches=2, schedule="1f1b")))
        assert result.column("stages") == [2]
        assert result.column("schedule") == ["1f1b"]
        # single-schedule run: no gpipe cell, so no headline note
        assert not any("every stage count" in n for n in result.notes)

    def test_pinned_microbatches_reach_runner(self, capsys):
        from repro.distributed.runner import run_training_benchmark
        from repro.models import get_model
        bench = run_training_benchmark(
            get_model("TF-Tiny"), "RDMA", num_servers=2, batch_size=4,
            iterations=2, strategy="llm",
            config=RunConfig(microbatches=2, schedule="gpipe"))
        assert bench.pipeline.microbatches == 2
        assert bench.pipeline.schedule == "gpipe"


class TestLlmServingFlags:
    def test_flags_configure_serving(self, capsys, handed):
        assert main(["--kv-budget-mb", "256", "--max-width", "32",
                     "table2"]) == 0
        assert handed == [RunConfig(serving=ServingConfig(
            kv_budget_mb=256.0, max_width=32))]


class TestCaptureFlags:
    def teardown_method(self):
        from repro.observability import reset_capture
        reset_capture()

    def test_trace_and_metrics_written(self, capsys, tmp_path):
        import json

        # neither directory exists yet (CI writes into a fresh artifacts/)
        trace_path = tmp_path / "artifacts" / "run.trace.json"
        metrics_path = tmp_path / "metrics" / "run.metrics.json"
        assert main(["stallreport", "--trace-out", str(trace_path),
                     "--metrics-json", str(metrics_path)]) == 0
        err = capsys.readouterr().err
        assert "trace written to" in err and "metrics written to" in err

        trace = json.loads(trace_path.read_text())
        assert len(trace["traceEvents"]) > 0
        categories = {e.get("cat") for e in trace["traceEvents"]
                      if e.get("ph") == "X"}
        assert {"op", "cq_poll", "verb", "collective"} <= categories

        metrics = json.loads(metrics_path.read_text())
        assert len(metrics["runs"]) == 1
        run = metrics["runs"][0]
        assert run["metrics"]["counters"]["arena_bytes_registered"] > 0
        assert run["stall"]["iterations"][0]["coverage"] == \
            pytest.approx(1.0, abs=0.01)

    def test_capture_state_cleared_after_run(self, capsys, tmp_path):
        from repro.observability import capture_enabled
        assert main(["table2", "--metrics-json",
                     str(tmp_path / "m.json")]) == 0
        assert not capture_enabled()


class TestTelemetryFlags:
    def teardown_method(self):
        from repro.observability import reset_capture
        reset_capture()

    def test_budget_flags_need_a_capture_sink(self):
        with pytest.raises(SystemExit):
            main(["--trace-sample", "0.1", "table2"])
        with pytest.raises(SystemExit):
            main(["--trace-hosts", "2", "table2"])

    def test_event_cap_needs_trace_out(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--trace-event-cap", "100", "--metrics-json",
                  str(tmp_path / "m.json"), "table2"])

    def test_sample_rate_range_enforced(self, tmp_path):
        sink = ["--telemetry-out", str(tmp_path / "t.json")]
        with pytest.raises(SystemExit):
            main(["--trace-sample", "0", *sink, "table2"])
        with pytest.raises(SystemExit):
            main(["--trace-sample", "1.5", *sink, "table2"])

    def test_event_cap_must_be_positive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--trace-event-cap", "0", "--trace-out",
                  str(tmp_path / "t.json"), "table2"])

    def test_malformed_trace_hosts_rejected_early(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["--trace-hosts", "a,,b", "--telemetry-out",
                  str(tmp_path / "t.json"), "table2"])
        assert "--trace-hosts" in capsys.readouterr().err

    def test_budget_flags_configure_comm(self, capsys, tmp_path, handed):
        assert main(["stallreport", "--telemetry-out",
                     str(tmp_path / "t.json"), "--trace-sample", "0.5",
                     "--trace-hosts", "server0"]) == 0
        assert handed == [RunConfig(trace_sample=0.5, trace_hosts="server0")]

    def test_telemetry_out_written(self, capsys, tmp_path):
        import json

        telemetry_path = tmp_path / "artifacts" / "telemetry.json"
        assert main(["stallreport", "--telemetry-out",
                     str(telemetry_path), "--trace-sample", "0.1"]) == 0
        assert "telemetry written to" in capsys.readouterr().err
        payload = json.loads(telemetry_path.read_text())
        run = payload["runs"][0]
        assert run["spans_dropped"] > 0
        assert run["telemetry"]["rollups"]
        assert payload["incident_total"] == 0  # healthy run, no incidents


class TestCollectiveFlags:
    def test_innetwork_requires_fat_tree(self, capsys):
        with pytest.raises(SystemExit):
            main(["--collective", "innetwork", "table2"])
        err = capsys.readouterr().err
        assert "--collective innetwork" in err
        assert "fat-tree" in err

    def test_innetwork_with_flat_topology_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--collective", "innetwork", "--topology", "flat",
                  "table2"])
        assert "fat-tree" in capsys.readouterr().err

    def test_innetwork_on_fat_tree_accepted(self, capsys, handed):
        assert main(["--collective", "innetwork", "--topology", "fat-tree",
                     "--hosts-per-rack", "4", "table2"]) == 0
        assert handed == [RunConfig(collective="innetwork",
                                    topology="fat-tree", hosts_per_rack=4)]

    def test_other_collectives_unaffected(self, capsys):
        assert main(["--collective", "hierarchical", "table2"]) == 0


class TestServingFlags:
    def test_flags_configure_serving(self, capsys, handed):
        assert main(["--replicas", "3", "--qps", "900", "--max-batch", "4",
                     "--batch-timeout", "0.001", "--slo-ms", "30",
                     "table2"]) == 0
        assert handed[0].serving == ServingConfig(
            replicas=3, qps=900.0, max_batch=4, batch_timeout=0.001,
            slo_ms=30.0)

    def test_defaults_untouched_without_flags(self, capsys, handed):
        assert main(["table2"]) == 0
        assert handed[0].serving == ServingConfig()

    def test_invalid_replica_count_rejected(self, capsys):
        assert "replicas" in usage_error(["--replicas", "0", "table2"],
                                         capsys)

    def test_unknown_experiment_lists_known_names(self, capsys):
        with pytest.raises(SystemExit):
            main(["bogus"])
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "serving" in err and "table2" in err
