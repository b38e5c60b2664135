"""Perf-regression gate: verdict math, probes vs fabricated baselines,
the trajectory record, and the CLI contract (exit nonzero on regression).
"""

import json
import os
import re

import pytest

from repro.harness import regress
from repro.harness.regress import (Check, GateReport, append_trajectory,
                                   main, probe_netreduce, probe_overlap)


class TestCheckEvaluate:
    def _check(self, baseline, fresh, direction, tolerance=0.05):
        return Check("p", "m", baseline, fresh, direction, tolerance)

    def test_lower_better(self):
        assert self._check(100.0, 102.0, "lower_better").evaluate() == "ok"
        assert self._check(100.0, 110.0,
                           "lower_better").evaluate() == "regressed"
        assert self._check(100.0, 90.0,
                           "lower_better").evaluate() == "improved"

    def test_higher_better(self):
        assert self._check(100.0, 98.0, "higher_better").evaluate() == "ok"
        assert self._check(100.0, 90.0,
                           "higher_better").evaluate() == "regressed"
        assert self._check(100.0, 110.0,
                           "higher_better").evaluate() == "improved"

    def test_match_gates_both_directions(self):
        assert self._check(100.0, 104.0, "match").evaluate() == "ok"
        assert self._check(100.0, 110.0, "match").evaluate() == "regressed"
        assert self._check(100.0, 90.0, "match").evaluate() == "regressed"

    def test_zero_baseline_does_not_divide_by_zero(self):
        assert self._check(0.0, 0.0, "match").evaluate() == "ok"

    def test_unknown_direction_raises(self):
        with pytest.raises(ValueError):
            self._check(1.0, 1.0, "sideways").evaluate()


class TestGateReport:
    def test_ok_requires_no_regressions_and_no_errors(self):
        report = GateReport()
        assert report.ok
        report.add(Check("p", "m", 100.0, 100.0, "match", 0.05))
        assert report.ok
        report.errors.append("probe broke")
        assert not report.ok

    def test_regression_flips_ok(self):
        report = GateReport()
        report.add(Check("p", "m", 100.0, 150.0, "lower_better", 0.05))
        assert report.regressions and not report.ok
        out = report.to_dict()
        assert out["ok"] is False
        assert out["regressions"] == 1


class TestArgValidation:
    def test_unknown_probe_rejected(self):
        with pytest.raises(SystemExit):
            main(["--probes", "warp-core"])

    def test_tolerance_range(self):
        with pytest.raises(SystemExit):
            main(["--tolerance", "0"])
        with pytest.raises(SystemExit):
            main(["--tolerance", "1.5"])


def _fresh_overlap_rows(models=("FCN-5",)):
    """Run the overlap probe workloads once and return baseline rows."""
    from repro.distributed.runner import run_training_benchmark
    from repro.models.zoo import get_model
    from repro.simnet.costmodel import MB

    config = {"num_servers": 2, "batch_size": 32, "iterations": 2,
              "algorithm": "ring", "fusion_mb": 8}
    rows = []
    for name in models:
        common = dict(num_servers=2, batch_size=32, iterations=2,
                      strategy="ring", fusion_bytes=8 * MB)
        barrier = run_training_benchmark(get_model(name), "RDMA",
                                         eager_flush=False,
                                         priority_sched=False, **common)
        eager = run_training_benchmark(get_model(name), "RDMA",
                                       eager_flush=True,
                                       priority_sched=True, **common)
        rows.append({"benchmark": name,
                     "barrier_step_ms": barrier.step_time * 1e3,
                     "eager_priority_step_ms": eager.step_time * 1e3,
                     "faster": eager.step_time < barrier.step_time})
    return {"config": config, "models": rows}


@pytest.fixture(scope="module")
def overlap_baseline():
    return _fresh_overlap_rows()


class TestOverlapProbeEndToEnd:
    def test_matching_baseline_passes(self, overlap_baseline, tmp_path):
        (tmp_path / "BENCH_overlap.json").write_text(
            json.dumps(overlap_baseline))
        report = GateReport()
        probe_overlap(report, str(tmp_path), tolerance=0.05,
                      models=("FCN-5",))
        assert report.errors == []
        assert len(report.checks) == 2
        # determinism: the rerun reproduces the baseline exactly
        assert all(c.verdict == "ok" and c.fresh == c.baseline
                   for c in report.checks)
        assert report.ok

    def test_perturbed_baseline_regresses(self, overlap_baseline, tmp_path):
        doctored = json.loads(json.dumps(overlap_baseline))
        # pretend the committed run was 20% faster than today's code
        doctored["models"][0]["barrier_step_ms"] *= 0.8
        (tmp_path / "BENCH_overlap.json").write_text(json.dumps(doctored))
        report = GateReport()
        probe_overlap(report, str(tmp_path), tolerance=0.05,
                      models=("FCN-5",))
        assert [c.metric for c in report.regressions] \
            == ["FCN-5.barrier_step_ms"]
        assert not report.ok

    def test_lost_speedup_is_an_error(self, overlap_baseline, tmp_path):
        doctored = json.loads(json.dumps(overlap_baseline))
        row = doctored["models"][0]
        # the committed row promises eager < barrier with step times the
        # rerun reproduces; invert the fresh comparison by swapping the
        # baseline columns and widening tolerance so only the flag trips
        row["barrier_step_ms"], row["eager_priority_step_ms"] = \
            row["eager_priority_step_ms"], row["barrier_step_ms"]
        (tmp_path / "BENCH_overlap.json").write_text(json.dumps(doctored))
        report = GateReport()
        probe_overlap(report, str(tmp_path), tolerance=0.99,
                      models=("FCN-5",))
        assert report.errors == []  # tolerance hides the swap...
        assert report.ok            # ...and the faster flag still holds

    def test_missing_baseline_is_an_error(self, tmp_path):
        report = GateReport()
        probe_overlap(report, str(tmp_path), tolerance=0.05)
        assert report.errors == ["overlap: no BENCH_overlap.json baseline"]
        assert not report.ok

    def test_unknown_model_is_an_error(self, overlap_baseline, tmp_path):
        (tmp_path / "BENCH_overlap.json").write_text(
            json.dumps(overlap_baseline))
        report = GateReport()
        probe_overlap(report, str(tmp_path), tolerance=0.05,
                      models=("NotAModel",))
        assert report.errors \
            == ["overlap: model 'NotAModel' not in baseline"]


def _fresh_netreduce_baseline(model="GRU", workers=8, hosts_per_rack=4):
    """Run the netreduce probe workloads once and return a baseline."""
    from repro.distributed.runner import run_training_benchmark
    from repro.models.zoo import get_model
    from repro.simnet.costmodel import MB

    config = {"models": [model], "worker_counts": [workers],
              "hosts_per_rack": hosts_per_rack, "oversubscription": 4.0,
              "batch_size": 8, "iterations": 2, "fusion_mb": 8,
              "max_flat_ring_workers": 0}
    entry = {"model": model, "workers": workers,
             "racks": workers // hosts_per_rack}
    common = dict(num_servers=workers, batch_size=8, iterations=2,
                  fusion_bytes=8 * MB, topology="fat-tree",
                  hosts_per_rack=hosts_per_rack, oversubscription=4.0,
                  collect_metrics=True)
    for strategy in ("hierarchical", "innetwork"):
        bench = run_training_benchmark(get_model(model), "RDMA",
                                       strategy=strategy, **common)
        entry[strategy] = {
            "step_ms": bench.step_time * 1e3,
            "wire_mb_per_worker": bench.wire_bytes_per_worker() / MB,
        }
    entry["innetwork_speedup_vs_hierarchical"] = \
        (entry["hierarchical"]["step_ms"] / entry["innetwork"]["step_ms"])
    return {"config": config, "sweep": [entry]}


@pytest.fixture(scope="module")
def netreduce_baseline():
    return _fresh_netreduce_baseline()


class TestNetreduceProbeEndToEnd:
    def test_matching_baseline_passes(self, netreduce_baseline, tmp_path):
        (tmp_path / "BENCH_netreduce.json").write_text(
            json.dumps(netreduce_baseline))
        report = GateReport()
        probe_netreduce(report, str(tmp_path), tolerance=0.05, workers=8)
        assert report.errors == []
        assert len(report.checks) == 3
        # determinism: the rerun reproduces the baseline exactly
        assert all(c.verdict == "ok" and c.fresh == c.baseline
                   for c in report.checks)
        assert report.ok

    def test_perturbed_step_time_regresses(self, netreduce_baseline,
                                           tmp_path):
        doctored = json.loads(json.dumps(netreduce_baseline))
        # pretend the committed in-network run was 20% faster
        doctored["sweep"][0]["innetwork"]["step_ms"] *= 0.8
        (tmp_path / "BENCH_netreduce.json").write_text(
            json.dumps(doctored))
        report = GateReport()
        probe_netreduce(report, str(tmp_path), tolerance=0.05, workers=8)
        assert [c.metric for c in report.regressions] \
            == ["GRU.n8.innetwork_step_ms"]
        assert not report.ok

    def test_wire_drift_regresses_both_directions(self, netreduce_baseline,
                                                  tmp_path):
        # Fewer wire bytes is not an improvement here: the identity is
        # exact, so any drift means the collective changed shape.
        doctored = json.loads(json.dumps(netreduce_baseline))
        doctored["sweep"][0]["innetwork"]["wire_mb_per_worker"] *= 1.2
        (tmp_path / "BENCH_netreduce.json").write_text(
            json.dumps(doctored))
        report = GateReport()
        probe_netreduce(report, str(tmp_path), tolerance=0.05, workers=8)
        assert [c.metric for c in report.regressions] \
            == ["GRU.n8.innetwork_wire_mb"]

    def test_speedup_flag_judges_fresh_runs(self, netreduce_baseline,
                                            tmp_path):
        # The "in-network is faster" bit compares the *fresh* runs, so
        # doctored baseline step times can't fake a lost speedup: with
        # tolerance wide enough to hide the doctoring, the gate still
        # passes because today's code really is faster.
        doctored = json.loads(json.dumps(netreduce_baseline))
        doctored["sweep"][0]["innetwork"]["step_ms"] *= 0.6
        (tmp_path / "BENCH_netreduce.json").write_text(
            json.dumps(doctored))
        report = GateReport()
        probe_netreduce(report, str(tmp_path), tolerance=0.99, workers=8)
        assert report.errors == []
        assert report.ok

    def test_missing_baseline_is_an_error(self, tmp_path):
        report = GateReport()
        probe_netreduce(report, str(tmp_path), tolerance=0.05)
        assert report.errors \
            == ["netreduce: no BENCH_netreduce.json baseline"]

    def test_missing_worker_count_is_an_error(self, netreduce_baseline,
                                              tmp_path):
        (tmp_path / "BENCH_netreduce.json").write_text(
            json.dumps(netreduce_baseline))
        report = GateReport()
        probe_netreduce(report, str(tmp_path), tolerance=0.05, workers=256)
        assert report.errors \
            == ["netreduce: no innetwork baseline at n=256"]


class TestMainExitCodes:
    def test_pass_and_fail_exit_codes(self, overlap_baseline, tmp_path,
                                      monkeypatch, capsys):
        monkeypatch.setitem(
            regress._PROBE_FNS, "overlap",
            lambda report, d, tol: probe_overlap(report, d, tol,
                                                 models=("FCN-5",)))
        (tmp_path / "BENCH_overlap.json").write_text(
            json.dumps(overlap_baseline))
        gate_json = tmp_path / "gate.json"
        code = main(["--probes", "overlap",
                     "--baseline-dir", str(tmp_path),
                     "--json", str(gate_json)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        dumped = json.loads(gate_json.read_text())
        assert dumped["ok"] is True and dumped["regressions"] == 0

        doctored = json.loads(json.dumps(overlap_baseline))
        doctored["models"][0]["eager_priority_step_ms"] *= 0.5
        (tmp_path / "BENCH_overlap.json").write_text(json.dumps(doctored))
        code = main(["--probes", "overlap",
                     "--baseline-dir", str(tmp_path)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


class TestTrajectory:
    def _report(self):
        report = GateReport()
        report.add(Check("scale", "n64.step_ms", 10.0, 10.0,
                         "lower_better", 0.05))
        return report

    def test_appends_and_preserves_payload(self, tmp_path):
        path = tmp_path / "BENCH_telemetry.json"
        path.write_text(json.dumps({"experiment": "telemetry",
                                    "runs": [{"run": "clean"}]}))
        append_trajectory(self._report(), str(path))
        payload = json.loads(path.read_text())
        assert payload["experiment"] == "telemetry"  # untouched
        assert payload["runs"] == [{"run": "clean"}]
        (entry,) = payload["trajectory"]
        assert entry["ok"] is True
        assert entry["metrics"] == {"scale.n64.step_ms": 10.0}

    def test_creates_file_when_absent(self, tmp_path):
        path = tmp_path / "BENCH_telemetry.json"
        append_trajectory(self._report(), str(path))
        assert len(json.loads(path.read_text())["trajectory"]) == 1

    def test_trims_to_keep_limit(self, tmp_path):
        path = tmp_path / "BENCH_telemetry.json"
        for _ in range(regress.TRAJECTORY_KEEP + 5):
            append_trajectory(self._report(), str(path))
        payload = json.loads(path.read_text())
        assert len(payload["trajectory"]) == regress.TRAJECTORY_KEEP


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class TestDefaultProbesHaveBaselines:
    def test_default_gate_runs_only_probes_with_a_baseline(
            self, tmp_path, monkeypatch, capsys):
        ran = []
        for probe in regress.PROBES:
            monkeypatch.setitem(
                regress._PROBE_FNS, probe,
                lambda report, d, tol, probe=probe: ran.append(probe))
        for probe in ("overlap", "llm"):
            (tmp_path / regress.baseline_file(probe)).write_text("{}")
        assert main(["--baseline-dir", str(tmp_path)]) == 0
        assert ran == ["overlap", "llm"]
        out = capsys.readouterr().out
        for probe in ("scale", "serving", "netreduce", "lossy"):
            assert f"skipped   {probe}: no BENCH_{probe}.json" in out

    def test_named_probe_without_baseline_still_fails(self, tmp_path,
                                                      capsys):
        assert main(["--probes", "netreduce",
                     "--baseline-dir", str(tmp_path)]) == 1
        assert ("netreduce: no BENCH_netreduce.json baseline"
                in capsys.readouterr().out)

    def test_empty_baseline_dir_is_not_a_green_gate(self, tmp_path):
        assert main(["--baseline-dir", str(tmp_path)]) == 1

    def test_committed_results_give_the_default_gate_work(self):
        results = os.path.join(REPO_ROOT, "results")
        present = [p for p in regress.PROBES if os.path.exists(
            os.path.join(results, regress.baseline_file(p)))]
        assert {"overlap", "scale", "serving", "llm"} <= set(present)
        for probe in present:
            assert regress._load_baseline(results, probe)


class TestDocsNameOnlyResultsThatExist:
    PATH = re.compile(r"results/[A-Za-z0-9_.]+\.(?:json|txt)")

    @pytest.mark.parametrize("doc", ["README.md", "EXPERIMENTS.md",
                                     "DESIGN.md"])
    def test_results_paths_exist_or_are_marked_generated(self, doc):
        with open(os.path.join(REPO_ROOT, doc)) as handle:
            paragraphs = handle.read().split("\n\n")
        unresolved = []
        for paragraph in paragraphs:
            for path in self.PATH.findall(paragraph):
                if os.path.exists(os.path.join(REPO_ROOT, path)):
                    continue
                if "generated, not committed" in " ".join(paragraph.split()):
                    continue
                unresolved.append(path)
        assert unresolved == []
