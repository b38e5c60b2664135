"""Perf-regression gate: verdict math, every gate round-tripped through
the BENCH writer, and the CLI contract (exit nonzero on regression)."""

import copy
import json
import re
from pathlib import Path

import pytest

from repro.harness import regress
from repro.harness.experiments import ALL_EXPERIMENTS, bench_file
from repro.harness.regress import (PROBES, Check, GateReport, compare, main,
                                   probe)

from .test_registry import DOCTORED, _cell


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


class GateRoundTrip:
    """One gated experiment: written by the writer at a tier-1 grid
    (``recorded``), then judged by the gate's generic loop."""

    name = None

    def _judge(self, recorded, edit_committed=lambda payload: None,
               edit_fresh=lambda payload: None, tolerance=0.05):
        committed = copy.deepcopy(recorded.committed[self.name])
        grid, fresh = copy.deepcopy(recorded.fresh[self.name])
        edit_committed(committed)
        edit_fresh(fresh)
        report = GateReport()
        compare(report, ALL_EXPERIMENTS[self.name], committed, fresh, grid,
                tolerance)
        return report

    def test_matching_baseline_passes(self, recorded):
        report = recorded.reports[self.name]
        assert report.errors == []
        # determinism: the rerun reproduces the written file exactly
        assert report.checks and all(
            c.verdict == "ok" and c.fresh == c.baseline
            for c in report.checks)

    def test_perturbed_baseline_regresses(self, recorded):
        gate = ALL_EXPERIMENTS[self.name].gate
        metric, direction = gate.fields[0]
        target = next(c for c in recorded.fresh[self.name][1]["cells"]
                      if c.get(metric))

        def better_once(committed):
            # pretend the committed run was 20% better than today's code
            cell = next(c for c in committed["cells"]
                        if all(c[k] == target[k] for k in gate.key))
            cell[metric] *= 1.25 if direction == "higher_better" else 0.8
        report = self._judge(recorded, edit_committed=better_once)
        assert [c.metric for c in report.regressions] \
            == [f"{gate.label.format(**target)}.{metric}"]
        assert report.errors == []

    def test_broken_headline_is_one_error(self, recorded):
        edit, message = next(case[1:] for case in DOCTORED
                             if case[0] == self.name)
        report = self._judge(recorded, edit_fresh=edit)
        assert report.errors == [f"{self.name}: {message}"]
        assert not report.regressions and not report.ok

    def test_baseline_from_other_flags_is_an_error(self, recorded):
        report = self._judge(recorded, edit_fresh=lambda fresh:
                             fresh["config"].update(qp_mode="shared"))
        assert report.errors == [f"{self.name}: committed under "
                                 f"qp_mode=None, re-run under 'shared'"]

    def test_missing_baseline_is_an_error(self, tmp_path):
        report = GateReport()
        probe(report, ALL_EXPERIMENTS[self.name], str(tmp_path), 0.05)
        assert report.errors \
            == [f"{self.name}: no BENCH_{self.name}.json baseline"]
        assert not report.ok


class TestOverlapProbeEndToEnd(GateRoundTrip):
    name = "overlap"

    def test_lost_speedup_is_an_error(self, recorded):
        # "eager is faster" is judged on the *fresh* run, so swapping
        # the committed columns cannot fake a lost speedup: with a
        # tolerance wide enough to hide the swap the gate still passes
        def swap(committed):
            row = committed["cells"][0]
            row["barrier_step_ms"], row["eager_priority_step_ms"] = \
                row["eager_priority_step_ms"], row["barrier_step_ms"]
        report = self._judge(recorded, edit_committed=swap, tolerance=0.99)
        assert report.errors == [] and report.ok

    def test_empty_slice_is_an_error_not_a_pass(self, recorded):
        report = self._judge(recorded, edit_fresh=lambda fresh:
                             fresh["cells"].clear())
        assert report.errors == ["overlap: gate slice produced no cells"]

    def test_unknown_model_is_an_error(self, recorded):
        report = self._judge(recorded, edit_committed=lambda committed:
                             committed["cells"][0].update(benchmark="Other"))
        assert report.errors == ["overlap: no committed cell FCN-5"]


class TestNetreduceProbeEndToEnd(GateRoundTrip):
    name = "netreduce"

    def _scaled(self, recorded, metric, factor, tolerance=0.05):
        """Judge against a committed in-network cell scaled by ``factor``."""
        def edit(committed):
            _cell(committed, strategy="innetwork")[metric] *= factor
        return self._judge(recorded, edit_committed=edit,
                           tolerance=tolerance)

    def test_perturbed_step_time_regresses(self, recorded):
        report = self._scaled(recorded, "step_ms", 0.8)
        assert [c.metric for c in report.regressions] \
            == ["TF-Tiny.n8.innetwork.step_ms"]

    def test_wire_drift_regresses_both_directions(self, recorded):
        # Fewer wire bytes is not an improvement here: the identity is
        # exact, so any drift means the collective changed shape.
        report = self._scaled(recorded, "wire_mb_per_worker", 1.2)
        assert [c.metric for c in report.regressions] \
            == ["TF-Tiny.n8.innetwork.wire_mb_per_worker"]

    def test_speedup_flag_judges_fresh_runs(self, recorded):
        # doctored committed step times can't fake a lost speedup
        report = self._scaled(recorded, "step_ms", 0.6, tolerance=0.99)
        assert report.errors == [] and report.ok

    def test_missing_worker_count_is_an_error(self, recorded):
        report = self._judge(recorded, edit_committed=lambda committed:
                             committed["cells"].pop())  # the in-network cell
        assert report.errors \
            == ["netreduce: no committed cell TF-Tiny.n8.innetwork"]


class TestEveryOtherGate(GateRoundTrip):
    @pytest.fixture(autouse=True,
                    params=sorted(set(PROBES) - {"overlap", "netreduce"}))
    def _each_gate(self, request):
        self.name = request.param


class TestMainExitCodes:
    def test_pass_and_fail_exit_codes(self, recorded, tmp_path, capsys):
        path = tmp_path / bench_file("overlap")
        path.write_text(json.dumps(recorded.committed["overlap"]))
        gate_json = tmp_path / "gate.json"
        assert main(["--probes", "overlap", "--baseline-dir", str(tmp_path),
                     "--json", str(gate_json)]) == 0
        assert "PASS" in capsys.readouterr().out
        dumped = json.loads(gate_json.read_text())
        assert dumped["ok"] is True and dumped["regressions"] == 0

        doctored = copy.deepcopy(recorded.committed["overlap"])
        doctored["cells"][0]["eager_priority_step_ms"] *= 0.5
        path.write_text(json.dumps(doctored))
        assert main(["--probes", "overlap",
                     "--baseline-dir", str(tmp_path)]) == 1
        assert "FAIL" in capsys.readouterr().out


REPO_ROOT = Path(__file__).parents[2]


class TestDefaultProbesHaveBaselines:
    def test_default_gate_runs_only_probes_with_a_baseline(
            self, tmp_path, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(
            regress, "probe",
            lambda report, entry, d, tol: ran.append(entry.name))
        for name in ("overlap", "llmserve"):
            (tmp_path / bench_file(name)).write_text("{}")
        assert main(["--baseline-dir", str(tmp_path)]) == 0
        assert ran == ["overlap", "llmserve"]
        out = capsys.readouterr().out
        for name in set(PROBES) - set(ran):
            assert f"skipped   {name}: no BENCH_{name}.json" in out

    def test_named_probe_without_baseline_still_fails(self, tmp_path,
                                                      capsys):
        assert main(["--probes", "netreduce",
                     "--baseline-dir", str(tmp_path)]) == 1
        assert ("netreduce: no BENCH_netreduce.json baseline"
                in capsys.readouterr().out)

    def test_empty_baseline_dir_is_not_a_green_gate(self, tmp_path):
        assert main(["--baseline-dir", str(tmp_path)]) == 1

    def test_committed_results_give_the_default_gate_work(self):
        # every gate has its file (the default gate skips nothing), and
        # the file holds the grid ``--full`` regenerates
        for name in PROBES:
            config = json.loads(_read(f"results/{bench_file(name)}"))["config"]
            for key, value in ALL_EXPERIMENTS[name].full.items():
                assert config[key] == (list(value) if isinstance(value, tuple)
                                       else value), (name, key)


DOCS = pytest.mark.parametrize("doc", ["README.md", "EXPERIMENTS.md",
                                       "DESIGN.md"])


def _read(doc):
    return (REPO_ROOT / doc).read_text()


class TestDocsNameOnlyResultsThatExist:
    @DOCS
    def test_results_paths_exist_or_are_marked_generated(self, doc):
        # every gate's baseline is committed now: nothing a doc names under
        # results/ may be missing, "generated, not committed" or otherwise
        named = re.findall(r"results/[A-Za-z0-9_.]+\.(?:json|txt)", _read(doc))
        assert [p for p in named if not (REPO_ROOT / p).exists()] == []

    @DOCS
    def test_bench_files_named_are_some_entrys_file(self, doc):
        owned = {bench_file(entry.name)
                 for entry in ALL_EXPERIMENTS.values() if entry.bench}
        named = re.findall(r"BENCH_[A-Za-z0-9]+\.json", _read(doc))
        assert set(named) <= owned
