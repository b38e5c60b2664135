"""The experiment table: grids bind, tables render cells, headlines are
pure functions of a payload."""

import ast
import copy
import inspect
from pathlib import Path

import pytest

import repro
from repro.harness.experiments import ALL_EXPERIMENTS, EXPERIMENTS

from .conftest import TINY

BENCH = [entry.name for entry in EXPERIMENTS if entry.bench]


def _cell(payload, **where):
    return next(c for c in payload["cells"]
                if all(c[k] == v for k, v in where.items()))


#: one doctored payload per invariant: (experiment, edit, the one message)
DOCTORED = [
    ("overlap",
     lambda p: p["cells"][0].update(faster=False, barrier_step_ms=1.0,
                                    eager_priority_step_ms=2.0),
     "FCN-5: eager+priority (2.000 ms) is no faster than the barrier "
     "(1.000 ms)"),
    ("chaos",
     lambda p: p["cells"][0].update(completed=False, crash_reason="hung"),
     "seed 0 did not recover to completion: hung"),
    ("serving",
     lambda p: _cell(p, run="batch-8").update(torn_serves=1),
     "batch-8: 1 torn serves — a replica served a torn weight snapshot"),
    ("scale",
     lambda p: p["cells"][-1].update(max_uplink_utilization=0.0),
     "n=8 hierarchical: no trunk traffic accounted"),
    ("netreduce",
     lambda p: _cell(p, strategy="innetwork").update(chunks_spilled=1),
     "TF-Tiny n=8: 1 chunks spilled to the host path, 0 rounds degraded "
     "(must be 0)"),
    ("telemetry",
     lambda p: p["cells"][1].update(iteration_times=[0.0]),
     "tracing perturbed the simulated clock"),
    ("lossy",
     lambda p: _cell(p, strategy="hierarchical",
                     loss_rate=0.01).update(gave_up=1),
     "hierarchical n=8 p=0.01: 1 transfers exhausted their retry budget "
     "(gave_up must be 0)"),
    ("lossy",
     lambda p: p["cells"][0].update(shared_qp_identical=False),
     "hierarchical n=8 p=0: loss-free clocks diverged between RC and "
     "shared QP modes"),
    ("llmtrain",
     lambda p: p["cells"][0].update(residual_s=1e-6),
     "s=4 gpipe: bubble decomposition misses the step time by 1.0e-06 s "
     "(must be < 1e-9)"),
    ("llmserve",
     lambda p: p["cells"][0].update(kv_leaked_bytes=1),
     "continuous (timeout 2 ms) leaked 1 KV-cache bytes after drain "
     "(must be 0)"),
]


class TestGrids:
    @pytest.mark.parametrize("entry", EXPERIMENTS, ids=lambda e: e.name)
    def test_grids_bind_to_run(self, entry):
        # runs nothing: a mistyped or missing grid keyword fails here
        signature = inspect.signature(entry.run)
        for grid in (entry.smoke, entry.full, TINY.get(entry.name, {})):
            signature.bind(**grid)

    def test_every_results_owner_is_recorded_at_a_tiny_grid(self):
        assert set(TINY) == set(BENCH)
        assert all(entry.bench for entry in EXPERIMENTS if entry.gate)


class TestConfigIsThreaded:
    """The refactor's own failure modes, checked on the source."""

    SRC = Path(repro.__file__).parent

    def test_every_simulating_call_forwards_the_config(self):
        # a site that forgot ``config=`` would silently ignore every flag
        runners = {"run_training_benchmark", "run_serving_benchmark",
                   "run_llm_serving_benchmark", "sweep_microbench"}
        tree = ast.parse((self.SRC / "harness" / "experiments.py").read_text())
        calls = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)
                 and node.func.id in runners]
        assert len(calls) >= 24
        assert [call.lineno for call in calls
                if "config" not in {kw.arg for kw in call.keywords}] == []

    def test_no_module_level_mutable_config(self):
        offenders = [
            f"{path.relative_to(self.SRC)}:{node.lineno}"
            for path in sorted(self.SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Global)]
        assert offenders == []


class TestPayloadReaders:
    @pytest.mark.parametrize("name", BENCH)
    def test_table_has_one_row_per_cell(self, recorded, name):
        payload = recorded.committed[name]
        table = ALL_EXPERIMENTS[name].table(payload)
        assert len(table.rows) == len(payload["cells"]) > 0
        assert table.render()

    @pytest.mark.parametrize("name", BENCH)
    def test_recorded_payload_violates_nothing(self, recorded, name):
        assert ALL_EXPERIMENTS[name].headlines(recorded.committed[name]) == []

    @pytest.mark.parametrize("name,edit,message", DOCTORED,
                             ids=[case[0] for case in DOCTORED])
    def test_doctored_payload_violates_exactly_one(self, recorded, name,
                                                   edit, message):
        payload = copy.deepcopy(recorded.committed[name])
        edit(payload)
        assert ALL_EXPERIMENTS[name].headlines(payload) == [message]

    def test_stallreport_headline_reads_its_table(self):
        from repro.harness import ExperimentResult
        headlines = ALL_EXPERIMENTS["stallreport"].headlines
        table = ExperimentResult("Stall report", "t",
                                 ["iteration", "coverage_pct"])
        assert headlines(table) == ["the traced benchmark crashed"]
        table.add_row(1, 99.97)
        assert headlines(table) == []
        table.add_row(2, 97.5)
        assert headlines(table) == [
            "iteration 2: stall components cover 97.5% of the step "
            "(must be within 1% of 100)"]
