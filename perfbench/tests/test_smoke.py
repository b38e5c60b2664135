"""Smoke test of the benchmark itself (not a tier-1 test).

Run explicitly from the repo root: ``python3 -m pytest perfbench/tests``.
It drives the ``--quick`` profile (8-worker cells, 200 requests, one
repetition) through the same command the driver uses, so a renamed boundary
callable, a metric that drifted out of ``BENCHMARK.json`` or a layer table
that stopped adding up fails here in well under a minute instead of in a
45-minute benchmark session.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from perfbench import tracing
from perfbench.check import check
from perfbench.metrics import METRICS
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    MANIFEST = json.load(_fh)


def run_quick(workload: str, trace: int):
    """``(full document, driver line)`` of one quick run.

    The untraced quick profile must finish within 30 s; the traced one runs
    the cells up to three times over, once under ``cProfile``.
    """
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "run", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=170 if trace else 30,
        check=True)
    text = done.stdout.decode().rstrip()
    document, _, line = text.rpartition("\n")
    return json.loads(document), json.loads(line)


def test_manifest_matches_registry():
    declared = {group: {m["name"]: m for m in MANIFEST[group]}
                for group in ("end_to_end", "per_layer")}
    for group, metrics in declared.items():
        assert set(metrics) == {m.name for m in METRICS.values()
                                if m.driver_group == group}
        for name, row in metrics.items():
            assert NAME.match(name), name
            assert row["unit"] == METRICS[name].unit
            assert row["better"] == METRICS[name].better
    for row in MANIFEST["end_to_end"]:
        assert row["bound"] == METRICS[row["name"]].bound <= 0.25
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert "setup_s" in declared["end_to_end"]


def test_boundaries_resolve():
    for boundary in tracing.BOUNDARIES:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        try:
            tracing.resolve(boundary)
        finally:
            sys.path.pop(0)


def test_layer_table_charges_builtins_to_their_caller():
    repro_fn = ("/x/src/repro/simnet/memory.py", 10, "alloc")
    numpy_py = ("/usr/lib/numpy/core/numeric.py", 5, "zeros_like")
    builtin = ("~", 0, "<built-in method numpy.zeros>")
    root = ("/x/perfbench/child.py", 1, "run_pass")
    raw = {
        root: (1, 1, 0.5, 4.0, {}),
        repro_fn: (1, 1, 1.0, 3.5, {root: (1, 1, 1.0, 3.5)}),
        numpy_py: (1, 1, 0.5, 2.5, {repro_fn: (1, 1, 0.5, 2.5)}),
        builtin: (2, 2, 2.0, 2.0, {numpy_py: (2, 2, 2.0, 2.0)}),
    }
    table = tracing.layer_table(raw)
    assert table["simnet.memory"] == pytest.approx(3.5)
    assert table["other"] == pytest.approx(0.5)
    assert sum(table.values()) == pytest.approx(4.0)


def _result_set(events=100, wall_s=2.0, seed=3, step_ms=5.0):
    def entry(value, **extra):
        return {"value": value, **extra}
    measure = {"seed": seed, "quick": False, "metrics": {
        "wall_s": entry(wall_s, spread=0.01),
        "sim_step_ms": entry(step_ms)}}
    trace = {"seed": seed, "quick": False, "metrics": {
        "simnet.simulator.events": entry(events)}}
    return {"results": {"ring24-fattree": {"measure": measure,
                                           "trace": trace}}}


def test_check_compares_sim_and_counts_exactly():
    assert check(_result_set(), _result_set(wall_s=2.2))[1]
    assert not check(_result_set(), _result_set(wall_s=2.6))[1]
    report, ok = check(_result_set(), _result_set(events=200))
    assert not ok and "simnet.simulator.events: 100 -> 200" in report
    assert not check(_result_set(), _result_set(step_ms=5.0001))[1]
    assert not check(_result_set(), _result_set(step_ms=4.9))[1]
    report, ok = check(_result_set(), _result_set(seed=4))
    assert not ok and report.startswith("not compared")
    other = _result_set()
    other["results"]["llm-serve"] = other["results"]["ring24-fattree"]
    assert not check(_result_set(), other)[1]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_profile(workload):
    measured, measured_line = run_quick(workload, 0)
    traced, traced_line = run_quick(workload, 1)
    for document, line, group in ((measured, measured_line, "end_to_end"),
                                  (traced, traced_line, "per_layer")):
        assert document["correct"], document["problems"]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in MANIFEST[group]}
        for name, entry in document["metrics"].items():
            assert NAME.match(name), name
            assert name in METRICS, f"undeclared metric {name}"
            assert entry["unit"] == METRICS[name].unit
            assert entry["clock"] in ("sim", "host", "count")
    for name in ("setup_s", "wall_s", "peak_rss_mb"):
        assert measured_line["metrics"][name]["value"] > 0
    layers = traced["layers"]
    assert sum(row["self_s"] for row in layers) == pytest.approx(
        traced["profiled_total_s"], rel=0.02)
    with open(os.path.join(ROOT, traced["trace_file"])) as fh:
        trace = json.load(fh)
    assert trace["layers"] and trace["spans"]["count"]
    assert all({"name", "start", "end", "parent", "cell"} <= set(span)
               for span in trace["spans"]["count"])
