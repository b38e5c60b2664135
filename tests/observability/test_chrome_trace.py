"""Tests for the Chrome trace_event export and the capture sink."""

import json

import pytest

from repro.distributed.runner import RunConfig, run_training_benchmark
from repro.models import get_model
from repro.observability import (Capture, ChromeTraceStream, TraceBudget,
                                 Tracer, chrome_trace_events)


def _sample_tracer():
    tracer = Tracer()
    tracer.record("op", "MatMul:x", "server0", "executor:worker0", 0.001,
                  0.003, args={"iteration": 0})
    tracer.record("verb", "RDMA_WRITE 4096B", "server0", "nic:qp100",
                  0.002, 0.004)
    tracer.record("op", "Add:y", "server1", "executor:worker1", 0.001, 0.002)
    return tracer


class TestChromeExport:
    def test_processes_and_threads(self):
        events = chrome_trace_events(_sample_tracer())
        meta = [e for e in events if e["ph"] == "M"]
        process_names = {e["args"]["name"] for e in meta
                         if e["name"] == "process_name"}
        thread_names = {e["args"]["name"] for e in meta
                        if e["name"] == "thread_name"}
        assert process_names == {"server0", "server1"}
        assert thread_names == {"executor:worker0", "nic:qp100",
                                "executor:worker1"}

    def test_span_events_microseconds(self):
        events = chrome_trace_events(_sample_tracer())
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 3
        op = next(e for e in spans if e["name"] == "MatMul:x")
        assert op["ts"] == 1000.0
        assert op["dur"] == 2000.0
        assert op["cat"] == "op"
        assert op["args"] == {"iteration": 0}

    def test_same_host_shares_pid_distinct_tid(self):
        events = chrome_trace_events(_sample_tracer())
        spans = {e["name"]: e for e in events if e["ph"] == "X"}
        assert spans["MatMul:x"]["pid"] == spans["RDMA_WRITE 4096B"]["pid"]
        assert spans["MatMul:x"]["tid"] != spans["RDMA_WRITE 4096B"]["tid"]
        assert spans["MatMul:x"]["pid"] != spans["Add:y"]["pid"]

    def test_pid_base_and_label(self):
        events = chrome_trace_events(_sample_tracer(), pid_base=101,
                                     label="runA")
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert pids == {101, 102}
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names == {"runA/server0", "runA/server1"}

    def test_write_round_trips(self, tmp_path):
        path = tmp_path / "out.trace.json"
        stream = ChromeTraceStream(str(path))
        stream.add_run(_sample_tracer())
        stream.close()
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) > 0


class TestStreamingExport:
    def test_stream_matches_in_memory_export(self, tmp_path):
        tracer = _sample_tracer()
        path = tmp_path / "stream.trace.json"
        stream = ChromeTraceStream(str(path))
        stream.add_run(tracer)
        stream.close()
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"] == chrome_trace_events(tracer)
        assert loaded["displayTimeUnit"] == "ms"

    def test_event_cap_writes_truncation_marker(self, tmp_path):
        tracer = Tracer()
        for i in range(20):
            tracer.record("op", f"op{i}", "server0", "executor:w0",
                          float(i), float(i) + 0.5)
        path = tmp_path / "capped.trace.json"
        stream = ChromeTraceStream(str(path), max_events=5)
        stream.add_run(tracer)
        stream.close()
        loaded = json.loads(path.read_text())
        spans = [e for e in loaded["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 5
        (marker,) = [e for e in loaded["traceEvents"]
                     if e["name"] == "trace truncated"]
        assert marker["args"] == {"dropped_spans": 15,
                                  "reason": "event cap"}

    def test_metadata_exempt_from_cap(self, tmp_path):
        path = tmp_path / "meta.trace.json"
        stream = ChromeTraceStream(str(path), max_events=1)
        stream.add_run(_sample_tracer())
        stream.close()
        loaded = json.loads(path.read_text())
        names = {e["args"]["name"] for e in loaded["traceEvents"]
                 if e.get("ph") == "M" and e["name"] == "process_name"}
        assert names == {"server0", "server1"}  # attribution survives

    def test_invalid_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ChromeTraceStream(str(tmp_path / "x.json"), max_events=0)

    def test_budget_truncation_marker_in_events(self):
        tracer = Tracer(budget=TraceBudget(rate=0.2))
        for i in range(10):
            tracer.record("op", f"op{i}", "server0", "executor:w0",
                          float(i), float(i) + 0.5)
        events = chrome_trace_events(tracer)
        (marker,) = [e for e in events if e["name"] == "trace truncated"]
        assert marker["args"] == {"dropped_spans": 8,
                                  "reason": "trace budget"}


class TestCaptureSink:
    def test_disabled_by_default(self, tmp_path):
        # only a run handed a sink traces, and only into that sink
        assert RunConfig().capture is None
        common = dict(num_servers=2, batch_size=4, iterations=2)
        bare = run_training_benchmark(get_model("FCN-5"), "RDMA", **common)
        assert bare.tracer is None
        sink = Capture(metrics_json=str(tmp_path / "m.json"))
        run = run_training_benchmark(get_model("FCN-5"), "RDMA", **common,
                                     config=RunConfig(capture=sink))
        assert run.tracer is not None
        sink.flush()
        metrics = json.loads((tmp_path / "m.json").read_text())
        assert [r["label"] for r in metrics["runs"]] == \
            ["FCN-5/RDMA/ps/n2/b4"]

    def test_merged_multi_run_trace(self, tmp_path):
        trace_path = tmp_path / "merged.trace.json"
        metrics_path = tmp_path / "runs.metrics.json"
        sink = Capture(trace_out=str(trace_path),
                       metrics_json=str(metrics_path))
        sink.add("run0", _sample_tracer(), meta={"servers": 2})
        sink.add("run1", _sample_tracer())
        written = sink.flush()
        assert set(written) == {"trace", "metrics"}

        trace = json.loads(trace_path.read_text())
        pids = {e["pid"] for e in trace["traceEvents"]}
        # Two runs land in disjoint pid ranges.
        assert pids == {1, 2, 101, 102}
        labels = {e["args"]["name"] for e in trace["traceEvents"]
                  if e.get("ph") == "M" and e["name"] == "process_name"}
        assert "run0/server0" in labels and "run1/server0" in labels

        metrics = json.loads(metrics_path.read_text())
        assert [r["label"] for r in metrics["runs"]] == ["run0", "run1"]
        assert metrics["runs"][0]["meta"] == {"servers": 2}
        assert metrics["runs"][0]["span_counts"]["op"] == 2

    def test_metrics_only_capture(self, tmp_path):
        metrics_path = tmp_path / "only.metrics.json"
        sink = Capture(metrics_json=str(metrics_path))
        sink.add("solo", _sample_tracer())
        written = sink.flush()
        assert written == {"metrics": str(metrics_path)}
        assert json.loads(metrics_path.read_text())["runs"][0]["label"] == \
            "solo"

    def test_each_sink_keeps_its_own_runs(self, tmp_path):
        armed = Capture(trace_out=str(tmp_path / "armed.json"))
        armed.add("run0", _sample_tracer())
        Capture(trace_out=str(tmp_path / "fresh.json")).flush()
        armed.flush()
        fresh = json.loads((tmp_path / "fresh.json").read_text())
        assert fresh["traceEvents"] == []
        armed_events = json.loads((tmp_path / "armed.json").read_text())
        assert armed_events["traceEvents"]
