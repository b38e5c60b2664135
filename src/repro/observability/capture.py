"""Harness-facing capture sink behind ``--trace-out``/``--metrics-json``/
``--telemetry-out``.

One harness invocation may execute many benchmark configurations.
``cli.main`` builds one :class:`Capture` from its flags and hands it
down on ``RunConfig.capture``; every run that receives it traces,
registers itself with a label (:meth:`Capture.add`), and the CLI
finalizes the outputs with :meth:`Capture.flush`.  A run without a
sink on its config captures nothing: what a run captured is a question
about its arguments, not about process history.

The Chrome trace is **streamed**: the sink opens the file on the first
registered run and appends events run by run (runs separated into
disjoint pid ranges), so the merged trace never lives in memory; an
event cap (``trace_event_cap``) bounds the file with an explicit
truncation marker.  The telemetry sink collects each run's bounded
time-series summary plus its incident log — O(hosts + links) per run,
never O(events).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .chrome_trace import ChromeTraceStream
from .stall import build_stall_report
from .tracer import Tracer

_PID_STRIDE = 100  # max hosts per run in the merged trace

#: default cap on complete span events across a merged capture file
DEFAULT_TRACE_EVENT_CAP = 1_000_000


class Capture:
    """An accumulator of traced runs with one flush to the output paths."""

    def __init__(self, trace_out: Optional[str] = None,
                 metrics_json: Optional[str] = None,
                 telemetry_out: Optional[str] = None,
                 trace_event_cap: int = DEFAULT_TRACE_EVENT_CAP) -> None:
        self.trace_out = trace_out
        self.metrics_json = metrics_json
        self.telemetry_out = telemetry_out
        self.trace_event_cap = trace_event_cap
        self._stream: Optional[ChromeTraceStream] = None
        self._runs: List[Dict[str, object]] = []
        self._telemetry_runs: List[Dict[str, object]] = []

    def _open_stream(self) -> ChromeTraceStream:
        if self._stream is None:
            self._stream = ChromeTraceStream(
                self.trace_out, max_events=self.trace_event_cap)
        return self._stream

    def add(self, label: str, tracer: Tracer,
            meta: Optional[Dict[str, object]] = None,
            incidents: Optional[List[Dict[str, object]]] = None) -> None:
        """Register one traced run's spans/metrics/telemetry under ``label``."""
        if self.trace_out is not None:
            self._open_stream().add_run(
                tracer, pid_base=1 + len(self._runs) * _PID_STRIDE,
                label=label)
        entry: Dict[str, object] = {
            "label": label,
            "metrics": tracer.metrics.to_dict(),
            "stall": build_stall_report(tracer).to_dict(),
            "span_counts": tracer.categories(),
        }
        if tracer.budget is not None:
            entry["dropped_spans"] = tracer.dropped_spans
        if meta:
            entry["meta"] = dict(meta)
        self._runs.append(entry)
        if self.telemetry_out is not None:
            summary: Dict[str, object] = {
                "label": label,
                "spans_retained": len(tracer.spans),
                "spans_dropped": tracer.dropped_spans,
                "incidents": list(incidents or []),
            }
            if tracer.telemetry is not None:
                summary["telemetry"] = tracer.telemetry.to_dict()
            if meta:
                summary["meta"] = dict(meta)
            self._telemetry_runs.append(summary)

    def flush(self) -> Dict[str, str]:
        """Write the configured files; returns {kind: path} for what was written."""
        written: Dict[str, str] = {}
        if self.trace_out is not None:
            # no traced run registered: still a valid empty trace
            self._open_stream().close()
            self._stream = None
            written["trace"] = self.trace_out
        if self.metrics_json is not None:
            with open(self.metrics_json, "w") as handle:
                json.dump({"runs": self._runs}, handle, indent=2)
            written["metrics"] = self.metrics_json
        if self.telemetry_out is not None:
            incident_total = sum(len(run["incidents"])
                                 for run in self._telemetry_runs)
            with open(self.telemetry_out, "w") as handle:
                json.dump({"runs": self._telemetry_runs,
                           "incident_total": incident_total}, handle,
                          indent=2)
            written["telemetry"] = self.telemetry_out
        return written
