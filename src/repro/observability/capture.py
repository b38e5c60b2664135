"""Harness-facing capture sink behind ``--trace-out``/``--metrics-json``/
``--telemetry-out``.

Benchmark entry points are several layers below the CLI (experiment ->
series -> ``run_training_benchmark``), and one harness invocation may
execute many benchmark configurations.  Rather than thread output
paths through every signature, the CLI configures a module-level sink;
each traced run registers itself with a label, and ``flush_capture``
finalizes the outputs at the end.  The sink is an accumulator with a
flush, not configuration: it is the one piece of ambient state
``run_training_benchmark`` reads (everything else is its ``RunConfig``).

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

_trace_out: Optional[str] = None
_metrics_json: Optional[str] = None
_telemetry_out: Optional[str] = None
_trace_event_cap: Optional[int] = DEFAULT_TRACE_EVENT_CAP
_stream: Optional[ChromeTraceStream] = None
_runs: List[Dict[str, object]] = []
_telemetry_runs: List[Dict[str, object]] = []


def configure_capture(trace_out: Optional[str] = None,
                      metrics_json: Optional[str] = None,
                      telemetry_out: Optional[str] = None,
                      trace_event_cap: Optional[int] =
                      DEFAULT_TRACE_EVENT_CAP) -> None:
    """Set (or clear) the output paths; resets any buffered runs."""
    global _trace_out, _metrics_json, _telemetry_out, _trace_event_cap
    global _stream
    if _stream is not None:
        _stream.close()
        _stream = None
    _trace_out = trace_out
    _metrics_json = metrics_json
    _telemetry_out = telemetry_out
    _trace_event_cap = trace_event_cap
    _runs.clear()
    _telemetry_runs.clear()


def capture_enabled() -> bool:
    """True when some output path is configured — runs should trace."""
    return (_trace_out is not None or _metrics_json is not None
            or _telemetry_out is not None)


def telemetry_enabled() -> bool:
    """True when the telemetry summary sink is configured."""
    return _telemetry_out is not None


def capture_run(label: str, tracer: Tracer,
                meta: Optional[Dict[str, object]] = None,
                incidents: Optional[List[Dict[str, object]]] = None) -> None:
    """Register one traced run's spans/metrics/telemetry under ``label``."""
    global _stream
    if not capture_enabled():
        return
    run_index = len(_runs)
    if _trace_out is not None:
        if _stream is None:
            _stream = ChromeTraceStream(_trace_out,
                                        max_events=_trace_event_cap)
        _stream.add_run(tracer, pid_base=1 + run_index * _PID_STRIDE,
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
    _runs.append(entry)
    if _telemetry_out is not None:
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
        _telemetry_runs.append(summary)


def flush_capture() -> Dict[str, str]:
    """Write the configured files; returns {kind: path} for what was written."""
    global _stream
    written: Dict[str, str] = {}
    if _trace_out is not None:
        if _stream is None:  # no traced run registered: valid empty trace
            _stream = ChromeTraceStream(_trace_out,
                                        max_events=_trace_event_cap)
        _stream.close()
        _stream = None
        written["trace"] = _trace_out
    if _metrics_json is not None:
        with open(_metrics_json, "w") as handle:
            json.dump({"runs": _runs}, handle, indent=2)
        written["metrics"] = _metrics_json
    if _telemetry_out is not None:
        incident_total = sum(len(run["incidents"])
                             for run in _telemetry_runs)
        with open(_telemetry_out, "w") as handle:
            json.dump({"runs": _telemetry_runs,
                       "incident_total": incident_total}, handle, indent=2)
        written["telemetry"] = _telemetry_out
    return written


def reset_capture() -> None:
    """Clear configuration and buffers (used by tests)."""
    configure_capture(None, None, None)
