"""Chrome ``trace_event`` JSON export (viewable in Perfetto).

The mapping follows the trace-event format's process/thread model:
every simulated host becomes a *process* (``pid``), every tracer track
within it (executor, CQ poller, NIC queue pair, protocol engine) a
*thread* (``tid``).  Spans export as complete (``"ph": "X"``) events
with microsecond timestamps — the trace-event clock unit — derived
from the simulator's second-denominated clock.

Export is **streaming**: :class:`ChromeTraceStream` serializes one
event at a time straight to the file, so a 256-worker trace never
builds the whole document in memory; an optional event cap stops the
file from growing unboundedly and leaves an explicit instant-marker
event (``"trace truncated"``) so a viewer knows spans are missing.
Budget-truncated tracers (see :class:`~.tracer.TraceBudget`) get the
same marker carrying their dropped-span count.

``ChromeTraceStream.add_run`` takes a ``pid_base``/``label`` so
several runs (one per benchmark configuration in a harness sweep) can
be merged into a single file without pid collisions.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .tracer import Tracer


_US = 1e6  # simulator seconds -> trace microseconds


def _truncation_marker(pid: int, dropped: int, reason: str) -> dict:
    """The explicit instant event marking an incomplete trace."""
    return {"ph": "i", "pid": pid, "tid": 0, "ts": 0, "s": "g",
            "name": "trace truncated",
            "args": {"dropped_spans": dropped, "reason": reason}}


def _span_events(tracer: Tracer, pid_base: int, label: str):
    """Yield one run's metadata + span events (streaming-friendly)."""
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[str, str], int] = {}
    prefix = f"{label}/" if label else ""

    for host, track in tracer.tracks():
        if host not in pids:
            pid = pids[host] = pid_base + len(pids)
            yield {"ph": "M", "pid": pid, "tid": 0,
                   "name": "process_name",
                   "args": {"name": f"{prefix}{host}"}}
        key = (host, track)
        if key not in tids:
            tid = tids[key] = 1 + sum(1 for k in tids if k[0] == host)
            yield {"ph": "M", "pid": pids[host], "tid": tid,
                   "name": "thread_name", "args": {"name": track}}

    for span in tracer.spans:
        event = {
            "ph": "X",
            "pid": pids[span.host],
            "tid": tids[(span.host, span.track)],
            "ts": span.start * _US,
            "dur": span.duration * _US,
            "cat": span.category,
            "name": span.name,
        }
        if span.args:
            event["args"] = span.args
        yield event

    if tracer.truncated:
        yield _truncation_marker(pid_base, tracer.dropped_spans,
                                 "trace budget")


def chrome_trace_events(tracer: Tracer, pid_base: int = 1,
                        label: str = "") -> List[dict]:
    """Convert a tracer's spans to a flat trace-event list (in memory)."""
    return list(_span_events(tracer, pid_base, label))


class ChromeTraceStream:
    """Incremental trace-file writer with an optional event cap.

    Events are serialized one at a time as they are appended — the
    document never exists in memory.  ``max_events`` caps complete
    ("X") span events across all runs; once exhausted, one truncation
    marker is written and further span events are counted but dropped.
    Metadata events (process/thread names) are exempt from the cap so
    whatever spans did land stay attributed.
    """

    def __init__(self, path: str, max_events: Optional[int] = None) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be positive")
        self.path = path
        self.max_events = max_events
        self.span_events = 0
        self.dropped_events = 0
        self._marker_written = False
        self._handle = open(path, "w")
        self._handle.write('{"traceEvents": [')
        self._first = True

    def _write_event(self, event: dict) -> None:
        if self._first:
            self._first = False
        else:
            self._handle.write(", ")
        self._handle.write(json.dumps(event))

    def add_event(self, event: dict) -> None:
        """Append one raw trace event, honouring the span cap."""
        if event.get("ph") == "X":
            if (self.max_events is not None
                    and self.span_events >= self.max_events):
                self.dropped_events += 1
                return
            self.span_events += 1
        self._write_event(event)

    def add_run(self, tracer: Tracer, pid_base: int = 1,
                label: str = "") -> None:
        """Stream one tracer's events into the file."""
        for event in _span_events(tracer, pid_base, label):
            self.add_event(event)

    def close(self) -> None:
        if self._handle.closed:
            return
        if self.dropped_events and not self._marker_written:
            self._write_event(_truncation_marker(0, self.dropped_events,
                                                 "event cap"))
            self._marker_written = True
        self._handle.write(
            '], "displayTimeUnit": "ms", '
            '"otherData": {"generator": "repro.observability", '
            '"clock": "simulated"}}')
        self._handle.close()
