"""Per-iteration stall attribution — a programmatic Figure-8.

The executor brackets every ``yield`` in its iteration loop and routes
the elapsed simulated time through ``Tracer.account()``, so for each
(host, executor track, iteration) the category sums partition the
executor's wall time exactly.  An iteration ends when its *slowest*
executor finishes (the session barrier), so that executor's breakdown
*is* the iteration's: its components sum to the measured iteration
time to within float rounding.

Protocol-track serialization (staging copies in detached sender
processes, metadata pack/unpack) happens concurrently with executor
progress; it is reported as an *overlapped* figure per iteration, not
added to the timeline sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .tracer import Tracer


@dataclass
class ExecutorBreakdown:
    """One executor's attributed time within one iteration."""

    host: str
    track: str
    iteration: int
    components: Dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.components.values())


@dataclass
class IterationStall:
    """Stall attribution for one iteration."""

    iteration: int
    duration: float                    # measured (session) iteration time
    executors: List[ExecutorBreakdown]
    overlapped_serialization: float    # protocol-track work, concurrent
    wire_busy: float = 0.0             # union of wire spans in the window
    #: fabric uplink queueing inside the window, summed across links —
    #: transfer-seconds spent parked behind a busy trunk link (two
    #: links congested at once count twice: it is a contention volume,
    #: not a timeline share)
    link_queue: float = 0.0

    @property
    def critical(self) -> Optional[ExecutorBreakdown]:
        """The slowest executor — the one defining the iteration time."""
        if not self.executors:
            return None
        return max(self.executors, key=lambda e: e.total)

    @property
    def components(self) -> Dict[str, float]:
        """The critical executor's category sums (empty if untraced)."""
        critical = self.critical
        return dict(critical.components) if critical else {}

    @property
    def accounted(self) -> float:
        """Sum of the critical path's components."""
        return sum(self.components.values())

    @property
    def coverage(self) -> float:
        """accounted / measured — the "within 1%" acceptance figure."""
        return self.accounted / self.duration if self.duration else 0.0

    @property
    def exposed_wait(self) -> float:
        """Critical-path time spent parked on communication.

        ``wire_wait`` (blocked on async completions) plus ``poll_wait``
        (all pollers missed, idle backoff) — the communication time the
        scheduler failed to hide under compute.
        """
        components = self.components
        return (components.get("wire_wait", 0.0)
                + components.get("poll_wait", 0.0))

    @property
    def hidden_wire(self) -> float:
        """Wire occupancy that overlapped with critical-path progress."""
        return max(self.wire_busy - self.exposed_wait, 0.0)

    @property
    def overlap_efficiency(self) -> Optional[float]:
        """Fraction of wire time hidden under compute (None if no wire).

        1.0 means every second the wire was busy, the critical-path
        executor made progress on something else; 0.0 means the
        executor sat exposed for at least as long as the wire ran.
        A priority/eager scheduler should push this figure *up*.
        """
        if self.wire_busy <= 0.0:
            return None
        return min(self.hidden_wire / self.wire_busy, 1.0)


@dataclass
class StallReport:
    """Stall attribution across all traced iterations."""

    iterations: List[IterationStall] = field(default_factory=list)
    #: fault/recovery summary (only populated when a fault plane was
    #: armed): injected-fault counts by kind plus retry totals
    faults: Dict[str, object] = field(default_factory=dict)

    def totals(self) -> Dict[str, float]:
        """Critical-path category sums across iterations."""
        out: Dict[str, float] = {}
        for it in self.iterations:
            for category, seconds in it.components.items():
                out[category] = out.get(category, 0.0) + seconds
        return out

    def fractions(self) -> Dict[str, float]:
        totals = self.totals()
        denom = sum(totals.values())
        if not denom:
            return {}
        return {category: seconds / denom
                for category, seconds in totals.items()}

    def overlap_efficiency(self) -> Optional[float]:
        """Aggregate hidden-wire fraction across iterations (None if no wire)."""
        wire = sum(it.wire_busy for it in self.iterations)
        if wire <= 0.0:
            return None
        hidden = sum(it.hidden_wire for it in self.iterations)
        return min(hidden / wire, 1.0)

    def link_contention(self) -> float:
        """Total uplink queueing (transfer-seconds) across iterations.

        Zero on a flat topology or an uncontended fat tree; growing
        with oversubscription.  Reported alongside (not inside) the
        critical-path categories because queueing delays the *wire*
        timeline — the executor sees it only as longer ``wire_wait``.
        """
        return sum(it.link_queue for it in self.iterations)

    def to_dict(self) -> Dict[str, object]:
        return {
            "totals": self.totals(),
            "fractions": self.fractions(),
            "overlap_efficiency": self.overlap_efficiency(),
            "link_contention_seconds": self.link_contention(),
            "faults": dict(self.faults),
            "iterations": [
                {
                    "iteration": it.iteration,
                    "duration": it.duration,
                    "accounted": it.accounted,
                    "coverage": it.coverage,
                    "components": it.components,
                    "overlapped_serialization": it.overlapped_serialization,
                    "wire_busy": it.wire_busy,
                    "link_queue": it.link_queue,
                    "overlap_efficiency": it.overlap_efficiency,
                    "executors": [
                        {"host": e.host, "track": e.track,
                         "components": e.components, "total": e.total}
                        for e in it.executors
                    ],
                }
                for it in self.iterations
            ],
        }

def _wire_busy_union(intervals: List[tuple], start: float,
                     end: float) -> float:
    """Total time in [start, end] covered by >= 1 wire span.

    ``intervals`` must be sorted by start time; overlapping transfers
    (several NICs active at once) are merged so concurrent occupancy is
    not double-counted — the figure answers "for how long was *any*
    wire busy", the denominator of overlap efficiency.
    """
    busy = 0.0
    cursor = start
    for span_start, span_end in intervals:
        if span_end <= cursor:
            continue
        if span_start >= end:
            break
        lo = max(span_start, cursor)
        hi = min(span_end, end)
        if hi > lo:
            busy += hi - lo
            cursor = hi
    return busy


def build_stall_report(tracer: Tracer) -> StallReport:
    """Assemble the report from a tracer's accumulators and windows.

    Wire, link-queue, fault and retry figures come from
    ``tracer.stall_spans``, which holds every span of those categories
    whatever the retention budget: a sampled trace reports the same
    stalls as a full one.
    """
    report = StallReport()
    spans = tracer.stall_spans
    wire_spans = sorted(((s.start, s.end) for s in spans["wire"]),
                        key=lambda iv: iv[0])
    queue_spans = [(s.start, s.end) for s in spans["link_queue"]]
    for window in tracer.iteration_windows:
        executors = [
            ExecutorBreakdown(host=host, track=track,
                              iteration=window.iteration,
                              components=dict(bucket))
            for (host, track, iteration), bucket in tracer.breakdowns.items()
            if iteration == window.iteration
            and track.startswith("executor:")
        ]
        executors.sort(key=lambda e: (e.host, e.track))
        overlapped = sum(
            bucket.get("serialization", 0.0)
            for (host, track, iteration), bucket in tracer.breakdowns.items()
            if iteration == window.iteration
            and track.startswith("protocol:"))
        report.iterations.append(
            IterationStall(iteration=window.iteration,
                           duration=window.duration,
                           executors=executors,
                           overlapped_serialization=overlapped,
                           wire_busy=_wire_busy_union(
                               wire_spans, window.start, window.end),
                           link_queue=sum(
                               max(0.0, min(end, window.end)
                                   - max(start, window.start))
                               for start, end in queue_spans)))
    fault_spans, retry_spans = spans["fault"], spans["retry"]
    if fault_spans or retry_spans:
        by_kind: Dict[str, int] = {}
        for span in fault_spans:
            kind = str((span.args or {}).get("kind", "unknown"))
            by_kind[kind] = by_kind.get(kind, 0) + 1
        retransmit_spans = [s for s in retry_spans
                            if (s.args or {}).get("retransmit")]
        report.faults = {
            "injected": len(fault_spans),
            "by_kind": by_kind,
            "retries": len(retry_spans),
            "retry_seconds": sum(s.duration for s in retry_spans),
            # selective-repeat runs: how much of the retry traffic was
            # chunk-granular retransmission and how many bytes it re-sent
            "retransmits": len(retransmit_spans),
            "retransmitted_bytes": sum(
                int((s.args or {}).get("size", 0))
                for s in retransmit_spans),
        }
    return report
