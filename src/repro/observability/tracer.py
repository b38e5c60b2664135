"""The tracer: timestamped spans on (host, track) timelines.

A *span* is one interval of simulated time attributed to a category
("op", "verb", "cq_poll", "collective", ...) on a *track* — the
equivalent of a thread inside a host's process in the Chrome trace
model.  Components record spans retrospectively (they know both
endpoints once the work is booked), so tracing never yields and never
perturbs simulated timing: a traced run and an untraced run produce
bit-identical clocks.

Besides the raw span list the tracer keeps **breakdown accumulators**:
``account()`` adds a span's duration to a per-(host, track, iteration)
category sum.  The graph executor routes *every* simulated second of
its iteration through ``account()`` (each ``yield`` is bracketed), so
the per-iteration category sums add up to the executor's wall time
exactly — the invariant the stall-attribution report is built on.

High-frequency micro-samples (scheduler dispatch, individual flag-byte
checks) are accounted but not emitted as spans (``emit=False``); they
would dominate the trace file while being individually meaningless.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from .registry import MetricsRegistry
from .timeseries import Telemetry


#: canonical span categories, by layer
CATEGORIES = (
    "op",             # executor: one operator's execution
    "sched",          # executor: ready-queue pop + dispatch (not emitted)
    "poll",           # executor: flag-byte checks + requeues (not emitted)
    "poll_wait",      # executor: parked, all pollers missed (idle backoff)
    "wire_wait",      # executor: parked, waiting on async completions
    "verb",           # NIC: one RDMA verb from post to completion
    "wire",           # NIC/TCP: payload occupancy on the wire
    "cq_poll",        # device layer: one CQ poller wake + drain
    "protocol",       # transfer layer: one protocol exchange (§3.2/§3.3)
    "serialization",  # transfer layer: staging copies, meta pack/unpack
    "collective",     # collective fragment chunk hop
    "link_queue",     # fabric: transfer queued behind a busy trunk link
    "iteration",      # session: one mini-batch iteration
    "fault",          # fault plane: one injected fault (zero-duration)
    "retry",          # recovery layer: one backoff + re-issue
)

#: categories the executor attributes its own timeline to; these sum
#: to the executor's iteration wall time by construction
EXECUTOR_CATEGORIES = ("op", "sched", "poll", "poll_wait", "wire_wait",
                       "serialization")


def executor_track(device: str) -> str:
    """Track name of the executor thread for ``device``."""
    return f"executor:{device}"


def protocol_track(device: str) -> str:
    """Track carrying transfer-protocol phases issued for ``device``."""
    return f"protocol:{device}"


@dataclass
class Span:
    """One attributed interval of simulated time."""

    category: str
    name: str
    host: str       # Chrome trace "process"
    track: str      # Chrome trace "thread" within the host
    start: float
    end: float
    args: Optional[Dict[str, object]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class IterationWindow:
    """Absolute clock bounds of one session iteration."""

    iteration: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


#: spans kept per host in the flight recorder ring
DEFAULT_FLIGHT_LEN = 64

#: histogram sample cap applied to a budgeted tracer's registry
BUDGETED_HISTOGRAM_SAMPLES = 65536

#: categories the stall report reads; kept in full whatever the budget
STALL_CATEGORIES = ("wire", "link_queue", "fault", "retry")


@dataclass(frozen=True)
class TraceBudget:
    """Bounds on what a tracer *retains* (never on what it accounts).

    The two settings ``--trace-sample`` and ``--trace-hosts`` set:

    * ``rate`` — deterministic 1-in-k sampling of emitted spans
      (k = round(1/rate)), counted per category, not drawn at random,
      so two runs of the same configuration retain the same spans.
      ``iteration`` spans (one per step, the timeline's anchors) are
      never sampled out.
    * ``hosts`` — only spans from these hosts are retained (``None``
      keeps every host).  Host-less timelines (``cluster`` iteration
      markers, ``fabric`` link queues) are always kept.

    Breakdown accounting (``account``), the telemetry digest, the
    flight recorder and the stall report's span lists always see every
    span; a budget only thins the span list backing trace export.
    """

    rate: float = 1.0
    hosts: Optional[frozenset] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")


#: tracks that are not tied to a simulated host; never host-filtered
_HOSTLESS = ("cluster", "fabric")


class Tracer:
    """Span sink + breakdown accumulators + metrics registry.

    ``budget`` (optional) bounds span retention — see
    :class:`TraceBudget`; ``telemetry`` (optional) receives an O(1)
    digest of every span *before* any sampling decision, so streaming
    series and the anomaly detector see the full event stream even
    when the trace file keeps one span in a thousand.
    """

    def __init__(self, budget: Optional[TraceBudget] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.budget = budget
        self.telemetry = telemetry
        self.spans: List[Span] = []
        self.metrics = MetricsRegistry(
            histogram_max_samples=(BUDGETED_HISTOGRAM_SAMPLES
                                   if budget is not None else None))
        #: (host, track, iteration) -> {category: seconds}
        self.breakdowns: Dict[Tuple[str, str, int], Dict[str, float]] = {}
        self.iteration_windows: List[IterationWindow] = []
        #: spans not retained because of the budget (sampled out or
        #: host-filtered)
        self.dropped_spans = 0
        #: per-host ring of the most recent spans, fed before retention
        self.flight: Dict[str, Deque[Span]] = {}
        #: every span of the :data:`STALL_CATEGORIES`, fed before retention
        self.stall_spans: Dict[str, List[Span]] = {
            category: [] for category in STALL_CATEGORIES}
        self._stride = (1 if budget is None
                        else max(1, int(round(1.0 / budget.rate))))
        self._sample_counts: Dict[str, int] = {}

    @property
    def truncated(self) -> bool:
        """True when the budget dropped at least one span."""
        return self.dropped_spans > 0

    # -- recording -------------------------------------------------------------------

    def _retain(self, category: str, host: str) -> bool:
        """The budget's verdict for one would-be span."""
        budget = self.budget
        if budget is None:
            return True
        if (budget.hosts is not None and host not in budget.hosts
                and host not in _HOSTLESS):
            return False
        if self._stride > 1 and category != "iteration":
            count = self._sample_counts.get(category, 0)
            self._sample_counts[category] = count + 1
            if count % self._stride != 0:
                return False
        return True

    def record(self, category: str, name: str, host: str, track: str,
               start: float, end: float,
               args: Optional[Dict[str, object]] = None) -> Optional[Span]:
        """Append one retrospective span; returns it (None if sampled out).

        The telemetry digest, the flight recorder and the stall
        report's span lists always see the span; only retention in
        :attr:`spans` is subject to the budget.
        """
        end = max(end, start)
        if self.telemetry is not None:
            self.telemetry.observe_span(category, host, track, start, end)
        span = Span(category=category, name=name, host=host, track=track,
                    start=start, end=end, args=args)
        ring = self.flight.get(host)
        if ring is None:
            ring = self.flight[host] = deque(maxlen=DEFAULT_FLIGHT_LEN)
        ring.append(span)
        stall = self.stall_spans.get(category)
        if stall is not None:
            stall.append(span)
        if not self._retain(category, host):
            self.dropped_spans += 1
            return None
        self.spans.append(span)
        return span

    def flight_dump(self, host: str) -> List[Span]:
        """The flight recorder's most recent spans on ``host``."""
        return list(self.flight.get(host, ()))

    def account(self, host: str, track: str, iteration: int, category: str,
                start: float, end: float, name: Optional[str] = None,
                emit: bool = True) -> None:
        """Add ``end - start`` to a per-iteration category sum.

        With ``emit`` the interval is also recorded as a span (skipped
        for zero-duration intervals); without it only the accumulator
        moves — used for micro-samples too frequent to plot.
        """
        duration = end - start
        if duration <= 0:
            return
        key = (host, track, iteration)
        bucket = self.breakdowns.get(key)
        if bucket is None:
            bucket = self.breakdowns[key] = {}
        bucket[category] = bucket.get(category, 0.0) + duration
        if emit:
            self.record(category, name or category, host, track, start, end,
                        args={"iteration": iteration})

    def mark_iteration(self, iteration: int, start: float, end: float) -> None:
        """Record one session iteration's absolute clock window."""
        self.iteration_windows.append(
            IterationWindow(iteration=iteration, start=start, end=end))
        self.record("iteration", f"iteration {iteration}", "cluster",
                    "iterations", start, end, args={"iteration": iteration})

    # -- queries ---------------------------------------------------------------------

    def tracks(self) -> List[Tuple[str, str]]:
        """Distinct (host, track) pairs, in first-seen order."""
        seen: Dict[Tuple[str, str], None] = {}
        for span in self.spans:
            seen.setdefault((span.host, span.track), None)
        return list(seen)

    def spans_by_category(self, category: str) -> List[Span]:
        return [s for s in self.spans if s.category == category]

    def categories(self) -> Dict[str, int]:
        """Span count per category (a quick coverage check)."""
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span.category] = out.get(span.category, 0) + 1
        return out
