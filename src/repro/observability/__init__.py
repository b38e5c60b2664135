"""End-to-end tracing and profiling for the simulated stack.

The evaluation of a "where does the time go" paper rests on being able
to decompose an iteration into compute, serialization, wire transit,
and poll-wait — this package provides that decomposition as a
first-class subsystem instead of ad-hoc prints:

* :class:`Tracer` — timestamped spans (clocked by ``Simulator.now``)
  from every layer: executor op execution and park/wake cycles, RDMA
  verb issue/complete, CQ polling, tensor-transfer protocol phases,
  and collective fragment hops.  Enabled per cluster via
  ``Cluster.enable_tracing()``; when disabled every instrumented fast
  path pays a single attribute check (the ``MetricsCollector``
  pattern).  A :class:`TraceBudget` bounds what a tracer *retains*
  (1-in-k sampling, a host subset) without ever touching what it
  *accounts*, its per-host flight-recorder ring, or the spans its
  stall report reads — the sum-to-step-time invariant survives any
  budget.
* :class:`MetricsRegistry` — counters, gauges (with bounded history
  sampling), and histograms (transfer-size distribution, poll
  iterations per wake, CQ depth, arena bytes registered) attached to
  the tracer and merged into ``RunStats``.
* :class:`Telemetry` — fixed-memory streaming time-series: decimating
  ring series plus P² quantile sketches per metric, with per-rack and
  fleet rollups.  O(hosts + links) memory however long the run.
* :mod:`~repro.observability.anomaly` — online MAD-based straggler
  and link-hotspot detection plus serving SLO burn-rate alerts,
  emitting structured sim-time-stamped :class:`Incident` records.
* :mod:`~repro.observability.chrome_trace` — streaming Chrome
  ``trace_event`` JSON export viewable in Perfetto: one process per
  simulated host, one thread per executor / CQ poller / protocol
  track, with explicit truncation markers when a cap bites.
* :class:`StallReport` — the per-iteration stall attribution
  (compute / wire / poll-wait / serialization), i.e. a programmatic
  Figure-8-style breakdown whose components sum to the measured
  iteration time by construction.
* :class:`Capture` — the harness-facing sink behind ``--trace-out`` /
  ``--metrics-json`` / ``--telemetry-out``, handed to runs on
  ``RunConfig.capture``.
"""

from .anomaly import (Incident, detect_link_hotspots, detect_outliers,
                      detect_run_anomalies, detect_stragglers,
                      mad_zscores, slo_burn_alerts)
from .chrome_trace import ChromeTraceStream, chrome_trace_events
from .registry import (Counter, DEFAULT_PERCENTILES, Gauge,
                       Histogram, MetricsRegistry)
from .stall import StallReport, build_stall_report
from .timeseries import (P2Quantile, QuantileSketch, RingSeries,
                         Telemetry, rack_label)
from .tracer import (CATEGORIES, EXECUTOR_CATEGORIES, Span, TraceBudget,
                     Tracer, executor_track, protocol_track)
from .capture import Capture

__all__ = [
    "CATEGORIES", "Capture", "ChromeTraceStream", "Counter",
    "DEFAULT_PERCENTILES", "EXECUTOR_CATEGORIES", "Gauge", "Histogram",
    "Incident", "MetricsRegistry", "P2Quantile", "QuantileSketch",
    "RingSeries", "Span", "StallReport", "Telemetry", "TraceBudget",
    "Tracer", "build_stall_report", "chrome_trace_events",
    "detect_link_hotspots", "detect_outliers", "detect_run_anomalies",
    "detect_stragglers", "executor_track", "mad_zscores",
    "protocol_track", "rack_label", "slo_burn_alerts",
]
