"""Online anomaly detection over the streaming telemetry.

Three detectors, all cheap enough to run at the end of every traced
run (and, for serving, on a sliding window while the run executes):

* **Stragglers** — robust MAD z-scores over a per-host statistic,
  the mean NIC verb latency (post-to-completion).  A straggler
  fault delays verbs *posted by* the slow host, so its own latency
  distribution shifts while its peers merely wait — the per-host
  series separates cause from victims, which iteration wall time (a
  barrier, identical on every host) cannot.
* **Link hotspots** — the same MAD screen over per-trunk-link
  utilization, with an absolute floor so a uniformly busy fabric is
  not "all outliers" and a uniformly idle one never alerts.
* **SLO burn rate** — tumbling windows over (completion time,
  latency) samples; a window alerts when its SLO-violation fraction
  exceeds the burn threshold, i.e. the deployment is consuming error
  budget at a rate that exhausts it long before the horizon.

Robust-z details: with a symmetric simulated fleet the raw MAD is
frequently ~0 (every host identical), which would flag femtosecond
noise.  The MAD is therefore floored at a fraction of the median
(:data:`MAD_FLOOR_FRAC`), and an outlier must additionally exceed the
median by a *relative* margin (:data:`MIN_EXCESS`) — "3.5 sigma AND at
least 25% slower than the median host".  Fault-free runs stay
silent; the seeded chaos sweep in
``tests/chaos/test_straggler_detection.py`` holds both directions.

Every detection is emitted as a structured, sim-time-stamped
:class:`Incident`, optionally carrying the host's flight-recorder
dump for post-mortem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .tracer import Tracer

#: MAD-to-sigma consistency constant for normal data
MAD_SCALE = 0.6745

#: robust z-score threshold (the classic Iglewicz-Hoaglin 3.5)
Z_THRESHOLD = 3.5

#: an outlier must also exceed the median by this relative margin
MIN_EXCESS = 0.25

#: MAD floor as a fraction of the median (symmetric-fleet guard)
MAD_FLOOR_FRAC = 0.05

#: minimum population for a MAD screen to be meaningful
MIN_POINTS = 4

#: the per-host statistic the straggler screen runs over
STRAGGLER_METRIC = "verb_latency"

#: links quieter than this never count as hotspots
UTIL_FLOOR = 0.25

#: links busier than this alert regardless of their peers
UTIL_ABSOLUTE = 0.95

#: width of one tumbling SLO burn-rate window, sim seconds
BURN_WINDOW = 0.25

#: SLO-violation fraction per window that trips a burn alert
BURN_THRESHOLD = 0.25

#: minimum samples per window for a burn verdict
BURN_MIN_SAMPLES = 20


@dataclass
class Incident:
    """One structured, sim-time-stamped anomaly record."""

    kind: str              # "straggler" | "link_hotspot" | "slo_burn"
    subject: str           # host, link, or deployment the alert names
    time: float            # simulated seconds at detection
    severity: str          # "warning" | "critical"
    value: float           # the offending statistic
    baseline: float        # the population median / objective
    zscore: Optional[float] = None
    details: Dict[str, object] = field(default_factory=dict)
    #: recent spans from the subject's flight recorder (post-mortem)
    flight: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind, "subject": self.subject, "time": self.time,
            "severity": self.severity, "value": self.value,
            "baseline": self.baseline,
        }
        if self.zscore is not None:
            out["zscore"] = self.zscore
        if self.details:
            out["details"] = dict(self.details)
        if self.flight:
            out["flight"] = list(self.flight)
        return out


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad_zscores(stats: Mapping[str, float]
                ) -> Dict[str, Tuple[float, float, float]]:
    """Robust z-scores: name -> (value, median, z).

    ``z = MAD_SCALE * (value - median) / mad`` with the MAD floored at
    ``MAD_FLOOR_FRAC * |median|`` (and a tiny absolute epsilon) so a
    perfectly symmetric population cannot divide by zero.
    """
    if not stats:
        return {}
    values = list(stats.values())
    median = _median(values)
    mad = _median([abs(v - median) for v in values])
    floor = max(MAD_FLOOR_FRAC * abs(median), 1e-12)
    mad = max(mad, floor)
    return {name: (value, median, MAD_SCALE * (value - median) / mad)
            for name, value in stats.items()}


def detect_outliers(stats: Mapping[str, float]
                    ) -> List[Tuple[str, float, float, float]]:
    """High-side MAD outliers: (name, value, median, z), worst first."""
    if len(stats) < MIN_POINTS:
        return []
    out = []
    for name, (value, median, z) in mad_zscores(stats).items():
        if z < Z_THRESHOLD:
            continue
        if median > 0 and value < median * (1.0 + MIN_EXCESS):
            continue
        out.append((name, value, median, z))
    out.sort(key=lambda item: -item[3])
    return out


def detect_stragglers(host_stats: Mapping[str, float], now: float
                      ) -> List[Incident]:
    """MAD straggler screen over the per-host :data:`STRAGGLER_METRIC`."""
    incidents = []
    for host, value, median, z in detect_outliers(host_stats):
        incidents.append(Incident(
            kind="straggler", subject=host, time=now,
            severity="critical" if z >= 2 * Z_THRESHOLD else "warning",
            value=value, baseline=median, zscore=z,
            details={"metric": STRAGGLER_METRIC,
                     "hosts": len(host_stats)}))
    return incidents


def detect_link_hotspots(link_utilization: Mapping[str, float], now: float
                         ) -> List[Incident]:
    """Hotspot screen over per-trunk-link utilization gauges.

    A link alerts when it is a high-side MAD outlier among its peers
    *and* above :data:`UTIL_FLOOR`, or unconditionally when it exceeds
    :data:`UTIL_ABSOLUTE` (a saturated link is a hotspot even if every
    link is saturated).
    """
    incidents: List[Incident] = []
    flagged: Dict[str, Incident] = {}
    eligible = {name: util for name, util in link_utilization.items()
                if util >= UTIL_FLOOR}
    for name, value, median, z in detect_outliers(eligible):
        flagged[name] = Incident(
            kind="link_hotspot", subject=name, time=now,
            severity="warning", value=value, baseline=median, zscore=z,
            details={"links": len(link_utilization),
                     "util_floor": UTIL_FLOOR})
    median_all = (_median(list(link_utilization.values()))
                  if link_utilization else 0.0)
    for name, util in link_utilization.items():
        if util >= UTIL_ABSOLUTE and name not in flagged:
            flagged[name] = Incident(
                kind="link_hotspot", subject=name, time=now,
                severity="critical", value=util, baseline=median_all,
                details={"links": len(link_utilization),
                         "util_absolute": UTIL_ABSOLUTE})
        elif name in flagged and util >= UTIL_ABSOLUTE:
            flagged[name].severity = "critical"
    incidents.extend(flagged.values())
    incidents.sort(key=lambda inc: -inc.value)
    return incidents


def slo_burn_alerts(samples: Sequence[Tuple[float, float]], slo: float
                    ) -> List[Incident]:
    """Burn-rate alerts over (completion time, latency) samples.

    Samples are bucketed into tumbling :data:`BURN_WINDOW`-second
    windows; a window with at least :data:`BURN_MIN_SAMPLES` completions
    alerts when its violation fraction (latency > ``slo``) exceeds
    :data:`BURN_THRESHOLD`.
    Consecutive alerting windows merge into one incident whose span is
    reported in ``details`` — a sustained burn is one incident, not
    one per window.
    """
    if not samples or slo <= 0:
        return []
    buckets: Dict[int, List[float]] = {}
    for t, latency in samples:
        buckets.setdefault(int(t // BURN_WINDOW), []).append(latency)
    alerting: List[Tuple[int, float, int]] = []
    for index in sorted(buckets):
        latencies = buckets[index]
        if len(latencies) < BURN_MIN_SAMPLES:
            continue
        violations = sum(1 for latency in latencies if latency > slo)
        fraction = violations / len(latencies)
        if fraction > BURN_THRESHOLD:
            alerting.append((index, fraction, len(latencies)))
    incidents: List[Incident] = []
    run_start = None
    prev_index = None
    worst = 0.0
    count = 0
    for index, fraction, n in alerting + [(None, 0.0, 0)]:  # sentinel
        if run_start is not None and (index is None
                                      or index != prev_index + 1):
            incidents.append(Incident(
                kind="slo_burn", subject="serving",
                time=run_start * BURN_WINDOW,
                severity=("critical" if worst > 2 * BURN_THRESHOLD
                          else "warning"),
                value=worst, baseline=BURN_THRESHOLD,
                details={"slo_s": slo, "window_s": BURN_WINDOW,
                         "windows": prev_index - run_start + 1,
                         "samples": count}))
            run_start = None
            worst = 0.0
            count = 0
        if index is None:
            break
        if run_start is None:
            run_start = index
        prev_index = index
        worst = max(worst, fraction)
        count += n
    return incidents


def detect_run_anomalies(tracer: Tracer,
                         link_utilization: Optional[Mapping[str, float]]
                         = None,
                         now: float = 0.0) -> List[Incident]:
    """End-of-run sweep: stragglers from telemetry + fabric hotspots.

    Straggler incidents get the offending host's flight-recorder dump
    attached (when the tracer keeps one) so the post-mortem starts
    from the spans that were in flight, not from a cold trace.
    """
    incidents: List[Incident] = []
    telemetry = tracer.telemetry
    if telemetry is not None:
        host_stats = telemetry.host_statistic(STRAGGLER_METRIC, "mean")
        incidents.extend(detect_stragglers(host_stats, now))
    if link_utilization:
        incidents.extend(detect_link_hotspots(link_utilization, now))
    for incident in incidents:
        if incident.kind != "straggler":
            continue
        incident.flight = [
            {"category": s.category, "name": s.name, "host": s.host,
             "track": s.track, "start": s.start, "end": s.end}
            for s in tracer.flight_dump(incident.subject)]
    return incidents
