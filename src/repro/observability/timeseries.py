"""Fixed-memory streaming time-series for fleet-scale telemetry.

The PR 2 tracer keeps every span and the registry's histograms keep
every observation — exact, and exactly what a 256-worker fat-tree
sweep cannot afford: a single iteration posts tens of thousands of
verbs per rack, so O(events) storage turns the observability layer
into the memory bottleneck it is supposed to find.  This module is the
O(1)-per-metric replacement:

* :class:`P2Quantile` — the Jain/Chlamtac P² algorithm: one running
  quantile estimate from five markers, no stored samples;
* :class:`QuantileSketch` — count/sum/min/max plus a P² marker per
  requested percentile, serializing like a Histogram's ``to_dict``;
* :class:`RingSeries` — a bounded (time, value) ring that *decimates*
  when full: it drops every other retained point and doubles its
  stride, so it always spans the whole run at capped resolution;
* :class:`Telemetry` — named series + sketches with automatic
  per-rack and fleet rollups, the store behind ``--telemetry-out``.

Nothing here touches the simulator clock: recording is pure
bookkeeping, so telemetry-enabled runs stay bit-identical to bare
ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


class P2Quantile:
    """Streaming estimate of one quantile (P² algorithm, 5 markers).

    Exact until five observations arrive, then a constant-space
    piecewise-parabolic approximation.  ``p`` is a fraction in (0, 1).
    """

    __slots__ = ("p", "_heights", "_positions", "_desired", "_increments",
                 "count")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile fraction {p} not in (0, 1)")
        self.p = p
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p,
                         5.0]
        self._increments = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
        self.count = 0

    def observe(self, value: float) -> None:
        self.count += 1
        heights = self._heights
        if len(heights) < 5:
            heights.append(value)
            heights.sort()
            return
        # Find the marker cell the observation falls into.
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        positions = self._positions
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Adjust the three interior markers toward their desired spots.
        for i in (1, 2, 3):
            drift = self._desired[i] - positions[i]
            if ((drift >= 1.0 and positions[i + 1] - positions[i] > 1.0)
                    or (drift <= -1.0
                        and positions[i - 1] - positions[i] < -1.0)):
                step = 1.0 if drift >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1])
            / (n[i] - n[i - 1]))

    def _linear(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    @property
    def value(self) -> float:
        """The current estimate (exact below five observations)."""
        heights = self._heights
        if not heights:
            return 0.0
        if self.count < 5:
            rank = max(0, min(len(heights) - 1,
                              int(round(self.p * (len(heights) - 1)))))
            return heights[rank]
        return heights[2]


class QuantileSketch:
    """Constant-space summary: count/sum/min/max + P² percentiles.

    Serializes like :meth:`repro.observability.registry.Histogram.to_dict`
    so telemetry consumers can treat the two interchangeably.
    """

    __slots__ = ("name", "percentiles", "count", "total", "_min", "_max",
                 "_markers")

    def __init__(self, name: str,
                 percentiles: Sequence[float] = (50, 90, 99)) -> None:
        self.name = name
        self.percentiles: Tuple[float, ...] = tuple(percentiles)
        self.count = 0
        self.total = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._markers = {p: P2Quantile(p / 100.0) for p in self.percentiles}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        for marker in self._markers.values():
            marker.observe(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    def percentile(self, p: float) -> float:
        marker = self._markers.get(p)
        if marker is None:
            raise KeyError(f"sketch {self.name} does not track p{p:g}")
        return marker.value

    def to_dict(self) -> Dict[str, float]:
        out = {"count": self.count, "sum": self.total, "min": self.min,
               "max": self.max, "mean": self.mean}
        for p in self.percentiles:
            out[f"p{p:g}"] = self._markers[p].value
        return out

    def __repr__(self) -> str:
        return f"QuantileSketch({self.name}, n={self.count})"


class RingSeries:
    """A bounded (time, value) series that decimates instead of growing.

    Observations are appended; when ``capacity`` points are retained
    the ring drops every other point and doubles its sampling stride,
    so memory stays O(capacity) while the retained points always span
    the full recording window (a flight recorder would instead keep
    only the tail — see ``Tracer`` for that).  Count/sum/min/max/last
    stay exact over *all* observations regardless of decimation.
    """

    __slots__ = ("name", "capacity", "stride", "_phase", "points", "count",
                 "total", "_min", "_max", "last", "last_time")

    def __init__(self, name: str, capacity: int = 256) -> None:
        if capacity < 2:
            raise ValueError("RingSeries capacity must be at least 2")
        self.name = name
        self.capacity = capacity
        self.stride = 1
        self._phase = 0
        self.points: List[Tuple[float, float]] = []
        self.count = 0
        self.total = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self.last = 0.0
        self.last_time = 0.0

    def observe(self, t: float, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self.last = value
        self.last_time = t
        if self._phase % self.stride == 0:
            self.points.append((t, value))
            if len(self.points) >= self.capacity:
                self.points = self.points[::2]
                self.stride *= 2
        self._phase += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    def to_dict(self, include_points: bool = False) -> Dict[str, object]:
        out: Dict[str, object] = {
            "count": self.count, "sum": self.total, "min": self.min,
            "max": self.max, "mean": self.mean, "last": self.last,
            "last_time": self.last_time, "stride": self.stride,
        }
        if include_points:
            out["points"] = [[t, v] for t, v in self.points]
        return out

    def __repr__(self) -> str:
        return (f"RingSeries({self.name}, n={self.count}, "
                f"retained={len(self.points)}, stride={self.stride})")


def rack_label(host: str, hosts_per_rack: Optional[int]) -> Optional[str]:
    """``server12`` with 8-wide racks -> ``rack1``; None when unknown.

    Host names end in their index by construction (``server{i}``,
    ``local0``); anything else rolls up to the fleet only.
    """
    if not hosts_per_rack or hosts_per_rack < 1:
        return None
    digits = ""
    for ch in reversed(host):
        if ch.isdigit():
            digits = ch + digits
        else:
            break
    if not digits:
        return None
    return f"rack{int(digits) // hosts_per_rack}"


@dataclass
class Telemetry:
    """Named bounded series and sketches with rack/fleet rollups.

    ``observe_host`` feeds three levels at once: the per-host series
    (bounded ring + sketch), the host's rack rollup sketch, and the
    fleet rollup sketch.  Per-host memory is O(capacity); rollups are
    O(1) — a 256-worker run's telemetry is a few hundred small
    objects, not a function of event count.
    """

    hosts_per_rack: Optional[int] = None
    series_capacity: int = 256
    percentiles: Tuple[float, ...] = (50, 99)
    series: Dict[str, RingSeries] = field(default_factory=dict)
    sketches: Dict[str, QuantileSketch] = field(default_factory=dict)

    def ring(self, name: str) -> RingSeries:
        ring = self.series.get(name)
        if ring is None:
            ring = self.series[name] = RingSeries(
                name, capacity=self.series_capacity)
        return ring

    def sketch(self, name: str) -> QuantileSketch:
        sketch = self.sketches.get(name)
        if sketch is None:
            sketch = self.sketches[name] = QuantileSketch(
                name, percentiles=self.percentiles)
        return sketch

    def observe(self, metric: str, t: float, value: float) -> None:
        """Feed one fleet-level metric (series + sketch)."""
        self.ring(metric).observe(t, value)
        self.sketch(metric).observe(value)

    def observe_host(self, metric: str, host: str, t: float,
                     value: float) -> None:
        """Feed one per-host metric plus its rack and fleet rollups."""
        self.observe(f"{metric}:{host}", t, value)
        rack = rack_label(host, self.hosts_per_rack)
        if rack is not None:
            self.sketch(f"{metric}:{rack}").observe(value)
        self.sketch(f"{metric}:fleet").observe(value)

    #: span categories digested into per-host series (category -> metric)
    SPAN_METRICS = {"verb": "verb_latency", "wire": "wire_time"}

    def observe_span(self, category: str, host: str, track: str,
                     start: float, end: float) -> None:
        """O(1) digest of one tracer span (called before any sampling).

        Verb spans feed per-host ``verb_latency`` series — the signal
        the straggler detector runs MAD z-scores over; wire spans feed
        per-host occupancy; fabric ``link_queue`` spans feed per-link
        queueing series plus a fleet rollup.  Everything else is
        ignored here (the breakdown accumulators already own it).
        """
        metric = self.SPAN_METRICS.get(category)
        duration = end - start
        if metric is not None:
            self.observe_host(metric, host, start, duration)
        elif category == "link_queue":
            link = track[5:] if track.startswith("link:") else track
            self.observe(f"link_queue_wait:{link}", start, duration)
            self.sketch("link_queue_wait:fleet").observe(duration)

    # -- queries ---------------------------------------------------------------------

    def host_statistic(self, metric: str, stat: str = "mean"
                       ) -> Dict[str, float]:
        """Per-host values of ``stat`` for one metric family.

        ``stat`` is ``"mean"``, ``"max"``, ``"last"``, or ``"p<N>"``
        (served from the sketch).  Rack/fleet rollups are excluded —
        the result maps genuine host names only.
        """
        prefix = f"{metric}:"
        out: Dict[str, float] = {}
        for name, ring in self.series.items():
            if not name.startswith(prefix):
                continue
            host = name[len(prefix):]
            if host == "fleet" or host.startswith("rack"):
                continue
            if stat == "mean":
                out[host] = ring.mean
            elif stat == "max":
                out[host] = ring.max
            elif stat == "last":
                out[host] = ring.last
            elif stat.startswith("p"):
                out[host] = self.sketch(name).percentile(float(stat[1:]))
            else:
                raise ValueError(f"unknown statistic {stat!r}")
        return out

    def to_dict(self, include_points: bool = False) -> Dict[str, object]:
        return {
            "hosts_per_rack": self.hosts_per_rack,
            "series": {name: ring.to_dict(include_points=include_points)
                       for name, ring in sorted(self.series.items())},
            "rollups": {name: sketch.to_dict()
                        for name, sketch in sorted(self.sketches.items())
                        if name.rpartition(":")[2] == "fleet"
                        or name.rpartition(":")[2].startswith("rack")},
        }
