"""Counters, gauges and histograms for the observability layer.

Deliberately tiny: a :class:`Counter` is one float, a :class:`Gauge`
is a float that can also go down (queue depths, in-flight counts), a
:class:`Histogram` keeps its raw observations (simulated runs record
thousands of samples, not billions, so exact percentiles are cheaper
than maintaining bucket boundaries).  Everything serializes to plain
dicts for the ``--metrics-json`` export.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .timeseries import RingSeries


#: percentiles a histogram reports by default; serving SLOs need the
#: p99.9 tail, so it is part of the default export
DEFAULT_PERCENTILES: Tuple[float, ...] = (50, 90, 99, 99.9)


def percentile_key(p: float) -> str:
    """``50 -> "p50"``, ``99.9 -> "p99.9"`` (no trailing zeros)."""
    return f"p{p:g}"


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


#: retained samples per gauge history ring (decimating, see RingSeries)
GAUGE_HISTORY_CAPACITY = 128


class Gauge:
    """A named level that moves both ways (queue depth, in-flight).

    Tracks the current value and the high-water mark, which is what
    admission-control tuning needs from a simulated run.  Historically
    that was *all* a gauge kept — the anomaly detector needs trajectory,
    so :meth:`sample` additionally records timestamped values into a
    bounded decimating ring (:class:`~.timeseries.RingSeries`); plain
    :meth:`set` keeps the original last-value-only behaviour and cost.
    """

    __slots__ = ("name", "value", "high_water", "history")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.high_water = 0.0
        #: bounded (time, value) history; None until :meth:`sample` is used
        self.history: Optional[RingSeries] = None

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def sample(self, t: float, value: float) -> None:
        """Set the gauge and append (t, value) to the bounded history."""
        self.set(value)
        if self.history is None:
            self.history = RingSeries(self.name,
                                      capacity=GAUGE_HISTORY_CAPACITY)
        self.history.observe(t, value)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"value": self.value,
                                  "high_water": self.high_water}
        if self.history is not None:
            out["history"] = self.history.to_dict()
        return out

    def __repr__(self) -> str:
        return (f"Gauge({self.name}={self.value}, "
                f"high_water={self.high_water})")


class Histogram:
    """A named distribution with exact quantiles over raw samples.

    ``percentiles`` picks which quantiles :meth:`to_dict` reports
    (default :data:`DEFAULT_PERCENTILES`, which includes the p99.9
    tail); any quantile remains reachable via :meth:`percentile`.

    ``max_samples`` bounds the retained raw values for fleet-scale
    runs: when the cap is reached the sorted sample set is decimated
    (every other value dropped), so quantiles degrade gracefully to
    half resolution while count/sum/min/max/mean stay exact.  The
    default (None) keeps every observation — the right call for the
    few-thousand-sample runs the registry was built for.
    """

    __slots__ = ("name", "percentiles", "max_samples", "_values", "_sorted",
                 "_count", "_total", "_vmin", "_vmax")

    def __init__(self, name: str,
                 percentiles: Optional[Sequence[float]] = None,
                 max_samples: Optional[int] = None) -> None:
        if max_samples is not None and max_samples < 2:
            raise ValueError("max_samples must be at least 2")
        self.name = name
        self.percentiles: Tuple[float, ...] = (
            DEFAULT_PERCENTILES if percentiles is None
            else tuple(percentiles))
        self.max_samples = max_samples
        self._values: List[float] = []
        self._sorted = True
        self._count = 0
        self._total = 0.0
        self._vmin = float("inf")
        self._vmax = float("-inf")

    def observe(self, value: float) -> None:
        self._count += 1
        self._total += value
        if value < self._vmin:
            self._vmin = value
        if value > self._vmax:
            self._vmax = value
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)
        if (self.max_samples is not None
                and len(self._values) >= self.max_samples):
            if not self._sorted:
                self._values.sort()
                self._sorted = True
            self._values = self._values[::2]

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._vmin if self._count else 0.0

    @property
    def max(self) -> float:
        return self._vmax if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Exact percentile (nearest-rank); ``p`` in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p} out of [0, 100]")
        if not self._values:
            return 0.0
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        rank = max(0, min(len(self._values) - 1,
                          int(round(p / 100.0 * (len(self._values) - 1)))))
        return self._values[rank]

    def to_dict(self, percentiles: Optional[Sequence[float]] = None
                ) -> Dict[str, float]:
        out = {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }
        for p in (self.percentiles if percentiles is None else percentiles):
            out[percentile_key(p)] = self.percentile(p)
        return out

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.3g})"


class MetricsRegistry:
    """Named counters, gauges and histograms; created lazily on first use.

    ``histogram_max_samples`` (None = unbounded) is inherited by every
    histogram the registry creates — budgeted tracers pass a cap here
    so per-event histograms cannot grow O(events) at fleet scale.
    """

    def __init__(self,
                 histogram_max_samples: Optional[int] = None) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.histogram_max_samples = histogram_max_samples

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str,
                  percentiles: Optional[Sequence[float]] = None) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(
                name, percentiles=percentiles,
                max_samples=self.histogram_max_samples)
        return histogram

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "counters": {name: c.value
                         for name, c in sorted(self.counters.items())},
            "histograms": {name: h.to_dict()
                           for name, h in sorted(self.histograms.items())},
        }
        if self.gauges:
            out["gauges"] = {name: g.to_dict()
                             for name, g in sorted(self.gauges.items())}
        return out
