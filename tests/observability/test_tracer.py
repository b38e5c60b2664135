"""Unit tests for the tracer, span accounting, and metrics registry."""

import pytest

from repro.observability import (Counter, Histogram, MetricsRegistry, Tracer,
                                 executor_track, protocol_track)


class TestRegistry:
    def test_counter_accumulates(self):
        counter = Counter("ops")
        counter.add()
        counter.add(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").add(-1)

    def test_histogram_summary_stats(self):
        histogram = Histogram("sizes")
        for value in [10, 20, 30, 40]:
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == 100
        assert histogram.mean == 25
        assert histogram.min == 10
        assert histogram.max == 40
        assert histogram.percentile(50) == 30
        assert histogram.percentile(0) == 10
        assert histogram.percentile(100) == 40

    def test_histogram_percentile_unsorted_input(self):
        histogram = Histogram("x")
        for value in [5, 1, 9, 3]:
            histogram.observe(value)
        assert histogram.percentile(100) == 9
        assert histogram.percentile(0) == 1

    def test_histogram_percentile_bounds(self):
        with pytest.raises(ValueError):
            Histogram("x").percentile(101)

    def test_empty_histogram(self):
        histogram = Histogram("x")
        assert histogram.mean == 0.0
        assert histogram.percentile(99) == 0.0
        assert histogram.to_dict()["count"] == 0

    def test_registry_lazy_creation_and_export(self):
        registry = MetricsRegistry()
        registry.counter("a").add(2)
        assert registry.counter("a") is registry.counter("a")
        registry.histogram("h").observe(7)
        exported = registry.to_dict()
        assert exported["counters"] == {"a": 2}
        assert exported["histograms"]["h"]["count"] == 1


class TestTracer:
    def test_record_clamps_negative_duration(self):
        tracer = Tracer()
        span = tracer.record("op", "x", "h", "t", 5.0, 4.0)
        assert span.end == 5.0
        assert span.duration == 0.0

    def test_account_accumulates_per_iteration(self):
        tracer = Tracer()
        tracer.account("h", "executor:w0", 0, "op", 0.0, 1.0)
        tracer.account("h", "executor:w0", 0, "op", 2.0, 2.5)
        tracer.account("h", "executor:w0", 1, "op", 3.0, 4.0)
        assert tracer.breakdowns == {("h", "executor:w0", 0): {"op": 1.5},
                                     ("h", "executor:w0", 1): {"op": 1.0}}

    def test_account_emit_false_skips_span(self):
        tracer = Tracer()
        tracer.account("h", "t", 0, "sched", 0.0, 1.0, emit=False)
        assert tracer.spans == []
        assert tracer.breakdowns == {("h", "t", 0): {"sched": 1.0}}

    def test_account_zero_duration_is_noop(self):
        tracer = Tracer()
        tracer.account("h", "t", 0, "op", 1.0, 1.0)
        assert tracer.breakdowns == {}
        assert tracer.spans == []

    def test_mark_iteration_records_window_and_span(self):
        tracer = Tracer()
        tracer.mark_iteration(0, 0.0, 2.0)
        assert len(tracer.iteration_windows) == 1
        assert tracer.iteration_windows[0].duration == 2.0
        assert tracer.spans_by_category("iteration")[0].host == "cluster"

    def test_tracks_and_category_queries(self):
        tracer = Tracer()
        tracer.record("op", "a", "h1", "t1", 0.0, 1.0)
        tracer.record("verb", "b", "h2", "t2", 0.0, 2.0)
        tracer.record("op", "c", "h1", "t1", 1.0, 3.0)
        assert tracer.tracks() == [("h1", "t1"), ("h2", "t2")]
        assert tracer.categories() == {"op": 2, "verb": 1}

    def test_track_helpers(self):
        assert executor_track("worker0") == "executor:worker0"
        assert protocol_track("worker0") == "protocol:worker0"
