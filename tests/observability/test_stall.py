"""Stall-attribution tests: synthetic breakdowns and the end-to-end
acceptance property (components sum to the measured iteration time)."""

import pytest

from repro.core.rdma_comm import RdmaCommRuntime
from repro.distributed.runner import run_training_benchmark
from repro.models.zoo import get_model
from repro.observability import Tracer, build_stall_report


class TestStallReportUnit:
    def _tracer(self):
        tracer = Tracer()
        # Two executors; the slower one (w1) defines the iteration.
        tracer.account("h0", "executor:w0", 0, "op", 0.0, 0.6)
        tracer.account("h0", "executor:w0", 0, "poll_wait", 0.6, 0.8)
        tracer.account("h1", "executor:w1", 0, "op", 0.0, 0.7)
        tracer.account("h1", "executor:w1", 0, "wire_wait", 0.7, 1.0)
        tracer.account("h0", "protocol:w0", 0, "serialization", 0.1, 0.25)
        tracer.mark_iteration(0, 0.0, 1.0)
        return tracer

    def test_critical_path_is_slowest_executor(self):
        report = build_stall_report(self._tracer())
        assert len(report.iterations) == 1
        it = report.iterations[0]
        assert it.critical.track == "executor:w1"
        assert it.components == {"op": pytest.approx(0.7),
                                 "wire_wait": pytest.approx(0.3)}

    def test_coverage_exact_for_synthetic_data(self):
        it = build_stall_report(self._tracer()).iterations[0]
        assert it.accounted == pytest.approx(it.duration)
        assert it.coverage == pytest.approx(1.0)

    def test_overlapped_serialization_separated(self):
        it = build_stall_report(self._tracer()).iterations[0]
        assert it.overlapped_serialization == pytest.approx(0.15)
        assert "serialization" not in it.components

    def test_totals_and_fractions(self):
        report = build_stall_report(self._tracer())
        totals = report.totals()
        assert totals == {"op": pytest.approx(0.7),
                          "wire_wait": pytest.approx(0.3)}
        fractions = report.fractions()
        assert fractions["op"] == pytest.approx(0.7)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_to_dict(self):
        report = build_stall_report(self._tracer())
        data = report.to_dict()
        assert data["iterations"][0]["coverage"] == pytest.approx(1.0)

    def test_empty_tracer_gives_empty_report(self):
        report = build_stall_report(Tracer())
        assert report.iterations == []
        assert report.fractions() == {}


class TestEndToEndAcceptance:
    """The ISSUE's acceptance criteria, checked as a test."""

    @pytest.fixture(scope="class")
    def traced_bench(self):
        return run_training_benchmark(
            get_model("FCN-5"), "RDMA", num_servers=2, batch_size=32,
            iterations=3, strategy="ring", collect_trace=True)

    def test_components_sum_to_iteration_time(self, traced_bench):
        report = traced_bench.stall_report()
        assert len(report.iterations) == 3
        for it, measured in zip(report.iterations,
                                traced_bench.stats.iteration_times):
            assert it.duration == pytest.approx(measured)
            # The acceptance bound is 1%; the construction is exact, so
            # only float accumulation error remains.
            assert it.accounted == pytest.approx(measured, rel=1e-2)

    def test_spans_from_at_least_four_layers(self, traced_bench):
        cats = set(traced_bench.tracer.categories())
        assert {"op", "cq_poll", "verb", "collective"} <= cats

    def test_transfer_roles_tagged(self, traced_bench):
        roles = traced_bench.metrics.bytes_by_role()
        assert roles.get("collective-chunk", 0) > 0

    def test_metrics_registry_populated(self, traced_bench):
        registry = traced_bench.tracer.metrics
        assert registry.counter("arena_bytes_registered").value > 0
        assert registry.histogram("transfer_size_bytes").count > 0
        assert registry.histogram("cq_depth_at_wake").count > 0
        assert traced_bench.stats.observability is not None

    def test_tracing_does_not_perturb_the_clock(self, traced_bench):
        untraced = run_training_benchmark(
            get_model("FCN-5"), "RDMA", num_servers=2, batch_size=32,
            iterations=3, strategy="ring")
        assert (untraced.stats.iteration_times
                == traced_bench.stats.iteration_times)
        # ... nor the event stream: the tracer accounts, it never pushes
        assert untraced.sim_events == traced_bench.sim_events

    def test_untraced_run_has_no_tracer(self):
        bench = run_training_benchmark(
            get_model("FCN-5"), "RDMA", num_servers=2, batch_size=32,
            iterations=2, strategy="ring")
        assert bench.tracer is None
        assert bench.stall_report() is None


class TestOverlapEfficiencyUnit:
    def test_fully_hidden_wire(self):
        tracer = Tracer()
        tracer.account("h0", "executor:w0", 0, "op", 0.0, 1.0)
        tracer.record("wire", "xfer", "h0", "nic:wire", 0.2, 0.6)
        tracer.mark_iteration(0, 0.0, 1.0)
        it = build_stall_report(tracer).iterations[0]
        assert it.wire_busy == pytest.approx(0.4)
        assert it.overlap_efficiency == pytest.approx(1.0)

    def test_fully_exposed_wire(self):
        tracer = Tracer()
        tracer.account("h0", "executor:w0", 0, "op", 0.0, 0.6)
        tracer.account("h0", "executor:w0", 0, "wire_wait", 0.6, 1.0)
        tracer.record("wire", "xfer", "h0", "nic:wire", 0.6, 1.0)
        tracer.mark_iteration(0, 0.0, 1.0)
        it = build_stall_report(tracer).iterations[0]
        assert it.wire_busy == pytest.approx(0.4)
        assert it.overlap_efficiency == pytest.approx(0.0)

    def test_concurrent_wires_not_double_counted(self):
        tracer = Tracer()
        tracer.account("h0", "executor:w0", 0, "op", 0.0, 1.0)
        # two NICs busy over overlapping windows: union is [0.1, 0.5]
        tracer.record("wire", "a", "h0", "nic:wire", 0.1, 0.4)
        tracer.record("wire", "b", "h1", "nic:wire", 0.2, 0.5)
        tracer.mark_iteration(0, 0.0, 1.0)
        it = build_stall_report(tracer).iterations[0]
        assert it.wire_busy == pytest.approx(0.4)

    def test_spans_clipped_to_window(self):
        tracer = Tracer()
        tracer.account("h0", "executor:w0", 1, "op", 1.0, 2.0)
        # the transfer straddles the iteration boundary
        tracer.record("wire", "x", "h0", "nic:wire", 0.8, 1.3)
        tracer.mark_iteration(1, 1.0, 2.0)
        it = build_stall_report(tracer).iterations[0]
        assert it.wire_busy == pytest.approx(0.3)

    def test_no_wire_means_no_efficiency(self):
        tracer = Tracer()
        tracer.account("h0", "executor:w0", 0, "op", 0.0, 1.0)
        tracer.mark_iteration(0, 0.0, 1.0)
        report = build_stall_report(tracer)
        assert report.iterations[0].overlap_efficiency is None
        assert report.overlap_efficiency() is None


class TestPrioritySchedulerAcceptance:
    """The end-to-end invariants must survive the priority scheduler."""

    @pytest.fixture(scope="class")
    def traced_bench(self):
        return run_training_benchmark(
            get_model("FCN-5"), "RDMA", num_servers=2, batch_size=32,
            iterations=3, strategy="ring", fusion_bytes=8 * 1024 * 1024,
            priority_sched=True, eager_flush=True, collect_trace=True)

    def test_components_still_sum_exactly(self, traced_bench):
        assert not traced_bench.crashed
        report = traced_bench.stall_report()
        assert len(report.iterations) == 3
        for it, measured in zip(report.iterations,
                                traced_bench.stats.iteration_times):
            assert it.duration == pytest.approx(measured)
            assert it.accounted == pytest.approx(measured, rel=1e-2)

    def test_tracing_does_not_perturb_the_clock(self, traced_bench):
        untraced = run_training_benchmark(
            get_model("FCN-5"), "RDMA", num_servers=2, batch_size=32,
            iterations=3, strategy="ring", fusion_bytes=8 * 1024 * 1024,
            priority_sched=True, eager_flush=True)
        assert (untraced.stats.iteration_times
                == traced_bench.stats.iteration_times)
        # ... nor the event stream: the tracer accounts, it never pushes
        assert untraced.sim_events == traced_bench.sim_events

    def test_overlap_efficiency_in_range(self, traced_bench):
        report = traced_bench.stall_report()
        efficiency = report.overlap_efficiency()
        assert efficiency is not None
        assert 0.0 <= efficiency <= 1.0
        for it in report.iterations:
            assert it.wire_busy > 0.0
            assert it.wire_busy <= it.duration + 1e-9

    def test_scheduler_raises_overlap_efficiency(self, traced_bench):
        barrier = run_training_benchmark(
            get_model("FCN-5"), "RDMA", num_servers=2, batch_size=32,
            iterations=3, strategy="ring", fusion_bytes=8 * 1024 * 1024,
            priority_sched=False, eager_flush=False, collect_trace=True)
        barrier_eff = barrier.stall_report().overlap_efficiency()
        eager_eff = traced_bench.stall_report().overlap_efficiency()
        assert eager_eff > barrier_eff
        assert traced_bench.step_time < barrier.step_time


class TestDynamicProtocolSpans:
    def test_dynamic_edges_emit_metadata_and_read_phases(self):
        bench = run_training_benchmark(
            get_model("FCN-5"), "RDMA", num_servers=2, batch_size=32,
            iterations=2, comm=RdmaCommRuntime(force_dynamic=True),
            strategy="ps", collect_trace=True)
        assert not bench.crashed
        # force_dynamic pushes every edge through the §3.3 two-phase
        # protocol: both phases must appear as spans.
        phases = {s.args.get("phase") for s in bench.tracer.spans
                  if s.category == "protocol" and s.args}
        assert "metadata-write" in phases
        assert "payload-read" in phases
        roles = bench.metrics.bytes_by_role()
        assert roles.get("dynamic-metadata", 0) > 0
        assert roles.get("dynamic-payload-read", 0) > 0
