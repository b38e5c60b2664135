"""Stall-report invariants on a fat tree with hierarchical allreduce.

The flat-ring acceptance tests live in test_stall.py; this file pins
the same invariants where they are easiest to break: a multi-rack
fabric with contended uplinks, rack-aware reduce phases, and (in one
case) a retention budget thinning the span stream.
"""

import pytest

from repro.distributed.runner import run_training_benchmark
from repro.models.spec import ModelSpec, VariableSpec


def _tiny_spec():
    return ModelSpec(
        name="Tiny",
        family="FCN",
        variables=(VariableSpec("v0", (64 * 1024,)),
                   VariableSpec("v1", (64 * 1024,))),
        sample_time=0.001)


FABRIC = dict(num_servers=8, batch_size=1, iterations=2,
              strategy="hierarchical", topology="fat-tree",
              hosts_per_rack=4, oversubscription=4.0)


class TestFatTreeStallInvariants:
    @pytest.fixture(scope="class")
    def traced_bench(self):
        return run_training_benchmark(_tiny_spec(), "RDMA",
                                      collect_trace=True, **FABRIC)

    def test_components_sum_to_iteration_time(self, traced_bench):
        assert not traced_bench.crashed
        report = traced_bench.stall_report()
        assert len(report.iterations) == 2
        for it, measured in zip(report.iterations,
                                traced_bench.stats.iteration_times):
            assert it.duration == pytest.approx(measured)
            assert it.accounted == pytest.approx(measured, rel=1e-2)
            assert it.coverage == pytest.approx(1.0, rel=1e-2)

    def test_link_contention_attributed(self, traced_bench):
        # 4:1 oversubscribed uplinks under an 8-way hierarchical
        # reduce must show up in the link-queue attribution.
        report = traced_bench.stall_report()
        contention = report.link_contention()
        assert contention > 0.0
        # queueing is wire-side delay; it never exceeds the run itself
        assert contention <= sum(it.duration for it in report.iterations)

    def test_tracing_does_not_perturb_the_fat_tree_clock(self,
                                                         traced_bench):
        untraced = run_training_benchmark(_tiny_spec(), "RDMA", **FABRIC)
        assert (untraced.stats.iteration_times
                == traced_bench.stats.iteration_times)
        # ... nor the event stream: the tracer accounts, it never pushes
        assert untraced.sim_events == traced_bench.sim_events

    def test_telemetry_rollups_cover_both_racks(self, traced_bench):
        telemetry = traced_bench.tracer.telemetry
        assert telemetry is not None
        rollups = {name for name in telemetry.sketches
                   if name.startswith("verb_latency:rack")}
        assert rollups == {"verb_latency:rack0", "verb_latency:rack1"}
        fleet = telemetry.sketches["verb_latency:fleet"]
        per_rack = sum(telemetry.sketches[name].count for name in rollups)
        assert fleet.count == per_rack

    def test_step_time_series_present_per_host(self, traced_bench):
        telemetry = traced_bench.tracer.telemetry
        hosts = {name.split(":", 1)[1] for name in telemetry.series
                 if name.startswith("step_time:")}
        assert hosts == {f"server{i}" for i in range(8)}
