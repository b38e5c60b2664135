"""TraceBudget: sampling, host subsets, flight recorder, stall spans.

The contract under test: a budget bounds what the tracer *retains*
(the span list behind trace export) while never touching what it
*accounts* (the breakdown accumulators behind the stall report) or
what the telemetry digest sees — and never, ever, the simulated clock.
"""

import pytest

from repro.distributed.runner import (RunConfig, resolve_trace_hosts,
                                      run_training_benchmark)
from repro.models.spec import ModelSpec, VariableSpec
from repro.observability import Telemetry, TraceBudget, Tracer
from repro.observability.tracer import DEFAULT_FLIGHT_LEN


def make_budget(**kwargs):
    return TraceBudget(**kwargs)


class TestBudgetValidation:
    def test_rates_must_be_in_unit_interval(self):
        with pytest.raises(ValueError):
            make_budget(rate=0.0)
        with pytest.raises(ValueError):
            make_budget(rate=1.5)
        with pytest.raises(ValueError):
            make_budget(rate=-0.1)

    def test_stride_from_rate(self):
        # 1-in-10 for every category but the iteration anchors
        tracer = Tracer(budget=make_budget(rate=0.1))
        for i in range(20):
            tracer.record("op", f"op{i}", "server0", "executor:w0",
                          float(i), float(i) + 0.5)
            tracer.mark_iteration(i, float(i), float(i) + 1.0)
        assert [s.name for s in tracer.spans_by_category("op")] == \
            ["op0", "op10"]
        assert len(tracer.spans_by_category("iteration")) == 20


class TestSampling:
    def test_deterministic_one_in_k(self):
        tracer = Tracer(budget=make_budget(rate=0.25))
        for i in range(100):
            tracer.record("verb", f"v{i}", "server0", "nic:qp0",
                          float(i), float(i) + 0.5)
        assert len(tracer.spans) == 25
        assert tracer.dropped_spans == 75
        assert tracer.truncated
        # stride sampling keeps every 4th, starting with the first
        assert [s.name for s in tracer.spans[:3]] == ["v0", "v4", "v8"]

    def test_per_category_rates_independent(self):
        # each category counts its own 1-in-k, however they interleave
        tracer = Tracer(budget=make_budget(rate=0.5))
        for i in range(10):
            tracer.record("verb", "v", "server0", "nic:qp0", 0.0, 1.0)
            tracer.record("op", "o", "server0", "executor:w0", 0.0, 1.0)
        assert len(tracer.spans_by_category("verb")) == 5
        assert len(tracer.spans_by_category("op")) == 5

    def test_unbudgeted_tracer_keeps_everything(self):
        tracer = Tracer()
        for i in range(50):
            span = tracer.record("verb", "v", "server0", "nic:qp0", 0.0, 1.0)
            assert span is not None
        assert len(tracer.spans) == 50
        assert tracer.dropped_spans == 0
        assert not tracer.truncated


class TestHostSubset:
    def test_filters_to_selected_hosts(self):
        budget = make_budget(hosts=frozenset({"server0"}))
        tracer = Tracer(budget=budget)
        tracer.record("verb", "v", "server0", "nic:qp0", 0.0, 1.0)
        tracer.record("verb", "v", "server1", "nic:qp0", 0.0, 1.0)
        assert [s.host for s in tracer.spans] == ["server0"]
        assert tracer.dropped_spans == 1

    def test_hostless_timelines_exempt(self):
        budget = make_budget(hosts=frozenset({"server0"}))
        tracer = Tracer(budget=budget)
        tracer.mark_iteration(0, 0.0, 1.0)   # host "cluster"
        tracer.record("link_queue", "q", "fabric", "link:tor0", 0.0, 0.1)
        assert {s.host for s in tracer.spans} == {"cluster", "fabric"}
        assert tracer.dropped_spans == 0


class TestAccountingSurvivesBudget:
    def test_breakdowns_full_even_when_spans_sampled(self):
        budget = make_budget(rate=0.01)
        tracer = Tracer(budget=budget)
        for i in range(200):
            tracer.account("server0", "executor:worker0", 0, "op",
                           float(i), float(i) + 1.0)
        bucket = tracer.breakdowns[("server0", "executor:worker0", 0)]
        assert bucket["op"] == pytest.approx(200.0)
        assert len(tracer.spans) < 10  # the spans themselves are thinned

    def test_host_filter_never_touches_accounting(self):
        budget = make_budget(hosts=frozenset({"server0"}))
        tracer = Tracer(budget=budget)
        tracer.account("server5", "executor:worker5", 0, "op", 0.0, 2.0)
        bucket = tracer.breakdowns[("server5", "executor:worker5", 0)]
        assert bucket["op"] == 2.0
        assert tracer.spans == []


class TestTelemetrySeesEverything:
    def test_digest_before_sampling(self):
        budget = make_budget(rate=0.1)
        tracer = Tracer(budget=budget, telemetry=Telemetry(hosts_per_rack=4))
        for i in range(100):
            tracer.record("verb", "v", "server0", "nic:qp0",
                          float(i), float(i) + 0.001)
        assert len(tracer.spans) == 10
        fleet = tracer.telemetry.sketches["verb_latency:fleet"]
        assert fleet.count == 100  # every span digested, none sampled


class TestFlightRecorder:
    def test_ring_keeps_most_recent(self):
        budget = make_budget(rate=0.01)
        tracer = Tracer(budget=budget)
        total = DEFAULT_FLIGHT_LEN + 4
        for i in range(total):
            tracer.record("verb", f"v{i}", "server0", "nic:qp0",
                          float(i), float(i) + 0.5)
        dump = tracer.flight_dump("server0")
        assert [s.name for s in dump] == \
            [f"v{i}" for i in range(4, total)]

    @pytest.mark.parametrize("budget", [None, TraceBudget(rate=0.01)],
                             ids=["unbudgeted", "budgeted"])
    def test_every_tracer_keeps_the_ring(self, budget):
        tracer = Tracer(budget=budget)
        tracer.record("verb", "a", "server0", "nic:qp0", 0.0, 1.0)
        tracer.record("verb", "b", "server1", "nic:qp0", 1.0, 2.0)
        assert [s.name for s in tracer.flight_dump("server1")] == ["b"]
        assert tracer.flight_dump("server7") == []


def _tiny_spec():
    return ModelSpec(
        name="Tiny",
        family="FCN",
        variables=(VariableSpec("v0", (64 * 1024,)),
                   VariableSpec("v1", (64 * 1024,))),
        sample_time=0.001)


class TestBudgetedRunEndToEnd:
    def test_budgeted_clocks_bit_identical_and_invariant_holds(self):
        """The acceptance criterion: sampling never perturbs timing,
        and the stall report still sums to the measured step time."""
        spec = _tiny_spec()
        common = dict(num_servers=4, batch_size=1, iterations=2,
                      strategy="ring")
        bare = run_training_benchmark(spec, "RDMA", **common)
        full = run_training_benchmark(spec, "RDMA", collect_trace=True,
                                      **common)
        budgeted = run_training_benchmark(
            spec, "RDMA", collect_trace=True, **common,
            config=RunConfig(trace_sample=0.05, trace_hosts="2"))
        assert (full.stats.iteration_times
                == bare.stats.iteration_times)
        assert (budgeted.stats.iteration_times
                == bare.stats.iteration_times)
        assert budgeted.tracer.dropped_spans > 0
        assert len(budgeted.tracer.spans) < len(full.tracer.spans)
        report = budgeted.stall_report()
        for it in report.iterations:
            assert it.coverage == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("shape", [
        dict(strategy="ring"),
        dict(strategy="hierarchical", topology="fat-tree", hosts_per_rack=2,
             oversubscription=4.0)], ids=["flat", "fat-tree"])
    def test_budget_never_thins_the_stall_report(self, shape):
        """Wire, link-queue and fault figures come from every span, not
        from the sampled ones the trace file keeps."""
        common = dict(num_servers=4, batch_size=1, iterations=2,
                      collect_trace=True, **shape)
        full = run_training_benchmark(_tiny_spec(), "RDMA", **common)
        budgeted = run_training_benchmark(_tiny_spec(), "RDMA", **common,
                                          trace_sample=0.05, trace_hosts="1")
        assert budgeted.tracer.dropped_spans > 0
        report = full.stall_report().to_dict()
        assert report["overlap_efficiency"] is not None
        if "topology" in shape:
            assert report["link_contention_seconds"] > 0.0
        assert budgeted.stall_report().to_dict() == report


class TestResolveTraceHosts:
    def test_prefix_count(self):
        assert resolve_trace_hosts("2", 8) == {"server0", "server1"}

    def test_name_list(self):
        assert resolve_trace_hosts("server3, server5", 8) == \
            {"server3", "server5"}

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            resolve_trace_hosts("", 8)
        with pytest.raises(ValueError):
            resolve_trace_hosts("0", 8)
        with pytest.raises(ValueError):
            resolve_trace_hosts("9", 8)
        with pytest.raises(ValueError):
            resolve_trace_hosts("a,,b", 8)
