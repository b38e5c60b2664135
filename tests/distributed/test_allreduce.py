"""Tests for the allreduce training graph and the strategy runner path."""

import re

import pytest

from dataclasses import FrozenInstanceError, replace

from repro.distributed import (ALLREDUCE_ALGORITHMS, STRATEGIES, RunConfig,
                               build_allreduce_training_graph,
                               build_training_graph, make_mechanism,
                               run_training_benchmark)
from repro.graph.partition import partition
from repro.models import get_model
from repro.serving import ServingConfig


@pytest.fixture(scope="module")
def fcn5():
    return get_model("FCN-5")


class TestGraphConstruction:
    def test_devices_are_workers_only(self, fcn5):
        job = build_allreduce_training_graph(fcn5, num_workers=4,
                                             batch_size=8)
        assert job.devices == [f"worker{i}" for i in range(4)]
        assert not any(d.startswith("ps") for d in job.devices)

    def test_buckets_cover_model(self, fcn5):
        job = build_allreduce_training_graph(fcn5, num_workers=2,
                                             batch_size=8)
        assert sum(b.nbytes for b in job.buckets) == fcn5.model_bytes

    def test_fusion_spill_creates_more_buckets(self, fcn5):
        coarse = build_allreduce_training_graph(fcn5, num_workers=2,
                                                batch_size=8)
        fine = build_allreduce_training_graph(fcn5, num_workers=2,
                                              batch_size=8,
                                              fusion_bytes=1024 * 1024)
        assert len(fine.buckets) > len(coarse.buckets)
        # Oversized gradients spill into single-variable buckets.
        assert all(b.num_variables == 1 or b.nbytes <= 1024 * 1024
                   for b in fine.buckets)

    def test_predicted_bytes_formula(self, fcn5):
        job = build_allreduce_training_graph(fcn5, num_workers=4,
                                             batch_size=8)
        expected = 2.0 * fcn5.model_bytes * 3 / 4
        assert job.bytes_per_worker_per_step == pytest.approx(expected)

    def test_all_transfers_static(self, fcn5):
        job = build_allreduce_training_graph(fcn5, num_workers=2,
                                             batch_size=8)
        parts = partition(job.graph)
        assert parts.transfers
        assert all(t.static_shape for t in parts.transfers)

    def test_single_worker_has_no_transfers(self, fcn5):
        job = build_allreduce_training_graph(fcn5, num_workers=1,
                                             batch_size=8)
        assert partition(job.graph).transfers == []

    def test_unknown_algorithm(self, fcn5):
        with pytest.raises(ValueError, match="unknown allreduce"):
            build_allreduce_training_graph(fcn5, num_workers=2,
                                           batch_size=8, algorithm="tree")

    def test_zero_workers(self, fcn5):
        with pytest.raises(ValueError):
            build_allreduce_training_graph(fcn5, num_workers=0,
                                           batch_size=8)


class TestScheduleConstruction:
    """Eager vs post-barrier flush and priority tagging."""

    def test_eager_packs_have_no_barrier_edges(self, fcn5):
        job = build_allreduce_training_graph(fcn5, num_workers=2,
                                             batch_size=8, eager_flush=True)
        packs = [n for n in job.graph if n.op_type == "FusionPack"]
        assert packs
        assert all(not n.control_inputs for n in packs)
        assert job.eager_flush

    def test_barrier_holds_every_pack_behind_backward(self, fcn5):
        job = build_allreduce_training_graph(fcn5, num_workers=2,
                                             batch_size=8, eager_flush=False)
        packs = [n for n in job.graph if n.op_type == "FusionPack"]
        assert packs
        # every pack waits on its own worker's last backward stage
        for pack in packs:
            assert len(pack.control_inputs) == 1
            (gate,) = pack.control_inputs
            assert gate.device == pack.device
        assert not job.eager_flush

    def test_barrier_does_not_change_bucket_plan(self, fcn5):
        eager = build_allreduce_training_graph(fcn5, num_workers=2,
                                               batch_size=8,
                                               eager_flush=True)
        barrier = build_allreduce_training_graph(fcn5, num_workers=2,
                                                 batch_size=8,
                                                 eager_flush=False)
        assert [b.nbytes for b in eager.buckets] == [
            b.nbytes for b in barrier.buckets]

    def test_fragments_tagged_with_bucket_priority(self, fcn5):
        job = build_allreduce_training_graph(fcn5, num_workers=2,
                                             batch_size=8,
                                             fusion_bytes=1024 * 1024)
        assert len(job.buckets) > 1
        tagged = [n for n in job.graph if "priority" in n.attrs]
        assert tagged
        priorities = {n.attrs["priority"] for n in tagged}
        assert priorities == {b.priority for b in job.buckets}
        # a bucket's pack node carries that bucket's priority
        for bucket in job.buckets:
            pack = job.graph.node(f"w0/pack{bucket.index}")
            assert pack.attrs["priority"] == bucket.priority

    def test_priority_survives_partitioning(self, fcn5):
        job = build_allreduce_training_graph(fcn5, num_workers=2,
                                             batch_size=8,
                                             fusion_bytes=1024 * 1024)
        parts = partition(job.graph)
        sends = [n for sub in parts.subgraphs.values() for n in sub
                 if n.op_type == "_Send"]
        assert sends
        assert any(n.attrs.get("priority", 0) > 0 for n in sends)


def _replica_chain(graph):
    """Every worker's read/fwd/bwd nodes in graph order, as comparable
    tuples.  A read's input is the PS variable in one graph and the
    worker's own ``w<i>/`` copy in the other; only that prefix is
    dropped."""
    def source(output):
        name = output.node.name
        if output.node.op_type == "Variable":
            name = re.sub(r"^w\d+/", "", name)
        return f"{name}:{output.index}"

    return [(node.name, node.op_type, node.attrs.get("time"),
             tuple(source(i) for i in node.inputs))
            for node in graph
            if re.match(r"w\d+/(read|fwd|bwd)/", node.name)]


class TestSharedReplica:
    """The PS and the allreduce graph emit the same GenGrad replica, so a
    PS-vs-collective comparison charges the same compute."""

    @pytest.mark.parametrize("model", ["FCN-5", "GRU"])
    def test_ps_and_ring_replicas_identical(self, model):
        spec = get_model(model)
        ps = build_training_graph(spec, num_workers=4, batch_size=8)
        ring = build_allreduce_training_graph(spec, num_workers=4,
                                              batch_size=8)
        chain = _replica_chain(ps.graph)
        assert len(chain) == 4 * 3 * spec.num_variables
        assert chain == _replica_chain(ring.graph)


class TestRunnerStrategies:
    @pytest.mark.parametrize("strategy", ALLREDUCE_ALGORITHMS)
    def test_runs_and_reports_wire_bytes(self, fcn5, strategy):
        # hierarchical/innetwork need a rack shape; 1-wide racks
        # degenerate to a flat inter-rack exchange with the same wire
        # volume as ring.  On the default flat topology the innetwork
        # strategy falls back to hierarchical, and its prediction
        # follows the algorithm that actually ran.
        extra = ({"hosts_per_rack": 1}
                 if strategy in ("hierarchical", "innetwork") else {})
        result = run_training_benchmark(
            fcn5, "RDMA", num_servers=2, batch_size=8, iterations=3,
            strategy=strategy, collect_metrics=True, **extra)
        assert not result.crashed
        assert result.strategy == strategy
        assert result.step_time > 0
        measured = result.wire_bytes_per_worker()
        assert measured is not None
        # Steady-state wire volume within 5% of 2·M·(N-1)/N.
        assert measured == pytest.approx(result.predicted_wire_bytes,
                                         rel=0.05)

    def test_ps_strategy_has_no_prediction(self, fcn5):
        result = run_training_benchmark(fcn5, "RDMA", num_servers=2,
                                        batch_size=8, iterations=2)
        assert result.strategy == "ps"
        assert result.predicted_wire_bytes is None

    def test_metrics_off_by_default(self, fcn5):
        result = run_training_benchmark(fcn5, "RDMA", num_servers=2,
                                        batch_size=8, iterations=2,
                                        strategy="ring")
        assert result.metrics is None
        assert result.wire_bytes_per_worker() is None

    def test_fusion_spill_end_to_end(self, fcn5):
        result = run_training_benchmark(
            fcn5, "RDMA", num_servers=2, batch_size=8, iterations=2,
            strategy="ring", fusion_bytes=1024 * 1024)
        assert not result.crashed

    def test_unknown_strategy_rejected(self, fcn5):
        with pytest.raises(ValueError, match="unknown strategy"):
            run_training_benchmark(fcn5, "RDMA", num_servers=2,
                                   batch_size=8, strategy="gossip")

    def test_strategies_tuple(self):
        assert STRATEGIES == ("ps", "ring", "halving-doubling",
                              "hierarchical", "innetwork", "llm")


class TestCommConfig:
    """``RunConfig`` construction, ``replace`` and validation (the class
    keeps the name the test-floor list knows it by)."""

    def test_defaults(self):
        config = RunConfig()
        assert config.num_cqs == 4
        assert config.num_qps_per_peer == 4
        assert config.serving == ServingConfig()
        assert not hasattr(config, "backend")

    def test_configure_and_reset(self):
        # a value: changing it makes another one, the first is untouched
        base = RunConfig()
        changed = replace(base, num_cqs=2, num_qps_per_peer=8)
        assert changed == RunConfig(num_cqs=2, num_qps_per_peer=8)
        assert base == RunConfig()
        with pytest.raises(FrozenInstanceError):
            base.num_cqs = 2

    def test_partial_override(self):
        assert replace(RunConfig(num_qps_per_peer=6),
                       num_cqs=1).num_qps_per_peer == 6

    def test_knobs_reach_rdma_runtime(self):
        comm = make_mechanism("RDMA", RunConfig(num_cqs=2,
                                                num_qps_per_peer=6,
                                                qp_mode="shared"))
        assert comm.num_cqs == 2
        assert comm.num_qps_per_peer == 6
        assert comm.qp_mode == "shared"

    def test_off_spellings_normalise(self):
        assert RunConfig(loss_rate=0.0, fault_spec="") == RunConfig()

    def test_validation(self):
        with pytest.raises(ValueError, match="num_cqs"):
            RunConfig(num_cqs=0)
        with pytest.raises(ValueError, match="num_qps_per_peer"):
            RunConfig(num_qps_per_peer=-1)
        with pytest.raises(ValueError, match="fault-spec"):
            RunConfig(fault_spec="bogus:x=1")
        with pytest.raises(ValueError, match="replicas"):
            ServingConfig(replicas=0)
        # replace() re-validates: a config cannot be edited into a bad one
        with pytest.raises(ValueError, match="oversubscription"):
            replace(RunConfig(), oversubscription=0.5)
        with pytest.raises(TypeError):
            RunConfig(backend="RDMA")
