"""Failure injection: the error paths a production library must own.

Covers the failure modes DESIGN.md calls out: NIC MR-table exhaustion
under per-tensor registration, arena exhaustion with a too-small plan,
the gRPC.RDMA 1 GB crash during training, bad remote credentials, and
protocol misuse (shape drift on a static edge, rank drift on a dynamic
edge).
"""

import numpy as np
import pytest

from repro.core import (DeviceError, RdmaCommRuntime, RdmaDevice,
                        StaticSender)
from repro.core.transfer import DynamicSender
from repro.distributed.rpc_comm import GrpcCommRuntime
from repro.graph import DType, GraphBuilder, Session, Shape
from repro.graph.allocator import AllocatorError, ArenaAllocator
from repro.simnet import Cluster, CostModel, Endpoint, MemoryError_


class TestMrTableExhaustion:
    def test_per_tensor_registration_hits_the_cap(self):
        cluster = Cluster(1, cost=CostModel(mr_table_capacity=8))
        host = cluster.hosts[0]
        device = RdmaDevice.create(host, 1, 1, Endpoint(host.name, 7900))
        with pytest.raises(MemoryError_, match="exhausted"):
            for _ in range(20):
                device.allocate_mem_region(4096)

    def test_deregistration_recovers(self):
        cluster = Cluster(1, cost=CostModel(mr_table_capacity=2))
        host = cluster.hosts[0]
        device = RdmaDevice.create(host, 1, 1, Endpoint(host.name, 7901))
        regions = [device.allocate_mem_region(4096) for _ in range(2)]
        device.free_mem_region(regions[0])
        device.allocate_mem_region(4096)  # must not raise


class TestArenaExhaustion:
    def test_undersized_headroom_fails_loudly(self):
        """A dynamic tensor bigger than the analyzer's estimate must
        produce an arena-exhaustion error, not silent corruption."""
        cluster = Cluster(2)
        b = GraphBuilder()
        x = b.placeholder([None, 16], name="x", device="worker0")
        y = b.identity(x, name="y", device="worker0")
        b.identity(y, name="sink", device="ps0")
        session = Session(cluster, b.finalize(),
                          {"ps0": cluster.hosts[0],
                           "worker0": cluster.hosts[1]},
                          comm=RdmaCommRuntime())
        # Analyzer estimated for unknown dims up to 4096; feed 50k rows.
        huge = np.zeros((50_000, 16), dtype=np.float32)
        with pytest.raises(Exception, match="exhausted"):
            session.run(feeds={"x": huge})


class TestOversizedMessages:
    def test_grpc_rdma_crashes_training_with_huge_tensor(self):
        cluster = Cluster(2)
        b = GraphBuilder()
        w = b.variable([280_000_000, 1], name="embed", device="ps0")
        b.identity(w, name="out", device="worker0")
        # ~1.1 GB variable: the reply exceeds gRPC.RDMA's max message.
        graph = b.finalize()
        session = Session(cluster, graph,
                          {"ps0": cluster.hosts[0],
                           "worker0": cluster.hosts[1]},
                          comm=GrpcCommRuntime(transport="rdma"))
        with pytest.raises(Exception, match="exceeds the maximum"):
            session.run(time_limit=12000.0)

    def test_rdma_handles_the_same_tensor(self):
        cluster = Cluster(2)
        b = GraphBuilder()
        w = b.variable([280_000_000, 1], name="embed", device="ps0")
        b.identity(w, name="out", device="worker0")
        session = Session(cluster, b.finalize(),
                          {"ps0": cluster.hosts[0],
                           "worker0": cluster.hosts[1]},
                          comm=RdmaCommRuntime())
        stats = session.run(time_limit=12000.0)
        assert stats.iteration_times[0] > 0


class TestProtocolMisuse:
    def _sender_rig(self):
        cluster = Cluster(2)
        host = cluster.hosts[0]
        device = RdmaDevice.create(host, 1, 2, Endpoint(host.name, 7910))
        peer_host = cluster.hosts[1]
        peer = RdmaDevice.create(peer_host, 1, 2,
                                 Endpoint(peer_host.name, 7910))
        channel = device.get_channel(peer.endpoint, 1)
        arena_buf = host.allocate(1 << 16)
        arena = ArenaAllocator(arena_buf)
        region = device.register_existing(arena_buf)
        return cluster, channel, arena, region, peer

    def test_static_sender_rejects_undersized_remote(self):
        cluster, channel, arena, region, peer = self._sender_rig()
        remote = peer.allocate_mem_region(64).descriptor()
        from repro.core.transfer import TransferState
        with pytest.raises(DeviceError, match="cannot hold"):
            StaticSender(channel=channel, remote=remote, nbytes=64,
                         arena=arena, arena_region=region,
                         state=TransferState())

    def test_static_sender_rejects_shape_drift(self):
        cluster, channel, arena, region, peer = self._sender_rig()
        remote = peer.allocate_mem_region(257).descriptor()
        from repro.core.transfer import TransferState
        sender = StaticSender(channel=channel, remote=remote, nbytes=256,
                              arena=arena, arena_region=region,
                              state=TransferState())
        executor = _FakeExecutor(cluster)
        wrong = arena.allocate_tensor(DType.float32, Shape([32]))  # 128 B
        process = cluster.sim.spawn(sender.send(executor, wrong))
        cluster.sim.run()
        with pytest.raises(DeviceError, match="static transfer expected"):
            _ = process.value

    def test_dynamic_sender_rejects_rank_drift(self):
        cluster, channel, arena, region, peer = self._sender_rig()
        from repro.core.transfer import TransferState
        from repro.graph.tensor import TensorMeta
        slot = peer.allocate_mem_region(TensorMeta.slot_size(2)).descriptor()
        sender = DynamicSender(channel=channel, meta_slot=slot, ndims=2,
                               arena=arena, arena_region=region,
                               state=TransferState())
        executor = _FakeExecutor(cluster)
        rank1 = arena.allocate_tensor(DType.float32, Shape([8]))
        process = cluster.sim.spawn(sender.send(executor, rank1))
        cluster.sim.run()
        with pytest.raises(DeviceError, match="rank changed"):
            _ = process.value

    def test_dynamic_sender_rejects_small_meta_slot(self):
        cluster, channel, arena, region, peer = self._sender_rig()
        from repro.core.transfer import TransferState
        slot = peer.allocate_mem_region(4).descriptor()
        with pytest.raises(DeviceError, match="too small"):
            DynamicSender(channel=channel, meta_slot=slot, ndims=3,
                          arena=arena, arena_region=region,
                          state=TransferState())


class _FakeExecutor:
    """Just enough executor surface for protocol-level tests."""

    def __init__(self, cluster):
        self.sim = cluster.sim
        self.cost = cluster.cost
        self.host = cluster.hosts[0]


class TestInFlightFaults:
    """Faults landing *mid-transfer*, not at connection setup: the
    recovery layer must retry, re-establish, or degrade — and the
    training numerics must come out bit-identical to a clean run."""

    def _train(self, fault_spec=None, fault_seed=0, force_dynamic=False,
               retry_policy=None):
        from repro.simnet import FaultInjector
        cluster = Cluster(2)
        if fault_spec:
            cluster.install_faults(
                FaultInjector.from_spec(fault_spec, seed=fault_seed))
        rng = np.random.default_rng(11)
        b = GraphBuilder()
        x = b.placeholder([4, 3], name="x", device="worker0")
        y = b.placeholder([4, 2], name="y", device="worker0")
        w = b.variable([3, 2], name="w", device="ps0",
                       initializer=rng.normal(0, 0.3, (3, 2)))
        from repro.graph import minimize
        loss, _ = b.softmax_cross_entropy(
            b.matmul(x, w, device="worker0"), y, name="loss",
            device="worker0")
        minimize(b, loss, lr=0.4)
        comm = RdmaCommRuntime(force_dynamic=force_dynamic,
                               retry_policy=retry_policy)
        session = Session(cluster, b.finalize(),
                          {"ps0": cluster.hosts[0],
                           "worker0": cluster.hosts[1]}, comm=comm)
        feeds = {"x": rng.normal(size=(4, 3)).astype(np.float32),
                 "y": np.eye(4, 2, dtype=np.float32)}
        numerics = []
        for _ in range(3):
            session.run(feeds=feeds, time_limit=60.0)
            numerics.append(session.numpy("loss").tobytes())
        numerics.append(session.variable("w").array.tobytes())
        return numerics, cluster, comm

    def test_qp_break_mid_static_write(self):
        baseline, _, _ = self._train()
        numerics, cluster, comm = self._train(
            "qp_break:count=1,skip=2,role=static-write")
        assert numerics == baseline
        recovery = comm.recovery_snapshot()
        assert recovery["qp_reconnects"] >= 1
        assert recovery["gave_up"] == 0
        # The broken pair really was replaced, on some channel.
        devices = [d for d in cluster.services.values()
                   if isinstance(d, RdmaDevice)]
        reconnected = [ch for d in devices
                       for ch in d._channels.values() if ch.reconnects]
        assert reconnected
        assert all(not ch.broken for ch in reconnected)

    def test_payload_read_timeout_on_dynamic_path(self):
        baseline, _, _ = self._train(force_dynamic=True)
        numerics, cluster, comm = self._train(
            "blackhole:count=1,role=dynamic-payload-read",
            force_dynamic=True)
        assert numerics == baseline
        assert cluster.fault_plane.counts_by_kind() == {"blackhole": 1}
        recovery = comm.recovery_snapshot()
        # A blackholed READ produces no CQE: only the per-transfer
        # timeout can notice it.
        assert recovery["timeouts"] >= 1
        assert recovery["retries"] >= 1
        assert recovery["gave_up"] == 0

    def test_tcp_fallback_after_budget_exhaustion(self):
        from repro.core import RetryPolicy
        baseline, _, _ = self._train()
        policy = RetryPolicy(max_retries=2)
        numerics, cluster, comm = self._train(
            "drop:p=1.0,role=static-write", retry_policy=policy)
        assert numerics == baseline
        recovery = comm.recovery_snapshot()
        assert recovery["gave_up"] >= 1
        assert recovery["channels_degraded"] >= 1
        assert recovery["fallback_transfers"] >= 1

    def test_exhaustion_without_fallback_raises(self):
        from repro.core import RetryPolicy
        policy = RetryPolicy(max_retries=1, tcp_fallback=False)
        with pytest.raises(Exception, match="failed after 1 retries"):
            self._train("drop:p=1.0,role=static-write",
                        retry_policy=policy)


class TestAllocatorFailureEdges:
    def test_exhaustion_message_mentions_fragmentation(self):
        cluster = Cluster(1)
        arena = ArenaAllocator(cluster.hosts[0].allocate(1024))
        a = arena.allocate_block(256)
        b = arena.allocate_block(256)
        arena.free_block(a)
        with pytest.raises(AllocatorError, match="fragmented"):
            arena.allocate_block(768)
