"""Unit tests for DCT-style shared queue pairs (connection multiplexing).

A :class:`SharedQp` is one send/receive endpoint multiplexed across
every peer: work requests name their destination per-WR
(``WorkRequest.dct_target``) instead of riding a connected pair.  The
tests pin the semantics the transfer protocols depend on:

* per-target FIFO — writes to one destination commit in posting order
  (DCT orders per target stream);
* shared-FIFO head-of-line — the single send queue serializes across
  destinations (the latency trade DCT makes for O(1) QP state);
* O(1) endpoint state — device-level: QPs created per NIC do not grow
  with the peer count in shared mode, and do grow in RC mode;
* loss-free timing equality with RC for a lone transfer, which is what
  makes the golden-clock identity of the distributed suite possible.
"""

import pytest

from repro.core.device import QP_MODES, DeviceError, RdmaDevice
from repro.simnet import Cluster, MemoryError_, Opcode, WorkRequest
from repro.simnet.topology import Endpoint


def register(host, size):
    buf = host.allocate(size)
    region = host.nic.register_memory(buf)
    return buf, region


@pytest.fixture
def shared_pair():
    """Two hosts each owning one shared endpoint (never connected)."""
    cluster = Cluster(2)
    a, b = cluster.hosts
    cq_a = a.nic.create_cq()
    cq_b = b.nic.create_cq()
    sq_a = a.nic.create_shared_qp(cq_a)
    sq_b = b.nic.create_shared_qp(cq_b)
    return cluster, a, b, sq_a, sq_b, cq_a, cq_b


class TestSharedQpSemantics:
    def test_write_targets_per_wr(self, shared_pair):
        cluster, a, b, sq_a, sq_b, cq_a, _ = shared_pair
        src, src_mr = register(a, 64)
        dst, dst_mr = register(b, 64)
        src.write(b"dct-bytes")
        sq_a.post_send(WorkRequest(
            opcode=Opcode.WRITE, size=9, local_addr=src.addr,
            lkey=src_mr.lkey, remote_addr=dst.addr, rkey=dst_mr.rkey,
            dct_target=sq_b))
        cluster.sim.run()
        comps = cq_a.poll()
        assert len(comps) == 1 and comps[0].ok
        assert dst.read(0, 9) == b"dct-bytes"

    def test_post_without_target_raises(self, shared_pair):
        _, a, _, sq_a, _, _, _ = shared_pair
        src, src_mr = register(a, 64)
        with pytest.raises(MemoryError_, match="target"):
            sq_a.post_send(WorkRequest(
                opcode=Opcode.WRITE, size=4, local_addr=src.addr,
                lkey=src_mr.lkey, remote_addr=src.addr, rkey=src_mr.rkey))

    def test_connect_rejected(self, shared_pair):
        _, _, _, sq_a, sq_b, _, _ = shared_pair
        with pytest.raises(MemoryError_, match="connectionless"):
            sq_a.connect(sq_b)

    def test_per_target_fifo_ordering(self, shared_pair):
        """Back-to-back writes to one destination land in post order."""
        cluster, a, b, sq_a, sq_b, cq_a, _ = shared_pair
        src1, mr1 = register(a, 64)
        src2, mr2 = register(a, 64)
        dst, dst_mr = register(b, 64)
        src1.write(b"A" * 64)
        src2.write(b"B" * 64)
        for src, mr in ((src1, mr1), (src2, mr2)):
            sq_a.post_send(WorkRequest(
                opcode=Opcode.WRITE, size=64, local_addr=src.addr,
                lkey=mr.lkey, remote_addr=dst.addr, rkey=dst_mr.rkey,
                dct_target=sq_b))
        cluster.sim.run()
        comps = cq_a.poll()
        assert [c.ok for c in comps] == [True, True]
        assert comps[0].timestamp <= comps[1].timestamp
        assert dst.read(0, 64) == b"B" * 64  # the later write wins

    def test_shared_send_queue_serializes_across_targets(self):
        """Head-of-line: one endpoint's sends to different peers share
        one egress FIFO — the price of O(1) QP state."""
        cluster = Cluster(3)
        sender = cluster.hosts[0]
        cq = sender.nic.create_cq()
        sq = sender.nic.create_shared_qp(cq)
        size = 8 * 1024 * 1024
        for receiver in cluster.hosts[1:]:
            target = receiver.nic.create_shared_qp(receiver.nic.create_cq())
            src, src_mr = register(sender, size)
            dst, dst_mr = register(receiver, size)
            sq.post_send(WorkRequest(
                opcode=Opcode.WRITE, size=size, local_addr=src.addr,
                lkey=src_mr.lkey, remote_addr=dst.addr, rkey=dst_mr.rkey,
                dct_target=target))
        cluster.sim.run()
        comps = cq.poll()
        assert len(comps) == 2
        finish = max(c.timestamp for c in comps)
        # Both transfers leave one egress port: ~2x one wire time.
        assert finish > 1.8 * cluster.cost.rdma_write_time(size)

    def test_fan_in_to_one_shared_endpoint(self):
        """Many senders target one endpoint (SRQ-style receive): all
        deliver, serialized on the receiver's ingress."""
        cluster = Cluster(3)
        recv = cluster.hosts[0]
        sink = recv.nic.create_shared_qp(recv.nic.create_cq())
        size = 8 * 1024 * 1024
        cqs = []
        for sender in cluster.hosts[1:]:
            cq = sender.nic.create_cq()
            sq = sender.nic.create_shared_qp(cq)
            src, src_mr = register(sender, size)
            dst, dst_mr = register(recv, size)
            sq.post_send(WorkRequest(
                opcode=Opcode.WRITE, size=size, local_addr=src.addr,
                lkey=src_mr.lkey, remote_addr=dst.addr, rkey=dst_mr.rkey,
                dct_target=sink))
            cqs.append(cq)
        cluster.sim.run()
        comps = [c for cq in cqs for c in cq.poll()]
        assert len(comps) == 2 and all(c.ok for c in comps)
        assert max(c.timestamp for c in comps) \
            > 1.8 * cluster.cost.rdma_write_time(size)

    def test_lone_write_timing_matches_rc(self):
        """Without contention a shared endpoint's write clock equals a
        connected pair's — the loss-free golden-clock identity."""
        results = []
        for mode in ("rc", "shared"):
            cluster = Cluster(2)
            a, b = cluster.hosts
            cq = a.nic.create_cq()
            size = 4 * 1024 * 1024
            src, src_mr = register(a, size)
            dst, dst_mr = register(b, size)
            wr = dict(opcode=Opcode.WRITE, size=size, local_addr=src.addr,
                      lkey=src_mr.lkey, remote_addr=dst.addr,
                      rkey=dst_mr.rkey)
            if mode == "rc":
                qp = a.nic.create_qp(cq)
                qp.connect(b.nic.create_qp(b.nic.create_cq()))
                qp.post_send(WorkRequest(**wr))
            else:
                sq = a.nic.create_shared_qp(cq)
                target = b.nic.create_shared_qp(b.nic.create_cq())
                sq.post_send(WorkRequest(**wr, dct_target=target))
            cluster.sim.run()
            results.append(cq.poll()[0].timestamp)
        assert results[0] == results[1]


class TestDeviceQpScaling:
    def _qps_created(self, qp_mode, num_hosts, num_qps_per_peer=2):
        cluster = Cluster(num_hosts)
        devices = []
        for i, host in enumerate(cluster.hosts):
            devices.append(RdmaDevice.create(
                host, num_cqs=1, num_qps_per_peer=num_qps_per_peer,
                local_endpoint=Endpoint(host.name, 7000),
                qp_mode=qp_mode))
        # Full mesh: every device opens a channel to every other.
        for dev in devices:
            for other in devices:
                if other is not dev:
                    dev.get_channel(other.endpoint, 0)
        return [host.nic.qps_created for host in cluster.hosts]

    def test_rc_qps_grow_with_peer_count(self):
        small = self._qps_created("rc", 3)
        large = self._qps_created("rc", 6)
        assert max(large) > max(small)

    def test_shared_qps_constant_in_peer_count(self):
        small = self._qps_created("shared", 3)
        large = self._qps_created("shared", 6)
        # O(1): the data plane is the fixed endpoint pool however many
        # peers the mesh has (control QPs are lazy and unused here).
        assert small == [2] * 3
        assert large == [2] * 6

    def test_qp_mode_validated(self):
        cluster = Cluster(1)
        with pytest.raises(DeviceError, match="qp_mode"):
            RdmaDevice.create(cluster.hosts[0], 1, 1,
                              Endpoint(cluster.hosts[0].name, 7000),
                              qp_mode="dct")
        assert "shared" in QP_MODES

    def test_mixed_mode_mesh_rejected(self):
        cluster = Cluster(2)
        a = RdmaDevice.create(cluster.hosts[0], 1, 1,
                              Endpoint(cluster.hosts[0].name, 7000),
                              qp_mode="shared")
        RdmaDevice.create(cluster.hosts[1], 1, 1,
                          Endpoint(cluster.hosts[1].name, 7000),
                          qp_mode="rc")
        with pytest.raises(DeviceError, match="mismatch"):
            a.get_channel(Endpoint(cluster.hosts[1].name, 7000), 0)
