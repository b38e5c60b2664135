"""Tests for the preemptive priority wire scheduler (nic.WireScheduler).

The scheduler is opt-in via ``CostModel.wire_quantum_bytes > 0``; these
tests verify the three properties the priority path must keep:

* uncontended transfers finish at exactly the legacy cost-model time,
* a high-priority transfer preempts a large in-flight one at a quantum
  boundary instead of waiting behind it,
* same-QP verbs still complete in FIFO order even under inverted
  priorities.
"""

from dataclasses import replace

import pytest

from repro.simnet import Cluster, Opcode, Pipe, WorkRequest
from repro.simnet.costmodel import DEFAULT_COST_MODEL, KB, MB


PRIO_COST = replace(DEFAULT_COST_MODEL, wire_quantum_bytes=64 * KB)


def make_pair(cost=PRIO_COST):
    cluster = Cluster(2, cost=cost)
    a, b = cluster.hosts
    cq_a = a.nic.create_cq()
    cq_b = b.nic.create_cq()
    qp_a = a.nic.create_qp(cq_a)
    qp_b = b.nic.create_qp(cq_b)
    qp_a.connect(qp_b)
    return cluster, a, b, qp_a, qp_b, cq_a, cq_b


def register(host, size):
    buf = host.allocate(size, dense=True)
    region = host.nic.register_memory(buf)
    return buf, region


def write_wr(src, src_mr, dst, dst_mr, size, priority=0, wr_id=0):
    return WorkRequest(opcode=Opcode.WRITE, size=size, local_addr=src.addr,
                       lkey=src_mr.lkey, remote_addr=dst.addr,
                       rkey=dst_mr.rkey, priority=priority, wr_id=wr_id)


class TestUncontendedTiming:
    """Alone on the wire, priority mode must reproduce the legacy clock."""

    @pytest.mark.parametrize("size", [4 * KB, 1 * MB, 32 * MB])
    def test_write_matches_cost_model(self, size):
        cluster, a, b, qp_a, _, cq_a, _ = make_pair()
        src, src_mr = register(a, size)
        dst, dst_mr = register(b, size)
        qp_a.post_send(write_wr(src, src_mr, dst, dst_mr, size))
        cluster.sim.run()
        (comp,) = cq_a.poll()
        assert comp.ok
        assert comp.timestamp == pytest.approx(
            cluster.cost.rdma_write_time(size), rel=1e-12)

    def test_read_matches_cost_model(self):
        cluster, a, b, qp_a, _, cq_a, _ = make_pair()
        size = 1 * MB
        src, src_mr = register(b, size)
        dst, dst_mr = register(a, size)
        qp_a.post_send(WorkRequest(
            opcode=Opcode.READ, size=size, local_addr=dst.addr,
            lkey=dst_mr.lkey, remote_addr=src.addr, rkey=src_mr.rkey))
        cluster.sim.run()
        (comp,) = cq_a.poll()
        assert comp.ok
        assert comp.timestamp == pytest.approx(
            cluster.cost.rdma_read_time(size), rel=1e-12)

    def test_payload_still_lands(self):
        cluster, a, b, qp_a, _, cq_a, _ = make_pair()
        src, src_mr = register(a, 1024)
        dst, dst_mr = register(b, 1024)
        src.write(b"priority-path-bytes")
        qp_a.post_send(write_wr(src, src_mr, dst, dst_mr, 19))
        cluster.sim.run()
        assert cq_a.poll()[0].ok
        assert dst.read(0, 19) == b"priority-path-bytes"


class TestPreemption:
    def test_urgent_small_transfer_preempts_large(self):
        """A 64KB priority-1 WRITE posted mid-flight of a 32MB transfer
        on a *different* QP must finish in near-solo time, not after
        the 32MB transfer drains."""
        cluster, a, b, qp_a, _, cq_a, _ = make_pair()
        # second QP so per-QP FIFO chaining does not serialize them
        cq2 = a.nic.create_cq()
        qp2 = a.nic.create_qp(cq2)
        qp2_b = b.nic.create_qp(b.nic.create_cq())
        qp2.connect(qp2_b)

        big, small = 32 * MB, 64 * KB
        src1, mr1 = register(a, big)
        dst1, dmr1 = register(b, big)
        src2, mr2 = register(a, small)
        dst2, dmr2 = register(b, small)

        qp_a.post_send(write_wr(src1, mr1, dst1, dmr1, big, wr_id=1))
        solo = cluster.cost.rdma_write_time(small)
        midflight = cluster.cost.rdma_write_time(big) / 2
        cluster.sim.call_at(midflight, lambda: qp2.post_send(
            write_wr(src2, mr2, dst2, dmr2, small, priority=1, wr_id=2)))
        cluster.sim.run()

        (small_comp,) = cq2.poll()
        (big_comp,) = cq_a.poll()
        small_elapsed = small_comp.timestamp - midflight
        # must slot in at the big transfer's next quantum boundary
        # (a 32MB transfer is sliced into size/max_quanta chunks), not
        # behind its ~16MB of remaining bytes (>1300us at 100 Gbps)
        big_quantum = max(cluster.cost.wire_quantum_bytes,
                          -(-big // cluster.cost.wire_max_quanta))
        assert small_elapsed < solo + 2 * (
            big_quantum / cluster.cost.rdma_bandwidth)
        remaining_drain = (big / 2) / cluster.cost.rdma_bandwidth
        assert small_elapsed < remaining_drain / 2
        # the big transfer is delayed only by roughly the stolen quanta
        assert big_comp.timestamp < cluster.cost.rdma_write_time(big) * 1.01

    def test_equal_priority_is_fifo(self):
        """Without a priority difference the second transfer waits."""
        cluster, a, b, qp_a, _, cq_a, _ = make_pair()
        cq2 = a.nic.create_cq()
        qp2 = a.nic.create_qp(cq2)
        qp2_b = b.nic.create_qp(b.nic.create_cq())
        qp2.connect(qp2_b)

        big, small = 4 * MB, 64 * KB
        src1, mr1 = register(a, big)
        dst1, dmr1 = register(b, big)
        src2, mr2 = register(a, small)
        dst2, dmr2 = register(b, small)

        qp_a.post_send(write_wr(src1, mr1, dst1, dmr1, big, wr_id=1))
        midflight = cluster.cost.rdma_write_time(big) / 2
        cluster.sim.call_at(midflight, lambda: qp2.post_send(
            write_wr(src2, mr2, dst2, dmr2, small, priority=0, wr_id=2)))
        cluster.sim.run()

        (small_comp,) = cq2.poll()
        # equal priority: the big transfer's earlier sequence wins every
        # quantum, so the small one completes only after it drains
        assert small_comp.timestamp > cluster.cost.rdma_write_time(big)


class TestQpOrdering:
    def test_same_qp_fifo_survives_inverted_priorities(self):
        """On one QP, a low-priority verb posted first must complete
        before a high-priority verb posted second (RC ordering)."""
        cluster, a, b, qp_a, _, cq_a, _ = make_pair()
        size = 1 * MB
        src1, mr1 = register(a, size)
        dst1, dmr1 = register(b, size)
        src2, mr2 = register(a, size)
        dst2, dmr2 = register(b, size)
        qp_a.post_send(write_wr(src1, mr1, dst1, dmr1, size,
                                priority=0, wr_id=1))
        qp_a.post_send(write_wr(src2, mr2, dst2, dmr2, size,
                                priority=9, wr_id=2))
        cluster.sim.run()
        comps = cq_a.poll()
        assert [c.wr_id for c in comps] == [1, 2]
        assert comps[0].timestamp <= comps[1].timestamp

    def test_work_conservation(self):
        """Two back-to-back transfers take total wire time, no gaps."""
        cluster, a, b, qp_a, _, cq_a, _ = make_pair()
        size = 1 * MB
        src1, mr1 = register(a, size)
        dst1, dmr1 = register(b, size)
        src2, mr2 = register(a, size)
        dst2, dmr2 = register(b, size)
        qp_a.post_send(write_wr(src1, mr1, dst1, dmr1, size, wr_id=1))
        qp_a.post_send(write_wr(src2, mr2, dst2, dmr2, size, wr_id=2))
        cluster.sim.run()
        comps = cq_a.poll()
        cost = cluster.cost
        # the second transfer streams right behind the first: one extra
        # size/bandwidth of wire occupancy, not a full rdma_write_time
        upper = (cost.rdma_write_time(size) + size / cost.rdma_bandwidth
                 + cost.rdma_verb_overhead + cost.rdma_completion_overhead)
        assert comps[1].timestamp <= upper + 1e-9

    def test_bytes_counted_once(self):
        cluster, a, b, qp_a, _, cq_a, _ = make_pair()
        size = 2 * MB
        src, mr = register(a, size)
        dst, dmr = register(b, size)
        qp_a.post_send(write_wr(src, mr, dst, dmr, size))
        cluster.sim.run()
        assert cq_a.poll()[0].ok
        assert a.nic.egress.bytes_carried == size
        assert b.nic.ingress.bytes_carried == size


class TestLegacyModeUntouched:
    def test_quantum_zero_keeps_pipes(self):
        cluster, a, b, qp_a, _, cq_a, _ = make_pair(cost=DEFAULT_COST_MODEL)
        assert isinstance(a.nic.egress, Pipe)
        assert isinstance(a.nic.ingress, Pipe)
        size = 1 * MB
        src, mr = register(a, size)
        dst, dmr = register(b, size)
        qp_a.post_send(write_wr(src, mr, dst, dmr, size))
        cluster.sim.run()
        (comp,) = cq_a.poll()
        assert comp.timestamp == pytest.approx(
            cluster.cost.rdma_write_time(size), rel=1e-12)
