"""Unit tests for the simulated RDMA NIC: verbs, CQs, timing, semantics."""

import pytest

from repro.simnet import (
    Cluster, MemoryError_, Opcode, WcStatus, WorkRequest)
from repro.simnet.nic import MAX_COMMIT_CHUNKS


@pytest.fixture
def pair():
    """Two hosts with one connected QP pair and per-host CQs."""
    cluster = Cluster(2)
    a, b = cluster.hosts
    cq_a = a.nic.create_cq()
    cq_b = b.nic.create_cq()
    qp_a = a.nic.create_qp(cq_a)
    qp_b = b.nic.create_qp(cq_b)
    qp_a.connect(qp_b)
    return cluster, a, b, qp_a, qp_b, cq_a, cq_b


def register(host, size, dense=None):
    buf = host.allocate(size, dense=dense)
    region = host.nic.register_memory(buf)
    return buf, region


def drain(cluster, cq):
    cluster.sim.run()
    return cq.poll()


class TestWrite:
    def test_write_moves_bytes(self, pair):
        cluster, a, b, qp_a, _, cq_a, _ = pair
        src, src_mr = register(a, 1024)
        dst, dst_mr = register(b, 1024)
        src.write(b"tensor-bytes")
        qp_a.post_send(WorkRequest(
            opcode=Opcode.WRITE, size=12, local_addr=src.addr, lkey=src_mr.lkey,
            remote_addr=dst.addr, rkey=dst_mr.rkey))
        comps = drain(cluster, cq_a)
        assert len(comps) == 1 and comps[0].ok
        assert dst.read(0, 12) == b"tensor-bytes"

    def test_write_timing_matches_cost_model(self, pair):
        cluster, a, b, qp_a, _, cq_a, _ = pair
        size = 1024 * 1024
        src, src_mr = register(a, size, dense=True)
        dst, dst_mr = register(b, size, dense=True)
        qp_a.post_send(WorkRequest(
            opcode=Opcode.WRITE, size=size, local_addr=src.addr,
            lkey=src_mr.lkey, remote_addr=dst.addr, rkey=dst_mr.rkey))
        comps = drain(cluster, cq_a)
        expected = cluster.cost.rdma_write_time(size)
        assert comps[0].timestamp == pytest.approx(expected, rel=0.01)

    def test_inline_write(self, pair):
        cluster, a, b, qp_a, _, cq_a, _ = pair
        dst, dst_mr = register(b, 64)
        qp_a.post_send(WorkRequest(
            opcode=Opcode.WRITE, inline_data=b"\x01",
            remote_addr=dst.addr + 63, rkey=dst_mr.rkey))
        comps = drain(cluster, cq_a)
        assert comps[0].ok
        assert dst.read_byte(63) == 1

    def test_bad_rkey_completes_with_error(self, pair):
        cluster, a, b, qp_a, _, cq_a, _ = pair
        src, src_mr = register(a, 64)
        register(b, 64)
        qp_a.post_send(WorkRequest(
            opcode=Opcode.WRITE, size=64, local_addr=src.addr,
            lkey=src_mr.lkey, remote_addr=0xdead, rkey=99999))
        comps = drain(cluster, cq_a)
        assert comps[0].status is WcStatus.REMOTE_ACCESS_ERROR

    def test_write_outside_registered_region_fails(self, pair):
        cluster, a, b, qp_a, _, cq_a, _ = pair
        src, src_mr = register(a, 64)
        dst, dst_mr = register(b, 64)
        qp_a.post_send(WorkRequest(
            opcode=Opcode.WRITE, size=64, local_addr=src.addr,
            lkey=src_mr.lkey, remote_addr=dst.addr + 32, rkey=dst_mr.rkey))
        comps = drain(cluster, cq_a)
        assert comps[0].status is WcStatus.REMOTE_ACCESS_ERROR

    def test_unsignaled_write_produces_no_completion(self, pair):
        cluster, a, b, qp_a, _, cq_a, _ = pair
        src, src_mr = register(a, 64)
        dst, dst_mr = register(b, 64)
        src.write(b"q" * 64)
        qp_a.post_send(WorkRequest(
            opcode=Opcode.WRITE, size=64, local_addr=src.addr,
            lkey=src_mr.lkey, remote_addr=dst.addr, rkey=dst_mr.rkey,
            signaled=False))
        comps = drain(cluster, cq_a)
        assert comps == []
        assert dst.read(0, 64) == b"q" * 64

    def test_ascending_order_commit(self, pair):
        """A reader polling mid-transfer must never see the tail before
        the head: the flag-byte protocol depends on this."""
        cluster, a, b, qp_a, _, cq_a, _ = pair
        size = 1024 * 1024
        src, src_mr = register(a, size, dense=True)
        dst, dst_mr = register(b, size, dense=True)
        src.write(b"\xff" * size)
        qp_a.post_send(WorkRequest(
            opcode=Opcode.WRITE, size=size, local_addr=src.addr,
            lkey=src_mr.lkey, remote_addr=dst.addr, rkey=dst_mr.rkey))
        violations = []

        def poller():
            while dst.read_byte(size - 1) != 0xff:
                head_done = dst.read_byte(0) == 0xff
                tail_done = dst.read_byte(size - 1) == 0xff
                if tail_done and not head_done:
                    violations.append(cluster.sim.now)
                yield cluster.sim.timeout(1e-6)

        proc = cluster.sim.spawn(poller())
        cluster.sim.run_until_complete(proc, limit=1.0)
        assert violations == []

    def test_partial_commit_observable_midway(self, pair):
        """Mid-transfer, some chunks are visible but the tail is not."""
        cluster, a, b, qp_a, _, _, _ = pair
        size = 1024 * 1024
        src, src_mr = register(a, size, dense=True)
        dst, dst_mr = register(b, size, dense=True)
        src.write(b"\xee" * size)
        qp_a.post_send(WorkRequest(
            opcode=Opcode.WRITE, size=size, local_addr=src.addr,
            lkey=src_mr.lkey, remote_addr=dst.addr, rkey=dst_mr.rkey))
        observations = []

        def poller():
            while dst.read_byte(size - 1) != 0xee:
                observations.append(dst.read_byte(0))
                yield cluster.sim.timeout(2e-6)

        proc = cluster.sim.spawn(poller())
        cluster.sim.run_until_complete(proc, limit=1.0)
        # The head chunk must become visible strictly before the tail.
        assert 0xee in observations

    def test_virtual_write_preserves_tail_flag(self, pair):
        """Timing-only transfers still deliver real head/tail windows."""
        cluster, a, b, qp_a, _, cq_a, _ = pair
        size = 32 * 1024 * 1024  # virtual backing on both sides
        src, src_mr = register(a, size)
        dst, dst_mr = register(b, size)
        src.write(b"\x01", offset=size - 1)  # sender's flag byte
        qp_a.post_send(WorkRequest(
            opcode=Opcode.WRITE, size=size, local_addr=src.addr,
            lkey=src_mr.lkey, remote_addr=dst.addr, rkey=dst_mr.rkey))
        comps = drain(cluster, cq_a)
        assert comps[0].ok
        assert dst.read_byte(size - 1) == 1

    def test_fifo_ordering_two_writes(self, pair):
        """Writes posted on one QP commit in posting order."""
        cluster, a, b, qp_a, _, cq_a, _ = pair
        src1, mr1 = register(a, 64)
        src2, mr2 = register(a, 64)
        dst, dst_mr = register(b, 64)
        src1.write(b"A" * 64)
        src2.write(b"B" * 64)
        qp_a.post_send(WorkRequest(opcode=Opcode.WRITE, size=64,
                                   local_addr=src1.addr, lkey=mr1.lkey,
                                   remote_addr=dst.addr, rkey=dst_mr.rkey))
        qp_a.post_send(WorkRequest(opcode=Opcode.WRITE, size=64,
                                   local_addr=src2.addr, lkey=mr2.lkey,
                                   remote_addr=dst.addr, rkey=dst_mr.rkey))
        comps = drain(cluster, cq_a)
        assert [c.ok for c in comps] == [True, True]
        assert comps[0].timestamp <= comps[1].timestamp
        assert dst.read(0, 64) == b"B" * 64


class TestRead:
    def test_read_pulls_remote_bytes(self, pair):
        cluster, a, b, qp_a, _, cq_a, _ = pair
        local, local_mr = register(a, 128)
        remote, remote_mr = register(b, 128)
        remote.write(b"remote-data!")
        qp_a.post_send(WorkRequest(
            opcode=Opcode.READ, size=12, local_addr=local.addr,
            lkey=local_mr.lkey, remote_addr=remote.addr, rkey=remote_mr.rkey))
        comps = drain(cluster, cq_a)
        assert comps[0].ok and comps[0].opcode is Opcode.READ
        assert local.read(0, 12) == b"remote-data!"

    def test_read_slower_than_write(self, pair):
        """One-sided READ pays an extra request leg vs WRITE."""
        cluster, *_ = pair
        cost = cluster.cost
        assert cost.rdma_read_time(4096) > cost.rdma_write_time(4096)

    def test_read_invalid_remote_region(self, pair):
        cluster, a, b, qp_a, _, cq_a, _ = pair
        local, local_mr = register(a, 128)
        qp_a.post_send(WorkRequest(
            opcode=Opcode.READ, size=12, local_addr=local.addr,
            lkey=local_mr.lkey, remote_addr=1234, rkey=4321))
        comps = drain(cluster, cq_a)
        assert comps[0].status is WcStatus.REMOTE_ACCESS_ERROR


class TestSendRecv:
    def test_send_matches_posted_recv(self, pair):
        cluster, a, b, qp_a, qp_b, cq_a, cq_b = pair
        src, src_mr = register(a, 64)
        dst, dst_mr = register(b, 64)
        src.write(b"msg")
        qp_b.post_recv(WorkRequest(opcode=Opcode.RECV, size=64,
                                   local_addr=dst.addr, lkey=dst_mr.lkey))
        qp_a.post_send(WorkRequest(opcode=Opcode.SEND, size=3,
                                   local_addr=src.addr, lkey=src_mr.lkey))
        cluster.sim.run()
        send_comps = cq_a.poll()
        recv_comps = cq_b.poll()
        assert send_comps[0].ok and recv_comps[0].ok
        assert recv_comps[0].opcode is Opcode.RECV
        assert dst.read(0, 3) == b"msg"

    def test_send_before_recv_waits(self, pair):
        """RNR: data waits for a receive buffer instead of being lost."""
        cluster, a, b, qp_a, qp_b, cq_a, cq_b = pair
        src, src_mr = register(a, 64)
        dst, dst_mr = register(b, 64)
        src.write(b"early")
        qp_a.post_send(WorkRequest(opcode=Opcode.SEND, size=5,
                                   local_addr=src.addr, lkey=src_mr.lkey))
        cluster.sim.run()
        assert cq_b.poll() == []  # nothing delivered yet
        qp_b.post_recv(WorkRequest(opcode=Opcode.RECV, size=64,
                                   local_addr=dst.addr, lkey=dst_mr.lkey))
        cluster.sim.run()
        assert cq_b.poll()[0].ok
        assert dst.read(0, 5) == b"early"

    def test_recv_buffer_too_small_errors(self, pair):
        cluster, a, b, qp_a, qp_b, _, cq_b = pair
        src, src_mr = register(a, 64)
        dst, dst_mr = register(b, 64)
        src.write(b"x" * 40)
        qp_b.post_recv(WorkRequest(opcode=Opcode.RECV, size=8,
                                   local_addr=dst.addr, lkey=dst_mr.lkey))
        qp_a.post_send(WorkRequest(opcode=Opcode.SEND, size=40,
                                   local_addr=src.addr, lkey=src_mr.lkey))
        cluster.sim.run()
        comps = cq_b.poll()
        assert comps[0].status is WcStatus.LOCAL_LENGTH_ERROR

    def test_recv_buffer_too_small_errors_size_only(self, pair):
        """A size-only payload carries no bytes to measure, so the RECV
        length check must use the SEND's declared size."""
        cluster, a, b, qp_a, qp_b, _, cq_b = pair
        src, src_mr = register(a, 4096, dense=False)
        dst, dst_mr = register(b, 64)
        dst.write(b"\xee" * 64)
        qp_b.post_recv(WorkRequest(opcode=Opcode.RECV, size=8,
                                   local_addr=dst.addr, lkey=dst_mr.lkey))
        qp_a.post_send(WorkRequest(opcode=Opcode.SEND, size=4096,
                                   local_addr=src.addr, lkey=src_mr.lkey))
        cluster.sim.run()
        (comp,) = cq_b.poll()
        assert comp.status is WcStatus.LOCAL_LENGTH_ERROR
        assert comp.byte_len == 4096
        # nothing landed past (or inside) the 8-byte posted extent
        assert dst.read(0, 64) == b"\xee" * 64

    def test_inline_send(self, pair):
        cluster, a, b, qp_a, qp_b, _, cq_b = pair
        dst, dst_mr = register(b, 64)
        qp_b.post_recv(WorkRequest(opcode=Opcode.RECV, size=64,
                                   local_addr=dst.addr, lkey=dst_mr.lkey))
        qp_a.post_send(WorkRequest(opcode=Opcode.SEND, inline_data=b"inline!"))
        cluster.sim.run()
        assert cq_b.poll()[0].ok
        assert dst.read(0, 7) == b"inline!"


class TestQpCq:
    def test_unconnected_qp_raises(self):
        cluster = Cluster(1)
        host = cluster.hosts[0]
        cq = host.nic.create_cq()
        qp = host.nic.create_qp(cq)
        buf, mr = register(host, 64)
        with pytest.raises(MemoryError_, match="not connected"):
            qp.post_send(WorkRequest(opcode=Opcode.WRITE, size=4,
                                     local_addr=buf.addr, lkey=mr.lkey,
                                     remote_addr=buf.addr, rkey=mr.rkey))

    def test_double_connect_rejected(self, pair):
        _, a, b, qp_a, qp_b, _, _ = pair
        other = a.nic.create_qp(a.nic.create_cq())
        with pytest.raises(MemoryError_):
            other.connect(qp_b)

    def test_cq_wait_event(self, pair):
        cluster, a, b, qp_a, _, cq_a, _ = pair
        src, src_mr = register(a, 64)
        dst, dst_mr = register(b, 64)
        woke = []

        def waiter():
            yield cq_a.wait()
            woke.append(cluster.sim.now)

        cluster.sim.spawn(waiter())
        qp_a.post_send(WorkRequest(opcode=Opcode.WRITE, size=64,
                                   local_addr=src.addr, lkey=src_mr.lkey,
                                   remote_addr=dst.addr, rkey=dst_mr.rkey))
        cluster.sim.run()
        assert len(woke) == 1 and woke[0] > 0

    def test_post_recv_requires_recv_opcode(self, pair):
        _, a, _, qp_a, _, _, _ = pair
        with pytest.raises(ValueError):
            qp_a.post_recv(WorkRequest(opcode=Opcode.SEND, size=1))

    def test_post_send_rejects_recv_opcode(self, pair):
        _, _, _, qp_a, _, _, _ = pair
        with pytest.raises(ValueError):
            qp_a.post_send(WorkRequest(opcode=Opcode.RECV, size=1))


class TestBandwidthContention:
    def test_fan_in_queues_on_receiver_ingress(self):
        """Multiple senders to one receiver serialize on its ingress pipe —
        the parameter-server hotspot the scalability experiment hinges on."""
        cluster = Cluster(3)
        recv = cluster.hosts[0]
        cqs, completions = [], []
        size = 8 * 1024 * 1024
        for sender in cluster.hosts[1:]:
            cq = sender.nic.create_cq()
            qp_s = sender.nic.create_qp(cq)
            qp_r = recv.nic.create_qp(recv.nic.create_cq())
            qp_s.connect(qp_r)
            src, src_mr = register(sender, size)
            dst, dst_mr = register(recv, size)
            qp_s.post_send(WorkRequest(
                opcode=Opcode.WRITE, size=size, local_addr=src.addr,
                lkey=src_mr.lkey, remote_addr=dst.addr, rkey=dst_mr.rkey))
            cqs.append(cq)
        cluster.sim.run()
        for cq in cqs:
            completions.extend(cq.poll())
        assert len(completions) == 2
        finish = max(c.timestamp for c in completions)
        one_transfer = cluster.cost.rdma_write_time(size)
        # Two transfers into one port take ~2x one transfer, not ~1x.
        assert finish > 1.8 * one_transfer

    def test_fan_out_queues_on_sender_egress(self):
        cluster = Cluster(3)
        sender = cluster.hosts[0]
        size = 8 * 1024 * 1024
        cq = sender.nic.create_cq()
        for receiver in cluster.hosts[1:]:
            qp_s = sender.nic.create_qp(cq)
            qp_r = receiver.nic.create_qp(receiver.nic.create_cq())
            qp_s.connect(qp_r)
            src, src_mr = register(sender, size)
            dst, dst_mr = register(receiver, size)
            qp_s.post_send(WorkRequest(
                opcode=Opcode.WRITE, size=size, local_addr=src.addr,
                lkey=src_mr.lkey, remote_addr=dst.addr, rkey=dst_mr.rkey))
        cluster.sim.run()
        comps = cq.poll()
        assert len(comps) == 2
        finish = max(c.timestamp for c in comps)
        assert finish > 1.8 * cluster.cost.rdma_write_time(size)

    def test_disjoint_pairs_fully_overlap(self):
        cluster = Cluster(4)
        size = 8 * 1024 * 1024
        finish_times = []
        for s, r in [(0, 1), (2, 3)]:
            sender, receiver = cluster.hosts[s], cluster.hosts[r]
            cq = sender.nic.create_cq()
            qp_s = sender.nic.create_qp(cq)
            qp_r = receiver.nic.create_qp(receiver.nic.create_cq())
            qp_s.connect(qp_r)
            src, src_mr = register(sender, size)
            dst, dst_mr = register(receiver, size)
            qp_s.post_send(WorkRequest(
                opcode=Opcode.WRITE, size=size, local_addr=src.addr,
                lkey=src_mr.lkey, remote_addr=dst.addr, rkey=dst_mr.rkey))
            finish_times.append(cq)
        cluster.sim.run()
        stamps = [cq.poll()[0].timestamp for cq in finish_times]
        expected = cluster.cost.rdma_write_time(size)
        for stamp in stamps:
            assert stamp == pytest.approx(expected, rel=0.05)


class TestRegistration:
    def test_registration_cost_grows_with_size(self):
        cluster = Cluster(1)
        nic = cluster.hosts[0].nic
        small = nic.register_delay(4096)
        large = nic.register_delay(64 * 1024 * 1024)
        assert large > small > 0

    def test_mr_cap_enforced_at_nic(self):
        from repro.simnet import CostModel
        cluster = Cluster(1, cost=CostModel(mr_table_capacity=2))
        host = cluster.hosts[0]
        register(host, 64)
        register(host, 64)
        with pytest.raises(MemoryError_, match="exhausted"):
            register(host, 64)


class TestVerbSpan:
    """The traced verb span ends when the CQE is delivered — also for
    an unsignaled verb, which still gets a CQE when it fails."""

    @staticmethod
    def _torn_unsignaled_write(quantum, traced):
        from dataclasses import replace
        from repro.simnet import FaultInjector
        from repro.simnet.costmodel import DEFAULT_COST_MODEL
        cluster = Cluster(2, cost=replace(DEFAULT_COST_MODEL,
                                          wire_quantum_bytes=quantum))
        tracer = cluster.enable_tracing() if traced else None
        cluster.install_faults(FaultInjector.from_spec("partial:frac=0.5"))
        a, b = cluster.hosts
        cq = a.nic.create_cq()
        qp_a = a.nic.create_qp(cq)
        qp_a.connect(b.nic.create_qp(b.nic.create_cq()))
        size = 64 * 1024
        src, src_mr = register(a, size, dense=True)
        dst, dst_mr = register(b, size, dense=True)
        qp_a.post_send(WorkRequest(
            opcode=Opcode.WRITE, size=size, local_addr=src.addr,
            lkey=src_mr.lkey, remote_addr=dst.addr, rkey=dst_mr.rkey,
            signaled=False))
        (comp,) = drain(cluster, cq)
        assert comp.status is WcStatus.RETRY_EXC_ERR
        return comp, tracer, cluster.sim.now

    @pytest.mark.parametrize("quantum", [0, 16 * 1024],
                             ids=["pipe", "quantum"])
    def test_unsignaled_error_span_ends_at_cqe(self, quantum):
        comp, tracer, traced_now = self._torn_unsignaled_write(quantum, True)
        (span,) = tracer.spans_by_category("verb")
        assert span.start == 0.0
        assert span.end == comp.timestamp
        untraced, _, untraced_now = self._torn_unsignaled_write(quantum,
                                                               False)
        assert repr(untraced.timestamp) == repr(comp.timestamp)
        assert repr(untraced_now) == repr(traced_now)
