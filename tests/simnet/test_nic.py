"""Unit tests for the simulated RDMA NIC: verbs, CQs, timing, semantics."""

import pytest

from repro.simnet import (
    Cluster, MemoryError_, Opcode, WcStatus, WorkRequest)
from repro.simnet.nic import MAX_COMMIT_CHUNKS
from repro.simnet.simulator import SimulationError
from repro.simnet.verbs import Completion


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


def register(host, size):
    buf = host.allocate(size)
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

    def test_large_real_write_arrives_whole(self, pair):
        """1 MiB of real bytes into a 32 MiB region nothing wrote: a
        wholly real source makes a real verb, and every byte lands."""
        cluster, a, b, qp_a, _, cq_a, _ = pair
        size = 1024 * 1024
        src, src_mr = register(a, size)
        dst, dst_mr = register(b, 32 * size)
        payload = bytes(range(1, 252)) * (size // 251 + 1)
        src.write(payload[:size])
        qp_a.post_send(WorkRequest(
            opcode=Opcode.WRITE, size=size, local_addr=src.addr,
            lkey=src_mr.lkey, remote_addr=dst.addr + 4096,
            rkey=dst_mr.rkey))
        comps = drain(cluster, cq_a)
        assert len(comps) == 1 and comps[0].ok
        assert dst.read(4096, size) == payload[:size]
        assert dst.backing.is_real(4096, size)
        assert dst.read(0, 4096) == bytes(4096)

    def test_partly_real_source_moves_its_real_bytes(self, pair):
        """A source only partly written with real bytes is a size-only
        verb, yet every real byte in it lands, real, and nothing else
        becomes real."""
        cluster, a, b, qp_a, _, cq_a, _ = pair
        size = 1024 * 1024
        src, src_mr = register(a, size)
        dst, dst_mr = register(b, size)
        src.write(b"\xab" * 256)
        src.write(b"\x01", size // 2)
        qp_a.post_send(WorkRequest(
            opcode=Opcode.WRITE, size=size, local_addr=src.addr,
            lkey=src_mr.lkey, remote_addr=dst.addr, rkey=dst_mr.rkey))
        comps = drain(cluster, cq_a)
        assert len(comps) == 1 and comps[0].ok
        assert dst.read(0, 257) == b"\xab" * 256 + b"\x00"
        assert dst.read_byte(size // 2) == 1
        assert dst.backing._real == [0, 256, size // 2, size // 2 + 1]

    def test_size_only_transfer_leaves_a_small_tensor_virtual(self, pair):
        """A 100-byte size-only WRITE from a source holding no real
        bytes stores nothing: its destination stays size-only."""
        from repro.graph.dtypes import DType
        from repro.graph.shapes import Shape
        from repro.graph.tensor import Tensor
        cluster, a, b, qp_a, _, cq_a, _ = pair
        src, src_mr = register(a, 100)
        dst, dst_mr = register(b, 100)
        qp_a.post_send(WorkRequest(
            opcode=Opcode.WRITE, size=100, local_addr=src.addr,
            lkey=src_mr.lkey, remote_addr=dst.addr, rkey=dst_mr.rkey))
        assert drain(cluster, cq_a)[0].ok
        tensor = Tensor(DType.uint8, Shape([100]), dst)
        assert not tensor.is_dense
        assert not dst.backing._pages and dst.backing.array is None

    def test_write_timing_matches_cost_model(self, pair):
        cluster, a, b, qp_a, _, cq_a, _ = pair
        size = 1024 * 1024
        src, src_mr = register(a, size)
        dst, dst_mr = register(b, size)
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
        src, src_mr = register(a, size)
        dst, dst_mr = register(b, size)
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
        src, src_mr = register(a, size)
        dst, dst_mr = register(b, size)
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
        """A size-only transfer still delivers the real bytes its source
        holds: here the trailing flag byte."""
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

    def test_send_before_recv_keeps_a_partly_real_source(self, pair):
        """A size-only SEND that waits for its RECV still lands the real
        bytes its source held."""
        cluster, a, b, qp_a, qp_b, cq_a, cq_b = pair
        src, src_mr = register(a, 8192)
        dst, dst_mr = register(b, 8192)
        src.write(b"\x5a" * 300, 100)
        qp_a.post_send(WorkRequest(opcode=Opcode.SEND, size=8192,
                                   local_addr=src.addr, lkey=src_mr.lkey))
        cluster.sim.run()
        qp_b.post_recv(WorkRequest(opcode=Opcode.RECV, size=8192,
                                   local_addr=dst.addr, lkey=dst_mr.lkey))
        cluster.sim.run()
        assert cq_b.poll()[0].ok
        assert dst.read(0, 8192) == src.read(0, 8192)
        assert dst.backing._real == [100, 400]

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
        src, src_mr = register(a, 4096)
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

    @staticmethod
    def _send_and_receive(wr):
        cluster = Cluster(2)
        a, b = cluster.hosts
        qp_a = a.nic.create_qp(a.nic.create_cq())
        cq_b = b.nic.create_cq()
        qp_b = b.nic.create_qp(cq_b)
        qp_a.connect(qp_b)
        dst, dst_mr = register(b, 4096)
        dst.write(b"\xee" * 4096)
        qp_b.post_recv(WorkRequest(opcode=Opcode.RECV, size=4096,
                                   local_addr=dst.addr, lkey=dst_mr.lkey))
        qp_a.post_send(wr)
        cluster.sim.run()
        (comp,) = cq_b.poll()
        return comp, dst.read(0, 4096)

    def test_short_inline_is_the_head_of_a_size_only_send(self):
        """Inline bytes shorter than ``size`` land as the real head of a
        size-only payload, on the clock of a full-size inline SEND."""
        comp, landed = self._send_and_receive(WorkRequest(
            opcode=Opcode.SEND, size=4096, inline_data=b"head"))
        full, _ = self._send_and_receive(WorkRequest(
            opcode=Opcode.SEND, inline_data=bytes(4096)))
        assert comp.ok and comp.byte_len == 4096
        assert landed == b"head" + b"\xee" * 4092
        assert comp.timestamp == full.timestamp

    def test_inline_longer_than_size_rejected(self):
        with pytest.raises(ValueError, match="inline"):
            WorkRequest(opcode=Opcode.SEND, size=2, inline_data=b"abc")


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

    def test_cqe_to_a_parked_poller_drains_inside_the_push(self, pair):
        """A poller parked on an empty CQ holds no heap entry: the push
        resumes it in place, so the completion is drained before the
        pushing entry returns."""
        cluster, *_ = pair
        sim = cluster.sim
        cq = cluster.hosts[0].nic.create_cq()
        drained, seen = [], []

        def poller():
            while True:
                yield cq.wait()
                drained.extend((c.wr_id, sim.now) for c in cq.poll())

        def push(wr_id):
            pushes = sim._seq
            cq.push(Completion(wr_id=wr_id, opcode=Opcode.WRITE,
                               status=WcStatus.SUCCESS, byte_len=1,
                               qp_num=0, timestamp=sim.now))
            seen.append((list(drained), len(cq), sim._seq - pushes))

        sim.spawn(poller())
        sim.call_at(1e-6, lambda: push(1))
        sim.call_at(2e-6, lambda: push(2))
        sim.run()
        assert seen == [([(1, 1e-6)], 0, 0), ([(1, 1e-6), (2, 2e-6)], 0, 0)]
        # Three entries: the poller's start and the two pushes.
        assert sim.event_count == 3

    def test_cq_wait_with_entries_queued_returns_a_fired_event(self, pair):
        cluster, *_ = pair
        cq = cluster.hosts[0].nic.create_cq()
        cq.push(Completion(wr_id=1, opcode=Opcode.WRITE,
                           status=WcStatus.SUCCESS, byte_len=1, qp_num=0,
                           timestamp=0.0))
        assert cq.wait().triggered

    def test_cq_takes_one_parked_poller(self, pair):
        cluster, *_ = pair
        sim = cluster.sim
        cq = cluster.hosts[0].nic.create_cq()
        errors = []

        def poller():
            try:
                yield cq.wait()
            except SimulationError as exc:
                errors.append(exc)

        sim.spawn(poller())
        sim.spawn(poller())
        sim.run()
        assert len(errors) == 1
        with pytest.raises(SimulationError):
            cq.wait()  # no running process to park

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
        src, src_mr = register(a, size)
        dst, dst_mr = register(b, size)
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


class TestMidWindowAccess:
    """What a reader or writer sees of a landing in mid-window.

    A 1 MiB dense WRITE commits in ``MAX_COMMIT_CHUNKS`` ascending
    chunks, chunk ``i`` due at ``start + (i + 1) / n * (end - start)``
    and the last one at ``end``.  A chunk due at exactly an entry's
    instant is visible to it iff that entry was pushed after the
    landing or is a poll-chain entry.
    """

    SIZE = 1024 * 1024
    BYTE = 0xee

    @classmethod
    def _window(cls):
        """The landing's (start, end), read off a traced twin run."""
        cluster = Cluster(2)
        tracer = cluster.enable_tracing()
        a, b = cluster.hosts
        qp_a = a.nic.create_qp(a.nic.create_cq())
        qp_a.connect(b.nic.create_qp(b.nic.create_cq()))
        cls._post(a, b, qp_a)
        (span,) = tracer.spans_by_category("wire")
        return span.start, span.end

    @classmethod
    def _post(cls, a, b, qp_a):
        src, src_mr = register(a, cls.SIZE)
        dst, dst_mr = register(b, cls.SIZE)
        src.write(bytes([cls.BYTE]) * cls.SIZE)
        qp_a.post_send(WorkRequest(
            opcode=Opcode.WRITE, size=cls.SIZE, local_addr=src.addr,
            lkey=src_mr.lkey, remote_addr=dst.addr, rkey=dst_mr.rkey))
        return dst

    @classmethod
    def _chunk_times(cls):
        start, end = cls._window()
        n = MAX_COMMIT_CHUNKS
        return [start + (i + 1) / n * (end - start) if i < n - 1 else end
                for i in range(n)]

    @property
    def step(self):
        return self.SIZE // MAX_COMMIT_CHUNKS

    def test_read_at_a_chunk_time_follows_push_order(self, pair):
        cluster, a, b, qp_a, *_ = pair
        sim = cluster.sim
        t0 = self._chunk_times()[0]
        seen = {}
        dst = None

        def look(name):
            seen[name] = (dst.read_byte(0), dst.read_byte(self.step))

        sim.call_at(t0, lambda: look("before"))
        sim.call_poll(t0, sim.poll_index(), lambda: look("poll"))
        dst = self._post(a, b, qp_a)
        sim.call_at(t0, lambda: look("after"))
        sim.run()
        assert seen["before"] == (0, 0)
        assert seen["after"] == (self.BYTE, 0)
        assert seen["poll"] == (self.BYTE, 0)

    def test_write_in_mid_window_is_ordered_against_chunks(self, pair):
        cluster, a, b, qp_a, *_ = pair
        sim = cluster.sim
        t0, t1, t2, _ = self._chunk_times()
        step = self.step
        dst = None

        def scribble(offset, mark):
            dst.write(mark * 16, offset=offset - 8)

        # Pushed before the landing: chunk 2 (due at t2) overwrites it.
        sim.call_at(t2, lambda: scribble(3 * step, b"P"))
        dst = self._post(a, b, qp_a)
        # In mid-window, straddling chunks 1 and 2: chunk 2 lands later.
        sim.call_at((t1 + t2) / 2, lambda: scribble(2 * step, b"M"))
        # Pushed after the landing at chunk 1's instant: it wins.
        sim.call_at(t1, lambda: scribble(step, b"A"))
        sim.run()
        assert dst.read(step - 8, 16) == b"A" * 16
        assert dst.read(2 * step - 8, 16) == b"M" * 8 + bytes([self.BYTE]) * 8
        assert dst.read(3 * step - 8, 16) == bytes([self.BYTE]) * 16
        assert dst.read(0, step - 8) == bytes([self.BYTE]) * (step - 8)

    def test_view_array_and_read_see_the_due_prefix(self, pair):
        from repro.graph.dtypes import DType
        from repro.graph.shapes import Shape
        from repro.graph.tensor import Tensor
        cluster, a, b, qp_a, *_ = pair
        sim = cluster.sim
        _, t1, t2, _ = self._chunk_times()
        step = self.step
        dst = self._post(a, b, qp_a)
        # A tensor over the due prefix: real by then, so it has an array.
        tensor = Tensor(DType.uint8, Shape([2 * step]), dst)
        seen = {}

        def look():
            seen["view"] = dst.backing.view(0, self.SIZE).tobytes()
            seen["array"] = tensor.array.tobytes()
            seen["read"] = dst.read(0, self.SIZE)

        sim.call_at((t1 + t2) / 2, look)
        sim.run()
        due = bytes([self.BYTE]) * (2 * step) + bytes(self.SIZE - 2 * step)
        assert seen == {"view": due, "array": due[:2 * step], "read": due}

    def test_run_until_a_chunk_time_commits_it(self, pair):
        cluster, a, b, qp_a, *_ = pair
        t0 = self._chunk_times()[0]
        dst = self._post(a, b, qp_a)
        cluster.sim.run(until=t0)
        assert (dst.read_byte(0), dst.read_byte(self.step)) == (self.BYTE, 0)

    def test_reads_between_runs(self, pair):
        cluster, a, b, qp_a, *_ = pair
        sim = cluster.sim
        t0, t1, *_ = self._chunk_times()
        early, late = sim.event(), sim.event()
        sim.call_at(t0, early.succeed)
        dst = self._post(a, b, qp_a)
        sim.call_at(t1, late.succeed)
        step = self.step
        # The entry that triggers ``early`` was pushed before the
        # landing: chunk 0's commit at the same instant is still queued.
        sim.run_until_complete(early)
        assert sim.now == t0
        assert (dst.read_byte(0), dst.read_byte(step)) == (0, 0)
        sim.run(until=t0)
        assert (dst.read_byte(0), dst.read_byte(step)) == (self.BYTE, 0)
        # ``late`` was pushed after the landing: chunk 1 has committed.
        sim.run_until_complete(late)
        assert sim.now == t1
        assert dst.read_byte(step) == self.BYTE
        assert dst.read_byte(2 * step) == 0
        sim.run()
        assert dst.read(0, self.SIZE) == bytes([self.BYTE]) * self.SIZE
