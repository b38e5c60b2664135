"""Property-based tests (hypothesis) for the simulation substrate."""

from hypothesis import given, settings, strategies as st

from repro.simnet import Cluster, Opcode, WorkRequest
from repro.simnet.memory import (AddressSpace, DenseBacking, MemoryError_,
                                 VirtualBacking)
from repro.simnet.nic import Pipe
from repro.simnet.simulator import Simulator


class TestSimulatorProperties:
    @given(delays=st.lists(st.floats(min_value=0, max_value=1e6,
                                     allow_nan=False), min_size=1, max_size=50))
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []

        def proc(d):
            yield sim.timeout(d)
            fired.append(sim.now)

        for d in delays:
            sim.spawn(proc(d))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(delays=st.lists(st.floats(min_value=0, max_value=100,
                                     allow_nan=False), min_size=1, max_size=20))
    def test_clock_never_goes_backwards(self, delays):
        sim = Simulator()
        observed = []

        def proc(d):
            yield sim.timeout(d)
            observed.append(sim.now)
            yield sim.timeout(d)
            observed.append(sim.now)

        for d in delays:
            sim.spawn(proc(d))
        last = -1.0
        while sim._queue:
            sim.step()
            assert sim.now >= last
            last = sim.now


class TestPipeProperties:
    @given(sizes=st.lists(st.integers(min_value=1, max_value=1 << 30),
                          min_size=1, max_size=30))
    def test_reservations_never_overlap(self, sizes):
        pipe = Pipe(bandwidth=1e9)
        windows = []
        for size in sizes:
            start, end = pipe.reserve(0.0, size)
            windows.append((start, end))
        for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
            assert s2 >= e1  # FIFO, no overlap

    @given(sizes=st.lists(st.integers(min_value=1, max_value=1 << 24),
                          min_size=1, max_size=30))
    def test_total_time_is_sum_of_serializations(self, sizes):
        import pytest
        pipe = Pipe(bandwidth=1e9)
        for size in sizes:
            pipe.reserve(0.0, size)
        assert pipe.available_at * 1e9 == pytest.approx(sum(sizes))
        assert pipe.bytes_carried == sum(sizes)


class TestMemoryProperties:
    @given(st.data())
    def test_dense_backing_read_your_writes(self, data):
        size = data.draw(st.integers(min_value=16, max_value=512))
        backing = DenseBacking(size)
        model = bytearray(size)
        for _ in range(data.draw(st.integers(min_value=1, max_value=10))):
            off = data.draw(st.integers(min_value=0, max_value=size - 1))
            content = data.draw(st.binary(min_size=1, max_size=size - off))
            backing.write(off, content)
            model[off:off + len(content)] = content
        assert backing.read(0, size) == bytes(model)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_virtual_backing_preserves_edges(self, data):
        size = data.draw(st.integers(min_value=256 * 1024, max_value=1 << 22))
        backing = VirtualBacking(size)
        seed = data.draw(st.binary(min_size=64, max_size=256))
        # Build a payload larger than the sparse limit from a small seed.
        content = (seed * (130 * 1024 // len(seed) + 1))[:130 * 1024]
        off = data.draw(st.integers(min_value=0,
                                    max_value=size - len(content)))
        backing.write(off, content)
        assert backing.read(off, 64) == content[:64]
        assert backing.read(off + len(content) - 64, 64) == content[-64:]

    @given(sizes=st.lists(st.integers(min_value=1, max_value=1 << 20),
                          min_size=1, max_size=40))
    def test_allocations_disjoint(self, sizes):
        space = AddressSpace("prop")
        buffers = [space.allocate(s) for s in sizes]
        spans = sorted((b.addr, b.end) for b in buffers)
        for (a1, e1), (a2, e2) in zip(spans, spans[1:]):
            assert e1 <= a2


class _PerByteVirtualBacking:
    """Reference model: ``VirtualBacking`` as it was before the paged
    store — one dict entry per kept byte, Python loops throughout."""

    def __init__(self, sparse_limit):
        self.sparse_limit = sparse_limit
        self._sparse = {}
        self.bytes_written = 0

    def read(self, offset, length):
        return bytes(self._sparse.get(offset + i, 0) for i in range(length))

    def write(self, offset, data):
        self.bytes_written += len(data)
        if len(data) <= self.sparse_limit:
            for i, b in enumerate(data):
                self._sparse[offset + i] = b
        else:
            keep = 64
            for i in range(keep):
                self._sparse[offset + i] = data[i]
            for i in range(len(data) - keep, len(data)):
                self._sparse[offset + i] = data[i]

    def write_virtual(self, offset, length):
        self.bytes_written += length

    def read_byte(self, offset):
        return self._sparse.get(offset, 0)


class TestVirtualBackingAgainstPerByteModel:
    SIZE = 128 * 1024
    LIMIT = VirtualBacking.sparse_limit
    PAGE = VirtualBacking.page_size

    #: lengths either side of the sparse limit, of the 64-byte edge
    #: windows and of a page
    lengths = st.one_of(
        st.integers(min_value=0, max_value=200),
        st.sampled_from([PAGE - 1, PAGE, PAGE + 1, 3 * PAGE + 7,
                         LIMIT - 1, LIMIT, LIMIT + 1, LIMIT + 129,
                         LIMIT + PAGE + 5]))
    #: positions at, just before and just after page boundaries, where
    #: a range either starts or ends
    anchors = st.one_of(
        st.integers(min_value=0, max_value=SIZE - 1),
        st.builds(lambda page, delta: page * 4096 + delta,
                  st.integers(min_value=0, max_value=SIZE // 4096 - 1),
                  st.integers(min_value=-70, max_value=70)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_operation_sequences_agree(self, data):
        real = VirtualBacking(self.SIZE)
        model = _PerByteVirtualBacking(self.LIMIT)
        steps = data.draw(st.integers(min_value=1, max_value=12))
        for _ in range(steps):
            op = data.draw(st.sampled_from(
                ["write", "write", "write_virtual", "read", "read_byte"]))
            length = 1 if op == "read_byte" else data.draw(self.lengths)
            anchor = data.draw(self.anchors)
            if data.draw(st.booleans()):
                anchor -= length  # the range *ends* at the anchor
            offset = max(0, min(anchor, self.SIZE - length))
            if op == "write":
                seed = data.draw(st.binary(min_size=1, max_size=97))
                content = (seed * (length // len(seed) + 1))[:length]
                real.write(offset, content)
                model.write(offset, content)
            elif op == "write_virtual":
                real.write_virtual(offset, length)
                model.write_virtual(offset, length)
            elif op == "read":
                assert real.read(offset, length) == model.read(offset, length)
            else:
                assert real.read_byte(offset) == model.read_byte(offset)
        assert real.bytes_written == model.bytes_written
        assert real.read(0, self.SIZE) == model.read(0, self.SIZE)

    def test_every_range_around_a_page_boundary_agrees(self):
        page = self.PAGE
        real = VirtualBacking(4 * page)
        model = _PerByteVirtualBacking(self.LIMIT)
        pattern = bytes(range(1, 252)) * (4 * page // 251 + 1)
        for backing in (real, model):
            backing.write(0, pattern[:4 * page])
        deltas = (-2, -1, 0, 1, 2)
        for start in (page + d for d in deltas):
            for end in (2 * page + d for d in deltas):
                assert (real.read(start, end - start)
                        == model.read(start, end - start))
            for length in (1, 2, 3):
                assert real.read(start, length) == model.read(start, length)
                for backing in (real, model):
                    backing.write(start, b"\xff" * length)
                    backing.write(start + page, bytes(length))
        assert real.read(0, 4 * page) == model.read(0, 4 * page)

    def test_read_byte_bounds_checked(self):
        import pytest
        backing = VirtualBacking(128)
        assert backing.read_byte(127) == 0
        for bad in (-1, 128):
            with pytest.raises(MemoryError_):
                backing.read_byte(bad)

    def test_zero_writes_allocate_nothing(self):
        backing = VirtualBacking(1 << 30)
        backing.write(12345, bytes(64))
        backing.write(1 << 20, bytes(self.LIMIT + 1))
        assert backing.read(12345, 64) == bytes(64)
        assert not backing._pages

    def test_non_bytes_buffers_accepted(self):
        import numpy as np
        backing = VirtualBacking(1024)
        backing.write(10, memoryview(b"abc"))
        backing.write(20, np.arange(1, 5, dtype=np.uint8))
        assert backing.read(10, 3) == b"abc"
        assert backing.read(20, 4) == bytes([1, 2, 3, 4])


class TestWriteCommitProperties:
    @settings(max_examples=25, deadline=None)
    @given(size=st.integers(min_value=1, max_value=1 << 20),
           pattern=st.binary(min_size=1, max_size=64))
    def test_write_delivers_exact_bytes(self, size, pattern):
        cluster = Cluster(2)
        a, b = cluster.hosts
        cq = a.nic.create_cq()
        qp_a = a.nic.create_qp(cq)
        qp_b = b.nic.create_qp(b.nic.create_cq())
        qp_a.connect(qp_b)
        src = a.allocate(size, dense=True)
        dst = b.allocate(size, dense=True)
        src_mr = a.nic.register_memory(src)
        dst_mr = b.nic.register_memory(dst)
        payload = (pattern * (size // len(pattern) + 1))[:size]
        src.write(payload)
        qp_a.post_send(WorkRequest(
            opcode=Opcode.WRITE, size=size, local_addr=src.addr,
            lkey=src_mr.lkey, remote_addr=dst.addr, rkey=dst_mr.rkey))
        cluster.sim.run()
        comps = cq.poll()
        assert comps[0].ok
        assert dst.read(0, size) == payload

    @settings(max_examples=15, deadline=None)
    @given(n_writes=st.integers(min_value=1, max_value=8),
           size=st.integers(min_value=1 << 12, max_value=1 << 18))
    def test_completion_order_matches_post_order(self, n_writes, size):
        cluster = Cluster(2)
        a, b = cluster.hosts
        cq = a.nic.create_cq()
        qp_a = a.nic.create_qp(cq)
        qp_b = b.nic.create_qp(b.nic.create_cq())
        qp_a.connect(qp_b)
        wr_ids = []
        for _ in range(n_writes):
            src = a.allocate(size, dense=True)
            dst = b.allocate(size, dense=True)
            src_mr = a.nic.register_memory(src)
            dst_mr = b.nic.register_memory(dst)
            wr = WorkRequest(
                opcode=Opcode.WRITE, size=size, local_addr=src.addr,
                lkey=src_mr.lkey, remote_addr=dst.addr, rkey=dst_mr.rkey)
            wr_ids.append(wr.wr_id)
            qp_a.post_send(wr)
        cluster.sim.run()
        comps = cq.poll(max_entries=64)
        assert [c.wr_id for c in comps] == wr_ids
