"""Property-based tests (hypothesis) for the simulation substrate."""

from hypothesis import given, settings, strategies as st

from repro.simnet import Cluster, Opcode, WorkRequest
from repro.simnet.memory import (AddressSpace, DenseBacking, MemoryError_,
                                 VirtualBacking)
from repro.simnet.faults import FaultVerdict
from repro.simnet.nic import MAX_COMMIT_CHUNKS, SINGLE_CHUNK_LIMIT, Pipe
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


def _four_entry_commit(sim, backing, offset, size, payload, start, end,
                       head=b"", tail=b"", wake=None):
    """Reference model: the ascending commit as one heap entry per chunk.

    Up to ``MAX_COMMIT_CHUNKS`` chunks (one at or below
    ``SINGLE_CHUNK_LIMIT``), chunk ``i`` due at
    ``max(start + (i + 1) / n * (end - start), now)``, the last at
    ``max(end, now)``; the head window lands with the first chunk, the
    tail window and ``wake(backing, lo, hi)`` with the last.
    """
    if size <= SINGLE_CHUNK_LIMIT:
        bounds = [(0, size)]
    else:
        step = size // MAX_COMMIT_CHUNKS
        bounds = [(i * step, (i + 1) * step if i < MAX_COMMIT_CHUNKS - 1
                   else size) for i in range(MAX_COMMIT_CHUNKS)]
    duration = max(end - start, 0.0)
    last = len(bounds) - 1
    for i, (lo, hi) in enumerate(bounds):
        frac = (i + 1) / len(bounds)
        when = max(end if i == last else start + frac * duration, sim.now)

        def commit(lo=lo, hi=hi, first=(i == 0), final=(i == last)):
            if payload is not None:
                backing.write(offset + lo, payload[lo:hi])
            else:
                backing.write_virtual(offset + lo, hi - lo)
                if first and head:
                    backing.write(offset, head)
                if final and tail:
                    backing.write(offset + size - len(tail), tail)
            if final and wake is not None:
                wake(backing, offset + lo, offset + hi)
        sim.call_at(when, commit)


def _reference_landing(sim, verdict, backing, offset, size, payload, start,
                       end, head, tail, wake):
    """``RdmaNic._faulted_commit`` over the reference model: a torn
    write is a strict prefix with no tail window and no wake."""
    commit = size if verdict is None else verdict.commit_size(size)
    if commit <= 0:
        return
    if commit < size:
        payload = payload[:commit] if payload is not None else None
        head, tail, wake = head[:commit], b"", None
    _four_entry_commit(sim, backing, offset, commit, payload, start, end,
                       head, tail, wake)


class TestLandingAgainstFourEntryModel:
    """A landing is one heap entry at ``end``; every access in
    mid-window must see exactly what the one-entry-per-chunk model
    shows — also at a chunk's own instant, where push order decides."""

    SIZE = 3 * 4096
    US = 1e-6
    sizes = st.one_of(st.integers(min_value=1, max_value=8192),
                      st.sampled_from([4095, 4096, 4097, 4100, 6000, 8192]))

    @staticmethod
    def _chunk_times(posted, size, start, end):
        n = 1 if size <= SINGLE_CHUNK_LIMIT else MAX_COMMIT_CHUNKS
        duration = max(end - start, 0.0)
        return [max(end if i == n - 1 else start + (i + 1) / n * duration,
                    posted) for i in range(n)]

    def _draw_landing(self, data):
        size = data.draw(self.sizes)
        offset = data.draw(st.integers(min_value=0,
                                       max_value=self.SIZE - size))
        posted = data.draw(st.integers(min_value=0, max_value=6)) * self.US
        start = data.draw(st.integers(min_value=0, max_value=8)) * self.US
        end = start + data.draw(st.integers(min_value=0,
                                            max_value=12)) * self.US
        seed = data.draw(st.binary(min_size=1, max_size=13))
        content = (seed * (size // len(seed) + 1))[:size]
        if data.draw(st.booleans()):
            payload, head, tail = content, b"", b""
        else:
            win = min(64, size)
            payload, head = None, content[:win]
            tail = content[size - win:] if size > win else b""
        frac = data.draw(st.sampled_from([None, 0.1, 0.5, 0.9]))
        verdict = None if frac is None else FaultVerdict(kind="partial",
                                                         frac=frac)
        return (posted, (verdict, offset, size, payload, start, end, head,
                         tail))

    def _draw_access(self, data, dense, times):
        when = data.draw(st.one_of(
            st.sampled_from(times),
            st.integers(min_value=0, max_value=22).map(lambda k: k * self.US)))
        kinds = ["read", "read_byte", "write", "write_virtual"]
        kind = data.draw(st.sampled_from(kinds + ["view"] if dense else kinds))
        length = 1 if kind == "read_byte" else data.draw(
            st.integers(min_value=1, max_value=self.SIZE))
        offset = data.draw(st.integers(min_value=0,
                                       max_value=self.SIZE - length))
        fill = data.draw(st.binary(min_size=1, max_size=1))
        return when, (kind, offset, length, fill * length)

    @staticmethod
    def _access(backing, op, seen):
        kind, offset, length, content = op
        if kind == "read":
            seen.append(backing.read(offset, length))
        elif kind == "read_byte":
            seen.append(backing.read_byte(offset))
        elif kind == "view":
            seen.append(backing.view(offset, length).tobytes())
        elif kind == "write":
            backing.write(offset, content)
        else:
            backing.write_virtual(offset, length)

    def _play(self, script, dense, reference, size=SIZE):
        entries, order, stop = script
        cluster = Cluster(1)
        sim, nic = cluster.sim, cluster.hosts[0].nic
        backing = DenseBacking(size) if dense else VirtualBacking(size)
        # Chunks above this keep only their edge windows, so merging two
        # chunks into one write would show.
        backing.sparse_limit = 1024
        seen, wakes = [], []
        events = [sim.event() for _ in entries]

        def wake(_backing, lo, hi):
            wakes.append((sim.now, lo, hi))

        def run_entry(index):
            ops = entries[index][2]
            for op in ops:
                if op[0] == "land":
                    args = (op[1][0], backing) + op[1][1:] + (wake,)
                    if reference:
                        _reference_landing(sim, *args)
                    else:
                        nic._faulted_commit(*args)
                else:
                    self._access(backing, op, seen)
            events[index].succeed()

        for index in order:
            when, poll, _ = entries[index]
            fn = lambda index=index: run_entry(index)
            if poll:
                sim.call_poll(when, sim.poll_index(), fn)
            else:
                sim.call_at(when, fn)
        kind, where = stop
        if kind == "until":
            sim.run(until=where)
        else:
            sim.run_until_complete(events[where])
        mid = (sim.now, backing.read(0, size))
        sim.run()
        return (seen, wakes, mid, backing.read(0, size),
                getattr(backing, "bytes_written", None))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_accesses_agree_with_the_model(self, data):
        dense = data.draw(st.booleans())
        landings = [self._draw_landing(data) for _ in range(
            data.draw(st.integers(min_value=1, max_value=3)))]
        times = sorted({t for posted, (verdict, _, size, _, start, end, *_)
                        in landings
                        for t in self._chunk_times(
                            posted, size if verdict is None
                            else verdict.commit_size(size), start, end)})
        entries = []
        for posted, args in landings:
            ops = [("land", args)]
            if data.draw(st.booleans()):  # an access in the same entry
                ops.append(self._draw_access(data, dense, times)[1])
            entries.append((posted, data.draw(st.booleans()), ops))
        for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
            when, op = self._draw_access(data, dense, times)
            entries.append((when, data.draw(st.booleans()), [op]))
        order = data.draw(st.permutations(range(len(entries))))
        stop = data.draw(st.one_of(
            st.tuples(st.just("until"), st.sampled_from(times)),
            st.tuples(st.just("event"),
                      st.integers(min_value=0, max_value=len(entries) - 1))))
        script = (entries, order, stop)
        assert (self._play(script, dense, reference=False)
                == self._play(script, dense, reference=True))

    def test_overlapping_landings_commit_in_due_order(self):
        """B's first chunk (due at 2 us) lands under A's last one (due
        at A's end, 4 us) although B's own entry runs last, at 8 us;
        B's second chunk, due at 4 us too, lands over it: B was made
        after A."""
        us = self.US
        a = (None, 0, 8192, b"A" * 8192, 0.0, 4 * us, b"", b"")
        b = (None, 6144, 6144, b"B" * 6144, 0.0, 8 * us, b"", b"")
        peek = ("read", 0, self.SIZE, b"")
        for stop in (("until", 2 * us), ("until", 4 * us), ("event", 2)):
            script = ([(0.0, False, [("land", a)]),
                       (0.0, False, [("land", b)]),
                       (5 * us, False, [peek])], [0, 1, 2], stop)
            for dense in (False, True):
                played = self._play(script, dense, reference=False)
                assert played == self._play(script, dense, reference=True)
            assert played[3][6144:8192] == b"A" * 1536 + b"B" * 512  # dense

    def test_many_landings_on_one_backing(self):
        """Twelve landings in flight on one backing, so the lookup's
        bisect lands mid-list; reads at every chunk instant, before and
        after each landing was made."""
        us, size, count = self.US, 4100, 12
        landings = [(i * us / 2, i * us / 2 + 8 * us) for i in range(count)]
        entries = [(0.0, False, [("land", (None, 5000 * i, size,
                                           bytes([i + 1]) * size, start,
                                           end, b"", b""))])
                   for i, (start, end) in enumerate(landings)]
        times = sorted({t for start, end in landings
                        for t in self._chunk_times(0.0, size, start, end)})
        for k, when in enumerate(times):
            entries.append((when, k % 3 == 0,
                            [("read_byte", 5000 * (k % count) + 1100, 1,
                              b""), ("read", 0, 5000 * count, b"")]))
        order = list(range(len(entries)))
        order = order[count::2] + order[:count] + order[count + 1::2]
        script = (entries, order, ("until", times[len(times) // 2]))
        for dense in (False, True):
            assert (self._play(script, dense, False, 5000 * count)
                    == self._play(script, dense, True, 5000 * count))
