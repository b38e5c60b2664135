"""Unit tests for the FaRM-style ring buffer."""

import pytest

from repro.rpc.ring_buffer import RingBuffer, RingBufferFull


class TestBasics:
    def test_push_pop(self):
        ring = RingBuffer(128)
        ring.push(b"one")
        ring.push(b"two")
        assert ring.pop() == b"one"
        assert ring.pop() == b"two"
        assert ring.pop() is None

    def test_empty_pop_none(self):
        assert RingBuffer(64).pop() is None

    def test_counters(self):
        ring = RingBuffer(256)
        for i in range(5):
            ring.push(bytes([i]))
        ring.pop()
        assert ring.records_written == 5
        assert ring.records_read == 1

    def test_capacity_too_small(self):
        with pytest.raises(ValueError):
            RingBuffer(4)


class TestWrapAround:
    def test_records_survive_wrap(self):
        ring = RingBuffer(64)
        payloads = [bytes([i]) * 20 for i in range(50)]
        for payload in payloads:
            ring.push(payload)
            assert ring.pop() == payload

    def test_record_straddles_boundary(self):
        ring = RingBuffer(40)
        ring.push(b"a" * 30)   # head now near the end
        assert ring.pop() == b"a" * 30
        ring.push(b"b" * 20)   # this one wraps
        assert ring.pop() == b"b" * 20

    def test_many_interleaved(self):
        ring = RingBuffer(100)
        import itertools
        gen = itertools.cycle([b"xy", b"z" * 17, b"w" * 5])
        queue = []
        for step, payload in zip(range(200), gen):
            if ring.fits(len(payload)):
                ring.push(payload)
                queue.append(payload)
            else:
                assert ring.pop() == queue.pop(0)
        while queue:
            assert ring.pop() == queue.pop(0)


class TestOverflow:
    def test_full_raises(self):
        ring = RingBuffer(32)
        ring.push(b"a" * 20)
        with pytest.raises(RingBufferFull, match="ring full"):
            ring.push(b"b" * 20)

    def test_oversized_record_rejected_even_when_empty(self):
        ring = RingBuffer(32)
        with pytest.raises(RingBufferFull, match="never fit"):
            ring.push(b"c" * 32)

    def test_space_freed_after_pop(self):
        ring = RingBuffer(32)
        ring.push(b"a" * 20)
        ring.pop()
        ring.push(b"b" * 20)  # fits again
        assert ring.pop() == b"b" * 20

    def test_fits_predicate(self):
        ring = RingBuffer(32)
        assert ring.fits(20)
        ring.push(b"a" * 20)
        assert not ring.fits(20)

    def test_free_used_accounting(self):
        ring = RingBuffer(100)
        assert ring.free == 100
        ring.push(b"x" * 10)
        assert ring.used == 14  # 4-byte length prefix + 10
        assert ring.free == 86


class TestHostCost:
    def test_rings_cost_nothing_to_create(self):
        """FCN-5 on 8 servers dials 256 connection sides of 4 MiB: a
        zero-filled backing array per ring was 1 GiB before step one."""
        import tracemalloc
        tracemalloc.start()
        try:
            rings = [RingBuffer(4 * 1024 * 1024) for _ in range(256)]
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rings) == 256
        assert current < 1024 * 1024
