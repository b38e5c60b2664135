"""Unit tests for simulated host memory and RDMA registration."""

import pytest

from repro.graph.dtypes import DType
from repro.graph.tensor import Tensor
from repro.simnet.memory import AddressSpace, Backing, MemoryError_, MrTable

MiB = 1024 * 1024
PAGE = Backing.page_size


class TestDenseBacking:
    """A small backing: real writes, views, bounds."""

    def test_roundtrip(self):
        backing = Backing(64)
        backing.write(10, b"hello")
        assert backing.read(10, 5) == b"hello"

    def test_initial_zeroes(self):
        backing = Backing(16)
        assert backing.read(0, 16) == b"\x00" * 16

    def test_out_of_bounds_read(self):
        backing = Backing(8)
        with pytest.raises(MemoryError_):
            backing.read(4, 8)

    def test_out_of_bounds_write(self):
        backing = Backing(8)
        with pytest.raises(MemoryError_):
            backing.write(6, b"xyz")

    def test_read_byte(self):
        backing = Backing(4)
        backing.write(3, b"\x07")
        assert backing.read_byte(3) == 7

    def test_view_is_zero_copy(self):
        backing = Backing(32)
        view = backing.view(8, 4)
        view[:] = 255
        assert backing.read(8, 4) == b"\xff\xff\xff\xff"

    def test_zero_size_rejected(self):
        with pytest.raises(MemoryError_):
            Backing(0)

    def test_write_virtual_leaves_content(self):
        backing = Backing(16)
        backing.write(0, b"abcd")
        backing.write_virtual(0, 4)
        assert backing.read(0, 4) == b"abcd"
        assert backing.is_real(0, 4)


class TestVirtualBacking:
    """A large backing: no storage until real bytes arrive."""

    def test_small_write_kept(self):
        backing = Backing(1 << 30)  # 1 GiB costs no real RAM
        backing.write(100, b"flag")
        assert backing.read(100, 4) == b"flag"

    def test_unwritten_reads_zero(self):
        backing = Backing(1024)
        assert backing.read(0, 8) == b"\x00" * 8

    def test_bytes_written_accounting(self):
        backing = Backing(1 << 24)
        backing.write(0, b"x" * 100)
        backing.write_virtual(1000, 5000)
        assert backing.bytes_written == 5100

    def test_bounds_checked(self):
        backing = Backing(128)
        with pytest.raises(MemoryError_):
            backing.write(120, b"too long!")


class TestStorageFollowsWrites:
    def test_large_real_write_reads_back_whole(self):
        space = AddressSpace("hostA")
        buf = space.allocate(64 * MiB)
        data = bytes(range(1, 256)) * (MiB // 255 + 1)
        data = data[:MiB]
        buf.write(data, 5 * MiB + 7)
        assert buf.read(5 * MiB + 7, MiB) == data
        assert buf.backing.is_real(5 * MiB + 7, MiB)
        assert not buf.backing.is_real(5 * MiB + 6, MiB)
        # Partial content stays in pages, which hold the bytes written:
        # no contiguous storage yet.
        assert buf.backing.array is None
        assert space.dense_bytes_allocated == MiB

    def test_real_bytes_covering_the_buffer_become_one_array(self):
        space = AddressSpace("hostA")
        buf = space.allocate(3 * 4096)
        buf.write(b"\x01" * 4096, 0)
        assert buf.backing.array is None
        buf.write(b"\x02" * 8192, 4096)
        assert buf.backing.array is not None and not buf.backing._pages
        assert buf.read() == b"\x01" * 4096 + b"\x02" * 8192
        # The first write's pages, then the array.
        assert space.dense_bytes_allocated == 4096 + 3 * 4096

    def test_flag_write_into_a_large_buffer_creates_one_page(self):
        space = AddressSpace("hostA")
        buf = space.allocate(64 * MiB)
        tensor = Tensor(DType.float32, (16 * MiB,), buf)
        buf.write(b"\x01", 64 * MiB - 1)
        backing = buf.backing
        assert backing._pages == {64 * MiB // PAGE - 1: [PAGE - 1,
                                                         bytearray(b"\x01")]}
        assert space.dense_bytes_allocated == 1
        assert backing.array is None
        assert not tensor.is_dense

    def test_a_page_holds_the_span_of_its_nonzero_bytes(self):
        space = AddressSpace("hostA")
        buf = space.allocate(3 * PAGE)
        buf.write(b"\x00\x00hdr\x00", PAGE + 100)
        assert buf.backing._pages == {1: [102, bytearray(b"hdr")]}
        buf.write(b"\x07", PAGE + 90)   # grows the span down ...
        buf.write(b"\x00" * 20, PAGE + 110)  # ... zeros past it do not
        buf.write(b"\x09", PAGE + 106)  # ... a byte past it grows it up
        assert buf.backing._pages == {
            1: [90, bytearray(b"\x07" + bytes(11) + b"hdr\x00\x09")]}
        assert space.dense_bytes_allocated == 17
        assert buf.read(PAGE + 88, 22) == (bytes(2) + b"\x07" + bytes(11)
                                           + b"hdr\x00\x09" + bytes(3))
        assert buf.read_byte(PAGE + 90) == 7
        assert buf.read_byte(PAGE + 89) == buf.read_byte(PAGE + 107) == 0

    def test_size_only_write_lands_only_its_real_pieces(self):
        backing = Backing(4096)
        backing.write(4000, b"\x05" * 96)   # real bytes already there
        backing.write_virtual(0, 4096, ((1000, b"abc"), (4095, b"\x09")))
        assert backing.read(1000, 3) == b"abc"
        assert backing.read_byte(4095) == 9
        # Bytes the pieces do not cover keep what they held, real or not.
        assert backing.read(4000, 95) == b"\x05" * 95
        assert backing.read(0, 1000) == bytes(1000)
        assert backing._real == [1000, 1003, 4000, 4096]
        assert backing.bytes_written == 96 + 4096


class TestAddressSpace:
    def test_allocate_and_resolve(self):
        space = AddressSpace("hostA")
        buf = space.allocate(256)
        found, offset = space.resolve(buf.addr + 10, 4)
        assert found is buf
        assert offset == 10

    def test_distinct_buffers_do_not_overlap(self):
        space = AddressSpace("hostA")
        a = space.allocate(100)
        b = space.allocate(100)
        assert a.end <= b.addr or b.end <= a.addr

    def test_hosts_get_disjoint_ranges(self):
        a = AddressSpace("a").allocate(10)
        b = AddressSpace("b").allocate(10)
        assert abs(a.addr - b.addr) >= (1 << 44) - (1 << 20)

    def test_unmapped_access_faults(self):
        space = AddressSpace("hostA")
        space.allocate(64)
        with pytest.raises(MemoryError_):
            space.resolve(12345, 1)

    def test_resolve_straddling_end_faults(self):
        space = AddressSpace("hostA")
        buf = space.allocate(64)
        with pytest.raises(MemoryError_):
            space.resolve(buf.addr + 60, 8)

    def test_read_write_via_space(self):
        space = AddressSpace("hostA")
        buf = space.allocate(64)
        space.write(buf.addr + 5, b"data")
        assert space.read(buf.addr + 5, 4) == b"data"

    def test_free_then_access_faults(self):
        space = AddressSpace("hostA")
        buf = space.allocate(64)
        space.free(buf)
        with pytest.raises(MemoryError_):
            space.resolve(buf.addr, 1)

    def test_double_free_raises(self):
        space = AddressSpace("hostA")
        buf = space.allocate(64)
        space.free(buf)
        with pytest.raises(MemoryError_):
            space.free(buf)

    def test_zero_size_allocation_rejected(self):
        with pytest.raises(MemoryError_):
            AddressSpace("hostA").allocate(0)

    def test_buffer_read_write_helpers(self):
        buf = AddressSpace("hostA").allocate(32, label="t")
        buf.write(b"abc", offset=1)
        assert buf.read(1, 3) == b"abc"
        assert buf.read_byte(2) == ord("b")
        assert buf.label == "t"


class TestMrTable:
    def _buf(self, size=4096):
        return AddressSpace("h").allocate(size)

    def test_register_returns_keys(self):
        table = MrTable(capacity=4)
        region = table.register(self._buf())
        assert region.lkey == region.rkey
        assert region.registered

    def test_capacity_enforced(self):
        table = MrTable(capacity=2)
        table.register(self._buf())
        table.register(self._buf())
        with pytest.raises(MemoryError_, match="MR table exhausted"):
            table.register(self._buf())

    def test_deregister_frees_slot(self):
        table = MrTable(capacity=1)
        region = table.register(self._buf())
        table.deregister(region)
        assert not region.registered
        table.register(self._buf())  # should not raise

    def test_double_deregister_raises(self):
        table = MrTable(capacity=1)
        region = table.register(self._buf())
        table.deregister(region)
        with pytest.raises(MemoryError_):
            table.deregister(region)

    def test_lookup_validates_rkey(self):
        table = MrTable(capacity=4)
        region = table.register(self._buf())
        with pytest.raises(MemoryError_, match="invalid rkey"):
            table.lookup(region.rkey + 1, region.addr, 10)

    def test_lookup_validates_bounds(self):
        table = MrTable(capacity=4)
        region = table.register(self._buf(100))
        with pytest.raises(MemoryError_, match="outside MR"):
            table.lookup(region.rkey, region.addr + 90, 20)

    def test_lookup_success(self):
        table = MrTable(capacity=4)
        region = table.register(self._buf(100))
        assert table.lookup(region.rkey, region.addr + 10, 50) is region

    def test_len(self):
        table = MrTable(capacity=8)
        assert len(table) == 0
        table.register(self._buf())
        assert len(table) == 1
