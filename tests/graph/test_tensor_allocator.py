"""Unit tests for tensors, metadata encoding, and allocators."""

import numpy as np
import pytest

from repro.graph.allocator import (AllocatorError, ArenaAllocator,
                                   HostAllocator)
from repro.graph.dtypes import DType
from repro.graph.shapes import Shape
from repro.graph.tensor import Tensor, TensorMeta, tensor_nbytes
from repro.simnet import Cluster


@pytest.fixture
def host():
    return Cluster(1).hosts[0]


class TestTensor:
    def test_nbytes(self, host):
        buf = host.allocate(400)
        tensor = Tensor(DType.float32, Shape([10, 10]), buf)
        assert tensor.nbytes == 400

    def test_array_view_roundtrip(self, host):
        buf = host.allocate(24)
        tensor = Tensor(DType.float32, Shape([2, 3]), buf)
        values = np.arange(6, dtype=np.float32).reshape(2, 3)
        tensor.copy_from(values)
        assert np.array_equal(tensor.array, values)

    def test_array_view_is_zero_copy(self, host):
        buf = host.allocate(8)
        tensor = Tensor(DType.float32, Shape([2]), buf)
        tensor.copy_from(np.zeros(2, dtype=np.float32))  # real content
        tensor.array[0] = 7.0
        # The bytes live in the simulated buffer itself.
        assert np.frombuffer(buf.read(0, 4), dtype=np.float32)[0] == 7.0

    def test_too_small_buffer_rejected(self, host):
        buf = host.allocate(8)
        with pytest.raises(ValueError):
            Tensor(DType.float32, Shape([100]), buf)

    def test_virtual_tensor_has_no_array(self, host):
        buf = host.allocate(64 * 1024 * 1024)  # virtual backing
        tensor = Tensor(DType.float32, Shape([4096, 4096]), buf)
        assert not tensor.is_dense
        with pytest.raises(ValueError):
            _ = tensor.array

    def test_copy_from_shape_mismatch(self, host):
        buf = host.allocate(16)
        tensor = Tensor(DType.float32, Shape([4]), buf)
        with pytest.raises(ValueError):
            tensor.copy_from(np.zeros((2, 2), dtype=np.float32))

    def test_offset_tensor(self, host):
        buf = host.allocate(64)
        tensor = Tensor(DType.float32, Shape([4]), buf, offset=16)
        assert tensor.addr == buf.addr + 16

    def test_unmaterialized(self):
        tensor = Tensor(DType.float32, Shape([None, 2]), None)
        assert not tensor.is_materialized
        with pytest.raises(ValueError):
            _ = tensor.addr


class TestTensorMeta:
    def test_roundtrip(self):
        meta = TensorMeta(dtype=DType.float32, dims=(8, 128, 4),
                          remote_addr=0xdeadbeef, remote_rkey=1234)
        decoded = TensorMeta.decode(meta.encode())
        assert decoded == meta

    def test_scalar_meta(self):
        meta = TensorMeta(dtype=DType.int64, dims=(), remote_addr=1,
                          remote_rkey=2)
        assert TensorMeta.decode(meta.encode()) == meta

    def test_encoded_size_fixed_per_rank(self):
        """§3.3: rank fixed => metadata size fixed across mini-batches."""
        m1 = TensorMeta(DType.float32, (5, 80), 0, 0)
        m2 = TensorMeta(DType.float32, (999999, 1), 2**60, 2**31)
        assert len(m1.encode()) == len(m2.encode())
        assert len(m1.encode()) == TensorMeta.encoded_size(2)

    def test_data_nbytes(self):
        meta = TensorMeta(DType.float64, (3, 4), 0, 0)
        assert meta.data_nbytes == 96

    def test_truncated_rejected(self):
        meta = TensorMeta(DType.float32, (8, 8), 0, 0)
        with pytest.raises(ValueError):
            TensorMeta.decode(meta.encode()[:-2])

    def test_slot_size_has_flag(self):
        assert TensorMeta.slot_size(3) == TensorMeta.encoded_size(3) + 1


class TestHostAllocator:
    def test_allocates_and_notifies(self, host):
        allocator = HostAllocator(host)
        seen = []
        allocator.add_observer(lambda t, node, idx: seen.append((node, idx)))
        tensor = allocator.allocate_tensor(DType.float32, Shape([4]),
                                           node_name="matmul", alloc_index=1)
        assert not tensor.is_dense  # no bytes until something writes it
        assert seen == [("matmul", 1)]
        assert allocator.allocation_count == 1

    def test_free(self, host):
        allocator = HostAllocator(host)
        tensor = allocator.allocate_tensor(DType.float32, Shape([4]))
        allocator.free_tensor(tensor)
        assert allocator.bytes_live == 0

    def test_remove_observer(self, host):
        allocator = HostAllocator(host)
        seen = []
        observer = lambda t, n, i: seen.append(1)
        allocator.add_observer(observer)
        allocator.remove_observer(observer)
        allocator.allocate_tensor(DType.float32, Shape([1]))
        assert seen == []


class TestArenaAllocator:
    def _arena(self, host, size=4096):
        return ArenaAllocator(host.allocate(size))

    def test_allocate_within_arena(self, host):
        arena = self._arena(host)
        tensor = arena.allocate_tensor(DType.float32, Shape([8]))
        assert tensor.buffer is arena.backing
        assert 0 <= tensor.offset < arena.capacity

    def test_distinct_offsets(self, host):
        arena = self._arena(host)
        a = arena.allocate_tensor(DType.float32, Shape([8]))
        b = arena.allocate_tensor(DType.float32, Shape([8]))
        assert abs(a.offset - b.offset) >= 32

    def test_exhaustion(self, host):
        arena = self._arena(host, size=256)
        arena.allocate_block(128)
        with pytest.raises(AllocatorError, match="exhausted"):
            arena.allocate_block(200)

    def test_free_and_reuse(self, host):
        arena = self._arena(host, size=256)
        offset = arena.allocate_block(200)
        arena.free_block(offset)
        assert arena.allocate_block(200) == offset

    def test_coalescing(self, host):
        arena = self._arena(host, size=1024)
        offsets = [arena.allocate_block(128) for _ in range(8)]
        for offset in offsets:
            arena.free_block(offset)
        # After freeing everything the arena must be one block again.
        assert arena.allocate_block(1024) == 0

    def test_double_free(self, host):
        arena = self._arena(host)
        offset = arena.allocate_block(64)
        arena.free_block(offset)
        with pytest.raises(AllocatorError):
            arena.free_block(offset)

    def test_invariants_hold_through_churn(self, host):
        arena = self._arena(host, size=64 * 1024)
        import random
        rng = random.Random(7)
        live = []
        for _ in range(300):
            if live and rng.random() < 0.45:
                arena.free_block(live.pop(rng.randrange(len(live))))
            else:
                try:
                    live.append(arena.allocate_block(rng.randint(1, 4096)))
                except AllocatorError:
                    pass
            arena.check_invariants()

    def test_peak_tracking(self, host):
        arena = self._arena(host, size=4096)
        a = arena.allocate_block(1000)
        b = arena.allocate_block(1000)
        arena.free_block(a)
        arena.free_block(b)
        assert arena.peak_bytes >= 2000
        assert arena.bytes_live == 0

    def test_zero_size_rejected(self, host):
        with pytest.raises(AllocatorError):
            self._arena(host).allocate_block(0)

    def test_foreign_tensor_rejected(self, host):
        arena = self._arena(host)
        other = HostAllocator(host).allocate_tensor(DType.float32, Shape([1]))
        with pytest.raises(AllocatorError):
            arena.free_tensor(other)
