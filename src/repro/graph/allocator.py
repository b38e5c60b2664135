"""Tensor allocators: the normal heap path and the RDMA arena path.

The paper's analyzer (§3.4) moves to-be-transferred tensors from the
normal allocator into an allocator backed by one big RDMA-registered
region ("preallocate a large enough memory buffer to register once"),
and instruments allocation so the allocation *site* (graph node +
per-execution allocation index) of every tensor buffer is known.

:class:`ArenaAllocator` implements a real first-fit free list with
coalescing over one backing :class:`~repro.simnet.memory.Buffer`, so
allocator invariants are testable.  :class:`HostAllocator` allocates
straight from the host address space.  Both report every allocation to
registered observers — the hook the dynamic tracer (§3.4) uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..simnet.memory import Buffer, MemoryError_
from ..simnet.topology import Host
from .dtypes import DType
from .shapes import Shape
from .tensor import Tensor, tensor_nbytes


#: (tensor, node_name, alloc_index) -> None
AllocationObserver = Callable[[Tensor, Optional[str], int], None]

ALIGNMENT = 64


def _align(size: int) -> int:
    return (size + ALIGNMENT - 1) & ~(ALIGNMENT - 1)


class AllocatorError(RuntimeError):
    """Out of arena memory, double free, foreign pointer."""


class BaseAllocator:
    """Shared observer machinery for allocators."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._observers: List[AllocationObserver] = []
        self.allocation_count = 0

    def add_observer(self, observer: AllocationObserver) -> None:
        self._observers.append(observer)

    def remove_observer(self, observer: AllocationObserver) -> None:
        self._observers.remove(observer)

    def _notify(self, tensor: Tensor, node_name: Optional[str],
                alloc_index: int) -> None:
        self.allocation_count += 1
        for observer in self._observers:
            observer(tensor, node_name, alloc_index)

    def allocate_tensor(self, dtype: DType, shape: Shape,
                        node_name: Optional[str] = None,
                        alloc_index: int = 0,
                        dense: Optional[bool] = None) -> Tensor:
        """Allocate a tensor; ``dense`` asks for real bytes (True),
        size-only storage (False) or the allocator's default (None)."""
        raise NotImplementedError

    def free_tensor(self, tensor: Tensor) -> None:
        raise NotImplementedError


class HostAllocator(BaseAllocator):
    """The "normal" allocator: fresh buffers from the host heap."""

    def __init__(self, host: Host, name: str = "") -> None:
        super().__init__(name or f"heap:{host.name}")
        self.host = host
        self.bytes_live = 0

    def allocate_tensor(self, dtype: DType, shape: Shape,
                        node_name: Optional[str] = None,
                        alloc_index: int = 0,
                        dense: Optional[bool] = None) -> Tensor:
        nbytes = tensor_nbytes(dtype, shape)
        buf = self.host.allocate(max(nbytes, 1), label=node_name or "tensor",
                                 dense=dense)
        tensor = Tensor(dtype, shape, buf)
        self.bytes_live += nbytes
        self._notify(tensor, node_name, alloc_index)
        return tensor

    def free_tensor(self, tensor: Tensor) -> None:
        if tensor.buffer is None:
            raise AllocatorError("freeing an unmaterialized tensor")
        self.host.address_space.free(tensor.buffer)
        self.bytes_live -= tensor.nbytes


@dataclass
class _FreeBlock:
    offset: int
    size: int


class ArenaAllocator(BaseAllocator):
    """First-fit allocator with coalescing over one backing buffer.

    Used for the RDMA-registered arena: the buffer is registered with
    the NIC exactly once, and every tensor carved from it is
    RDMA-accessible with no further kernel interaction.
    """

    def __init__(self, backing: Buffer, name: str = "arena") -> None:
        super().__init__(name)
        self.backing = backing
        self._free: List[_FreeBlock] = [_FreeBlock(0, backing.size)]
        self._live: Dict[int, int] = {}  # offset -> aligned size
        self.bytes_live = 0
        self.peak_bytes = 0

    @property
    def capacity(self) -> int:
        return self.backing.size

    @property
    def free_bytes(self) -> int:
        return sum(block.size for block in self._free)

    # -- raw block interface -----------------------------------------------------------

    def allocate_block(self, nbytes: int) -> int:
        """Allocate ``nbytes`` (aligned); returns the arena offset."""
        if nbytes <= 0:
            raise AllocatorError(f"bad allocation size {nbytes}")
        needed = _align(nbytes)
        for i, block in enumerate(self._free):
            if block.size >= needed:
                offset = block.offset
                if block.size == needed:
                    self._free.pop(i)
                else:
                    block.offset += needed
                    block.size -= needed
                self._live[offset] = needed
                self.bytes_live += needed
                self.peak_bytes = max(self.peak_bytes, self.bytes_live)
                return offset
        raise AllocatorError(
            f"arena {self.name!r} exhausted: need {needed}, "
            f"free {self.free_bytes} (fragmented into {len(self._free)})")

    def free_block(self, offset: int) -> None:
        size = self._live.pop(offset, None)
        if size is None:
            raise AllocatorError(f"free of unallocated offset {offset}")
        self.bytes_live -= size
        # Insert sorted and coalesce with neighbours.
        block = _FreeBlock(offset, size)
        index = 0
        while index < len(self._free) and self._free[index].offset < offset:
            index += 1
        self._free.insert(index, block)
        self._coalesce(index)

    def _coalesce(self, index: int) -> None:
        # Merge with next.
        if index + 1 < len(self._free):
            cur, nxt = self._free[index], self._free[index + 1]
            if cur.offset + cur.size == nxt.offset:
                cur.size += nxt.size
                self._free.pop(index + 1)
        # Merge with previous.
        if index > 0:
            prev, cur = self._free[index - 1], self._free[index]
            if prev.offset + prev.size == cur.offset:
                prev.size += cur.size
                self._free.pop(index)

    # -- tensor interface -----------------------------------------------------------------

    def allocate_tensor(self, dtype: DType, shape: Shape,
                        node_name: Optional[str] = None,
                        alloc_index: int = 0,
                        dense: Optional[bool] = None) -> Tensor:
        # ``dense`` is ignored: a tensor carved from the arena shares
        # the storage kind of the arena's one registered buffer.
        nbytes = tensor_nbytes(dtype, shape)
        offset = self.allocate_block(max(nbytes, 1))
        tensor = Tensor(dtype, shape, self.backing, offset=offset)
        self._notify(tensor, node_name, alloc_index)
        return tensor

    def free_tensor(self, tensor: Tensor) -> None:
        if tensor.buffer is not self.backing:
            raise AllocatorError("tensor does not belong to this arena")
        self.free_block(tensor.offset)

    def check_invariants(self) -> None:
        """Assert no overlap and full accounting (used by tests)."""
        spans = sorted([(b.offset, b.size, "free") for b in self._free]
                       + [(o, s, "live") for o, s in self._live.items()])
        cursor = 0
        for offset, size, _kind in spans:
            if offset < cursor:
                raise AllocatorError("overlapping blocks detected")
            cursor = offset + size
        if cursor > self.capacity:
            raise AllocatorError("blocks exceed arena capacity")
        accounted = sum(s for _, s, _ in spans)
        if accounted != self.capacity:
            raise AllocatorError(
                f"accounting hole: {accounted} != {self.capacity}")
