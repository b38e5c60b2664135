"""Simulated host memory: address spaces, backings, registered regions.

Each simulated host owns a flat virtual :class:`AddressSpace`.  Buffers
carved out of it are backed either by a real ``numpy`` byte array
(:class:`DenseBacking`) — used for control data, metadata slots, flag
bytes, and any tensor whose content is tracked and small enough to
verify byte-exactly — or by a :class:`VirtualBacking` that tracks which
ranges have been written without storing payload bytes.  Virtual
backings let the benchmarks move multi-hundred-megabyte "tensors" per
iteration without exhausting real RAM; the flag-byte completion
protocol still works because small explicit writes (the flag, metadata
headers) are stored for real, in pages created on demand.

The allocator's default picks by size (``DENSE_LIMIT``); a caller that
knows nobody can read the content (the graph executor, for outputs
downstream of an untracked tensor and for variables no initializer
fills) asks for size-only storage outright.

RDMA registration is modelled by :class:`MemoryRegion` entries in the
NIC's :class:`MrTable`, which enforces the hardware cap on the number
of registered regions.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np


DENSE_LIMIT = 16 * 1024 * 1024  # regions <= 16 MiB get real byte storage


class MemoryError_(RuntimeError):
    """Simulated memory fault (bad address, protection, exhaustion)."""


class Backing:
    """Storage behind a buffer.  Subclasses define read/write semantics."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise MemoryError_(f"backing size must be positive, got {size}")
        self.size = size

    def read(self, offset: int, length: int) -> bytes:
        raise NotImplementedError

    def write(self, offset: int, data: bytes) -> None:
        raise NotImplementedError

    def write_virtual(self, offset: int, length: int) -> None:
        """Record that ``length`` bytes were written without content."""
        raise NotImplementedError

    def read_byte(self, offset: int) -> int:
        return self.read(offset, 1)[0]

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise MemoryError_(
                f"access [{offset}, {offset + length}) outside backing of size {self.size}")


class DenseBacking(Backing):
    """Real bytes in a numpy array; supports exact round-trips."""

    def __init__(self, size: int) -> None:
        super().__init__(size)
        self.array = np.zeros(size, dtype=np.uint8)

    def read(self, offset: int, length: int) -> bytes:
        self._check(offset, length)
        return self.array[offset:offset + length].tobytes()

    def write(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        self.array[offset:offset + len(data)] = np.frombuffer(data, dtype=np.uint8)

    def write_virtual(self, offset: int, length: int) -> None:
        # A virtual write into dense storage leaves content unchanged;
        # it only models that the DMA engine touched the range.
        self._check(offset, length)

    def read_byte(self, offset: int) -> int:
        # Flag pollers call this every sweep; skip the slice+tobytes.
        self._check(offset, 1)
        return int(self.array[offset])

    def view(self, offset: int, length: int) -> np.ndarray:
        """A zero-copy numpy view of the backing range."""
        self._check(offset, length)
        return self.array[offset:offset + length]


class VirtualBacking(Backing):
    """Size-only storage: content dropped, small explicit writes kept.

    Reads of never-written bytes return 0.  Writes of at most
    ``sparse_limit`` bytes are stored for real (flag bytes, metadata
    headers); larger writes only record their byte count and keep their
    head and tail windows.

    Kept bytes live in ``page_size`` pages created on first non-zero
    write, so an access costs O(pages touched) however many bytes it
    covers, and a region nobody writes content into holds no pages.
    """

    sparse_limit = 64 * 1024
    page_size = 4096

    def __init__(self, size: int) -> None:
        super().__init__(size)
        self._pages: Dict[int, bytearray] = {}
        self.bytes_written = 0

    def read(self, offset: int, length: int) -> bytes:
        self._check(offset, length)
        pages = self._pages
        if not pages:
            return bytes(length)
        page_size = self.page_size
        index, start = divmod(offset, page_size)
        if start + length <= page_size:
            # The 64-byte head/tail windows every size-only verb reads.
            page = pages.get(index)
            return bytes(length) if page is None else bytes(page[start:start + length])
        out = bytearray(length)
        pos = 0
        while pos < length:
            take = min(page_size - start, length - pos)
            page = pages.get(index)
            if page is not None:
                out[pos:pos + take] = page[start:start + take]
            pos += take
            index += 1
            start = 0
        return bytes(out)

    def write(self, offset: int, data: bytes) -> None:
        if not isinstance(data, (bytes, bytearray)):
            data = bytes(data)
        length = len(data)
        self._check(offset, length)
        self.bytes_written += length
        if length <= self.sparse_limit:
            self._store(offset, data)
        else:
            # Content intentionally dropped, but keep the head and tail
            # windows for real: protocol headers and flag bytes live
            # there.  Bytes stored earlier under the middle stay.
            keep = 64
            self._store(offset, data[:keep])
            self._store(offset + length - keep, data[length - keep:])

    def _store(self, offset: int, data: bytes) -> None:
        pages = self._pages
        page_size = self.page_size
        length = len(data)
        index, start = divmod(offset, page_size)
        pos = 0
        while pos < length:
            take = min(page_size - start, length - pos)
            piece = data if take == length else data[pos:pos + take]
            page = pages.get(index)
            if page is None and piece.count(0) != take:
                page = pages[index] = bytearray(page_size)
            if page is not None:
                page[start:start + take] = piece
            pos += take
            index += 1
            start = 0

    def write_virtual(self, offset: int, length: int) -> None:
        self._check(offset, length)
        self.bytes_written += length

    def read_byte(self, offset: int) -> int:
        # Flag pollers call this every sweep (60-90 times per verb).
        if not 0 <= offset < self.size:
            self._check(offset, 1)
        page = self._pages.get(offset // self.page_size)
        return 0 if page is None else page[offset % self.page_size]


@dataclass
class Buffer:
    """A contiguous range of a host's virtual address space."""

    addr: int
    size: int
    backing: Backing
    host_name: str
    label: str = ""

    @property
    def end(self) -> int:
        return self.addr + self.size

    def read(self, offset: int = 0, length: Optional[int] = None) -> bytes:
        if length is None:
            length = self.size - offset
        return self.backing.read(offset, length)

    def write(self, data: bytes, offset: int = 0) -> None:
        self.backing.write(offset, data)

    def read_byte(self, offset: int) -> int:
        return self.backing.read_byte(offset)


class AddressSpace:
    """A host's flat virtual address space with bump allocation.

    Addresses are globally unique across hosts (each host gets its own
    base), which mirrors the paper's setting where a remote address is
    meaningful only together with the remote endpoint, yet makes
    cross-host confusion bugs loud in tests.
    """

    _host_counter = itertools.count(1)

    def __init__(self, host_name: str) -> None:
        self.host_name = host_name
        base_index = next(self._host_counter)
        self._next_addr = base_index << 44  # 16 TiB apart per host
        self._buffers: List[Buffer] = []    # sorted by addr
        self._addrs: List[int] = []         # parallel sorted start addresses
        #: bytes of real storage ever handed out (never decremented):
        #: the host memory the simulator itself pays for this host
        self.dense_bytes_allocated = 0

    def allocate(self, size: int, label: str = "",
                 dense: Optional[bool] = None) -> Buffer:
        """Carve a new buffer; dense backing by default for small sizes."""
        if size <= 0:
            raise MemoryError_(f"allocation size must be positive, got {size}")
        if dense is None:
            dense = size <= DENSE_LIMIT
        if dense:
            backing: Backing = DenseBacking(size)
            self.dense_bytes_allocated += size
        else:
            backing = VirtualBacking(size)
        buf = Buffer(addr=self._next_addr, size=size, backing=backing,
                     host_name=self.host_name, label=label)
        # Align the next allocation to 64 bytes, like a cache-line allocator.
        self._next_addr += (size + 63) & ~63
        self._buffers.append(buf)  # bump allocation => appends stay sorted
        self._addrs.append(buf.addr)
        return buf

    def free(self, buf: Buffer) -> None:
        """Release a buffer (bump allocator: bookkeeping only)."""
        index = bisect.bisect_right(self._addrs, buf.addr) - 1
        if index < 0 or self._buffers[index] is not buf:
            raise MemoryError_(f"double free or foreign buffer at {buf.addr:#x}")
        del self._buffers[index]
        del self._addrs[index]

    def resolve(self, addr: int, length: int = 1) -> Tuple[Buffer, int]:
        """Map a virtual address range to (buffer, offset) or fault."""
        # Buffers never overlap and stay address-sorted, so the only
        # candidate is the last buffer starting at or below ``addr``.
        index = bisect.bisect_right(self._addrs, addr) - 1
        if index >= 0:
            buf = self._buffers[index]
            if addr + length <= buf.end:
                return buf, addr - buf.addr
        raise MemoryError_(
            f"address [{addr:#x}, +{length}) unmapped on host {self.host_name!r}")

    def read(self, addr: int, length: int) -> bytes:
        buf, off = self.resolve(addr, length)
        return buf.backing.read(off, length)

    def write(self, addr: int, data: bytes) -> None:
        buf, off = self.resolve(addr, len(data))
        buf.backing.write(off, data)


@dataclass
class MemoryRegion:
    """An RDMA-registered buffer with local and remote protection keys."""

    buffer: Buffer
    lkey: int
    rkey: int
    registered: bool = True

    @property
    def addr(self) -> int:
        return self.buffer.addr

    @property
    def size(self) -> int:
        return self.buffer.size

    def contains(self, addr: int, length: int) -> bool:
        return self.addr <= addr and addr + length <= self.buffer.end


class MrTable:
    """The NIC's memory-region table: registration with a hardware cap."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._regions: Dict[int, MemoryRegion] = {}  # rkey -> region
        self._next_key = itertools.count(1000)

    def __len__(self) -> int:
        return len(self._regions)

    def register(self, buf: Buffer) -> MemoryRegion:
        """Register a buffer; raises when the MR table is full."""
        if len(self._regions) >= self.capacity:
            raise MemoryError_(
                f"NIC MR table exhausted ({self.capacity} regions); "
                "register fewer, larger regions (see paper §3.4)")
        key = next(self._next_key)
        region = MemoryRegion(buffer=buf, lkey=key, rkey=key)
        self._regions[key] = region
        return region

    def deregister(self, region: MemoryRegion) -> None:
        if region.rkey not in self._regions:
            raise MemoryError_(f"region rkey={region.rkey} not registered")
        region.registered = False
        del self._regions[region.rkey]

    def lookup(self, rkey: int, addr: int, length: int) -> MemoryRegion:
        """Validate a remote access against the MR table."""
        region = self._regions.get(rkey)
        if region is None:
            raise MemoryError_(f"remote access with invalid rkey={rkey}")
        if not region.contains(addr, length):
            raise MemoryError_(
                f"remote access [{addr:#x}, +{length}) outside MR "
                f"[{region.addr:#x}, +{region.size}) (rkey={rkey})")
        return region
