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

A DMA write in flight is a :class:`Landing` on its backing: the NIC
schedules one heap entry at the write's end, and every accessor first
commits the ascending prefix due by the current instant, so a reader
in mid-window sees exactly what one entry per chunk would have shown.

RDMA registration is modelled by :class:`MemoryRegion` entries in the
NIC's :class:`MrTable`, which enforces the hardware cap on the number
of registered regions.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np


DENSE_LIMIT = 16 * 1024 * 1024  # regions <= 16 MiB get real byte storage


class MemoryError_(RuntimeError):
    """Simulated memory fault (bad address, protection, exhaustion)."""


class Landing:
    """A DMA write still landing in a backing, in ascending address order.

    ``[offset, offset + size)`` commits in ``chunks`` pieces (equal
    steps, the last one taking the remainder).  Chunk ``i`` is due at
    ``max(start + (i + 1) / chunks * (end - start), posted)``, the last
    one at ``max(end, posted)``, where ``posted`` is the instant the
    landing was scheduled.  Only the last chunk has a heap entry of its
    own (:meth:`finish`, pushed right after the landing was made); the
    earlier ones commit when something touches the backing: every
    accessor first applies the chunks due by then, in one write.

    *Due* follows the order the chunks' own entries would have run in.
    A chunk due before ``now`` is due; one due exactly at ``now`` is due
    iff the landing was made before the running entry was pushed — or,
    for a poll-chain entry, before it began: ``seq < sim._tie``, with
    ``seq`` the push counter at scheduling.

    A size-only landing (``payload`` None) counts its bytes and carries
    only its real ``head`` and ``tail`` windows, which commit with the
    first and the last chunk.
    """

    __slots__ = ("backing", "sim", "offset", "size", "payload", "head",
                 "tail", "start", "end", "posted", "seq", "chunks", "done",
                 "next_at", "wake")

    def __init__(self, backing: "Backing", sim, offset: int, size: int,
                 payload: Optional[bytes], start: float, end: float,
                 head: bytes, tail: bytes, chunks: int, wake) -> None:
        self.backing = backing
        self.sim = sim
        self.offset = offset
        self.size = size
        self.payload = payload
        self.head = head
        self.tail = tail
        self.start = start
        self.end = end
        self.posted = sim._now
        self.seq = sim._seq
        self.chunks = chunks
        #: chunks committed so far (always a prefix)
        self.done = 0
        #: when the next chunk an accessor may commit is due
        self.next_at = self.due(0) if chunks > 1 else _NEVER
        #: ``wake(backing, lo, hi)`` after the last chunk, with its range
        self.wake = wake
        backing._admit(self)

    def due(self, i: int) -> float:
        """When chunk ``i`` commits."""
        n = self.chunks
        if i == n - 1:
            return max(self.end, self.posted)
        return max(self.start + (i + 1) / n * max(self.end - self.start, 0.0),
                   self.posted)

    def due_now(self) -> int:
        """How many chunks are due for the running entry, short of the
        last one (only :meth:`finish` commits that)."""
        sim = self.sim
        now, ahead = sim._now, self.seq < sim._tie
        i, last = self.done, self.chunks - 1
        while i < last:
            when = self.due(i)
            if when > now or (when == now and not ahead):
                break
            i += 1
        return i

    def apply(self, upto: int) -> None:
        """Commit chunks ``[done, upto)``: one write, or one per chunk
        where a size-only backing keeps the edge windows of each."""
        first, self.done = self.done, upto
        n, size, offset = self.chunks, self.size, self.offset
        self.next_at = self.due(upto) if upto < n - 1 else _NEVER
        step = size // n
        lo = first * step
        hi = size if upto == n else upto * step
        backing, payload = self.backing, self.payload
        if payload is not None:
            if upto - first == 1 or isinstance(backing, DenseBacking):
                backing._put(offset + lo, payload[lo:hi])
            else:
                for i in range(first, upto):
                    a, b = i * step, size if i == n - 1 else (i + 1) * step
                    backing._put(offset + a, payload[a:b])
            return
        backing._put_virtual(offset + lo, hi - lo)
        if first == 0 and self.head:
            backing._put(offset, self.head)
        if upto == n and self.tail:
            backing._put(offset + size - len(self.tail), self.tail)

    def finish(self) -> None:
        """The landing's one heap entry: commit what is left, then wake."""
        backing = self.backing
        if backing._tangled:
            backing._catch_up_all()
        self.apply(self.chunks)
        backing._release(self)
        if self.wake is not None:
            n = self.chunks
            self.wake(backing, self.offset + (n - 1) * (self.size // n),
                      self.offset + self.size)


_landing_offset = operator.attrgetter("offset")


_NEVER = float("inf")


class Backing:
    """Storage behind a buffer.  Subclasses define read/write semantics.

    Every accessor first commits what the landings in flight here owe
    by now (:class:`Landing`); with none in flight that is one
    attribute test.
    """

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise MemoryError_(f"backing size must be positive, got {size}")
        self.size = size
        #: landings in flight, sorted by offset
        self._landings: List[Landing] = []
        #: two of them overlap: commit every due chunk in due order
        self._tangled = False

    def read(self, offset: int, length: int) -> bytes:
        raise NotImplementedError

    def write(self, offset: int, data: bytes) -> None:
        if self._landings:
            self._catch_up(offset, offset + len(data))
        self._put(offset, data)

    def write_virtual(self, offset: int, length: int) -> None:
        """Record that ``length`` bytes were written without content."""
        if self._landings:
            self._catch_up(offset, offset + length)
        self._put_virtual(offset, length)

    def read_byte(self, offset: int) -> int:
        return self.read(offset, 1)[0]

    def _put(self, offset: int, data: bytes) -> None:
        raise NotImplementedError

    def _put_virtual(self, offset: int, length: int) -> None:
        raise NotImplementedError

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise MemoryError_(
                f"access [{offset}, {offset + length}) outside backing of size {self.size}")

    # -- landings in flight ----------------------------------------------------------

    def _admit(self, landing: Landing) -> None:
        landings = self._landings
        index = bisect.bisect_right(landings, landing.offset,
                                    key=_landing_offset)
        if not self._tangled:
            end = landing.offset + landing.size
            before = landings[index - 1] if index else None
            after = landings[index] if index < len(landings) else None
            self._tangled = (
                (before is not None
                 and before.offset + before.size > landing.offset)
                or (after is not None and after.offset < end))
        landings.insert(index, landing)

    def _release(self, landing: Landing) -> None:
        landings = self._landings
        landings.remove(landing)
        if not landings:
            self._tangled = False

    def _catch_up(self, lo: int, hi: int) -> None:
        """Commit the due chunks of every landing overlapping ``[lo, hi)``."""
        if self._tangled:
            self._catch_up_all()
            return
        landings = self._landings
        now = landings[0].sim._now
        # Disjoint and sorted: the first candidate is the last landing
        # starting at or before ``lo``.
        first = bisect.bisect_right(landings, lo, key=_landing_offset)
        for index in range(first - 1 if first else 0, len(landings)):
            landing = landings[index]
            if landing.offset >= hi:
                break
            if landing.next_at <= now and landing.offset + landing.size > lo:
                upto = landing.due_now()
                if upto > landing.done:
                    landing.apply(upto)

    def _catch_up_all(self) -> None:
        """Overlapping landings: commit every due chunk here, one chunk
        at a time, in the order their own entries would have run."""
        due = [(landing.due(i), landing.seq, i, landing)
               for landing in self._landings
               for i in range(landing.done, landing.due_now())]
        due.sort(key=lambda item: item[:3])
        for _when, _seq, i, landing in due:
            landing.apply(i + 1)


class DenseBacking(Backing):
    """Real bytes in a numpy array; supports exact round-trips."""

    def __init__(self, size: int) -> None:
        super().__init__(size)
        self.array = np.zeros(size, dtype=np.uint8)

    def read(self, offset: int, length: int) -> bytes:
        if self._landings:
            self._catch_up(offset, offset + length)
        self._check(offset, length)
        return self.array[offset:offset + length].tobytes()

    def _put(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        self.array[offset:offset + len(data)] = np.frombuffer(data, dtype=np.uint8)

    def _put_virtual(self, offset: int, length: int) -> None:
        # A virtual write into dense storage leaves content unchanged;
        # it only models that the DMA engine touched the range.
        self._check(offset, length)

    def read_byte(self, offset: int) -> int:
        # Flag pollers call this every sweep; skip the slice+tobytes.
        if self._landings:
            self._catch_up(offset, offset + 1)
        self._check(offset, 1)
        return int(self.array[offset])

    def view(self, offset: int, length: int) -> np.ndarray:
        """A zero-copy numpy view of the backing range, holding what has
        landed by now: chunks that come due later commit on the next
        access, so do not keep the view across simulated time."""
        if self._landings:
            self._catch_up(offset, offset + length)
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
        if self._landings:
            self._catch_up(offset, offset + length)
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
        super().write(offset, data)

    def _put(self, offset: int, data: bytes) -> None:
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

    def _put_virtual(self, offset: int, length: int) -> None:
        self._check(offset, length)
        self.bytes_written += length

    def read_byte(self, offset: int) -> int:
        # Flag pollers call this every sweep (60-90 times per verb).
        if self._landings:
            self._catch_up(offset, offset + 1)
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
