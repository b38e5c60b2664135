"""Simulated host memory: address spaces, backings, registered regions.

Each simulated host owns a flat virtual :class:`AddressSpace`.  Every
buffer carved out of it has one :class:`Backing` whose storage follows
the bytes written: nothing until a nonzero real byte arrives, pages
holding the span of nonzero bytes written into them for partial real
content, one contiguous numpy array once real bytes cover the buffer.
A size-only write (a transfer of an untracked tensor) moves timing and
the real bytes of its source, so the benchmarks move
multi-hundred-megabyte "tensors" per iteration without exhausting real
RAM, while flag bytes and metadata headers are stored for real.

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


class MemoryError_(RuntimeError):
    """Simulated memory fault (bad address, protection, exhaustion)."""


#: the bytes a size-only transfer carries, as ``(at, data, real)`` with
#: ``at`` relative to the range's start: its edge windows (not real)
#: and the real bytes its source held (real)
Pieces = Tuple[Tuple[int, bytes, bool], ...]


def clip_pieces(pieces: Pieces, lo: int, hi: int) -> Pieces:
    """The parts of ``pieces`` inside ``[lo, hi)``, relative to ``lo``."""
    if not pieces:
        return ()
    clipped = []
    for at, data, real in pieces:
        a, b = max(at, lo), min(at + len(data), hi)
        if a < b:
            clipped.append((a - lo, data[a - at:b - at], real))
    return tuple(clipped)


class Landing:
    """A DMA write still landing in a backing, in ascending address order.

    ``[offset, offset + size)`` commits in ``chunks`` parts (equal
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
    its ``pieces``, each committing with the chunks it falls in (see
    :meth:`Backing.write_virtual`).
    """

    __slots__ = ("backing", "sim", "offset", "size", "payload", "pieces",
                 "start", "end", "posted", "seq", "chunks", "done",
                 "next_at", "wake")

    def __init__(self, backing: "Backing", sim, offset: int, size: int,
                 payload: Optional[bytes], start: float, end: float,
                 pieces: Pieces, chunks: int, wake) -> None:
        self.backing = backing
        self.sim = sim
        self.offset = offset
        self.size = size
        self.payload = payload
        self.pieces = pieces
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
        """Commit chunks ``[done, upto)`` in one write."""
        first, self.done = self.done, upto
        n, size, offset = self.chunks, self.size, self.offset
        self.next_at = self.due(upto) if upto < n - 1 else _NEVER
        step = size // n
        lo = first * step
        hi = size if upto == n else upto * step
        backing, payload = self.backing, self.payload
        if payload is not None:
            backing._put(offset + lo, payload[lo:hi])
            return
        pieces = self.pieces
        if hi - lo < size:
            pieces = clip_pieces(pieces, lo, hi)
        backing._put_virtual(offset + lo, hi - lo, pieces)

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


def _nonzero_span(piece: bytes) -> Tuple[int, int]:
    """Where the nonzero bytes of ``piece`` begin and end; ``(n, n)``
    for ``n`` zeros."""
    first = 0 if piece[0] else len(piece) - len(piece.lstrip(b"\0"))
    end = len(piece) if piece[-1] else len(piece.rstrip(b"\0"))
    return first, max(end, first)


_NEVER = float("inf")


class Backing:
    """Storage behind a buffer: real bytes only where real bytes landed.

    Nothing is stored until a nonzero real byte arrives.  Partial real
    content lives in ``page_size`` pages, each holding one span: the
    bytes from the first to the last nonzero byte written into it, so
    a 1-byte flag costs 1 byte and a header its length.  Once real bytes cover the whole buffer, or a caller asks
    for :meth:`view`, the pages become one contiguous numpy ``array``.
    The pages' bytes as they grow, and the array once made, are
    charged to ``space``'s ``dense_bytes_allocated``.  Never-stored
    bytes read as zero.

    ``_real`` lists the ranges last written with real bytes, sorted and
    merged, flattened as ``[lo0, hi0, lo1, hi1, ...]``.  A size-only
    write (:meth:`write_virtual`, a size-only landing's body) neither
    grants nor revokes real-ness, so it only ever grows; only its real
    ``pieces`` grant it.  Bytes outside ``_real`` therefore read zero.

    Every accessor first commits what the landings in flight here owe
    by now (:class:`Landing`); with none in flight that is one
    attribute test.
    """

    page_size = 4096

    def __init__(self, size: int, space: Optional["AddressSpace"] = None
                 ) -> None:
        if size <= 0:
            raise MemoryError_(f"backing size must be positive, got {size}")
        self.size = size
        self._space = space
        #: contiguous storage, once real bytes cover the buffer or a view
        #: was asked for; until then content lives in ``_pages``
        self.array: Optional[np.ndarray] = None
        #: page index -> ``[lo, span]``: ``span`` holds the page's bytes
        #: from ``lo``; the rest of the page reads zero
        self._pages: Dict[int, list] = {}
        self._real: List[int] = []
        self.bytes_written = 0
        #: landings in flight, sorted by offset
        self._landings: List[Landing] = []
        #: two of them overlap: commit every due chunk in due order
        self._tangled = False

    def read(self, offset: int, length: int) -> bytes:
        if self._landings:
            self._catch_up(offset, offset + length)
        self._check(offset, length)
        return self._get(offset, length)

    def _get(self, offset: int, length: int) -> bytes:
        if self.array is not None:
            return self.array[offset:offset + length].tobytes()
        pages = self._pages
        if not pages:
            return bytes(length)
        page_size = self.page_size
        index, start = divmod(offset, page_size)
        if start + length <= page_size:
            # The 64-byte head/tail windows every size-only verb reads.
            page = pages.get(index)
            if page is None:
                return bytes(length)
            lo, span = page
            if lo <= start and start + length <= lo + len(span):
                return bytes(span[start - lo:start - lo + length])
        out = bytearray(length)
        pos = 0
        while pos < length:
            take = min(page_size - start, length - pos)
            page = pages.get(index)
            if page is not None:
                lo, span = page
                a, b = max(start, lo), min(start + take, lo + len(span))
                if a < b:
                    out[pos + a - start:pos + b - start] = span[a - lo:b - lo]
            pos += take
            index += 1
            start = 0
        return bytes(out)

    def write(self, offset: int, data: bytes) -> None:
        if not isinstance(data, (bytes, bytearray)):
            data = bytes(data)
        if self._landings:
            self._catch_up(offset, offset + len(data))
        self._put(offset, data)

    def write_virtual(self, offset: int, length: int,
                      pieces: Pieces = ()) -> None:
        """Record that ``length`` bytes were written without content: a
        size-only transfer, whose ``pieces`` still land (only the real
        ones as real bytes)."""
        if self._landings:
            self._catch_up(offset, offset + length)
        self._put_virtual(offset, length, pieces)

    def read_byte(self, offset: int) -> int:
        # Flag pollers call this every sweep (60-90 times per verb).
        if self._landings:
            self._catch_up(offset, offset + 1)
        if not 0 <= offset < self.size:
            self._check(offset, 1)
        if self.array is not None:
            return int(self.array[offset])
        page = self._pages.get(offset // self.page_size)
        if page is None:
            return 0
        lo, span = page
        at = offset % self.page_size - lo
        return span[at] if 0 <= at < len(span) else 0

    def view(self, offset: int, length: int) -> np.ndarray:
        """A zero-copy numpy view of the backing range, holding what has
        landed by now: chunks that come due later commit on the next
        access, so do not keep the view across simulated time.

        A backing still in pages first becomes one array of its whole
        size, however short the range: a small tensor viewed in a large
        arena costs the arena."""
        if self._landings:
            self._catch_up(offset, offset + length)
        self._check(offset, length)
        array = self.array if self.array is not None else self._materialize()
        return array[offset:offset + length]

    def is_real(self, offset: int, length: int) -> bool:
        """Whether ``[offset, offset + length)`` was wholly written with
        real bytes (by now: due landing chunks commit first)."""
        if self._landings:
            self._catch_up(offset, offset + length)
        real = self._real
        index = bisect.bisect_right(real, offset)
        return (index & 1 == 1 and offset + length <= real[index]
                or length == 0)

    def real_pieces(self, offset: int, length: int) -> Pieces:
        """The real bytes in ``[offset, offset + length)`` as pieces."""
        if self._landings:
            self._catch_up(offset, offset + length)
        real = self._real
        if not real:
            return ()
        end = offset + length
        index = bisect.bisect_right(real, offset)
        index -= index & 1
        pieces = []
        while index < len(real) and real[index] < end:
            lo, hi = max(real[index], offset), min(real[index + 1], end)
            pieces.append((lo - offset, self._get(lo, hi - lo), True))
            index += 2
        return tuple(pieces)

    def _put(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        self.bytes_written += len(data)
        self._overlay(offset, data, True)

    def _put_virtual(self, offset: int, length: int,
                     pieces: Pieces = ()) -> None:
        self._check(offset, length)
        self.bytes_written += length
        for at, data, real in pieces:
            self._overlay(offset + at, data, real)

    def _overlay(self, offset: int, data: bytes, real: bool) -> None:
        """Store ``data`` at ``offset``, granting real-ness if ``real``."""
        length = len(data)
        if not length:
            return
        if real:
            ranges = self._real
            lo = bisect.bisect_left(ranges, offset)
            hi = bisect.bisect_right(ranges, offset + length)
            ranges[lo:hi] = ([offset] if lo & 1 == 0 else []) + (
                [offset + length] if hi & 1 == 0 else [])
            # Real bytes now cover the buffer, some of them nonzero.
            if (self.array is None and ranges[0] == 0
                    and ranges[1] == self.size
                    and (self._pages or data.count(0) != length)):
                self._materialize()
        if self.array is None:
            if self._pages or data.count(0) != length:
                self._store(offset, data)
        else:
            self.array[offset:offset + length] = np.frombuffer(
                data, dtype=np.uint8)

    def _store(self, offset: int, data: bytes) -> None:
        """Copy ``data`` into the pages, stretching a page's span over
        the nonzero bytes written into it."""
        pages = self._pages
        page_size = self.page_size
        length = len(data)
        index, start = divmod(offset, page_size)
        pos = 0
        grown = 0
        while pos < length:
            take = min(page_size - start, length - pos)
            piece = data if take == length else data[pos:pos + take]
            page = pages.get(index)
            if page is None:
                first, end = _nonzero_span(piece)
                if first < end:
                    pages[index] = [start + first,
                                    bytearray(piece[first:end])]
                    grown += end - first
            else:
                lo, span = page
                at = start - lo
                if at >= 0 and at + take <= len(span):
                    span[at:at + take] = piece
                else:  # past the span: stretch it over the nonzero bytes
                    first, end = _nonzero_span(piece)
                    if first < end:
                        below = max(lo - start - first, 0)
                        above = max(start + end - lo - len(span), 0)
                        if below:
                            span[:0] = bytes(below)
                            page[0] = lo = lo - below
                        if above:
                            span.extend(bytes(above))
                        grown += below + above
                    a, b = max(start, lo), min(start + take, lo + len(span))
                    if a < b:
                        span[a - lo:b - lo] = piece[a - start:b - start]
            pos += take
            index += 1
            start = 0
        if grown and self._space is not None:
            self._space.dense_bytes_allocated += grown

    def _materialize(self) -> np.ndarray:
        """Move the pages into one contiguous array."""
        array = np.zeros(self.size, dtype=np.uint8)
        page_size = self.page_size
        for index, (lo, span) in self._pages.items():
            start = index * page_size + lo
            array[start:start + len(span)] = np.frombuffer(span,
                                                           dtype=np.uint8)
        self._pages = {}
        if self._space is not None:
            self._space.dense_bytes_allocated += self.size
        self.array = array
        return array

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
        #: bytes of real storage its backings ever created, pages and
        #: arrays, each counted once (never decremented): the host
        #: memory the simulator itself pays for this host
        self.dense_bytes_allocated = 0

    def allocate(self, size: int, label: str = "") -> Buffer:
        """Carve a new buffer; it holds no storage until real bytes land."""
        if size <= 0:
            raise MemoryError_(f"allocation size must be positive, got {size}")
        buf = Buffer(addr=self._next_addr, size=size,
                     backing=Backing(size, self),
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
