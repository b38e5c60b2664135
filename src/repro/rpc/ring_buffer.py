"""A FaRM-style fixed ring buffer for the RPC receive path.

The paper's gRPC.RDMA baseline (and FaRM's messaging primitive, §2.3)
receives messages into a fixed circular in-library buffer per channel,
then copies each record out to the application buffer.  This module is
that circular buffer's *accounting*: variable-size records with a
4-byte length prefix, a producer cursor and a consumer cursor, and
explicit overflow (producers must back off until the consumer frees
space).

Records are held by reference in FIFO order, not copied into a backing
array: what the model needs from the ring is its byte occupancy and its
order, and the copy out of it is charged by the transport.  A ring
therefore costs nothing to create, whatever its capacity.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

#: bytes of length prefix stored before each record
RECORD_OVERHEAD = 4


class RingBufferFull(RuntimeError):
    """Producer outran the consumer; caller must wait for credits."""


class RingBuffer:
    """Circular byte buffer of variable-length records."""

    def __init__(self, capacity: int) -> None:
        if capacity <= RECORD_OVERHEAD:
            raise ValueError("ring capacity too small for even one record")
        self.capacity = capacity
        self._records: Deque[bytes] = deque()
        self._head = 0          # absolute write offset
        self._tail = 0          # absolute read offset
        self.records_written = 0
        self.records_read = 0

    # -- capacity accounting -----------------------------------------------------

    @property
    def used(self) -> int:
        return self._head - self._tail

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def fits(self, record_size: int) -> bool:
        return RECORD_OVERHEAD + record_size <= self.free

    def max_record_size(self) -> int:
        """Largest record that could ever fit (even in an empty ring)."""
        return self.capacity - RECORD_OVERHEAD

    # -- record API ----------------------------------------------------------------

    def push(self, record: bytes) -> None:
        """Append one record; raises :class:`RingBufferFull` on overflow."""
        needed = RECORD_OVERHEAD + len(record)
        if len(record) > self.max_record_size():
            raise RingBufferFull(
                f"record of {len(record)} bytes can never fit in a "
                f"{self.capacity}-byte ring; fragment it first")
        if needed > self.free:
            raise RingBufferFull(
                f"ring full: need {needed}, have {self.free} free")
        self._records.append(record)
        self._head += needed
        self.records_written += 1

    def pop(self) -> Optional[bytes]:
        """Remove and return the oldest record, or None if empty."""
        if not self._records:
            return None
        record = self._records.popleft()
        self._tail += RECORD_OVERHEAD + len(record)
        self.records_read += 1
        return record
