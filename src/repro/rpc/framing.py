"""Message fragmentation and reassembly.

The paper (§2.2) points out that an RPC library with fixed in-library
receive buffers must split messages larger than the buffer into
fragments, each carrying a header for reassembly, which costs an extra
copy at the sender.  This module implements exactly that: fragments
have a real 25-byte header and reassembly validates ordering and
completeness.  The extra copy is charged by the transport, not made
here: a fragment's concrete prefix is a list of views over the
message's parts, and reassembly hands the prefixes back as parts.

A message is one byte stream, as real gRPC serializes it: its real
(concrete) bytes, then its size-only bytes.  The stream is cut into
``max(1, ceil((c + p) / F))`` fragments for ``c`` concrete and ``p``
size-only bytes and a largest body ``F``, so one fragment body may mix
the two kinds: a concrete prefix (whose length the header carries) and
a size-only remainder.  Reassembly rebuilds the real prefix and the
size-only byte count of the whole message.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from .serialization import Part


# msg_id, frag_index, frag_count, body_size, concrete-prefix length; the
# pad byte keeps the header at 25 bytes
HEADER = struct.Struct("<QIIIIx")
HEADER_SIZE = HEADER.size


class FramingError(ValueError):
    """Corrupt or out-of-protocol fragments."""


@dataclass
class Fragment:
    """One fragment: header fields plus a body's concrete prefix.

    The first ``concrete`` bytes of the body are real; the remaining
    ``body_size - concrete`` are size-only.
    """

    msg_id: int
    index: int
    count: int
    body_size: int
    concrete: int = 0
    #: views whose concatenation is the concrete prefix (the receiver
    #: attaches them after :meth:`parse_header`)
    body: Sequence[Part] = ()

    @property
    def wire_size(self) -> int:
        return HEADER_SIZE + self.body_size

    def header_bytes(self) -> bytes:
        return HEADER.pack(self.msg_id, self.index, self.count,
                           self.body_size, self.concrete)

    @classmethod
    def parse_header(cls, raw: bytes) -> "Fragment":
        """Parse header fields; the body stays empty (the caller attaches
        the ``concrete`` real bytes that follow the header)."""
        if len(raw) < HEADER_SIZE:
            raise FramingError("fragment shorter than its header")
        msg_id, index, count, body_size, concrete = HEADER.unpack(raw[:HEADER_SIZE])
        if concrete > body_size:
            raise FramingError(
                f"concrete prefix of {concrete} bytes exceeds the "
                f"{body_size}-byte body")
        return cls(msg_id=msg_id, index=index, count=count,
                   body_size=body_size, concrete=concrete)


def fragment(msg_id: int, control: Union[Part, Sequence[Part]],
             virtual_size: int, max_fragment_body: int) -> List[Fragment]:
    """Split a wire message into fragments of bounded body size.

    The message is one stream: ``control`` (real bytes, flat or as
    parts) followed by ``virtual_size`` size-only bytes, cut every
    ``max_fragment_body`` bytes.  The fragment where the two kinds meet
    carries both: a concrete prefix, then size-only bytes.
    """
    if not 1 <= max_fragment_body < 1 << 32:
        raise FramingError("max_fragment_body must be in [1, 2**32)")
    parts = [control] if isinstance(control, (bytes, memoryview)) else control
    prefixes: List[List[Part]] = [[]]  # each fragment's concrete views
    room = max_fragment_body
    for part in parts:
        rest = memoryview(part)
        while len(rest):
            if not room:
                prefixes.append([])
                room = max_fragment_body
            piece, rest = rest[:room], rest[room:]
            prefixes[-1].append(piece)
            room -= len(piece)
    concrete = sum(map(len, parts))
    total = concrete + virtual_size
    count = max(1, -(-total // max_fragment_body))
    fragments = []
    for index in range(count):
        offset = index * max_fragment_body
        fragments.append(Fragment(
            msg_id=msg_id, index=index, count=count,
            body_size=min(max_fragment_body, total - offset),
            concrete=min(max_fragment_body, max(0, concrete - offset)),
            body=prefixes[index] if index < len(prefixes) else ()))
    return fragments


@dataclass
class AssembledMessage:
    """Reassembly result: real prefix plus trailing virtual byte count."""

    msg_id: int
    #: the real prefix as the fragments delivered it, in order
    parts: List[Part]
    virtual_size: int

    @property
    def control(self) -> bytes:
        return b"".join(self.parts)

    @property
    def total_size(self) -> int:
        return sum(map(len, self.parts)) + self.virtual_size


class Reassembler:
    """Collects fragments (any arrival order) into whole messages."""

    def __init__(self) -> None:
        self._partial: Dict[int, Dict[int, Fragment]] = {}

    @property
    def partial_count(self) -> int:
        return len(self._partial)

    def add(self, frag: Fragment) -> Optional[AssembledMessage]:
        """Add a fragment; returns the message once complete."""
        if frag.index >= frag.count:
            raise FramingError(
                f"fragment index {frag.index} out of range 0..{frag.count - 1}")
        bucket = self._partial.setdefault(frag.msg_id, {})
        if frag.index in bucket:
            raise FramingError(
                f"duplicate fragment {frag.index} for message {frag.msg_id}")
        existing_count = next(iter(bucket.values())).count if bucket else frag.count
        if frag.count != existing_count:
            raise FramingError("inconsistent fragment count within a message")
        bucket[frag.index] = frag
        if len(bucket) < frag.count:
            return None
        del self._partial[frag.msg_id]
        ordered = [bucket[i] for i in range(frag.count)]
        parts: List[Part] = []
        virtual = 0
        for piece in ordered:
            if piece.concrete:
                if virtual:
                    raise FramingError(
                        "real bytes after size-only bytes; "
                        "senders keep real bytes first")
                parts.extend(piece.body)
            virtual += piece.body_size - piece.concrete
        return AssembledMessage(msg_id=frag.msg_id, parts=parts,
                                virtual_size=virtual)
