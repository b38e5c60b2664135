"""Message fragmentation and reassembly.

The paper (§2.2) points out that an RPC library with fixed in-library
receive buffers must split messages larger than the buffer into
fragments, each carrying a header for reassembly, which costs an extra
copy at the sender.  This module implements exactly that: fragments
have a real 24-byte header and reassembly validates ordering and
completeness.  The extra copy is charged by the transport, not made
here: a concrete fragment body is a list of views over the message's
parts, and reassembly hands the bodies back as parts.

Fragment payloads may be virtual (size-only) just like message
payloads; reassembly then reconstructs a virtual body of the right
total size.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .serialization import Part


# msg_id, frag_index, frag_count, body_size, concrete-flag
HEADER = struct.Struct("<QIIQB")
HEADER_SIZE = HEADER.size


class FramingError(ValueError):
    """Corrupt or out-of-protocol fragments."""


@dataclass
class Fragment:
    """One fragment: header fields plus a (possibly virtual) body."""

    msg_id: int
    index: int
    count: int
    body_size: int
    #: views whose concatenation is the body; None = virtual
    body: Optional[Sequence[Part]] = None
    #: set by :meth:`parse_header`: what the wire header claimed
    header_says_concrete: Optional[bool] = None

    @property
    def wire_size(self) -> int:
        return HEADER_SIZE + self.body_size

    def header_bytes(self) -> bytes:
        return HEADER.pack(self.msg_id, self.index, self.count,
                           self.body_size, 1 if self.body is not None else 0)

    @classmethod
    def parse_header(cls, raw: bytes) -> "Fragment":
        """Parse header fields; body stays unset (caller attaches it if
        the concrete flag says real bytes follow)."""
        if len(raw) < HEADER_SIZE:
            raise FramingError("fragment shorter than its header")
        msg_id, index, count, body_size, concrete = HEADER.unpack(raw[:HEADER_SIZE])
        frag = cls(msg_id=msg_id, index=index, count=count, body_size=body_size)
        frag.header_says_concrete = bool(concrete)
        return frag


def fragment(msg_id: int, control: Union[Part, Sequence[Part]],
             virtual_size: int, max_fragment_body: int) -> List[Fragment]:
    """Split a wire message into fragments of bounded body size.

    The message body is ``control`` (real bytes, flat or as parts)
    followed by ``virtual_size`` virtual bytes.  Real and virtual spans
    are kept in separate fragments where they meet, so each fragment
    body is either fully concrete or fully virtual.
    """
    if max_fragment_body < 1:
        raise FramingError("max_fragment_body must be positive")
    parts = [control] if isinstance(control, (bytes, memoryview)) else control
    spans: List[Tuple[int, Optional[List[Part]]]] = []
    views: List[Part] = []  # the concrete body being filled
    room = max_fragment_body
    for part in parts:
        rest = memoryview(part)
        while len(rest):
            piece, rest = rest[:room], rest[room:]
            views.append(piece)
            room -= len(piece)
            if not room:
                spans.append((max_fragment_body, views))
                views, room = [], max_fragment_body
    if views:
        spans.append((max_fragment_body - room, views))
    remaining = virtual_size
    while remaining > 0:
        body = min(remaining, max_fragment_body)
        spans.append((body, None))
        remaining -= body
    if not spans:
        spans.append((0, []))
    count = len(spans)
    return [Fragment(msg_id=msg_id, index=i, count=count,
                     body_size=size, body=body)
            for i, (size, body) in enumerate(spans)]


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
            if piece.body is not None:
                if virtual:
                    raise FramingError(
                        "concrete fragment after virtual span; "
                        "senders keep real bytes first")
                parts.extend(piece.body)
            else:
                virtual += piece.body_size
        return AssembledMessage(msg_id=frag.msg_id, parts=parts,
                                virtual_size=virtual)
