"""Tag-length-value message serialization (a protobuf-like wire format).

The RPC baselines must pay a real serialization/deserialization cost
structure, so messages here are genuinely encoded to bytes and decoded
back.  Supported field values: ``int``, ``float``, ``str``, ``bytes``,
:class:`Payload`, and flat lists of those.

The wire stream is produced and read as *parts*: small header pieces,
and each concrete payload's ``data`` by reference.  A transport that
hands the parts over untouched delivers the payload object itself; the
simulated cost of the copies a real library makes is charged by length,
not performed.  :func:`encode` / :func:`decode` are the joined and
single-part forms of the same codec.

Large tensor payloads can be *virtual* — a :class:`Payload` that knows
its size but carries no content.  Virtual payloads encode as a size
marker so the control structure still round-trips exactly; the
simulated time cost of serializing them is charged by the transports
via the cost model (proportional to ``Message.wire_size``).
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

#: one run of the wire stream
Part = Union[bytes, memoryview]


class SerializationError(ValueError):
    """Malformed wire bytes or unsupported field type."""


class Payload:
    """A byte payload that is either concrete or virtual (size-only)."""

    __slots__ = ("size", "data")

    def __init__(self, size: Optional[int] = None, data: Optional[bytes] = None) -> None:
        if data is not None:
            data = bytes(data)
            if size is not None and size != len(data):
                raise SerializationError("payload size does not match data")
            size = len(data)
        if size is None:
            raise SerializationError("payload needs a size or data")
        if size < 0:
            raise SerializationError("payload size must be non-negative")
        self.size = size
        self.data = data

    @property
    def is_virtual(self) -> bool:
        return self.data is None

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Payload) and self.size == other.size
                and self.data == other.data)

    def __repr__(self) -> str:
        kind = "virtual" if self.is_virtual else "concrete"
        return f"Payload({kind}, size={self.size})"


# Wire type tags.
_T_INT = 1
_T_FLOAT = 2
_T_STR = 3
_T_BYTES = 4
_T_PAYLOAD = 5          # concrete payload, bytes follow
_T_PAYLOAD_VIRTUAL = 6  # virtual payload, only a size follows
_T_LIST = 7

_MAGIC = b"RPCM"


class Message:
    """An ordered mapping of field names to values, wire-encodable."""

    def __init__(self, **fields: Any) -> None:
        self.fields: Dict[str, Any] = dict(fields)

    def __getitem__(self, name: str) -> Any:
        return self.fields[name]

    def __setitem__(self, name: str, value: Any) -> None:
        self.fields[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self.fields

    def get(self, name: str, default: Any = None) -> Any:
        return self.fields.get(name, default)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Message) and self.fields == other.fields

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"Message({inner})"

    @property
    def payload_bytes(self) -> int:
        """Total bytes held in Payload fields (concrete or virtual)."""
        total = 0
        for value in self.fields.values():
            if isinstance(value, Payload):
                total += value.size
            elif isinstance(value, list):
                total += sum(v.size for v in value if isinstance(v, Payload))
        return total

    @property
    def wire_size(self) -> int:
        """Exact encoded size in bytes, counting virtual payload sizes."""
        parts, virtual = encode_parts(self)
        return sum(map(len, parts)) + virtual


def _encode_value(out: List[bytes], value: Any) -> int:
    """Append the encoding of one value; returns virtual byte count."""
    if isinstance(value, bool):
        raise SerializationError("bool fields are not supported")
    if isinstance(value, int):
        out.append(struct.pack("<Bq", _T_INT, value))
        return 0
    if isinstance(value, float):
        out.append(struct.pack("<Bd", _T_FLOAT, value))
        return 0
    if isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(struct.pack("<BI", _T_STR, len(raw)) + raw)
        return 0
    if isinstance(value, bytes):
        out.append(struct.pack("<BI", _T_BYTES, len(value)) + value)
        return 0
    if isinstance(value, Payload):
        if value.is_virtual:
            out.append(struct.pack("<BQ", _T_PAYLOAD_VIRTUAL, value.size))
            return value.size
        out.append(struct.pack("<BQ", _T_PAYLOAD, value.size))
        out.append(value.data)  # by reference: its own part
        return 0
    if isinstance(value, list):
        header_index = len(out)
        out.append(b"")  # placeholder
        virtual = 0
        for item in value:
            if isinstance(item, list):
                raise SerializationError("nested lists are not supported")
            virtual += _encode_value(out, item)
        out[header_index] = struct.pack("<BI", _T_LIST, len(value))
        return virtual
    raise SerializationError(f"unsupported field type: {type(value).__name__}")


def encode_parts(message: Message) -> Tuple[List[bytes], int]:
    """Encode a message; returns (parts, virtual_payload_bytes).

    The parts, concatenated, are everything that physically exists,
    including concrete payload content (each payload's ``data`` is one
    part, by reference); ``virtual_payload_bytes`` is the number of
    additional bytes the wire message *represents* for virtual payloads.
    """
    out: List[bytes] = [_MAGIC, struct.pack("<I", len(message.fields))]
    virtual = 0
    for name, value in message.fields.items():
        raw_name = name.encode("utf-8")
        out.append(struct.pack("<H", len(raw_name)) + raw_name)
        virtual += _encode_value(out, value)
    return out, virtual


def encode(message: Message) -> Tuple[bytes, int]:
    """:func:`encode_parts` joined: (control_bytes, virtual_payload_bytes)."""
    parts, virtual = encode_parts(message)
    return b"".join(parts), virtual


class _Reader:
    """A cursor over the parts of a wire stream."""

    def __init__(self, parts: Sequence[Part]) -> None:
        self.parts = parts
        self.index = 0
        self.pos = 0

    def take(self, n: int) -> Part:
        """The next ``n`` bytes: the part itself when it is exactly
        those, a slice inside one part, a join only across parts."""
        pieces: List[Part] = []
        while n:
            if self.index == len(self.parts):
                raise SerializationError("truncated message")
            part = self.parts[self.index]
            whole = self.pos == 0 and len(part) <= n
            piece = part if whole else part[self.pos:self.pos + n]
            pieces.append(piece)
            n -= len(piece)
            self.pos += len(piece)
            if self.pos == len(part):
                self.index, self.pos = self.index + 1, 0
        return pieces[0] if len(pieces) == 1 else b"".join(pieces)

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _decode_value(reader: _Reader) -> Any:
    (tag,) = reader.unpack("<B")
    if tag == _T_INT:
        return reader.unpack("<q")[0]
    if tag == _T_FLOAT:
        return reader.unpack("<d")[0]
    if tag == _T_STR:
        (length,) = reader.unpack("<I")
        return str(reader.take(length), "utf-8")
    if tag == _T_BYTES:
        (length,) = reader.unpack("<I")
        return bytes(reader.take(length))
    if tag == _T_PAYLOAD:
        (size,) = reader.unpack("<Q")
        return Payload(data=reader.take(size))
    if tag == _T_PAYLOAD_VIRTUAL:
        (size,) = reader.unpack("<Q")
        return Payload(size=size)
    if tag == _T_LIST:
        (count,) = reader.unpack("<I")
        return [_decode_value(reader) for _ in range(count)]
    raise SerializationError(f"unknown wire tag {tag}")


def decode_parts(parts: Sequence[Part]) -> Message:
    """Decode the parts produced by :func:`encode_parts`, however the
    transport re-cut them; a payload that arrives as one whole part is
    returned by reference."""
    reader = _Reader(parts)
    if reader.take(4) != _MAGIC:
        raise SerializationError("bad magic: not an RPC message")
    (field_count,) = reader.unpack("<I")
    message = Message()
    for _ in range(field_count):
        (name_len,) = reader.unpack("<H")
        name = str(reader.take(name_len), "utf-8")
        message[name] = _decode_value(reader)
    trailing = sum(map(len, parts[reader.index:])) - reader.pos
    if trailing:
        raise SerializationError(f"{trailing} trailing bytes after message")
    return message


def decode(control: bytes) -> Message:
    """:func:`decode_parts` of one flat part."""
    return decode_parts([control])
