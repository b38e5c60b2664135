"""Unit tests for the TLV wire format."""

import pytest

from repro.rpc.serialization import (
    Message, Payload, SerializationError, decode, encode)


def roundtrip(message):
    control, virtual = encode(message)
    return decode(control), virtual


class TestScalarFields:
    def test_int_roundtrip(self):
        msg, _ = roundtrip(Message(x=42, y=-7))
        assert msg["x"] == 42 and msg["y"] == -7

    def test_large_int(self):
        msg, _ = roundtrip(Message(n=2**62))
        assert msg["n"] == 2**62

    def test_float_roundtrip(self):
        msg, _ = roundtrip(Message(rate=0.125))
        assert msg["rate"] == 0.125

    def test_str_roundtrip(self):
        msg, _ = roundtrip(Message(name="tensor/W0:грad"))
        assert msg["name"] == "tensor/W0:грad"

    def test_bytes_roundtrip(self):
        msg, _ = roundtrip(Message(raw=b"\x00\xff\x7f"))
        assert msg["raw"] == b"\x00\xff\x7f"

    def test_empty_message(self):
        msg, virtual = roundtrip(Message())
        assert msg.fields == {}
        assert virtual == 0

    def test_bool_rejected(self):
        with pytest.raises(SerializationError):
            encode(Message(flag=True))

    def test_unsupported_type_rejected(self):
        with pytest.raises(SerializationError):
            encode(Message(bad=object()))

    def test_field_order_preserved(self):
        msg, _ = roundtrip(Message(a=1, b=2, c=3))
        assert list(msg.fields) == ["a", "b", "c"]


class TestPayloads:
    def test_concrete_payload_roundtrip(self):
        msg, virtual = roundtrip(Message(data=Payload(data=b"abcdef")))
        assert msg["data"] == Payload(data=b"abcdef")
        assert virtual == 0

    def test_virtual_payload_roundtrip(self):
        msg, virtual = roundtrip(Message(data=Payload(size=1 << 30)))
        assert msg["data"].is_virtual
        assert msg["data"].size == 1 << 30
        assert virtual == 1 << 30

    def test_mixed_payloads(self):
        msg, virtual = roundtrip(Message(
            small=Payload(data=b"xy"), big=Payload(size=1000)))
        assert virtual == 1000
        assert msg["small"].data == b"xy"

    def test_payload_size_mismatch(self):
        with pytest.raises(SerializationError):
            Payload(size=5, data=b"four")

    def test_payload_needs_size_or_data(self):
        with pytest.raises(SerializationError):
            Payload()

    def test_negative_size(self):
        with pytest.raises(SerializationError):
            Payload(size=-1)

    def test_payload_bytes_property(self):
        msg = Message(a=Payload(size=100), b=Payload(data=b"12345"), c=7)
        assert msg.payload_bytes == 105

    def test_wire_size_counts_virtual(self):
        small = Message(p=Payload(data=b"x" * 10)).wire_size
        virtual = Message(p=Payload(size=10)).wire_size
        # Virtual marker encodes no content but wire size still counts it.
        assert virtual == pytest.approx(small, abs=16)


class TestLists:
    def test_int_list(self):
        msg, _ = roundtrip(Message(dims=[1, 28, 28, 3]))
        assert msg["dims"] == [1, 28, 28, 3]

    def test_mixed_list(self):
        msg, _ = roundtrip(Message(items=[1, "two", b"three", 4.0]))
        assert msg["items"] == [1, "two", b"three", 4.0]

    def test_payload_list(self):
        msg, virtual = roundtrip(Message(
            tensors=[Payload(size=10), Payload(data=b"real")]))
        assert virtual == 10
        assert msg["tensors"][1].data == b"real"

    def test_empty_list(self):
        msg, _ = roundtrip(Message(empty=[]))
        assert msg["empty"] == []

    def test_nested_list_rejected(self):
        with pytest.raises(SerializationError):
            encode(Message(bad=[[1]]))


class TestWireLayout:
    #: captured before the codec produced parts: magic, field count, then
    #: per field a length-prefixed name and a tagged value
    GOLDEN = (
        "5250434d05000000"
        "04007374657001" "0700000000000000"
        "03006b657903" "08000000" "772f303a67726164"
        "040064696d7307" "02000000"
        "01" "0200000000000000" "01" "0300000000000000"
        "04006461746105" "0600000000000000" "010203040506"
        "04007461696c06" "0010000000000000")

    def message(self):
        return Message(step=7, key="w/0:grad", dims=[2, 3],
                       data=Payload(data=b"\x01\x02\x03\x04\x05\x06"),
                       tail=Payload(size=4096))

    def test_encoded_bytes_match_golden(self):
        control, virtual = encode(self.message())
        assert control.hex() == self.GOLDEN
        assert virtual == 4096
        assert self.message().wire_size == len(control) + 4096

    def test_parts_join_to_the_flat_encoding(self):
        from repro.rpc.serialization import decode_parts, encode_parts
        message = self.message()
        parts, virtual = encode_parts(message)
        assert b"".join(parts).hex() == self.GOLDEN and virtual == 4096
        # The concrete payload travels by reference, and comes back so.
        assert any(part is message["data"].data for part in parts)
        assert decode_parts(parts)["data"].data is message["data"].data
        # However a transport re-cuts the stream, it decodes the same.
        flat = b"".join(parts)
        for cut in (1, 7, 64):
            views = [memoryview(flat)[i:i + cut]
                     for i in range(0, len(flat), cut)]
            assert decode_parts(views) == message


class TestMalformedWire:
    def test_bad_magic(self):
        with pytest.raises(SerializationError, match="magic"):
            decode(b"XXXX" + b"\x00" * 8)

    def test_truncated(self):
        control, _ = encode(Message(x=1))
        with pytest.raises(SerializationError):
            decode(control[:-3])

    def test_trailing_garbage(self):
        control, _ = encode(Message(x=1))
        with pytest.raises(SerializationError, match="trailing"):
            decode(control + b"\x99")

    def test_unknown_tag(self):
        control, _ = encode(Message(x=1))
        # Corrupt the value tag (after magic+count+namelen+name).
        corrupted = bytearray(control)
        corrupted[4 + 4 + 2 + 1] = 200
        with pytest.raises(SerializationError):
            decode(bytes(corrupted))


class TestMessageApi:
    def test_get_default(self):
        assert Message(x=1).get("y", "d") == "d"

    def test_contains(self):
        msg = Message(x=1)
        assert "x" in msg and "y" not in msg

    def test_setitem(self):
        msg = Message()
        msg["k"] = 5
        assert msg["k"] == 5

    def test_equality(self):
        assert Message(a=1) == Message(a=1)
        assert Message(a=1) != Message(a=2)

    def test_repr_mentions_fields(self):
        assert "x=1" in repr(Message(x=1))
