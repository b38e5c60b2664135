"""Property-based tests (hypothesis) for the RPC substrate."""

import string

from hypothesis import given, settings, strategies as st

from repro.rpc.framing import Reassembler, fragment
from repro.rpc.ring_buffer import RingBuffer, RingBufferFull
from repro.rpc.serialization import Message, Payload, decode, encode


field_names = st.text(alphabet=string.ascii_lowercase + "_",
                      min_size=1, max_size=12)
scalar_values = st.one_of(
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=40),
    st.binary(max_size=60),
)
payloads = st.one_of(
    st.binary(max_size=80).map(lambda b: Payload(data=b)),
    st.integers(min_value=0, max_value=1 << 40).map(
        lambda n: Payload(size=n)),
)
values = st.one_of(scalar_values, payloads,
                   st.lists(scalar_values, max_size=6))


class TestSerializationProperties:
    @settings(deadline=None)
    @given(fields=st.dictionaries(field_names, values, max_size=8))
    def test_roundtrip(self, fields):
        message = Message(**fields)
        control, virtual = encode(message)
        decoded = decode(control)
        assert decoded == message
        # Virtual byte count equals the sum of virtual payload sizes.
        expected_virtual = sum(
            v.size for v in fields.values()
            if isinstance(v, Payload) and v.is_virtual)
        assert virtual == expected_virtual

    @given(fields=st.dictionaries(field_names, scalar_values, max_size=6))
    def test_field_order_preserved(self, fields):
        message = Message(**fields)
        decoded = decode(encode(message)[0])
        assert list(decoded.fields) == list(message.fields)

    @given(fields=st.dictionaries(field_names, values, min_size=1,
                                  max_size=6),
           cut=st.integers(min_value=1, max_value=20))
    def test_truncation_always_detected(self, fields, cut):
        control, _ = encode(Message(**fields))
        if cut >= len(control):
            return
        import pytest
        from repro.rpc.serialization import SerializationError
        with pytest.raises(SerializationError):
            decode(control[:-cut])


class TestFramingProperties:
    @settings(max_examples=60, deadline=None)
    @given(control=st.binary(max_size=5000),
           virtual_factor=st.integers(min_value=0, max_value=200),
           max_body=st.integers(min_value=16, max_value=2048),
           shuffle_seed=st.integers(min_value=0, max_value=1 << 30))
    def test_fragment_reassemble_roundtrip(self, control, virtual_factor,
                                           max_body, shuffle_seed):
        virtual = virtual_factor * max_body // 3
        frags = fragment(42, control, virtual, max_fragment_body=max_body)
        # Body size bounded, indices complete.
        assert all(f.body_size <= max_body for f in frags)
        assert [f.index for f in frags] == list(range(len(frags)))
        import random
        order = list(frags)
        random.Random(shuffle_seed).shuffle(order)
        assembler = Reassembler()
        outcome = None
        for frag in order:
            result = assembler.add(frag)
            if result is not None:
                assert outcome is None  # completes exactly once
                outcome = result
        assert outcome is not None
        assert outcome.control == control
        assert outcome.virtual_size == virtual

    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(st.binary(max_size=700), max_size=6),
           virtual=st.integers(min_value=0, max_value=6000),
           max_body=st.integers(min_value=1, max_value=2048))
    def test_one_stream_layout(self, parts, virtual, max_body):
        """A message is one stream: ceil((c + p) / F) fragments (at
        least one), concrete prefixes summing to c in the leading
        fragments only, and reassembly gives the stream back."""
        concrete = sum(map(len, parts))
        frags = fragment(7, parts, virtual, max_fragment_body=max_body)
        assert len(frags) == max(1, -(-(concrete + virtual) // max_body))
        assert sum(f.body_size for f in frags) == concrete + virtual
        assert sum(f.concrete for f in frags) == concrete
        assert all(sum(map(len, f.body)) == f.concrete for f in frags)
        # Real bytes lead: every fragment holding some comes first, and
        # each of those but the last holds nothing else.
        leading = frags[:sum(1 for f in frags if f.concrete)]
        assert all(f.concrete for f in leading)
        assert all(f.concrete == f.body_size for f in leading[:-1])
        assembler = Reassembler()
        outcome = [assembler.add(f) for f in frags][-1]
        assert outcome.control == b"".join(parts)
        assert outcome.virtual_size == virtual


class TestRingBufferProperties:
    @settings(max_examples=60)
    @given(st.data())
    def test_fifo_under_arbitrary_push_pop(self, data):
        capacity = data.draw(st.integers(min_value=32, max_value=512))
        ring = RingBuffer(capacity)
        model = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=80))):
            if model and data.draw(st.booleans()):
                assert ring.pop() == model.pop(0)
            else:
                record = data.draw(st.binary(min_size=0, max_size=capacity))
                try:
                    ring.push(record)
                    model.append(record)
                except RingBufferFull:
                    # Accounting must justify the refusal.
                    assert (len(record) + 4 > ring.free
                            or len(record) > ring.max_record_size())
        while model:
            assert ring.pop() == model.pop(0)
        assert ring.pop() is None
