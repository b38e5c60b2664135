"""Unit tests for fragmentation and reassembly."""

import pytest

from repro.rpc.framing import (
    Fragment, FramingError, HEADER_SIZE, Reassembler, fragment)


class TestFragment:
    def test_single_small_message(self):
        frags = fragment(1, b"hello", 0, max_fragment_body=1024)
        assert len(frags) == 1
        assert b"".join(frags[0].body) == b"hello"
        assert frags[0].count == 1

    def test_control_split_into_chunks(self):
        frags = fragment(2, b"x" * 2500, 0, max_fragment_body=1000)
        assert len(frags) == 3
        assert [f.body_size for f in frags] == [1000, 1000, 500]
        assert all(f.body is not None for f in frags)

    def test_virtual_tail_fragments(self):
        frags = fragment(3, b"ctl", 2048, max_fragment_body=1024)
        assert len(frags) == 3
        assert b"".join(frags[0].body) == b"ctl"
        assert frags[1].body is None and frags[1].body_size == 1024
        assert frags[2].body is None and frags[2].body_size == 1024

    def test_empty_message_gets_one_fragment(self):
        frags = fragment(4, b"", 0, max_fragment_body=64)
        assert len(frags) == 1
        assert frags[0].body_size == 0

    def test_wire_size_includes_header(self):
        frags = fragment(5, b"abc", 0, max_fragment_body=64)
        assert frags[0].wire_size == HEADER_SIZE + 3

    def test_bad_max_body(self):
        with pytest.raises(FramingError):
            fragment(6, b"x", 0, max_fragment_body=0)

    def test_header_roundtrip_concrete(self):
        frag = Fragment(msg_id=9, index=2, count=5, body_size=77, body=b"x" * 77)
        parsed = Fragment.parse_header(frag.header_bytes() + b"pad")
        assert (parsed.msg_id, parsed.index, parsed.count, parsed.body_size) \
            == (9, 2, 5, 77)
        assert parsed.header_says_concrete is True

    def test_header_roundtrip_virtual(self):
        frag = Fragment(msg_id=9, index=0, count=1, body_size=1 << 20)
        parsed = Fragment.parse_header(frag.header_bytes())
        assert parsed.header_says_concrete is False

    def test_short_header_rejected(self):
        with pytest.raises(FramingError):
            Fragment.parse_header(b"\x01\x02")


class TestReassembler:
    def test_in_order_reassembly(self):
        frags = fragment(10, b"A" * 1500, 0, max_fragment_body=600)
        assembler = Reassembler()
        result = None
        for frag in frags:
            result = assembler.add(frag)
        assert result is not None
        assert result.control == b"A" * 1500
        assert result.virtual_size == 0

    def test_out_of_order_reassembly(self):
        frags = fragment(11, b"B" * 1000, 0, max_fragment_body=300)
        assembler = Reassembler()
        results = [assembler.add(f) for f in reversed(frags)]
        assert results[:-1] == [None] * (len(frags) - 1)
        assert results[-1].control == b"B" * 1000

    def test_interleaved_messages(self):
        fa = fragment(20, b"aa" * 400, 0, max_fragment_body=256)
        fb = fragment(21, b"bb" * 400, 0, max_fragment_body=256)
        assembler = Reassembler()
        done = {}
        for pair in zip(fa, fb):
            for frag in pair:
                result = assembler.add(frag)
                if result:
                    done[result.msg_id] = result
        assert done[20].control == b"aa" * 400
        assert done[21].control == b"bb" * 400

    def test_virtual_size_accumulates(self):
        frags = fragment(30, b"hdr", 5000, max_fragment_body=2048)
        assembler = Reassembler()
        result = None
        for frag in frags:
            result = assembler.add(frag)
        assert result.control == b"hdr"
        assert result.virtual_size == 5000
        assert result.total_size == 5003

    def test_duplicate_fragment_rejected(self):
        frags = fragment(40, b"x" * 100, 0, max_fragment_body=30)
        assembler = Reassembler()
        assembler.add(frags[0])
        with pytest.raises(FramingError, match="duplicate"):
            assembler.add(frags[0])

    def test_index_out_of_range(self):
        assembler = Reassembler()
        with pytest.raises(FramingError):
            assembler.add(Fragment(msg_id=1, index=3, count=3, body_size=0,
                                   body=b""))

    def test_partial_count_tracking(self):
        frags = fragment(50, b"y" * 100, 0, max_fragment_body=30)
        assembler = Reassembler()
        assembler.add(frags[0])
        assert assembler.partial_count == 1
        for frag in frags[1:]:
            assembler.add(frag)
        assert assembler.partial_count == 0
