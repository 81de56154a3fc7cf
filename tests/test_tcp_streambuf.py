"""Tests for the mixed real/virtual stream buffer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tcp import StreamBuffer


class TestAppend:
    def test_empty_buffer(self):
        buf = StreamBuffer()
        assert buf.length == 0
        assert buf._trimmed == 0

    def test_append_real(self):
        buf = StreamBuffer()
        buf.append(b"hello")
        assert buf.length == 5
        assert buf.read_range(0, 5) == b"hello"

    def test_append_empty_is_noop(self):
        buf = StreamBuffer()
        buf.append(b"")
        buf.append_virtual(0)
        assert buf.length == 0

    def test_append_virtual(self):
        buf = StreamBuffer()
        buf.append_virtual(100)
        assert buf.length == 100
        assert buf.read_range(0, 100) is None

    def test_virtual_negative_rejected(self):
        with pytest.raises(ValueError):
            StreamBuffer().append_virtual(-1)

    def test_adjacent_virtual_chunks_merge(self):
        buf = StreamBuffer()
        buf.append_virtual(10)
        buf.append_virtual(20)
        assert len(buf._chunks) == 1
        assert buf.length == 30


class TestReadRange:
    def test_mixed_range_zero_fills_virtual(self):
        buf = StreamBuffer()
        buf.append(b"AB")
        buf.append_virtual(3)
        buf.append(b"CD")
        data = buf.read_range(0, 7)
        assert data == b"AB\x00\x00\x00CD"

    def test_pure_virtual_range_returns_none(self):
        buf = StreamBuffer()
        buf.append(b"AB")
        buf.append_virtual(10)
        assert buf.read_range(2, 12) is None
        assert buf.is_virtual_range(5, 10)

    def test_subrange_of_real_chunk(self):
        buf = StreamBuffer()
        buf.append(b"ABCDEFG")
        assert buf.read_range(2, 5) == b"CDE"

    def test_range_spanning_chunks(self):
        buf = StreamBuffer()
        buf.append(b"ABC")
        buf.append(b"DEF")
        assert buf.read_range(1, 5) == b"BCDE"

    def test_empty_range(self):
        buf = StreamBuffer()
        buf.append(b"ABC")
        assert buf.read_range(1, 1) == b""

    def test_out_of_bounds_raises(self):
        buf = StreamBuffer()
        buf.append(b"ABC")
        with pytest.raises(IndexError):
            buf.read_range(0, 4)

    def test_is_virtual_range_false_for_real(self):
        buf = StreamBuffer()
        buf.append_virtual(5)
        buf.append(b"X")
        assert not buf.is_virtual_range(0, 6)
        assert buf.is_virtual_range(0, 5)


class TestTrim:
    def test_trim_discards_prefix(self):
        buf = StreamBuffer()
        buf.append(b"ABCDEF")
        buf.trim(3)
        assert buf._trimmed == 3
        assert buf.read_range(3, 6) == b"DEF"
        with pytest.raises(IndexError):
            buf.read_range(2, 4)

    def test_trim_partial_chunk(self):
        buf = StreamBuffer()
        buf.append(b"ABC")
        buf.append(b"DEF")
        buf.trim(4)
        assert buf.read_range(4, 6) == b"EF"

    def test_trim_virtual_chunk(self):
        buf = StreamBuffer()
        buf.append_virtual(10)
        buf.trim(4)
        assert buf.read_range(4, 10) is None

    def test_trim_is_monotone(self):
        buf = StreamBuffer()
        buf.append(b"ABCDEF")
        buf.trim(4)
        buf.trim(2)  # earlier trim is a no-op
        assert buf._trimmed == 4

    def test_trim_beyond_length_raises(self):
        buf = StreamBuffer()
        buf.append(b"AB")
        with pytest.raises(IndexError):
            buf.trim(3)

    def test_append_after_trim(self):
        buf = StreamBuffer()
        buf.append(b"ABC")
        buf.trim(3)
        buf.append(b"DEF")
        assert buf.read_range(3, 6) == b"DEF"


# -- property-based tests -----------------------------------------------------

chunk_ops = st.lists(
    st.one_of(
        st.binary(min_size=1, max_size=20),          # real append
        st.integers(min_value=1, max_value=50),      # virtual append
    ),
    min_size=1,
    max_size=20,
)


def build_reference(ops):
    """Apply ops to a StreamBuffer and a plain bytes reference."""
    buf = StreamBuffer()
    ref = bytearray()
    for op in ops:
        if isinstance(op, bytes):
            buf.append(op)
            ref.extend(op)
        else:
            buf.append_virtual(op)
            ref.extend(b"\x00" * op)
    return buf, bytes(ref)


class TestStreamBufferProperties:
    @given(chunk_ops, st.data())
    def test_read_range_matches_reference(self, ops, data):
        buf, ref = build_reference(ops)
        start = data.draw(st.integers(min_value=0, max_value=len(ref)))
        end = data.draw(st.integers(min_value=start, max_value=len(ref)))
        got = buf.read_range(start, end)
        if got is None:
            got = bytes(end - start)
            assert buf.is_virtual_range(start, end)
        assert got == ref[start:end]

    @given(chunk_ops, st.data())
    def test_reads_after_trim_match_reference(self, ops, data):
        buf, ref = build_reference(ops)
        cut = data.draw(st.integers(min_value=0, max_value=len(ref)))
        buf.trim(cut)
        start = data.draw(st.integers(min_value=cut, max_value=len(ref)))
        end = data.draw(st.integers(min_value=start, max_value=len(ref)))
        got = buf.read_range(start, end)
        if got is None:
            got = bytes(end - start)
        assert got == ref[start:end]

    @given(chunk_ops)
    def test_length_equals_total_appended(self, ops):
        buf, ref = build_reference(ops)
        assert buf.length == len(ref)
