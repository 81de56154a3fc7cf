"""Tests for the receive buffer: reassembly, windows, right-edge rule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp import ReceiveBuffer


class TestInOrderDelivery:
    def test_sequential_segments(self):
        buf = ReceiveBuffer(1000)
        assert buf.offer(0, 100, b"a" * 100) == 100
        assert buf.offer(100, 100, b"b" * 100) == 100
        assert buf.rcv_nxt == 200
        assert buf._unread == 200

    def test_read_returns_bytes_in_order(self):
        buf = ReceiveBuffer(1000)
        buf.offer(0, 3, b"abc")
        buf.offer(3, 3, b"def")
        assert buf.read(4) == b"abcd"
        assert buf.read(10) == b"ef"

    def test_virtual_payload_reads_as_zeros(self):
        buf = ReceiveBuffer(1000)
        buf.offer(0, 5, None)
        assert buf.read(5) == b"\x00" * 5

    def test_read_discard_counts_without_materializing(self):
        buf = ReceiveBuffer(1000)
        buf.offer(0, 500, None)
        assert buf.read_discard(200) == 200
        assert buf._unread == 300

    def test_zero_length_offer(self):
        buf = ReceiveBuffer(1000)
        assert buf.offer(0, 0, b"") == 0

    def test_duplicate_segment_ignored(self):
        buf = ReceiveBuffer(1000)
        buf.offer(0, 100, None)
        assert buf.offer(0, 100, None) == 0
        assert buf.rcv_nxt == 100

    def test_partial_overlap_trims_stale_prefix(self):
        buf = ReceiveBuffer(1000)
        buf.offer(0, 100, b"x" * 100)
        delivered = buf.offer(50, 100, b"y" * 100)
        assert delivered == 50
        assert buf.rcv_nxt == 150
        assert buf.read(150) == b"x" * 100 + b"y" * 50


class TestOutOfOrder:
    def test_gap_holds_data(self):
        buf = ReceiveBuffer(1000)
        assert buf.offer(100, 100, None) == 0
        assert buf._ooo
        assert buf._ooo_bytes == 100
        assert buf.rcv_nxt == 0

    def test_gap_fill_drains_held_data(self):
        buf = ReceiveBuffer(1000)
        buf.offer(100, 100, b"B" * 100)
        delivered = buf.offer(0, 100, b"A" * 100)
        assert delivered == 200
        assert not buf._ooo
        assert buf.read(200) == b"A" * 100 + b"B" * 100

    def test_multiple_holes_drain_progressively(self):
        buf = ReceiveBuffer(10000)
        buf.offer(200, 100, None)
        buf.offer(400, 100, None)
        assert buf.offer(0, 200, None) == 300  # drains first held block
        assert buf.rcv_nxt == 300
        assert buf.offer(300, 100, None) == 200
        assert buf.rcv_nxt == 500

    def test_duplicate_ooo_not_double_counted(self):
        buf = ReceiveBuffer(1000)
        buf.offer(100, 100, None)
        buf.offer(100, 100, None)
        assert buf._ooo_bytes == 100

    def test_ooo_overlapping_delivery_point_trimmed_on_drain(self):
        buf = ReceiveBuffer(1000)
        buf.offer(50, 100, b"B" * 100)   # held
        buf.offer(0, 100, b"A" * 100)    # fills through 100; held chunk
        # overlaps [50,150): only [100,150) is new
        assert buf.rcv_nxt == 150
        assert buf.read(150) == b"A" * 100 + b"B" * 50


class TestWindow:
    def test_initial_window_is_capacity(self):
        assert ReceiveBuffer(4096).window == 4096

    def test_unread_data_shrinks_window(self):
        buf = ReceiveBuffer(1000)
        buf.offer(0, 400, None)
        assert buf.window == 600

    def test_reading_restores_window(self):
        buf = ReceiveBuffer(1000)
        buf.offer(0, 400, None)
        buf.read_discard(400)
        assert buf.window == 1000

    def test_window_zero_when_full(self):
        buf = ReceiveBuffer(1000)
        buf.offer(0, 1000, None)
        assert buf.window == 0

    def test_right_edge_never_retreats(self):
        """RFC 793: out-of-order data must not revoke promised space."""
        buf = ReceiveBuffer(1000)
        # gap at [0, 100); peer was promised the full 1000 bytes
        for seq in range(100, 1000, 100):
            assert buf.offer(seq, 100, None) == 0
        # all promised bytes were held, none rejected
        assert buf._ooo_bytes == 900
        # the hole itself must still be acceptable
        assert buf.offer(0, 100, None) == 1000

    def test_offer_beyond_right_edge_rejected(self):
        buf = ReceiveBuffer(1000)
        assert buf.offer(1000, 100, None) == 0
        assert buf._ooo_bytes == 0

    def test_offer_straddling_right_edge_trimmed(self):
        buf = ReceiveBuffer(1000)
        delivered = buf.offer(0, 1200, None)
        assert delivered == 1000
        assert buf.rcv_nxt == 1000

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ReceiveBuffer(0)


class TestTotals:
    def test_total_delivered_accumulates(self):
        buf = ReceiveBuffer(1000)
        buf.offer(0, 100, None)
        buf.read_discard(100)
        buf.offer(100, 200, None)
        assert buf.total_delivered == 300


# -- property-based reassembly test -------------------------------------------


@st.composite
def segment_plan(draw):
    """A shuffled segmentation of a contiguous byte stream."""
    total = draw(st.integers(min_value=1, max_value=400))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=max(1, total - 1)),
                max_size=8,
                unique=True,
            )
        )
    )
    cuts = [0] + [c for c in cuts if c < total] + [total]
    segments = [(cuts[i], cuts[i + 1] - cuts[i]) for i in range(len(cuts) - 1)]
    order = draw(st.permutations(segments))
    return total, list(order)


class TestReassemblyProperties:
    @settings(max_examples=200)
    @given(segment_plan())
    def test_any_arrival_order_reassembles_exactly(self, plan):
        total, segments = plan
        payload = bytes(range(256)) * (total // 256 + 1)
        buf = ReceiveBuffer(4096)
        for seq, length in segments:
            buf.offer(seq, length, payload[seq : seq + length])
            # re-offer duplicates to exercise dedup paths
            buf.offer(seq, length, payload[seq : seq + length])
        assert buf.rcv_nxt == total
        assert not buf._ooo
        assert buf.read(total) == payload[:total]

    @settings(max_examples=100)
    @given(segment_plan())
    def test_conservation_no_bytes_invented(self, plan):
        total, segments = plan
        buf = ReceiveBuffer(4096)
        delivered = 0
        for seq, length in segments:
            delivered += buf.offer(seq, length, None)
        assert delivered == total
        assert buf._unread == total
