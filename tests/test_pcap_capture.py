"""Tests for pcap files and capture round trips."""

import io

import pytest

from repro.pcap import (
    PcapError,
    PcapReader,
    PcapWriter,
    TraceCapture,
    read_pcap,
    records_from_pcap,
    write_pcap,
)
from repro.simnet import NetworkProfile
from tests.conftest import run_bulk_transfer

CLEAN = NetworkProfile(
    name="Clean", down_bps=10e6, up_bps=10e6, rtt=0.02, loss_down=0.0,
    buffer_bytes=512 * 1024,
)
LOSSY = NetworkProfile(
    name="Lossy", down_bps=10e6, up_bps=10e6, rtt=0.02, loss_down=0.01,
    buffer_bytes=512 * 1024,
)


class TestPcapFile:
    def test_writer_reader_round_trip(self):
        buf = io.BytesIO()
        writer = PcapWriter(buf)
        writer.write_packet(1.5, b"frame-one")
        writer.write_packet(2.25, b"frame-two!")
        buf.seek(0)
        reader = PcapReader(buf)
        records = list(reader)
        assert [(t, d) for t, d, _ in records] == [
            (1.5, b"frame-one"), (2.25, b"frame-two!")]
        assert reader.linktype == 1
        assert reader.version_major == 2

    def test_snaplen_truncates_but_keeps_orig_len(self):
        buf = io.BytesIO()
        writer = PcapWriter(buf, snaplen=4)
        writer.write_packet(0.0, b"longfra me")
        buf.seek(0)
        (_t, data, orig_len), = list(PcapReader(buf))
        assert data == b"long"
        assert orig_len == 10

    def test_microsecond_precision(self):
        buf = io.BytesIO()
        PcapWriter(buf).write_packet(123.456789, b"x")
        buf.seek(0)
        (t, _, _), = list(PcapReader(buf))
        assert t == pytest.approx(123.456789, abs=1e-6)

    def test_bad_magic_rejected(self):
        with pytest.raises(PcapError):
            PcapReader(io.BytesIO(b"\x00" * 24))

    def test_truncated_header_rejected(self):
        with pytest.raises(PcapError):
            PcapReader(io.BytesIO(b"\xa1\xb2"))

    def test_negative_timestamp_rejected(self):
        writer = PcapWriter(io.BytesIO())
        with pytest.raises(PcapError):
            writer.write_packet(-1.0, b"x")

    def test_file_helpers(self, tmp_path):
        path = str(tmp_path / "t.pcap")
        n = write_pcap(path, [(0.0, b"aa"), (1.0, b"bb")])
        assert n == 2
        records = read_pcap(path)
        assert [d for _, d, _ in records] == [b"aa", b"bb"]


def captured_transfer(profile=CLEAN, nbytes=200_000, seed=1, header=b""):
    """Run a bulk transfer with a TraceCapture attached to both directions."""
    from repro.simnet import build_client_server
    from repro.tcp import TcpConnection, TcpListener

    net, client_host, server_host, path = build_client_server(profile, seed=seed)
    capture = TraceCapture().attach(path)
    state = {}

    def on_accept(conn):
        state["server"] = conn

        def on_data(c):
            if c.recv(4096):
                if header:
                    c.send(header)
                c.send_virtual(nbytes - len(header))
                c.close()

        conn.on_data = on_data

    TcpListener(server_host, net.scheduler, 80, on_accept)
    client = TcpConnection(client_host, net.scheduler,
                           client_host.allocate_port(), server_host.ip, 80)
    client.on_data = lambda c: c.recv_discard(1 << 22)
    client.on_connected = lambda c: c.send(b"GET /v HTTP/1.1\r\n\r\n")
    client.connect()
    net.run_until(120.0)
    return capture


class TestTraceCapture:
    def test_capture_sees_both_directions(self):
        capture = captured_transfer()
        records = capture.records
        directions = {r.src_ip for r in records}
        assert directions == {"10.0.0.1", "192.0.2.1"}

    def test_data_bytes_accounted(self):
        capture = captured_transfer(nbytes=200_000)
        down = [r for r in capture.records if r.src_ip == "192.0.2.1"]
        total_payload = sum(r.payload_len for r in down)
        assert total_payload >= 200_000  # >= because of retransmissions

    def test_records_sorted_by_time(self):
        records = captured_transfer().records
        times = [r.timestamp for r in records]
        assert times == sorted(times)

    def test_stop_freezes_capture(self):
        capture = TraceCapture()
        from repro.tcp import TcpSegment
        seg = TcpSegment("a", 1, "b", 2, seq=0)
        capture.tap(0.0, seg)
        capture.stop()
        capture.tap(1.0, seg)
        assert len(capture) == 1

    def test_columns_snapshot_survives_later_taps(self):
        """A view taken mid-session copies the tap's buffers: tapping on
        must neither raise ``BufferError`` (as appending to an exported
        ``array`` would) nor change the earlier views."""
        from repro.tcp import TcpSegment
        capture = TraceCapture()
        taps = []

        def tap(t, seq, payload=None):
            taps.append((t, seq))
            capture.tap(t, TcpSegment(
                "192.0.2.1", 80, "10.0.0.1", 5000, seq=seq, window=70_000,
                payload_len=len(payload) if payload else 100,
                payload=payload))

        columns = ("timestamps", "flow_ids", "seqs", "flags",
                   "payload_lens", "windows")
        tap(0.0, 0, b"head")
        tap(0.1, 4)
        in_order = capture.columns()
        before = {name: getattr(in_order, name).copy() for name in columns}
        timestamps = in_order.timestamps[1:]   # a view into the snapshot
        for i in range(1, 2000):
            # ten packets per timestamp, then one stamped in the past
            tap(0.2 + (i // 10) * 1e-3, 4 + 100 * i,
                b"x" * 100 if i == 5 else None)
        tap(0.05, 1 << 33)
        shuffled = capture.columns()
        tap(0.3, 7)
        assert len(capture.columns()) == 2003
        for name in columns:
            assert getattr(in_order, name).tobytes() == \
                before[name].tobytes()
        assert timestamps.tolist() == [0.1]
        assert in_order.payloads == {0: b"head"}
        # a stable sort: ties keep tap order
        ordered = sorted(taps[:2002], key=lambda tap: tap[0])
        assert shuffled.timestamps.tolist() == [t for t, _ in ordered]
        assert shuffled.seqs.tolist() == [seq & 0xFFFFFFFF
                                          for _, seq in ordered]
        assert shuffled.payloads == {0: b"head", 7: b"x" * 100}

    def test_syn_and_fin_present(self):
        records = captured_transfer().records
        assert any(r.is_syn for r in records)
        assert any(r.is_fin for r in records)


class TestPcapRoundTrip:
    def test_round_trip_preserves_every_field(self, tmp_path):
        capture = captured_transfer(nbytes=100_000, header=b"HTTP/1.1 200 OK\r\n\r\n")
        path = str(tmp_path / "session.pcap")
        n = capture.write_pcap(path)
        fast = capture.records
        parsed = records_from_pcap(path)
        assert n == len(fast) == len(parsed)
        for a, b in zip(fast, parsed):
            assert a.timestamp == pytest.approx(b.timestamp, abs=2e-6)
            assert (a.src_ip, a.src_port, a.dst_ip, a.dst_port) == (
                b.src_ip, b.src_port, b.dst_ip, b.dst_port)
            assert a.seq == b.seq
            assert a.ack == b.ack
            assert a.flags == b.flags
            assert a.payload_len == b.payload_len
            assert a.window == b.window
            assert a.wire_len == b.wire_len

    def test_round_trip_under_loss(self, tmp_path):
        capture = captured_transfer(profile=LOSSY, nbytes=300_000, seed=4)
        path = str(tmp_path / "lossy.pcap")
        capture.write_pcap(path)
        parsed = records_from_pcap(path)
        assert len(parsed) == len(capture.records)

    def test_snaplen_capture_still_parses(self, tmp_path):
        """Headers-only captures (tcpdump -s 96) must still be analyzable."""
        capture = captured_transfer(nbytes=100_000)
        path = str(tmp_path / "trunc.pcap")
        capture.write_pcap(path, snaplen=96)
        parsed = records_from_pcap(path)
        fast = capture.records
        assert len(parsed) == len(fast)
        for a, b in zip(fast, parsed):
            assert a.payload_len == b.payload_len  # from orig_len accounting
            assert a.seq == b.seq

    def test_real_payload_survives_round_trip(self, tmp_path):
        marker = b"HTTP/1.1 200 OK\r\nContent-Length: 99960\r\n\r\n"
        capture = captured_transfer(nbytes=100_000, header=marker)
        path = str(tmp_path / "payload.pcap")
        capture.write_pcap(path)
        parsed = records_from_pcap(path)
        blob = b"".join(r.payload or b"" for r in parsed
                        if r.src_ip == "192.0.2.1")
        assert marker in blob
