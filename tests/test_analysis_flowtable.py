"""Unit tests for flow reconstruction from synthetic packet records."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    AckClockSample,
    ackclock_samples,
    build_download_trace,
    detect_onoff,
    estimate_encoding_rate,
    estimate_session_rate,
    first_rtt_bytes,
)
from repro.http import build_flv_header, build_webm_header
from repro.pcap import PacketRecord
from repro.tcp import ACK, PSH, SYN
from repro.tcp.seqspace import wrap

CLIENT = "10.0.0.1"
SERVER = "192.0.2.1"


def rec(t, *, src=SERVER, sport=80, dst=CLIENT, dport=50000, seq=0, ack=0,
        flags=ACK, payload_len=0, window=65535, payload=None):
    return PacketRecord(
        timestamp=t, src_ip=src, src_port=sport, dst_ip=dst, dst_port=dport,
        seq=wrap(seq), ack=wrap(ack), flags=flags, payload_len=payload_len,
        window=window, wire_len=54 + payload_len, payload=payload,
    )


def handshake(t0=0.0, rtt=0.02, dport=50000):
    return [
        rec(t0, src=CLIENT, sport=dport, dst=SERVER, dport=80, flags=SYN,
            seq=0),
        rec(t0 + rtt, flags=SYN | ACK, seq=0, dport=dport),
        rec(t0 + rtt + 0.001, src=CLIENT, sport=dport, dst=SERVER, dport=80,
            flags=ACK, seq=1),
    ]


def data_stream(t0, seqs_lens, base_seq=1, dport=50000, payloads=None):
    out = []
    for i, (offset, length) in enumerate(seqs_lens):
        payload = payloads[i] if payloads else None
        out.append(rec(t0 + i * 0.001, seq=base_seq + offset,
                       payload_len=length, flags=ACK | PSH, payload=payload,
                       dport=dport))
    return out


class TestFlowConstruction:
    def test_handshake_rtt_measured(self):
        trace = build_download_trace(handshake(rtt=0.025), CLIENT, SERVER)
        assert trace.flow_count == 1
        flow = trace.main_flow()
        assert flow.handshake_rtt == pytest.approx(0.025)
        assert trace.median_handshake_rtt() == pytest.approx(0.025)

    def test_unique_bytes_counted_once(self):
        records = handshake() + data_stream(
            1.0, [(0, 1000), (1000, 1000), (1000, 1000)])  # one dup
        trace = build_download_trace(records, CLIENT, SERVER)
        assert trace.total_bytes == 2000
        assert trace.total_payload_bytes == 3000

    def test_retransmission_detection_by_regression(self):
        # hole-filler arriving after later data counts as a retransmission
        records = handshake() + data_stream(
            1.0, [(0, 1000), (2000, 1000), (1000, 1000)])
        trace = build_download_trace(records, CLIENT, SERVER)
        flow = trace.main_flow()
        assert flow.retransmitted_bytes == 1000
        assert trace.retransmission_rate == pytest.approx(1000 / 3000)

    def test_in_order_stream_has_no_retransmissions(self):
        records = handshake() + data_stream(
            1.0, [(i * 1000, 1000) for i in range(10)])
        trace = build_download_trace(records, CLIENT, SERVER)
        assert trace.retransmission_rate == 0.0

    def test_retransmission_rate_zero_packets(self):
        # a handshake-only flow carries no data: the rate must be a
        # clean 0.0, not a division error
        trace = build_download_trace(handshake(), CLIENT, SERVER)
        flow = trace.main_flow()
        assert flow.total_payload_bytes == 0
        assert flow.packet_count == 0
        assert flow.retransmission_rate == 0.0
        assert trace.retransmission_rate == 0.0

    def test_packet_count_counts_retransmissions(self):
        records = handshake() + data_stream(
            1.0, [(0, 1000), (1000, 1000), (1000, 1000)])  # one dup
        trace = build_download_trace(records, CLIENT, SERVER)
        assert trace.main_flow().packet_count == 3
        assert trace.packet_count == 3

    def test_sequence_wrap_handled(self):
        base = (1 << 32) - 1500  # data crosses the 32-bit boundary
        records = handshake() + data_stream(
            1.0, [(0, 1000), (1000, 1000), (2000, 1000)], base_seq=base)
        trace = build_download_trace(records, CLIENT, SERVER)
        assert trace.total_bytes == 3000

    def test_multiple_flows_aggregate(self):
        records = (handshake(dport=50000) + handshake(dport=50001)
                   + data_stream(1.0, [(0, 500)], dport=50000)
                   + data_stream(2.0, [(0, 700)], dport=50001))
        trace = build_download_trace(records, CLIENT, SERVER)
        assert trace.flow_count == 2
        assert trace.total_bytes == 1200
        assert trace.main_flow().unique_bytes == 700

    def test_window_series_from_client_acks(self):
        records = handshake() + [
            rec(1.0, src=CLIENT, sport=50000, dst=SERVER, dport=80,
                flags=ACK, seq=1, window=30000),
            rec(2.0, src=CLIENT, sport=50000, dst=SERVER, dport=80,
                flags=ACK, seq=1, window=0),
        ]
        trace = build_download_trace(records, CLIENT, SERVER)
        # the handshake ACK plus the two explicit ones
        assert trace.window_series.values[-2:] == [30000.0, 0.0]

    def test_cumulative_series_monotone(self):
        records = handshake() + data_stream(
            1.0, [(0, 1000), (1000, 1000), (500, 800)])
        trace = build_download_trace(records, CLIENT, SERVER)
        series = trace.cumulative_series()
        assert series.values == sorted(series.values)
        assert series.values[-1] == trace.total_bytes

    def test_download_rate(self):
        records = handshake() + data_stream(1.0, [(0, 1000)]) + data_stream(
            2.0, [(1000, 1000)])
        trace = build_download_trace(records, CLIENT, SERVER)
        span = trace.last_data_time - trace.first_data_time
        assert trace.download_rate_bps() == pytest.approx(2000 * 8 / span)

    def test_unrelated_traffic_ignored(self):
        stray = rec(0.5, src="203.0.113.9", dst=CLIENT, payload_len=999)
        trace = build_download_trace(handshake() + [stray], CLIENT, SERVER)
        assert trace.total_bytes == 0

    def test_empty_trace(self):
        trace = build_download_trace([], CLIENT, SERVER)
        assert trace.total_bytes == 0
        assert trace.first_data_time is None
        assert trace.download_rate_bps() == 0.0
        with pytest.raises(ValueError):
            trace.main_flow()


class TestHeadCapture:
    def make_http_records(self, header_blob):
        head = (b"HTTP/1.1 200 OK\r\nContent-Length: 1000000\r\n\r\n")
        first = head + header_blob
        return handshake() + data_stream(
            1.0, [(0, len(first)), (len(first), 1460)],
            payloads=[first, None])

    def test_flv_rate_from_header(self):
        records = self.make_http_records(build_flv_header(750_000.0, 240.0))
        trace = build_download_trace(records, CLIENT, SERVER)
        estimate = estimate_session_rate(trace, duration=240.0)
        assert estimate.method == "flv-header"
        assert estimate.rate_bps == pytest.approx(750_000.0)
        assert estimate.container == "flv"

    def test_webm_falls_back_to_content_length(self):
        records = self.make_http_records(build_webm_header(240.0))
        trace = build_download_trace(records, CLIENT, SERVER)
        estimate = estimate_session_rate(trace, duration=200.0)
        assert estimate.method == "content-length"
        assert estimate.rate_bps == pytest.approx(1_000_000 * 8 / 200.0)
        assert estimate.content_length == 1_000_000

    def test_webm_without_duration_fails(self):
        records = self.make_http_records(build_webm_header(240.0))
        trace = build_download_trace(records, CLIENT, SERVER)
        estimate = estimate_session_rate(trace, duration=None)
        assert not estimate.ok
        assert estimate.method == "none"

    def test_garbage_head_yields_no_estimate(self):
        records = handshake() + data_stream(
            1.0, [(0, 100)], payloads=[b"\x00" * 100])
        trace = build_download_trace(records, CLIENT, SERVER)
        assert not estimate_session_rate(trace, duration=100.0).ok

    def test_head_capture_survives_out_of_order_arrival(self):
        head = b"HTTP/1.1 200 OK\r\nContent-Length: 500\r\n\r\n"
        blob = head + build_flv_header(500_000.0, 100.0)
        records = handshake() + data_stream(
            1.0, [(len(blob), 1000), (0, len(blob))],
            payloads=[None, blob])
        trace = build_download_trace(records, CLIENT, SERVER)
        # head arrived late: capture missed it (position-gated), so the
        # estimator reports no rate rather than garbage
        estimate = estimate_session_rate(trace, duration=100.0)
        assert estimate.method in ("none", "flv-header")


class TestAckClock:
    def cycle_records(self, rtt=0.02, block=8, gap=1.0, cycles=3):
        """Blocks of `block` segments separated by `gap` seconds."""
        records = handshake(rtt=rtt)
        t = 1.0
        offset = 0
        for _ in range(cycles):
            for i in range(block):
                records.append(rec(t + i * 0.001, seq=1 + offset,
                                   payload_len=1000))
                offset += 1000
            t += gap
        return records

    def test_whole_block_within_first_rtt(self):
        trace = build_download_trace(self.cycle_records(), CLIENT, SERVER)
        samples = ackclock_samples(trace)
        # first ON period skipped (buffering); 2 steady cycles measured
        assert len(samples) == 2
        assert all(s == 8000 for s in samples)

    def test_slow_block_exceeds_first_rtt(self):
        records = handshake(rtt=0.02)
        t, offset = 1.0, 0
        for cycle in range(3):
            for i in range(10):
                records.append(rec(t + i * 0.01, seq=1 + offset,
                                   payload_len=1000))
                offset += 1000
            t += 1.0
        trace = build_download_trace(records, CLIENT, SERVER)
        samples = ackclock_samples(trace)
        assert all(s == 3000 for s in samples)  # 20 ms at 1 pkt / 10 ms

    def test_no_rtt_estimate_no_samples(self):
        records = self.cycle_records()[3:]  # drop the handshake
        trace = build_download_trace(records, CLIENT, SERVER)
        assert ackclock_samples(trace) == []

    def test_include_connection_starts(self):
        trace = build_download_trace(self.cycle_records(), CLIENT, SERVER)
        with_starts = ackclock_samples(trace, include_connection_starts=True)
        without = ackclock_samples(trace)
        assert len(with_starts) == len(without) + 1

    def test_first_rtt_bytes_details(self):
        trace = build_download_trace(self.cycle_records(), CLIENT, SERVER)
        samples = first_rtt_bytes(trace.main_flow())
        assert all(isinstance(s, AckClockSample) for s in samples)
        assert all(s.rtt == pytest.approx(0.02) for s in samples)


def brute_force_first_rtt(flow, rtt, gap_threshold, min_on_bytes, skip_first):
    """The ACK-clock metric by definition: for every ON period, scan every
    event of the flow and sum the advances inside [start, start + rtt]."""
    events = flow.events
    onoff = detect_onoff(events, gap_threshold=gap_threshold,
                         min_on_bytes=min_on_bytes)
    periods = onoff.on_periods[1:] if skip_first else onoff.on_periods
    return [
        (p.start, sum(a for t, a in events if p.start <= t <= p.start + rtt))
        for p in periods
    ]


# Times on a 1/1024 s grid are exact binary fractions, so an event can sit
# exactly on `start + rtt`; step 0 repeats a timestamp and steps of 160+
# ticks exceed the 0.15 s gap threshold, opening a new ON period.
TICK = 1 / 1024
event_steps = st.lists(
    st.tuples(st.sampled_from([0, 0, 1, 2, 8, 20, 160, 300, 1000]),
              st.sampled_from([100, 1000, 1460, 4000]),
              st.booleans()),          # True: retransmit the last segment
    min_size=1, max_size=60)


def flow_from_steps(steps, rtt_ticks):
    """One flow: handshake with an RTT of `rtt_ticks`, then one data packet
    per step; retransmissions repeat the previous segment (zero advance)."""
    records = handshake(rtt=rtt_ticks * TICK)
    t, offset, last = 1.0, 0, None
    for ticks, length, retransmit in steps:
        t += ticks * TICK
        if retransmit and last is not None:
            seq, length = last
        else:
            seq = 1 + offset
            offset += length
        last = (seq, length)
        records.append(rec(t, seq=seq, payload_len=length))
    return build_download_trace(records, CLIENT, SERVER).main_flow()


class TestAckClockOracle:
    @settings(max_examples=150, deadline=None)
    @given(steps=event_steps,
           rtt_ticks=st.sampled_from([1, 2, 8, 20, 64]),
           min_on_bytes=st.sampled_from([0, 1000, 4096]),
           skip_first=st.booleans(),
           use_handshake_rtt=st.booleans())
    @example(steps=[(0, 1000, False)], rtt_ticks=8, min_on_bytes=0,
             skip_first=False, use_handshake_rtt=False)   # single event
    @example(steps=[(0, 1000, False), (8, 1000, False), (0, 1000, True),
                    (1, 1000, False)],
             rtt_ticks=8, min_on_bytes=0, skip_first=False,
             use_handshake_rtt=False)   # events exactly at start + rtt
    def test_bisect_matches_brute_force_scan(self, steps, rtt_ticks,
                                             min_on_bytes, skip_first,
                                             use_handshake_rtt):
        flow = flow_from_steps(steps, rtt_ticks)
        rtt = None if use_handshake_rtt else rtt_ticks * TICK
        effective = flow.handshake_rtt if use_handshake_rtt else rtt
        got = first_rtt_bytes(flow, rtt=rtt, min_on_bytes=min_on_bytes,
                              skip_first=skip_first)
        expected = brute_force_first_rtt(flow, effective, 0.15, min_on_bytes,
                                         skip_first)
        assert [(s.on_start, s.bytes_first_rtt) for s in got] == expected
        assert all(s.rtt == effective for s in got)

    def test_event_exactly_at_horizon_counts(self):
        flow = flow_from_steps(
            [(0, 1000, False), (8, 500, False), (1, 700, False)], 8)
        [sample] = first_rtt_bytes(flow, rtt=8 * TICK, min_on_bytes=0,
                                   skip_first=False)
        assert sample.bytes_first_rtt == 1500   # t0 and t0 + rtt, not t0+9

    def test_duplicate_timestamps_and_retransmissions(self):
        flow = flow_from_steps(
            [(0, 1000, False), (0, 1000, True), (0, 400, False)], 4)
        assert flow.advances.tolist() == [1000, 0, 400]
        [sample] = first_rtt_bytes(flow, rtt=4 * TICK, min_on_bytes=0,
                                   skip_first=False)
        assert sample.bytes_first_rtt == 1400

    def test_flow_without_data_has_no_samples(self):
        flow = build_download_trace(handshake(), CLIENT, SERVER).main_flow()
        assert flow.packet_count == 0
        assert first_rtt_bytes(flow) == []
