"""Tests for rendition-ladder inference from traces."""

import pytest

from repro.analysis import build_download_trace, detect_renditions
from repro.pcap import PacketRecord
from repro.simnet import ACADEMIC
from repro.streaming import Application, Service, SessionConfig, run_session
from repro.tcp import ACK, SYN
from repro.tcp.seqspace import wrap
from repro.workloads import MBPS, NETFLIX_LADDER_BPS, Video

CLIENT = "10.0.0.1"
SERVER = "192.0.2.1"


def flow_with_head(dport, head, body=2000, t0=0.0):
    """Synthetic flow: handshake + one head-carrying packet + body."""
    return [
        PacketRecord(t0, CLIENT, dport, SERVER, 80, wrap(0), 0, SYN, 0,
                     65535, 54),
        PacketRecord(t0 + 0.02, SERVER, 80, CLIENT, dport, wrap(0), 1,
                     SYN | ACK, 0, 65535, 54),
        PacketRecord(t0 + 0.03, SERVER, 80, CLIENT, dport, wrap(1), 1, ACK,
                     len(head), 65535, 54 + len(head), payload=head),
        PacketRecord(t0 + 0.04, SERVER, 80, CLIENT, dport, wrap(1 + len(head)),
                     1, ACK, body, 65535, 54 + body),
    ]


def head_206(start, end, total):
    return (f"HTTP/1.1 206 Partial Content\r\n"
            f"Content-Length: {end - start + 1}\r\n"
            f"Content-Range: bytes {start}-{end}/{total}\r\n\r\n").encode()


class TestSyntheticLadders:
    def test_distinct_totals_are_distinct_renditions(self):
        records = (flow_with_head(50000, head_206(0, 999, 1_000_000))
                   + flow_with_head(50001, head_206(0, 999, 2_000_000), t0=1.0)
                   + flow_with_head(50002, head_206(0, 999, 4_000_000), t0=2.0))
        trace = build_download_trace(records, CLIENT, SERVER)
        obs = detect_renditions(trace, duration=100.0)
        assert obs.count == 3
        assert sorted(r.rate_estimate_bps for r in obs.renditions) == \
            pytest.approx([1_000_000 * 8 / 100, 2_000_000 * 8 / 100,
                           4_000_000 * 8 / 100])

    def test_same_total_groups_flows(self):
        records = (flow_with_head(50000, head_206(0, 999, 1_000_000))
                   + flow_with_head(50001, head_206(1000, 1999, 1_000_000),
                                    t0=1.0))
        trace = build_download_trace(records, CLIENT, SERVER)
        obs = detect_renditions(trace)
        assert obs.count == 1
        assert obs.renditions[0].flows == 2

    def test_tolerance_merges_near_totals(self):
        records = (flow_with_head(50000, head_206(0, 999, 1_000_000))
                   + flow_with_head(50001, head_206(0, 999, 1_010_000),
                                    t0=1.0))
        trace = build_download_trace(records, CLIENT, SERVER)
        assert detect_renditions(trace, tolerance=0.02).count == 1
        assert detect_renditions(trace, tolerance=0.001).count == 2

    def test_plain_200_uses_content_length(self):
        head = b"HTTP/1.1 200 OK\r\nContent-Length: 5000000\r\n\r\n"
        trace = build_download_trace(flow_with_head(50000, head), CLIENT,
                                     SERVER)
        obs = detect_renditions(trace, duration=50.0)
        assert obs.count == 1
        assert obs.renditions[0].total_bytes == 5_000_000

    def test_headless_flows_ignored(self):
        records = flow_with_head(50000, b"")[0:2] + [
            PacketRecord(0.05, SERVER, 80, CLIENT, 50000, wrap(1), 1, ACK,
                         1000, 65535, 1054),
        ]
        trace = build_download_trace(records, CLIENT, SERVER)
        assert detect_renditions(trace).count == 0

    def test_without_duration_rates_are_none(self):
        records = flow_with_head(50000, head_206(0, 9, 100))
        trace = build_download_trace(records, CLIENT, SERVER)
        obs = detect_renditions(trace)
        assert obs.renditions[0].rate_estimate_bps is None


class TestEndToEndNetflix:
    def nf_video(self):
        ladder = tuple(zip(("a", "b", "c", "d", "e"), NETFLIX_LADDER_BPS))
        return Video(video_id="r", duration=2400.0,
                     encoding_rate_bps=NETFLIX_LADDER_BPS[-1],
                     resolution="1080p", container="silverlight",
                     variants=ladder)

    def observe(self, application):
        from repro.analysis import analyze_session

        config = SessionConfig(profile=ACADEMIC, service=Service.NETFLIX,
                               application=application,
                               capture_duration=60.0, seed=1)
        result = run_session(self.nf_video(), config)
        analysis = analyze_session(result, use_true_rate=True)
        return detect_renditions(analysis.trace, duration=2400.0)

    def test_pc_prefetches_full_ladder(self):
        obs = self.observe(Application.FIREFOX)
        assert obs.count == 5
        assert sorted(r.rate_estimate_bps for r in obs.renditions) == \
            pytest.approx(list(NETFLIX_LADDER_BPS), rel=0.01)

    def test_ipad_prefetches_a_subset(self):
        obs = self.observe(Application.IOS)
        assert 1 <= obs.count <= 3
