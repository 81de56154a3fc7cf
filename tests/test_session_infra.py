"""Tests for session orchestration: determinism, pcap output, batch runs."""

import pytest

from repro.analysis import analyze_records, analyze_session
from repro.pcap import records_from_pcap
from repro.simnet import CLIENT_IP, RESEARCH, SERVER_IP
from repro.streaming import (
    Application,
    Container,
    Service,
    SessionConfig,
    run_session,
)
from repro.runner import SessionPlan, run_sessions
from repro.simnet.rng import derive_seed
from repro.workloads import MBPS, Video


def flash_video(vid="det", rate=0.8, duration=240.0):
    return Video(video_id=vid, duration=duration,
                 encoding_rate_bps=rate * MBPS, resolution="360p",
                 container="flv")


def config(**kw):
    defaults = dict(profile=RESEARCH, service=Service.YOUTUBE,
                    application=Application.FIREFOX,
                    container=Container.FLASH, capture_duration=45.0, seed=3)
    defaults.update(kw)
    return SessionConfig(**defaults)


def batch_plans(videos, cfg):
    """One engine plan per video, each on its own derived seed."""
    return [SessionPlan(video, SessionConfig(
                **{**vars(cfg), "seed": derive_seed(cfg.seed, str(i))}))
            for i, video in enumerate(videos)]


class TestDeterminism:
    def test_same_seed_identical_traces(self):
        a = run_session(flash_video(), config())
        b = run_session(flash_video(), config())
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra.timestamp == rb.timestamp
            assert ra.seq == rb.seq
            assert ra.payload_len == rb.payload_len

    def test_different_seed_differs_on_lossy_path(self):
        from repro.simnet import RESIDENCE

        a = run_session(flash_video(), config(profile=RESIDENCE, seed=1))
        b = run_session(flash_video(), config(profile=RESIDENCE, seed=2))
        assert [r.timestamp for r in a.records] != [r.timestamp for r in b.records]


class TestSessionPcapPath:
    def test_full_analysis_equivalence_via_pcap(self, tmp_path):
        result = run_session(flash_video(), config())
        path = str(tmp_path / "s.pcap")
        result.capture.write_pcap(path)
        direct = analyze_session(result)
        reparsed = analyze_records(records_from_pcap(path), CLIENT_IP,
                                   SERVER_IP,
                                   duration=result.video.duration)
        assert direct.strategy == reparsed.strategy
        assert direct.buffering_bytes == reparsed.buffering_bytes
        assert direct.block_sizes == reparsed.block_sizes
        assert direct.accumulation_ratio == pytest.approx(
            reparsed.accumulation_ratio)
        assert direct.encoding_rate_bps == pytest.approx(
            reparsed.encoding_rate_bps)


class TestRunSessions:
    def test_batch_runs_are_independent(self):
        videos = [flash_video(f"v{i}", rate=0.6 + 0.1 * i, duration=200.0)
                  for i in range(3)]
        results = run_sessions(batch_plans(videos,
                                           config(capture_duration=30.0)))
        assert len(results) == 3
        # each session saw only its own video
        for video, result in zip(videos, results):
            assert result.video.video_id == video.video_id
            assert result.downloaded > 0

    def test_batch_seeds_differ_per_session(self):
        videos = [flash_video("same", 0.6), flash_video("same", 0.6)]
        from repro.simnet import RESIDENCE

        results = run_sessions(batch_plans(
            videos, config(profile=RESIDENCE, capture_duration=30.0)))
        # same video but per-session derived seeds: lossy paths diverge
        a, b = results
        assert ([r.timestamp for r in a.records]
                != [r.timestamp for r in b.records])


class TestSessionAccounting:
    def test_duration_simulated_matches_capture(self):
        result = run_session(flash_video(), config(capture_duration=30.0))
        assert result.duration_simulated == pytest.approx(30.0)

    def test_server_served_one_request(self):
        result = run_session(flash_video(), config())
        assert result.server_requests == 1

    def test_records_are_client_vantage(self):
        """The capture behaves like tcpdump on the client machine: the
        SYN -> SYN-ACK gap is a full round-trip time."""
        result = run_session(flash_video(), config())
        syn = next(r for r in result.records
                   if r.is_syn and r.src_ip == CLIENT_IP)
        synack = next(r for r in result.records
                      if r.is_syn and r.src_ip == SERVER_IP)
        assert synack.timestamp - syn.timestamp == pytest.approx(
            RESEARCH.rtt, rel=0.2)
