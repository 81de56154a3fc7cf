"""End-to-end session tests: each player produces its published traffic shape."""

import pytest

from repro.analysis import analyze_session, median
from repro.simnet import RESEARCH, NetworkProfile
from repro.streaming import (
    Application,
    Container,
    Service,
    SessionConfig,
    StreamingStrategy,
    run_session,
)
from repro.workloads import MBPS, Video

FAST = NetworkProfile(
    name="Fast", down_bps=40e6, up_bps=40e6, rtt=0.02, loss_down=0.0,
    buffer_bytes=1024 * 1024,
)

KB = 1024
MB = 1024 * 1024


def yt_video(rate_mbps=1.0, duration=400.0, container="flv", resolution="360p"):
    return Video(
        video_id="v-test",
        duration=duration,
        encoding_rate_bps=rate_mbps * MBPS,
        resolution=resolution,
        container=container,
    )


def nf_video(duration=2400.0):
    ladder = ((u"480p-lo", 0.5 * MBPS), ("480p", 1.0 * MBPS),
              ("720p-lo", 1.6 * MBPS), ("720p", 2.6 * MBPS),
              ("1080p", 3.8 * MBPS))
    return Video(
        video_id="n-test",
        duration=duration,
        encoding_rate_bps=3.8 * MBPS,
        resolution="1080p",
        container="silverlight",
        variants=ladder,
    )


def stream(video, application, service=Service.YOUTUBE, container=None,
           duration=120.0, profile=FAST, seed=5, **kw):
    config = SessionConfig(profile=profile, service=service,
                           application=application, container=container,
                           capture_duration=duration, seed=seed, **kw)
    return run_session(video, config)


class TestFlashSessions:
    def test_short_onoff_with_64kb_blocks(self):
        res = stream(yt_video(), Application.FIREFOX)
        ana = analyze_session(res)
        assert ana.strategy is StreamingStrategy.SHORT_ONOFF
        assert median(ana.block_sizes) == pytest.approx(64 * KB, rel=0.1)

    def test_buffering_is_40s_of_playback(self):
        res = stream(yt_video(rate_mbps=0.8), Application.CHROME)
        ana = analyze_session(res)
        assert ana.buffering_playback_s == pytest.approx(40.0, rel=0.15)

    def test_accumulation_ratio_1_25(self):
        res = stream(yt_video(), Application.INTERNET_EXPLORER)
        ana = analyze_session(res)
        assert ana.accumulation_ratio == pytest.approx(1.25, rel=0.1)

    def test_rate_recovered_from_flv_header(self):
        res = stream(yt_video(rate_mbps=1.2), Application.FIREFOX)
        ana = analyze_session(res)
        assert ana.rate_estimate.method == "flv-header"
        assert ana.rate_estimate.rate_bps == pytest.approx(1.2 * MBPS)

    def test_identical_across_browsers(self):
        """Flash is server-paced: the browser must not matter (Table 1)."""
        strategies = set()
        for app in (Application.INTERNET_EXPLORER, Application.FIREFOX,
                    Application.CHROME):
            ana = analyze_session(stream(yt_video(), app))
            strategies.add(ana.strategy)
        assert strategies == {StreamingStrategy.SHORT_ONOFF}


class TestHtml5Sessions:
    def big_webm(self, rate_mbps=2.0):
        return yt_video(rate_mbps=rate_mbps, duration=300.0, container="webm")

    def test_ie_short_onoff_256kb(self):
        res = stream(self.big_webm(), Application.INTERNET_EXPLORER)
        ana = analyze_session(res)
        assert ana.strategy is StreamingStrategy.SHORT_ONOFF
        assert median(ana.block_sizes) == pytest.approx(256 * KB, rel=0.15)

    def test_ie_rate_estimated_from_content_length(self):
        res = stream(self.big_webm(rate_mbps=1.5), Application.INTERNET_EXPLORER)
        ana = analyze_session(res)
        assert ana.rate_estimate.method == "content-length"
        assert ana.rate_estimate.rate_bps == pytest.approx(1.5 * MBPS, rel=0.01)

    def test_firefox_no_onoff(self):
        res = stream(self.big_webm(), Application.FIREFOX)
        ana = analyze_session(res)
        assert ana.strategy is StreamingStrategy.NO_ONOFF
        assert not ana.phases.has_steady_state

    def test_chrome_long_onoff(self):
        res = stream(self.big_webm(), Application.CHROME, duration=150.0)
        ana = analyze_session(res)
        assert ana.strategy is StreamingStrategy.LONG_ONOFF
        assert median(ana.block_sizes) > 2.5 * MB

    def test_android_long_onoff_smaller_buffer(self):
        res = stream(self.big_webm(), Application.ANDROID, duration=150.0)
        ana = analyze_session(res)
        assert ana.strategy is StreamingStrategy.LONG_ONOFF
        assert ana.buffering_bytes < 10 * MB

    def test_ie_buffers_10_to_15_mb(self):
        res = stream(self.big_webm(), Application.INTERNET_EXPLORER)
        ana = analyze_session(res)
        assert 9 * MB <= ana.buffering_bytes <= 17 * MB

    def test_small_video_never_leaves_buffering(self):
        """A video smaller than the buffer target is a plain file transfer."""
        tiny = yt_video(rate_mbps=0.5, duration=60.0, container="webm")
        res = stream(tiny, Application.CHROME)
        ana = analyze_session(res)
        assert ana.strategy is StreamingStrategy.NO_ONOFF


class TestHdSessions:
    def test_hd_is_bulk_regardless_of_browser(self):
        video = yt_video(rate_mbps=3.5, duration=90.0, resolution="720p")
        for app in (Application.FIREFOX, Application.CHROME):
            res = stream(video, app, container=Container.FLASH_HD)
            ana = analyze_session(res)
            assert ana.strategy is StreamingStrategy.NO_ONOFF

    def test_hd_download_rate_tracks_bandwidth_not_encoding(self):
        video = yt_video(rate_mbps=2.0, duration=60.0, resolution="720p")
        res = stream(video, Application.FIREFOX, container=Container.FLASH_HD)
        ana = analyze_session(res)
        rate = ana.trace.download_rate_bps()
        assert rate > 3 * video.encoding_rate_bps  # link-limited, not paced


class TestIpadSessions:
    def test_mixed_strategy_high_rate(self):
        video = yt_video(rate_mbps=2.2, duration=300.0, container="webm")
        res = stream(video, Application.IOS, duration=150.0)
        ana = analyze_session(res, use_true_rate=True)
        assert ana.strategy in (StreamingStrategy.MIXED,
                                StreamingStrategy.SHORT_ONOFF,
                                StreamingStrategy.LONG_ONOFF)
        assert res.connections_opened > 10  # many successive connections

    def test_low_rate_uses_single_connection(self):
        video = Video(video_id="v-low", duration=400.0,
                      encoding_rate_bps=0.5 * MBPS, resolution="240p",
                      container="webm")
        res = stream(video, Application.IOS, duration=120.0)
        assert res.connections_opened <= 2


class TestNetflixSessions:
    def test_pc_short_onoff_many_connections(self):
        res = stream(nf_video(), Application.FIREFOX, service=Service.NETFLIX,
                     duration=120.0)
        ana = analyze_session(res)
        assert ana.strategy is StreamingStrategy.SHORT_ONOFF
        assert res.connections_opened > 10
        assert all(b < 2.5 * MB for b in ana.block_sizes)

    def test_pc_buffering_tens_of_mb(self):
        res = stream(nf_video(), Application.FIREFOX, service=Service.NETFLIX,
                     duration=120.0)
        ana = analyze_session(res)
        assert 35 * MB < ana.buffering_bytes < 65 * MB

    def test_ipad_buffers_less_than_pc(self):
        pc = analyze_session(stream(nf_video(), Application.FIREFOX,
                                    service=Service.NETFLIX, duration=100.0))
        ipad = analyze_session(stream(nf_video(), Application.IOS,
                                      service=Service.NETFLIX, duration=100.0))
        assert ipad.buffering_bytes < pc.buffering_bytes / 2

    def test_android_long_onoff_single_data_conn(self):
        res = stream(nf_video(), Application.ANDROID, service=Service.NETFLIX,
                     duration=150.0)
        ana = analyze_session(res)
        assert ana.strategy is StreamingStrategy.LONG_ONOFF
        assert res.connections_opened <= 7  # 5 buffering + 1 steady


class TestInterruption:
    def test_watching_fraction_stops_download(self):
        video = yt_video(rate_mbps=1.0, duration=300.0)
        full = stream(video, Application.FIREFOX, duration=170.0)
        cut = stream(video, Application.FIREFOX, duration=170.0,
                     watch_fraction=0.2)
        assert cut.interrupted
        assert not full.interrupted
        assert cut.downloaded < full.downloaded

    def test_unused_bytes_accounted(self):
        video = yt_video(rate_mbps=1.0, duration=300.0)
        cut = stream(video, Application.FIREFOX, duration=120.0,
                     watch_fraction=0.2)
        assert cut.unused_bytes > 0
        consumed = cut.playback_position_s * video.encoding_rate_bps / 8
        assert cut.unused_bytes == pytest.approx(cut.downloaded - consumed,
                                                 rel=0.01)

    def test_buffer_probe_series(self):
        video = yt_video(rate_mbps=1.0, duration=120.0)
        res = stream(video, Application.FIREFOX, duration=60.0,
                     probe_period=1.0)
        assert res.buffer_series is not None
        assert len(res.buffer_series) >= 55
        assert res.buffer_series.max() > 0


class TestReceiveWindowEvolution:
    def test_ie_window_periodically_empties(self):
        """Figure 2(b): IE's advertised window oscillates to ~zero."""
        video = yt_video(rate_mbps=2.0, duration=300.0, container="webm")
        res = stream(video, Application.INTERNET_EXPLORER, duration=90.0)
        ana = analyze_session(res)
        windows = ana.trace.window_series.values
        steady = windows[len(windows) // 2:]
        assert min(steady) < 64 * KB       # drains
        assert max(steady) > 256 * KB      # reopens

    def test_flash_window_stays_open(self):
        """Figure 2(b): no client throttling for Flash."""
        video = yt_video(rate_mbps=1.0, duration=300.0)
        res = stream(video, Application.INTERNET_EXPLORER, duration=90.0)
        ana = analyze_session(res)
        windows = ana.trace.window_series.values
        steady = windows[len(windows) // 2:]
        assert min(steady) > 128 * KB


class TestAdaptiveNetflix:
    """Akhshabi-style rendition adaptation (cited in Section 5)."""

    def _run(self, bandwidth_bps, capture):
        from dataclasses import replace

        from repro.simnet import ACADEMIC

        profile = replace(ACADEMIC, down_bps=bandwidth_bps)
        return stream(nf_video(), Application.FIREFOX,
                      service=Service.NETFLIX, profile=profile,
                      duration=capture)

    def test_fast_path_keeps_top_rendition(self):
        res = self._run(30e6, 90.0)
        assert res.playback_rate_bps == pytest.approx(3.8 * MBPS)

    def test_constrained_path_downshifts(self):
        res = self._run(3e6, 240.0)
        assert res.playback_rate_bps < 3.8 * MBPS
        # the selected rendition actually fits the pipe
        assert res.playback_rate_bps <= 3e6

    def test_very_slow_path_picks_low_ladder_rung(self):
        res = self._run(1.5e6, 420.0)
        assert res.playback_rate_bps <= 1.5e6
