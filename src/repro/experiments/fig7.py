"""Figure 7 — YouTube on the iPad uses multiple strategies.

(a) Two videos: a high-encoding-rate one streams via periodic buffering
over many successive TCP connections (Video1: 37 connections in the first
minute, requests 64 kB - 8 MB); a low-rate one streams over a single
connection with short cycles (Video2).

(b) The mean block size grows with the encoding rate: the native player
picks renditions by bandwidth/device, so the strategy depends on the
encoding rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..analysis import analyze_session, correlation, format_table
from ..simnet import RESEARCH, TimeSeries
from ..streaming import (
    Application,
    Container,
    Service,
    SessionConfig,
    StreamingStrategy,
)
from ..tcp import SYN
from ..workloads import MBPS, Video, make_dataset
from .common import MB, SMALL, Scale, SessionPlan, pick_videos, run_sessions


@dataclass
class Fig7Video:
    label: str
    encoding_rate_bps: float
    connections: int
    connections_first_minute: int
    strategy: StreamingStrategy
    request_size_range: Tuple[float, float]
    download_series: TimeSeries


@dataclass
class Fig7Point:
    encoding_rate_bps: float
    mean_block: float       # per-session median block (robust "typical" size)


@dataclass
class Fig7Result:
    video1: Fig7Video
    video2: Fig7Video
    points: List[Fig7Point]
    rate_block_correlation: float

    def report(self) -> str:
        lines = ["Figure 7(a) — two iPad sessions (Research network)"]
        for v in (self.video1, self.video2):
            lo, hi = v.request_size_range
            lines.append(
                f"  {v.label}: rate={v.encoding_rate_bps / 1e6:.2f} Mbps  "
                f"strategy={v.strategy}  connections={v.connections} "
                f"(first 60 s: {v.connections_first_minute})  "
                f"blocks {lo / 1024:.0f} kB - {hi / MB:.1f} MB"
            )
        rows = [
            (f"{p.encoding_rate_bps / 1e6:.2f}", f"{p.mean_block / 1024:.0f}")
            for p in sorted(self.points, key=lambda p: p.encoding_rate_bps)
        ]
        table = format_table(
            ["EncodingRate(Mbps)", "MeanBlock(kB)"],
            rows,
            title="Figure 7(b) — block size grows with encoding rate",
        )
        return (
            "\n".join(lines)
            + "\n\n" + table
            + f"\n\ncorr(encoding rate, mean block) = "
              f"{self.rate_block_correlation:.2f}"
        )


def _ipad_plan(video: Video, scale: Scale, seed: int) -> SessionPlan:
    return SessionPlan(video, SessionConfig(
        profile=RESEARCH,
        service=Service.YOUTUBE,
        application=Application.IOS,
        container=Container.HTML5,
        capture_duration=scale.capture_duration,
        seed=seed,
    ))


def _trace(video: Video, result) -> Fig7Video:
    analysis = analyze_session(result, use_true_rate=True)
    blocks = analysis.block_sizes
    # connections opened in the first minute: SYNs from the client
    view = result.capture.columns()
    from_client = np.array([key[0] == result.client_ip
                            for key in view.flow_table], dtype=bool)
    first_minute = int(np.count_nonzero(
        ((view.flags & SYN) != 0) & from_client[view.flow_ids]
        & (view.timestamps <= 60.0)))
    label = "Video1" if video.encoding_rate_bps >= 1e6 else "Video2"
    return Fig7Video(
        label=label,
        encoding_rate_bps=video.encoding_rate_bps,
        connections=result.connections_opened,
        connections_first_minute=first_minute,
        strategy=analysis.strategy,
        request_size_range=(min(blocks), max(blocks)) if blocks else (0.0, 0.0),
        download_series=analysis.trace.cumulative_series(),
    )


def run(scale: Scale = SMALL, seed: int = 0) -> Fig7Result:
    video1 = Video(
        video_id="fig7-video1", duration=400.0, encoding_rate_bps=2.4 * MBPS,
        resolution="480p", container="webm",
        variants=(("240p", 0.6 * MBPS), ("720p", 4.0 * MBPS)),
    )
    video2 = Video(
        video_id="fig7-video2", duration=500.0, encoding_rate_bps=0.5 * MBPS,
        resolution="240p", container="webm",
    )
    from ..analysis import median as _median

    catalog = make_dataset("YouMob", seed=seed, scale=max(0.05, scale.catalog_scale))
    videos = pick_videos(catalog, max(8, scale.sessions_per_cell), seed,
                         min_size_bytes=15 * MB, max_size_bytes=200 * MB)
    plans = [_ipad_plan(video1, scale, seed), _ipad_plan(video2, scale, seed + 1)]
    plans += [_ipad_plan(video, scale, seed + 13 * i)
              for i, video in enumerate(videos)]
    results = run_sessions(plans)

    trace1 = _trace(video1, results[0])
    trace2 = _trace(video2, results[1])

    points: List[Fig7Point] = []
    for video, result in zip(videos, results[2:]):
        analysis = analyze_session(result, use_true_rate=True)
        if analysis.block_sizes:
            # the device may stream a different rendition than the default
            rate = result.playback_rate_bps
            points.append(Fig7Point(rate, _median(analysis.block_sizes)))
    corr = (
        correlation([p.encoding_rate_bps for p in points],
                    [p.mean_block for p in points])
        if len(points) > 1 else 0.0
    )
    return Fig7Result(video1=trace1, video2=trace2, points=points,
                      rate_block_correlation=corr)
