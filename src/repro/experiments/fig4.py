"""Figure 4 — steady state of Flash videos.

(a) Block sizes: the servers push 64 kB blocks; the dominant block size is
64 kB in every network, with loss-induced merging (larger) and splitting
(smaller) in the lossy networks.

(b) Accumulation ratio: ~1.25 in every network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis import (
    analyze_session,
    dominant_value,
    format_table,
    fraction_within,
    median,
)
from ..simnet import PROFILE_ORDER, get_profile
from ..streaming import (
    Application,
    Container,
    Service,
    SessionConfig,
)
from ..workloads import make_dataset
from .common import SMALL, Scale, SessionPlan, pick_videos, run_sessions

KB = 1024


@dataclass
class Fig4Network:
    network: str
    block_sizes: List[int]
    accumulation_ratios: List[float]

    @property
    def dominant_block(self) -> float:
        return dominant_value(self.block_sizes, bin_width=8 * KB) or 0.0


@dataclass
class Fig4Result:
    networks: List[Fig4Network]

    def report(self) -> str:
        rows = []
        for net in self.networks:
            share_64k = fraction_within(
                net.block_sizes, 56 * KB, 72 * KB) if net.block_sizes else 0.0
            rows.append((
                net.network,
                f"{net.dominant_block / KB:.0f}",
                f"{share_64k:.0%}",
                f"{median(net.block_sizes) / KB:.0f}" if net.block_sizes else "-",
                f"{median(net.accumulation_ratios):.2f}"
                if net.accumulation_ratios else "-",
            ))
        return format_table(
            ["Network", "DominantBlk(kB)", "near64kB", "MedianBlk(kB)",
             "MedianAccum"],
            rows,
            title=("Figure 4 — Flash steady state: 64 kB blocks, "
                   "accumulation ratio ~1.25"),
        )


def run(scale: Scale = SMALL, seed: int = 0) -> Fig4Result:
    catalog = make_dataset("YouFlash", seed=seed,
                           scale=max(0.02, scale.catalog_scale))
    videos = pick_videos(catalog, scale.sessions_per_cell, seed,
                         min_duration=150.0)
    plans = [
        SessionPlan(video, SessionConfig(
            profile=get_profile(name),
            service=Service.YOUTUBE,
            application=Application.CHROME,
            container=Container.FLASH,
            capture_duration=scale.capture_duration,
            seed=seed + 31 * i,
        ))
        for name in PROFILE_ORDER
        for i, video in enumerate(videos)
    ]
    results = iter(run_sessions(plans))

    networks = []
    for name in PROFILE_ORDER:
        blocks: List[int] = []
        ratios: List[float] = []
        for _video in videos:
            analysis = analyze_session(next(results))
            blocks.extend(analysis.block_sizes)
            ratio = analysis.accumulation_ratio
            if ratio is not None:
                ratios.append(ratio)
        networks.append(Fig4Network(name, blocks, ratios))
    return Fig4Result(networks)
