"""The paper's six datasets (Section 4.1), synthesized at full or scaled size.

=========  =====  =========================  ==========  ===================
Dataset    Size   Encoding rates             Container   Default resolution
=========  =====  =========================  ==========  ===================
YouFlash   5000   0.2 - 1.5 Mbps             Flash       240p / 360p
YouHD      2000   0.2 - 4.8 Mbps             Flash       720p
YouHtml    3000   0.2 - 2.5 Mbps             HTML5       360p
YouMob     1000   0.2 - 2.7 Mbps             HTML5       (device-dependent)
NetPC       200   ladder 0.5 - 3.8 Mbps      Silverlight adaptive
NetMob       50   subset of NetPC            Silverlight adaptive
=========  =====  =========================  ==========  ===================

``scale`` shrinks every dataset proportionally so tests and benchmarks run
in seconds; ``scale=1.0`` reproduces the paper's sizes.
"""

from __future__ import annotations

import random
from typing import Optional

from ..simnet.rng import derive_seed
from .catalog import (
    MBPS,
    TIER_240P,
    TIER_360P,
    TIER_360P_WEBM,
    TIER_480P,
    TIER_720P,
    Catalog,
    generate_netflix_catalog,
    generate_youtube_catalog,
)
from .video import Video

FULL_SIZES = {
    "YouFlash": 5000,
    "YouHD": 2000,
    "YouHtml": 3000,
    "YouMob": 1000,
    "NetPC": 200,
    "NetMob": 50,
}

DATASET_NAMES = tuple(FULL_SIZES)


def _scaled(name: str, scale: float, minimum: int = 8) -> int:
    return max(minimum, int(round(FULL_SIZES[name] * scale)))


def make_youflash(seed: int = 0, scale: float = 1.0) -> Catalog:
    """YouTube Flash videos at default resolution (240p/360p)."""
    return generate_youtube_catalog(
        "YouFlash",
        _scaled("YouFlash", scale),
        tiers=[(TIER_240P, 0.35), (TIER_360P, 0.65)],
        container="flv",
        seed=seed,
    )


def make_youhd(seed: int = 0, scale: float = 1.0) -> Catalog:
    """YouTube HD videos (720p, streamed over Flash)."""
    return generate_youtube_catalog(
        "YouHD",
        _scaled("YouHD", scale),
        tiers=[(TIER_720P, 1.0)],
        container="flv",
        seed=seed,
    )


def make_youhtml(seed: int = 0, scale: float = 1.0) -> Catalog:
    """YouTube HTML5 videos: YouFlash/YouHD titles re-served as webM at 360p.

    The paper built YouHtml from 2500 YouFlash videos plus 500 YouHD
    videos, all streamed at the HTML5 default of 360p with rates up to
    2.5 Mbps; we synthesize the same 5:1 mixture.
    """
    size = _scaled("YouHtml", scale)
    hd_part = max(1, size // 6)
    flash_part = size - hd_part
    base = generate_youtube_catalog(
        "YouHtml-flash",
        flash_part,
        tiers=[(TIER_360P_WEBM, 1.0)],
        container="webm",
        seed=derive_seed(seed, "youhtml-flashpart"),
    )
    hd = generate_youtube_catalog(
        "YouHtml-hd",
        hd_part,
        tiers=[(TIER_360P_WEBM, 1.0)],
        container="webm",
        seed=derive_seed(seed, "youhtml-hdpart"),
    )
    videos = list(base) + list(hd)
    renamed = [
        Video(
            video_id=f"youhtml-{i:05d}",
            duration=v.duration,
            encoding_rate_bps=v.encoding_rate_bps,
            resolution="360p",
            container="webm",
            variants=v.variants,
        )
        for i, v in enumerate(videos)
    ]
    return Catalog("YouHtml", renamed)


def make_youmob(seed: int = 0, scale: float = 1.0) -> Catalog:
    """Videos playable by the native mobile applications (0.2-2.7 Mbps)."""
    return generate_youtube_catalog(
        "YouMob",
        _scaled("YouMob", scale),
        tiers=[(TIER_360P_WEBM, 0.6), (TIER_480P, 0.4)],
        container="webm",
        seed=seed,
    )


def make_netpc(seed: int = 0, scale: float = 1.0) -> Catalog:
    """200 titles sampled from the 11208 watch-instantly list of 2011."""
    return generate_netflix_catalog("NetPC", _scaled("NetPC", scale), seed=seed)


def make_netmob(seed: int = 0, scale: float = 1.0, netpc: Optional[Catalog] = None) -> Catalog:
    """50 titles randomly selected from the NetPC dataset."""
    source = netpc if netpc is not None else make_netpc(seed=seed, scale=scale)
    rng = random.Random(derive_seed(seed, "netmob-selection"))
    want = min(_scaled("NetMob", scale), len(source))
    picked = rng.sample(source.videos, want)
    return Catalog("NetMob", picked)


_FACTORIES = {
    "YouFlash": make_youflash,
    "YouHD": make_youhd,
    "YouHtml": make_youhtml,
    "YouMob": make_youmob,
    "NetPC": make_netpc,
    "NetMob": make_netmob,
}


def make_dataset(name: str, seed: int = 0, scale: float = 1.0) -> Catalog:
    """Build any of the six datasets by name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; know {sorted(_FACTORIES)}") from None
    return factory(seed=seed, scale=scale)
