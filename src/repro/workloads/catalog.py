"""Seeded synthesis of video catalogs.

The paper's datasets are samples of real 2011 YouTube/Netflix catalogs that
no longer exist; we synthesize catalogs with the *published* parameters
(dataset sizes, encoding-rate ranges, default resolutions — Section 4.1)
and defensible shape assumptions for what the paper does not publish:

* YouTube durations follow a lognormal with a median near 3.5 minutes
  (Cha et al. 2007, Gill et al. 2007 report medians in the 3-4 minute
  range), clipped to [30 s, 3600 s];
* Netflix titles are movies and TV episodes: a bimodal mix near 22 and
  95 minutes;
* encoding rates are drawn per resolution tier, uniform within the tier.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..simnet.rng import derive_seed
from .video import Variant, Video

MBPS = 1e6


@dataclass(frozen=True)
class ResolutionTier:
    """One resolution with its encoding-rate band."""

    name: str
    min_rate_bps: float
    max_rate_bps: float

    def sample_rate(self, rng: random.Random) -> float:
        return rng.uniform(self.min_rate_bps, self.max_rate_bps)


# YouTube tiers per the ranges of Section 4.1
TIER_240P = ResolutionTier("240p", 0.2 * MBPS, 0.7 * MBPS)
TIER_360P = ResolutionTier("360p", 0.4 * MBPS, 1.5 * MBPS)
TIER_360P_WEBM = ResolutionTier("360p", 0.2 * MBPS, 2.5 * MBPS)
TIER_480P = ResolutionTier("480p", 0.8 * MBPS, 2.7 * MBPS)
TIER_720P = ResolutionTier("720p", 1.5 * MBPS, 4.8 * MBPS)

#: Netflix offered a ladder of encoding rates per title (Akhshabi et al.).
NETFLIX_LADDER_BPS = (0.5 * MBPS, 1.0 * MBPS, 1.6 * MBPS, 2.6 * MBPS, 3.8 * MBPS)


def sample_youtube_duration(rng: random.Random) -> float:
    """Lognormal YouTube video duration, clipped to [30 s, 3600 s]."""
    duration = rng.lognormvariate(math.log(210.0), 0.75)
    return min(3600.0, max(30.0, duration))


def sample_netflix_duration(rng: random.Random) -> float:
    """Bimodal Netflix duration: TV episodes (~22 min) and films (~95 min)."""
    if rng.random() < 0.55:
        base = rng.gauss(22 * 60.0, 4 * 60.0)
    else:
        base = rng.gauss(95 * 60.0, 20 * 60.0)
    return min(4 * 3600.0, max(10 * 60.0, base))


class Catalog:
    """An ordered, named collection of videos."""

    def __init__(self, name: str, videos: Sequence[Video]) -> None:
        self.name = name
        self.videos: List[Video] = list(videos)
        if not self.videos:
            raise ValueError(f"catalog {name!r} is empty")

    def __len__(self) -> int:
        return len(self.videos)

    def __iter__(self):
        return iter(self.videos)

    def __getitem__(self, index: int) -> Video:
        return self.videos[index]

    def sample(self, n: int, rng: random.Random) -> List[Video]:
        """``n`` videos sampled without replacement (with, if n > size)."""
        if n <= len(self.videos):
            return rng.sample(self.videos, n)
        return [rng.choice(self.videos) for _ in range(n)]

    @property
    def mean_rate_bps(self) -> float:
        return sum(v.encoding_rate_bps for v in self.videos) / len(self.videos)

    def rate_range(self) -> Tuple[float, float]:
        rates = [v.encoding_rate_bps for v in self.videos]
        return min(rates), max(rates)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lo, hi = self.rate_range()
        return (
            f"Catalog({self.name!r}, n={len(self)}, "
            f"rates {lo / MBPS:.1f}-{hi / MBPS:.1f} Mbps)"
        )


def generate_youtube_catalog(
    name: str,
    size: int,
    tiers: Sequence[Tuple[ResolutionTier, float]],
    container: str,
    seed: int,
    duration_sampler: Callable[[random.Random], float] = sample_youtube_duration,
    min_duration: float = 0.0,
) -> Catalog:
    """Generate a YouTube-style catalog.

    ``tiers`` is a list of ``(tier, weight)`` pairs; each video draws its
    default resolution tier by weight and its rate uniformly inside it.
    """
    rng = random.Random(derive_seed(seed, f"catalog:{name}"))
    total_weight = sum(weight for _t, weight in tiers)
    videos = []
    for i in range(size):
        duration = duration_sampler(rng)
        if min_duration:
            duration = max(duration, min_duration)
        pick = rng.uniform(0.0, total_weight)
        acc = 0.0
        tier = tiers[-1][0]
        for candidate, weight in tiers:
            acc += weight
            if pick <= acc:
                tier = candidate
                break
        rate = tier.sample_rate(rng)
        # the mobile/HTML5 catalogs offer multiple renditions per video
        variants: Tuple[Variant, ...] = ()
        if container == "webm":
            lower = ("240p", max(0.2 * MBPS, rate * 0.45))
            higher = ("720p", min(4.8 * MBPS, rate * 2.2))
            variants = (lower, higher)
        videos.append(
            Video(
                video_id=f"{name.lower()}-{i:05d}",
                duration=duration,
                encoding_rate_bps=rate,
                resolution=tier.name,
                container=container,
                variants=variants,
            )
        )
    return Catalog(name, videos)


def generate_netflix_catalog(name: str, size: int, seed: int) -> Catalog:
    """Generate a Netflix-style catalog with the full encoding ladder."""
    rng = random.Random(derive_seed(seed, f"catalog:{name}"))
    videos = []
    ladder_names = ("480p-lo", "480p", "720p-lo", "720p", "1080p")
    for i in range(size):
        duration = sample_netflix_duration(rng)
        variants = tuple(zip(ladder_names, NETFLIX_LADDER_BPS))
        # default rendition: what the adaptive player settles on at good
        # bandwidth — the top of the ladder
        videos.append(
            Video(
                video_id=f"{name.lower()}-{i:05d}",
                duration=duration,
                encoding_rate_bps=NETFLIX_LADDER_BPS[-1],
                resolution=ladder_names[-1],
                container="silverlight",
                variants=variants,
            )
        )
    return Catalog(name, videos)
