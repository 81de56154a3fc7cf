"""Monte-Carlo validation of the aggregate-traffic model (Section 6).

Generates a long horizon of Poisson session arrivals, assigns each session
a download-rate process (constant / short ON-OFF / long ON-OFF), samples
the aggregate rate R(t) on a fine grid, and compares the empirical mean
and variance against Equations (3) and (4).  This is how the model
benchmarks demonstrate the strategy-invariance result numerically.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..stats import HistogramSketch, MomentAccumulator
from ..workloads.arrivals import PoissonProcess
from ..workloads.catalog import Catalog
from .onoffrate import ConstantRate, OnOffRate, RateProcess


@dataclass
class AggregateSample:
    """Empirical statistics of one Monte-Carlo run."""

    mean_bps: float
    variance_bps2: float
    horizon: float
    sessions: int
    warmup: float

    @property
    def std_bps(self) -> float:
        return math.sqrt(self.variance_bps2)


@dataclass
class AggregateMoments:
    """Mergeable statistics of one or more Monte-Carlo runs.

    The sharded counterpart of :class:`AggregateSample`: instead of a
    finished mean/variance pair it carries the grid samples' streaming
    moments and histogram sketch (:mod:`repro.stats`), so independent
    runs over disjoint horizon chunks — the shards of one campaign —
    merge into the statistics of the whole horizon.  Each shard excludes
    its own warmup, so every retained grid sample is a steady-state
    sample and pooling them is unbiased.
    """

    moments: MomentAccumulator
    sketch: HistogramSketch
    sessions: int
    horizon: float
    warmup: float

    @property
    def mean_bps(self) -> float:
        return self.moments.mean

    @property
    def variance_bps2(self) -> float:
        return self.moments.variance

    @property
    def std_bps(self) -> float:
        return self.moments.std

    def merge(self, other: "AggregateMoments") -> "AggregateMoments":
        """Fold another run in (``other`` is left untouched)."""
        merged = MomentAccumulator()
        merged.merge(self.moments)
        self.moments = merged
        self.moments.merge(other.moments)
        fresh = HistogramSketch(bins_per_decade=self.sketch.bins_per_decade)
        fresh.merge(self.sketch)
        fresh.merge(other.sketch)
        self.sketch = fresh
        self.sessions += other.sessions
        self.horizon += other.horizon
        self.warmup += other.warmup
        return self

    def sample(self) -> AggregateSample:
        """The equivalent finished :class:`AggregateSample` view."""
        return AggregateSample(
            mean_bps=self.mean_bps,
            variance_bps2=self.variance_bps2,
            horizon=self.horizon,
            sessions=self.sessions,
            warmup=self.warmup,
        )


StrategyFactory = Callable[[float, float, float], RateProcess]
# (size_bits, encoding_rate_bps, peak_bps) -> RateProcess


def constant_strategy(size_bits: float, _e: float, peak: float) -> RateProcess:
    """The no ON-OFF strategy."""
    return ConstantRate(size_bits, peak)


def short_onoff_strategy(
    block_bytes: int = 64 * 1024,
    accumulation_ratio: float = 1.25,
    buffering_playback_s: float = 40.0,
) -> StrategyFactory:
    """Factory of Flash-style short-cycle processes."""

    def build(size_bits: float, e: float, peak: float) -> RateProcess:
        average = min(accumulation_ratio * e, peak)
        duty = average / peak
        block_bits = block_bytes * 8
        period = block_bits / (duty * peak)
        buffering = min(size_bits, buffering_playback_s * e)
        return OnOffRate(size_bits, peak, period, duty, buffering)

    return build


def long_onoff_strategy(
    block_bytes: int = 5 * 1024 * 1024,
    accumulation_ratio: float = 1.25,
    buffering_playback_s: float = 60.0,
) -> StrategyFactory:
    """Factory of Chrome/Android-style long-cycle processes."""
    return short_onoff_strategy(block_bytes, accumulation_ratio,
                                buffering_playback_s)


#: Grid samples per vectorized pass of :func:`_simulate_grid`: enough to
#: amortize numpy's per-call cost, few enough that a pass's temporaries
#: stay small beside the grid itself.
_CHUNK_SAMPLES = 8192


def _simulate_grid(
    catalog: Catalog,
    lam: float,
    horizon: float,
    strategy: StrategyFactory,
    peak_bps: float,
    dt: float,
    rng: random.Random,
) -> Tuple[np.ndarray, np.ndarray, int, float]:
    """Build the aggregate-rate grid R(t) for one Poisson arrival run.

    Returns ``(times, grid, sessions, max_duration)``; callers apply
    their own warmup policy to the grid.

    Every arrival draws its video with one ``rng.choice``; the strategy
    builds one rate process per distinct video.  Sessions are then
    sampled in arrival-order chunks of about ``_CHUNK_SAMPLES`` grid
    samples, each sample's ON test reading the process's
    :class:`~repro.model.onoffrate.GridShape`.  ``np.add.at`` adds a
    chunk's samples in order, so each grid cell sums its sessions' rates
    in arrival order: the grid is the same, bit for bit, as a
    session-by-session loop's.
    """
    arrivals = PoissonProcess(lam, rng).times_until(horizon)
    grid = np.zeros(int(horizon / dt) + 1)
    times = np.arange(len(grid)) * dt
    if not arrivals:
        return times, grid, 0, 0.0

    # choice over the slots draws exactly what choice over the videos does
    slots = range(len(catalog.videos))
    picks = np.array([rng.choice(slots) for _ in arrivals])
    used, rows = np.unique(picks, return_inverse=True)
    shapes = []
    for slot in used.tolist():
        video = catalog.videos[slot]
        process = strategy(video.size_bytes * 8.0, video.encoding_rate_bps,
                           peak_bps)
        shapes.append(process.grid_shape())
    (duration, buffering, period, full_cycles, full_on, last_on,
     peak) = np.array(shapes, dtype=float)[rows].T

    t0 = np.array(arrivals)
    lo = np.ceil(t0 / dt).astype(np.int64)
    hi = np.minimum(len(grid) - 1, ((t0 + duration) / dt).astype(np.int64))
    counts = np.maximum(hi - lo + 1, 0)
    live = np.flatnonzero(counts)
    ends = np.cumsum(counts[live])
    start = 0
    # a ConstantRate buffers forever: its cycle arithmetic is NaN, unread
    with np.errstate(invalid="ignore"):
        while start < live.size:
            reach = (ends[start - 1] if start else 0) + _CHUNK_SAMPLES
            stop = max(start + 1, int(np.searchsorted(ends, reach, "right")))
            chunk = live[start:stop]
            n = counts[chunk]
            idx = np.arange(n.sum()) + np.repeat(lo[chunk] - np.cumsum(n) + n,
                                                 n)
            local = times[idx] - np.repeat(t0[chunk], n)
            buffer_end = np.repeat(buffering[chunk], n)
            cycle_s = np.repeat(period[chunk], n)
            steady_t = local - buffer_end
            cycle = np.floor(steady_t / cycle_s)
            phase = steady_t - cycle * cycle_s
            on = phase < np.where(cycle < np.repeat(full_cycles[chunk], n),
                                  np.repeat(full_on[chunk], n),
                                  np.repeat(last_on[chunk], n))
            on &= local < np.repeat(duration[chunk], n)
            on |= local < buffer_end
            # an OFF sample adds +0.0, which leaves its cell unchanged
            np.add.at(grid, idx, on * np.repeat(peak[chunk], n))
            start = stop

    return times, grid, len(arrivals), float(duration.max())


def _steady_samples(
    times: np.ndarray,
    grid: np.ndarray,
    horizon: float,
    max_duration: float,
    warmup: Optional[float],
) -> Tuple[np.ndarray, float]:
    """Drop the warmup prefix (default: 3x the longest download, capped
    at a quarter of the horizon) so only steady-state samples remain."""
    if warmup is None:
        warmup = min(horizon / 4, 3 * max_duration if max_duration else horizon / 4)
    samples = grid[times >= warmup]
    if samples.size < 2:
        raise ValueError("horizon too short for the requested warmup")
    return samples, warmup


def simulate_aggregate(
    catalog: Catalog,
    lam: float,
    horizon: float,
    strategy: StrategyFactory,
    *,
    peak_bps: float = 10e6,
    dt: float = 0.5,
    warmup: Optional[float] = None,
    rng: Optional[random.Random] = None,
    seed: int = 0,
) -> AggregateSample:
    """Sample the aggregate rate of Poisson video sessions.

    ``warmup`` (default: 3x the longest download among the run's
    sessions, capped at a quarter of the horizon) is excluded from the
    statistics so the process is in steady state.
    """
    if rng is None:
        rng = random.Random(seed)
    times, grid, sessions, max_duration = _simulate_grid(
        catalog, lam, horizon, strategy, peak_bps, dt, rng)
    samples, warmup = _steady_samples(times, grid, horizon, max_duration,
                                      warmup)
    return AggregateSample(
        mean_bps=float(samples.mean()),
        variance_bps2=float(samples.var()),
        horizon=horizon,
        sessions=sessions,
        warmup=warmup,
    )


def simulate_aggregate_moments(
    catalog: Catalog,
    lam: float,
    horizon: float,
    strategy: StrategyFactory,
    *,
    peak_bps: float = 10e6,
    dt: float = 0.5,
    warmup: Optional[float] = None,
    rng: Optional[random.Random] = None,
    seed: int = 0,
) -> AggregateMoments:
    """Like :func:`simulate_aggregate`, but return mergeable moments.

    The run's steady-state grid samples fold into a streaming
    :class:`~repro.stats.MomentAccumulator` and
    :class:`~repro.stats.HistogramSketch` instead of a finished
    mean/variance, so shards of one campaign — independent seeds over
    horizon chunks — combine via :meth:`AggregateMoments.merge` into the
    statistics of the pooled horizon.  On the same inputs,
    ``simulate_aggregate_moments(...).sample()`` agrees with
    :func:`simulate_aggregate` exactly in session count and to float
    rounding in mean/variance.
    """
    if rng is None:
        rng = random.Random(seed)
    times, grid, sessions, max_duration = _simulate_grid(
        catalog, lam, horizon, strategy, peak_bps, dt, rng)
    samples, warmup = _steady_samples(times, grid, horizon, max_duration,
                                      warmup)
    moments = MomentAccumulator()
    moments.add_many(samples)
    sketch = HistogramSketch()
    sketch.observe_many(samples)
    return AggregateMoments(
        moments=moments,
        sketch=sketch,
        sessions=sessions,
        horizon=horizon,
        warmup=warmup,
    )


def simulate_wasted_bandwidth(
    catalog: Catalog,
    lam: float,
    horizon: float,
    *,
    buffering_playback_s: float,
    accumulation_ratio: float,
    beta_sampler: Callable[[random.Random, float], float],
    rng: Optional[random.Random] = None,
    seed: int = 0,
) -> float:
    """Empirical wasted-bandwidth rate E[R'] (bits/second).

    Each arriving session draws a watch fraction from ``beta_sampler`` and
    wastes ``e * (min(B' + k beta L, L) - beta L)`` bits; the long-run
    wasted rate is total waste / horizon, which converges to Eq. (9).
    """
    if rng is None:
        rng = random.Random(seed)
    arrivals = PoissonProcess(lam, rng).times_until(horizon)
    total_bits = 0.0
    for _t0 in arrivals:
        video = rng.choice(catalog.videos)
        beta = beta_sampler(rng, video.duration)
        if beta >= 1.0:
            continue
        downloaded_s = min(
            buffering_playback_s + accumulation_ratio * beta * video.duration,
            video.duration,
        )
        wasted_s = max(0.0, downloaded_s - beta * video.duration)
        total_bits += video.encoding_rate_bps * wasted_s
    return total_bits / horizon
