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
from typing import Callable, Optional, Tuple

import numpy as np

from ..stats import HistogramSketch, MomentAccumulator
from ..workloads.arrivals import PoissonProcess
from ..workloads.catalog import Catalog
from .onoffrate import ConstantRate, GridShape, OnOffRate, RateProcess


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


#: Slack, in cycles, of the ON-candidate search of :func:`_cycling_on`:
#: far above the float error of the phase arithmetic (about 1e-12 of a
#: cycle on campaign horizons), so the search never drops a sample that
#: the exact ON test calls ON.
_TOL = 1e-7


def _first_at_or_after(
    times: np.ndarray,
    t0: np.ndarray,
    offset: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Per session, the first grid index ``k`` in ``[lo, hi)`` with
    ``times[k] - t0 >= offset``, else ``hi``.

    The test is monotone in ``k``: a float estimate is corrected by unit
    steps, each step evaluating the very expression of the ON test, so
    the threshold is exact.  An infinite ``offset`` gives ``hi``.
    """
    k = np.clip(np.ceil((t0 + offset) / dt), lo, hi).astype(np.int64)
    last = len(times) - 1
    while True:
        down = (k > lo) & (times[np.maximum(k - 1, 0)] - t0 >= offset)
        if not down.any():
            break
        k -= down
    while True:
        up = (k < hi) & (times[np.minimum(k, last)] - t0 < offset)
        if not up.any():
            break
        k += up
    return k


def _cycling_on(
    times: np.ndarray,
    t0: np.ndarray,
    start: np.ndarray,
    length: np.ndarray,
    shape: GridShape,
    dt: float,
) -> np.ndarray:
    """Grid indices of the ON samples of one video's sessions, each
    session ``s`` read over its cycling region ``start[s] + [0,
    length[s])``, past the buffering and before the download's end.

    Sample ``start + j`` sits ``gamma + F_j`` cycles (mod 1) into the
    ON/OFF pattern, with ``F_j = frac(j dt / P)`` shared by the video's
    sessions and ``gamma`` the session's phase at ``start``.  With the
    ``F_j`` sorted once, two ``searchsorted`` calls per session bound the
    samples within the tolerance of an ON span; only those get the exact
    float test, the same expressions the per-sample loop evaluated.
    """
    period = shape.period_s
    # float error of the phase, in cycles, grows with the times involved
    tol = _TOL + 2.0 ** -46 * (times[-1] + t0.max()) / period
    width = max(shape.full_on_s, shape.last_on_s) / period + 2 * tol
    steps = (np.arange(length.max()) * (dt / period)) % 1.0
    order = np.argsort(steps)
    # two laps of the sorted F_j: a span past 1 wraps round to 0
    laps = np.concatenate((steps[order], steps[order] + 1.0))
    order = np.concatenate((order, order))
    # cycles since the buffering ended, at ``start``: gamma is its fraction
    elapsed = (times[start] - t0 - shape.buffering_time) / period
    begin = (np.floor(elapsed) - elapsed - tol) % 1.0
    first = np.searchsorted(laps, begin)
    # a span of a whole cycle or more takes each sample once
    sizes = np.minimum(np.searchsorted(laps, begin + width) - first,
                       len(steps))
    owner = np.repeat(np.arange(len(t0)), sizes)
    j = order[np.arange(sizes.sum())
              + np.repeat(first - np.cumsum(sizes) + sizes, sizes)]
    keep = j < length[owner]
    j, owner = j[keep], owner[keep]
    k = start[owner] + j
    steady_t = times[k] - t0[owner] - shape.buffering_time
    cycle = np.floor(steady_t / period)
    phase = steady_t - cycle * period
    on = phase < np.where(cycle < shape.full_cycles, shape.full_on_s,
                          shape.last_on_s)
    return k[on]


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
    builds one rate process per distinct video, read through its
    :class:`~repro.model.onoffrate.GridShape`.  A session's samples are
    ON while buffering, then follow the ON/OFF cycles until the download
    ends; both ends are exact index thresholds, so the buffering prefix
    costs two count edges and only the cycling samples that can be ON
    get the float ON test (:func:`_cycling_on`).

    Each grid cell counts its ON sessions; ``grid = S[count]`` with ``S =
    cumsum([0, G, G, ...])``.  Summing the sessions' rates in arrival
    order from 0.0 gives the same float, since an OFF session adds +0.0:
    the grid is the same, bit for bit, as a session-by-session loop's.
    That needs every process to peak at ``peak_bps``.
    """
    arrivals = PoissonProcess(lam, rng).times_until(horizon)
    times = np.arange(int(horizon / dt) + 1) * dt
    if not arrivals:
        return times, np.zeros(len(times)), 0, 0.0

    # choice over the slots draws exactly what choice over the videos does
    slots = range(len(catalog.videos))
    picks = np.array([rng.choice(slots) for _ in arrivals])
    used, rows = np.unique(picks, return_inverse=True)
    shapes = []
    for slot in used.tolist():
        video = catalog.videos[slot]
        shape = strategy(video.size_bytes * 8.0, video.encoding_rate_bps,
                         peak_bps).grid_shape()
        if shape.peak_bps != peak_bps:
            raise ValueError(f"{video.video_id}: the process peaks at "
                             f"{shape.peak_bps!r}, not at {peak_bps!r}")
        shapes.append(shape)
    duration = np.array([shape.duration for shape in shapes])
    buffering = np.array([shape.buffering_time for shape in shapes])

    t0 = np.array(arrivals)
    lo = np.ceil(t0 / dt).astype(np.int64)
    hi = np.minimum(len(times) - 1,
                    ((t0 + duration[rows]) / dt).astype(np.int64)) + 1
    live = np.flatnonzero(hi > lo)
    t0, lo, hi, rows = t0[live], lo[live], hi[live], rows[live]
    # samples [lo, cycling) buffer, [cycling, done) cycle, [done, hi) idle
    cycling = _first_at_or_after(times, t0, buffering[rows], lo, hi, dt)
    done = _first_at_or_after(times, t0, duration[rows], cycling, hi, dt)
    edges = np.bincount(lo, minlength=len(times) + 1)
    edges -= np.bincount(cycling, minlength=len(times) + 1)
    count = np.cumsum(edges, out=edges)[:-1]
    cyclers = np.flatnonzero(done > cycling)
    cyclers = cyclers[np.argsort(rows[cyclers])]
    videos, firsts = np.unique(rows[cyclers], return_index=True)
    for video, group in zip(videos.tolist(), np.split(cyclers, firsts[1:])):
        np.add.at(count, _cycling_on(
            times, t0[group], cycling[group], done[group] - cycling[group],
            shapes[video], dt), 1)

    table = np.cumsum(np.concatenate(([0.0], np.full(count.max(),
                                                     float(peak_bps)))))
    return times, table[count], len(arrivals), float(duration.max())


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
