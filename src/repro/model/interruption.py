"""Interrupted downloads and wasted bandwidth (Section 6.2, Eqs (5)-(9)).

When the viewer abandons the n-th video after watching a fraction
``beta_n`` of it, the bytes downloaded beyond the watch point are wasted.
With buffering amount ``B_n`` (downloaded "instantly"), accumulation ratio
``k_n = G_n / e_n`` and watch time ``tau_n = beta_n * L_n``:

* the interruption strikes before the download finishes iff
  ``e L > B + G tau``   (Eq. (5)), i.e. ``B' < L (1 - k beta)`` with
  ``B = e B'``         (Eq. (7));
* the unused bytes are ``min(B + G tau, e L) - e tau``  (from Eq. (8));
* the average wasted bandwidth is
  ``E[R'] = lam E[e] E[min(B' + k beta L, L) - beta L]``  (Eq. (9)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple


def critical_duration(
    buffering_playback_s: float,
    accumulation_ratio: float,
    watch_fraction: float,
) -> float:
    """The video duration below which the whole video is always downloaded
    before a viewer quitting at ``watch_fraction`` of it.

    The paper's worked example: B' = 40 s, k = 1.25, beta = 0.2 gives
    L = 40 / (1 - 0.25) = 53.3 s — Flash videos shorter than this are
    fully fetched even though only 20 % gets watched.
    """
    if buffering_playback_s < 0:
        raise ValueError("buffering playback time must be >= 0")
    if accumulation_ratio < 1.0:
        raise ValueError("accumulation ratio must be >= 1")
    if not 0.0 < watch_fraction < 1.0:
        raise ValueError("watch fraction must be in (0, 1)")
    share = 1.0 - accumulation_ratio * watch_fraction
    if share <= 0.0:
        return math.inf   # k*beta >= 1: downloads always complete first
    return buffering_playback_s / share


def unused_bytes(
    encoding_rate_bps: float,
    duration: float,
    buffering_bytes: float,
    download_rate_bps: float,
    watch_time_s: float,
) -> float:
    """Unused bytes for one interrupted session (Eq. (8)'s integrand):
    ``min(B + G tau, e L) - e tau`` (in bytes; rates in bits/second)."""
    if encoding_rate_bps <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    if watch_time_s < 0 or buffering_bytes < 0 or download_rate_bps < 0:
        raise ValueError("negative inputs")
    downloaded = min(
        buffering_bytes + download_rate_bps * watch_time_s / 8,
        encoding_rate_bps * duration / 8,
    )
    consumed = encoding_rate_bps * min(watch_time_s, duration) / 8
    return max(0.0, downloaded - consumed)


def unused_playback_seconds(
    duration: float,
    buffering_playback_s: float,
    accumulation_ratio: float,
    watch_fraction: float,
) -> float:
    """Eq. (9)'s kernel in playback-time units:
    ``min(B' + k beta L, L) - beta L``."""
    _check_params(duration, buffering_playback_s, accumulation_ratio,
                  watch_fraction)
    downloaded = min(
        buffering_playback_s + accumulation_ratio * watch_fraction * duration,
        duration,
    )
    return max(0.0, downloaded - watch_fraction * duration)


def wasted_bandwidth_exact(
    lam: float,
    sessions: Iterable[Tuple[float, float, float]],
    buffering_playback_s: float,
    accumulation_ratio: float,
) -> float:
    """Equation (8) as an exact per-session expectation.

    ``sessions`` yields ``(encoding_rate_bps, duration_s, beta)`` triples;
    the result is E[R'] in bits/second: ``lam * E[e * unused_playback]``.
    """
    if lam <= 0:
        raise ValueError(f"arrival rate must be positive, got {lam!r}")
    total = 0.0
    count = 0
    for rate, duration, beta in sessions:
        if beta >= 1.0:
            count += 1
            continue  # completed views waste nothing
        total += rate * unused_playback_seconds(
            duration, buffering_playback_s, accumulation_ratio, beta)
        count += 1
    if count == 0:
        raise ValueError("no sessions supplied")
    return lam * total / count


def wasted_bandwidth_factored(
    lam: float,
    mean_rate_bps: float,
    durations: Sequence[float],
    betas: Sequence[float],
    buffering_playback_s: float,
    accumulation_ratio: float,
) -> float:
    """Equation (9): ``lam * E[e] * E[min(B' + k beta L, L) - beta L]``
    (rate assumed independent of duration and beta)."""
    if len(durations) != len(betas):
        raise ValueError("durations and betas must align")
    if not durations:
        raise ValueError("no sessions supplied")
    kernel = [
        0.0 if beta >= 1.0 else unused_playback_seconds(
            duration, buffering_playback_s, accumulation_ratio, beta)
        for duration, beta in zip(durations, betas)
    ]
    return lam * mean_rate_bps * sum(kernel) / len(kernel)


@dataclass(frozen=True)
class WasteSweepPoint:
    """One point of a buffering/accumulation what-if sweep."""

    buffering_playback_s: float
    accumulation_ratio: float
    wasted_bps: float
    wasted_share: float           # wasted / useful aggregate rate


def waste_sweep(
    lam: float,
    sessions: Sequence[Tuple[float, float, float]],
    buffering_values: Sequence[float],
    accumulation_values: Sequence[float],
) -> list:
    """Sweep (B', k) and report the wasted bandwidth at each point —
    the "parameters that can be adapted to minimize unused bytes"
    recommendation of the conclusion."""
    useful = lam * sum(r * d * min(b, 1.0) for r, d, b in sessions) / len(sessions)
    points = []
    for buffering in buffering_values:
        for k in accumulation_values:
            wasted = wasted_bandwidth_exact(lam, sessions, buffering, k)
            points.append(WasteSweepPoint(
                buffering_playback_s=buffering,
                accumulation_ratio=k,
                wasted_bps=wasted,
                wasted_share=wasted / useful if useful > 0 else math.inf,
            ))
    return points


def _check_params(duration, buffering_playback_s, accumulation_ratio,
                  watch_fraction) -> None:
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration!r}")
    if buffering_playback_s < 0:
        raise ValueError("buffering playback time must be >= 0")
    if accumulation_ratio < 1.0:
        raise ValueError(
            f"accumulation ratio must be >= 1, got {accumulation_ratio!r}")
    if not 0.0 <= watch_fraction <= 1.0:
        raise ValueError(
            f"watch fraction must be in [0, 1], got {watch_fraction!r}")
