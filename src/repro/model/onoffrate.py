"""Per-session download-rate processes and the strategy-invariance result.

Section 6.1's key observation: if the instantaneous download rate only
takes the values {0, G_n}, then

    integral_0^D X_n^2(u) du = G_n * integral_0^D X_n(u) du = G_n * S_n

*independent of how the ON and OFF periods are arranged*.  Bulk transfer,
short cycles and long cycles therefore all produce the same aggregate mean
and variance (and, by the same argument, the same higher moments).  These
classes make the invariance computable and testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


class GridShape(NamedTuple):
    """A rate process's ON/OFF layout, in the form a sampling grid reads it.

    At session time ``u``: X = ``peak_bps`` while ``u < buffering_time``;
    after that, while ``u < duration``, cycle ``c = floor((u -
    buffering_time) / period_s)`` is ON for its first ``full_on_s``
    seconds if ``c < full_cycles``, else for ``last_on_s`` seconds (the
    final partial block), and X = 0 otherwise.
    """

    duration: float
    buffering_time: float
    period_s: float
    full_cycles: int
    full_on_s: float
    last_on_s: float
    peak_bps: float


class RateProcess:
    """A session's download-rate function X(t) on [0, D]."""

    @property
    def duration(self) -> float:
        """Time to download the whole video, D."""
        raise NotImplementedError

    def grid_shape(self) -> GridShape:
        """The process's ON/OFF layout, for vectorized grid sampling."""
        raise NotImplementedError

    def integral_rate_squared(self) -> float:
        """integral X^2(u) du over [0, D] (drives the variance, Eq. (2))."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantRate(RateProcess):
    """The no ON-OFF strategy: X(t) = G for the whole download."""

    size_bits: float
    peak_bps: float

    def __post_init__(self):
        _check(self.size_bits, self.peak_bps)

    @property
    def duration(self) -> float:
        return self.size_bits / self.peak_bps

    def grid_shape(self) -> GridShape:
        # buffering forever: every sample of the download is ON
        return GridShape(self.duration, math.inf, math.inf, 0, 0.0, 0.0,
                         self.peak_bps)

    def integral_rate_squared(self) -> float:
        return self.size_bits * self.peak_bps


@dataclass(frozen=True)
class OnOffRate(RateProcess):
    """Short or long ON-OFF cycles: X alternates between G and 0.

    ``duty`` is the ON fraction of each cycle; the average rate is
    ``duty * G = k * e`` for accumulation ratio k.  ``period`` sets the
    cycle length (block size = duty * period * G bits).
    """

    size_bits: float
    peak_bps: float
    period_s: float
    duty: float
    buffering_bits: float = 0.0   # pushed at peak rate before cycling starts

    def __post_init__(self):
        _check(self.size_bits, self.peak_bps)
        if not 0.0 < self.duty <= 1.0:
            raise ValueError(f"duty must be in (0, 1], got {self.duty!r}")
        if self.period_s <= 0:
            raise ValueError(f"period must be positive, got {self.period_s!r}")
        if not 0.0 <= self.buffering_bits <= self.size_bits:
            raise ValueError("buffering_bits must be within the video size")

    @property
    def block_bits(self) -> float:
        return self.duty * self.period_s * self.peak_bps

    @property
    def buffering_time(self) -> float:
        return self.buffering_bits / self.peak_bps

    @property
    def _full_cycles(self) -> int:
        steady_bits = self.size_bits - self.buffering_bits
        return int(steady_bits // self.block_bits)

    @property
    def _remainder_bits(self) -> float:
        steady_bits = self.size_bits - self.buffering_bits
        return steady_bits - self._full_cycles * self.block_bits

    @property
    def duration(self) -> float:
        """Buffering, the full cycles, then one final partial ON period
        carrying the leftover bits (no trailing OFF)."""
        d = self.buffering_time + self._full_cycles * self.period_s
        if self._remainder_bits > 0:
            d += self._remainder_bits / self.peak_bps
        return d

    def grid_shape(self) -> GridShape:
        return GridShape(self.duration, self.buffering_time, self.period_s,
                         self._full_cycles, self.duty * self.period_s,
                         self._remainder_bits / self.peak_bps, self.peak_bps)

    def integral_rate_squared(self) -> float:
        # X in {0, G}  =>  X^2 = G * X pointwise
        return self.size_bits * self.peak_bps


def variance_contribution(process: RateProcess) -> float:
    """The session's contribution to Var[R]: integral X^2 (Eq. (2))."""
    return process.integral_rate_squared()


def invariance_gap(a: RateProcess, b: RateProcess) -> float:
    """Relative difference between two strategies' variance contributions.

    Zero (up to float noise) whenever both processes move the same bytes
    at the same peak rate — the Section 6.1 invariance.
    """
    va, vb = a.integral_rate_squared(), b.integral_rate_squared()
    denominator = max(abs(va), abs(vb), 1e-12)
    return abs(va - vb) / denominator


def _check(size_bits: float, peak_bps: float) -> None:
    if size_bits <= 0:
        raise ValueError(f"size must be positive, got {size_bits!r}")
    if peak_bps <= 0:
        raise ValueError(f"peak rate must be positive, got {peak_bps!r}")
