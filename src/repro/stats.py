"""Mergeable streaming statistics: moments and histogram sketches.

The million-session campaign engine (:mod:`repro.runner.sharding`) never
holds a campaign's sessions in memory — each shard folds what it observes
into a small, constant-size summary, and the summaries *merge*.  This
module provides the two primitives every such summary is built from:

* :class:`MomentAccumulator` — count / mean / M2 in Welford form, with
  the Chan et al. parallel-merge rule, so the variance of a million
  observations is exact (to float rounding) whether they were folded by
  one accumulator or by a thousand that merged afterwards.
* :class:`HistogramSketch` — a fixed logarithmic binning of positive
  values.  Because the bin edges are a property of the *type*, not the
  data, two sketches built independently always merge bin-for-bin, and a
  merged percentile is bit-identical to the unsharded one.

Both are plain dataclasses: they pickle across the worker pool, land in
the shard artifact store unchanged, and carry no references back to the
data they summarized.

Determinism contract: ``add`` order affects ``mean``/``m2`` only through
float rounding (documented tolerance ~1e-12 relative); ``count``,
``total``, ``min``, ``max`` and every bin count are integer-or-exact and
therefore bit-identical across any sharding of the same observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

import numpy as np

__all__ = [
    "HistogramSketch",
    "MomentAccumulator",
]


@dataclass
class MomentAccumulator:
    """Streaming count/mean/M2 (Welford) with exact parallel merge.

    >>> a, b, whole = MomentAccumulator(), MomentAccumulator(), MomentAccumulator()
    >>> for v in (1.0, 2.0, 3.0):
    ...     a.add(v)
    ...     whole.add(v)
    >>> for v in (4.0, 5.0):
    ...     b.add(v)
    ...     whole.add(v)
    >>> a.merge(b)
    >>> a.count == whole.count and abs(a.variance - whole.variance) < 1e-12
    True
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None

    def add(self, value: float) -> None:
        """Fold one observation in (Welford's online update)."""
        self.count += 1
        self.total += value
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        self.min = value if self.min is None else (
            value if value < self.min else self.min)
        self.max = value if self.max is None else (
            value if value > self.max else self.max)

    def add_many(self, values: Iterable[float]) -> None:
        """Fold a batch of observations (numpy arrays welcome).

        Uses the exact batch moments of ``values`` and one Chan merge, so
        folding a 100k-sample grid costs two vectorized passes instead of
        100k python-level updates.
        """
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return
        batch = MomentAccumulator(
            count=int(arr.size),
            mean=float(arr.mean()),
            m2=float(arr.var() * arr.size),
            total=float(arr.sum()),
            min=float(arr.min()),
            max=float(arr.max()),
        )
        self.merge(batch)

    def merge(self, other: "MomentAccumulator") -> None:
        """Fold another accumulator in (Chan et al. parallel variance)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.total = other.total
            self.min = other.min
            self.max = other.max
            return
        count = self.count + other.count
        delta = other.mean - self.mean
        self.m2 += other.m2 + delta * delta * self.count * other.count / count
        self.mean += delta * other.count / count
        self.count = count
        self.total += other.total
        self.min = min(self.min, other.min)  # type: ignore[arg-type]
        self.max = max(self.max, other.max)  # type: ignore[arg-type]

    @property
    def variance(self) -> float:
        """Population variance of the observations (0.0 when empty)."""
        return self.m2 / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation (0.0 when empty)."""
        return math.sqrt(self.variance) if self.count else 0.0


#: Default bins per decade: relative resolution 10**(1/12) ~ 1.21.
BINS_PER_DECADE = 12

#: Default clamp range: 1e-9 .. 1e15 covers microseconds to petabits.
MIN_EXP = -9
MAX_EXP = 15


@dataclass
class HistogramSketch:
    """Fixed logarithmic histogram of non-negative values.

    Bin ``i`` covers ``[10**(i/bpd), 10**((i+1)/bpd))`` — the edges are
    fixed by ``bins_per_decade`` alone, never by the data, which is what
    makes independently-built sketches mergeable bin-for-bin.  Values
    ``<= 0`` land in a dedicated underflow counter ordered before every
    bin.  Quantiles are exact in rank and log-linear within a bin, so
    their value error is bounded by one bin width (~21% relative at the
    default 12 bins/decade); counts and ranks are exact integers, so a
    merged percentile is *bit-identical* to the unsharded one.

    >>> s = HistogramSketch()
    >>> for v in (1.0, 10.0, 100.0):
    ...     s.observe(v)
    >>> s.count
    3
    >>> 9.0 < s.percentile(50) < 11.0
    True
    """

    bins_per_decade: int = BINS_PER_DECADE
    counts: Dict[int, int] = field(default_factory=dict)
    underflow: int = 0

    def _index(self, value: float) -> int:
        i = math.floor(math.log10(value) * self.bins_per_decade)
        lo = MIN_EXP * self.bins_per_decade
        hi = MAX_EXP * self.bins_per_decade
        return lo if i < lo else (hi if i > hi else i)

    def observe(self, value: float) -> None:
        """Fold one observation in."""
        if value <= 0.0:
            self.underflow += 1
            return
        i = self._index(value)
        self.counts[i] = self.counts.get(i, 0) + 1

    def observe_many(self, values: Iterable[float]) -> None:
        """Fold a batch of observations via one vectorized pass."""
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return
        positive = arr[arr > 0.0]
        self.underflow += int(arr.size - positive.size)
        if positive.size == 0:
            return
        idx = np.floor(np.log10(positive) * self.bins_per_decade).astype(int)
        np.clip(idx, MIN_EXP * self.bins_per_decade,
                MAX_EXP * self.bins_per_decade, out=idx)
        bins, bin_counts = np.unique(idx, return_counts=True)
        for i, n in zip(bins.tolist(), bin_counts.tolist()):
            self.counts[i] = self.counts.get(i, 0) + n

    def merge(self, other: "HistogramSketch") -> None:
        """Fold another sketch in; binnings must match."""
        if other.bins_per_decade != self.bins_per_decade:
            raise ValueError(
                f"cannot merge sketches with different binnings: "
                f"{self.bins_per_decade} vs {other.bins_per_decade}"
            )
        self.underflow += other.underflow
        for i, n in other.counts.items():
            self.counts[i] = self.counts.get(i, 0) + n

    @property
    def count(self) -> int:
        """Total observations folded in (underflow included)."""
        return self.underflow + sum(self.counts.values())

    def percentile(self, q: float) -> Optional[float]:
        """The ``q``-th percentile (0-100), or ``None`` when empty.

        Rank selection is exact; the returned value is log-linear within
        the selected bin, so its error is bounded by the bin width.
        Underflow observations report as ``0.0``.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        total = self.count
        if total == 0:
            return None
        # nearest-rank on the cumulative counts: deterministic, mergeable
        rank = (q / 100.0) * (total - 1)
        target = int(rank)
        frac = rank - target
        if target < self.underflow:
            return 0.0
        seen = self.underflow
        for i in sorted(self.counts):
            n = self.counts[i]
            if target < seen + n:
                offset = (target - seen + frac) / n
                exponent = (i + offset) / self.bins_per_decade
                return 10.0 ** exponent
            seen += n
        # q == 100 with frac landing past the last observation
        last = max(self.counts)
        return 10.0 ** ((last + 1) / self.bins_per_decade)
