"""Statistics helpers: CDFs, correlation, quantiles, dominant values."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass
class Cdf:
    """An empirical cumulative distribution function."""

    values: List[float]        # sorted
    fractions: List[float]     # P(X <= values[i]), in (0, 1]

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "Cdf":
        if not samples:
            raise ValueError("cannot build a CDF from zero samples")
        ordered = sorted(float(s) for s in samples)
        n = len(ordered)
        return cls(ordered, [(i + 1) / n for i in range(n)])

    def __len__(self) -> int:
        return len(self.values)

    def at(self, x: float) -> float:
        """P(X <= x)."""
        lo, hi = 0, len(self.values)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.values[mid] <= x:
                lo = mid + 1
            else:
                hi = mid
        return lo / len(self.values)

    def quantile(self, q: float) -> float:
        """The smallest value v with P(X <= v) >= q."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q!r}")
        index = max(0, math.ceil(q * len(self.values)) - 1)
        return self.values[index]

    @property
    def median(self) -> float:
        return self.quantile(0.5)


def mean(samples: Sequence[float]) -> float:
    """Arithmetic mean; raises ``ValueError`` on an empty sequence."""
    if not samples:
        raise ValueError("mean of zero samples")
    return sum(samples) / len(samples)


def variance(samples: Sequence[float]) -> float:
    """Population variance."""
    if not samples:
        raise ValueError("variance of zero samples")
    m = mean(samples)
    return sum((s - m) ** 2 for s in samples) / len(samples)


def median(samples: Sequence[float]) -> float:
    """Sample median (midpoint of the two central order statistics)."""
    if not samples:
        raise ValueError("median of zero samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n % 2:
        return ordered[n // 2]
    return (ordered[n // 2 - 1] + ordered[n // 2]) / 2


def correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("need at least two points for a correlation")
    mx, my = mean(xs), mean(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return 0.0
    return sxy / math.sqrt(sxx * syy)


def dominant_value(samples: Sequence[float], *, bin_width: float) -> Optional[float]:
    """The center of the most populated histogram bin (the "dominant"
    block size of Figures 4(a) and 5(a))."""
    if not samples or bin_width <= 0:
        return None
    counts: dict = {}
    for s in samples:
        counts[int(s // bin_width)] = counts.get(int(s // bin_width), 0) + 1
    best_bin = max(counts, key=lambda b: (counts[b], -b))
    return (best_bin + 0.5) * bin_width


def fraction_within(samples: Sequence[float], lo: float, hi: float) -> float:
    """Share of samples in [lo, hi]."""
    if not samples:
        raise ValueError("no samples")
    return sum(1 for s in samples if lo <= s <= hi) / len(samples)
