"""Time-series probes.

Experiments sample quantities over simulated time — cumulative download
amount (Figures 2a, 6a, 7a, 10), advertised receive window (Figures 2b, 6a)
and player-buffer occupancy (Table 2).  :class:`TimeSeries` stores samples;
:class:`PeriodicProbe` drives sampling off the event scheduler.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from .scheduler import EventHandle, EventScheduler


class TimeSeries:
    """A list of ``(time, value)`` samples with small analysis helpers."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    @classmethod
    def from_columns(cls, name: str, times, values) -> "TimeSeries":
        """Build a series from parallel time/value columns in one shot.

        The bulk-ingest fast path for columnar producers (flow tables,
        exporters): the iterables are copied into plain lists without the
        per-append time-order check — the caller guarantees ``times`` is
        already non-decreasing.
        """
        series = cls(name)
        series.times = list(times)
        series.values = list(values)
        return series

    def append(self, t: float, value: float) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError(
                f"time series {self.name!r} must be appended in time order: "
                f"{t!r} < {self.times[-1]!r}"
            )
        self.times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    def last(self) -> Tuple[float, float]:
        if not self.times:
            raise IndexError(f"time series {self.name!r} is empty")
        return self.times[-1], self.values[-1]

    def value_at(self, t: float) -> float:
        """Step-function value at time ``t`` (last sample at or before ``t``)."""
        if not self.times:
            raise IndexError(f"time series {self.name!r} is empty")
        if t < self.times[0]:
            raise ValueError(f"{t!r} precedes first sample {self.times[0]!r}")
        # binary search for rightmost index with times[i] <= t
        lo, hi = 0, len(self.times) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.times[mid] <= t:
                lo = mid
            else:
                hi = mid - 1
        return self.values[lo]

    def window(self, t0: float, t1: float) -> "TimeSeries":
        """Samples with ``t0 <= time <= t1``."""
        out = TimeSeries(self.name)
        for t, v in zip(self.times, self.values):
            if t0 <= t <= t1:
                out.append(t, v)
        return out

    def mean(self) -> float:
        if not self.values:
            raise IndexError(f"time series {self.name!r} is empty")
        return sum(self.values) / len(self.values)

    def max(self) -> float:
        return max(self.values)

    def min(self) -> float:
        return min(self.values)

    def binned_rate(self, bin_width: float) -> "TimeSeries":
        """Per-bin rate of change of a cumulative series.

        Interprets the samples as a non-decreasing cumulative quantity
        (e.g. bytes downloaded) and returns one sample per ``bin_width``
        interval, timestamped at the bin end, whose value is the average
        rate (units/second) over that bin.  Bins with no samples carry
        the rate 0.0 — the quantity did not advance.  This is what the
        exporters use to turn a download curve into link utilisation.
        """
        if bin_width <= 0:
            raise ValueError(f"bin_width must be positive, got {bin_width!r}")
        out = TimeSeries(f"{self.name}:rate" if self.name else "rate")
        if len(self.times) < 2:
            return out
        t0 = self.times[0]
        span = self.times[-1] - t0
        bins = max(1, int(span / bin_width) + (1 if span % bin_width else 0))
        prev_value = self.values[0]
        for b in range(bins):
            end = t0 + (b + 1) * bin_width
            value = self.value_at(min(end, self.times[-1]))
            out.append(end, (value - prev_value) / bin_width)
            prev_value = value
        return out


class PeriodicProbe:
    """Sample ``fn()`` every ``period`` seconds into a :class:`TimeSeries`."""

    def __init__(
        self,
        scheduler: EventScheduler,
        period: float,
        fn: Callable[[], float],
        name: str = "probe",
        series: Optional[TimeSeries] = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        self.scheduler = scheduler
        self.period = period
        self.fn = fn
        self.series = series if series is not None else TimeSeries(name)
        self._handle: Optional[EventHandle] = None
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._sample()

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _sample(self) -> None:
        if not self._running:
            return
        self.series.append(self.scheduler.clock.now(), float(self.fn()))
        self._handle = self.scheduler.after(
            self.period, self._sample, label=f"probe:{self.series.name}"
        )
