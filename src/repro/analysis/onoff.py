"""ON/OFF cycle detection (the Section 3 traffic structure).

An OFF period is an idle gap in the data arrivals longer than
``gap_threshold``; the activity between two OFF periods is an ON period
whose size is the number of *new* bytes it moved.  Tiny ON periods (TCP
zero-window probes, stray retransmissions) are filtered as noise and
absorbed into the surrounding OFF period — they are artifacts of the
transport, not application-layer transfers.

Retransmission *activity* still bridges gaps: a loss recovered during what
would have been an OFF period merges two cycles into one bigger block,
reproducing the paper's observation that losses create blocks larger than
the nominal 64 kB (Section 5.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import List, Optional, Sequence, Tuple, Union

from .flowtable import EventLog

#: Default idle-gap threshold separating ON from OFF, in seconds.  The
#: shortest OFF periods the paper reports are ~0.2 s; intra-block gaps are
#: bounded by the RTT (tens of milliseconds).
DEFAULT_GAP_THRESHOLD = 0.15

#: ON periods moving fewer bytes than this are treated as transport noise.
DEFAULT_MIN_ON_BYTES = 4096


@dataclass(frozen=True)
class OnPeriod:
    """A burst of data arrivals."""

    start: float
    end: float
    bytes: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class OffPeriod:
    """An idle gap between ON periods."""

    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class OnOffProfile:
    """The full ON/OFF structure of one download."""

    on_periods: List[OnPeriod]
    off_periods: List[OffPeriod]
    gap_threshold: float

    @property
    def has_off_periods(self) -> bool:
        return bool(self.off_periods)

    @property
    def cycle_count(self) -> int:
        return len(self.off_periods)

    def block_sizes(self, skip_first: bool = True) -> List[int]:
        """Bytes moved per ON period.

        ``skip_first`` drops the first ON period, which is the buffering
        phase rather than a steady-state block (Section 5's block-size
        distributions are steady-state only).
        """
        periods = self.on_periods[1:] if skip_first else self.on_periods
        return [p.bytes for p in periods]

    def off_durations(self) -> List[float]:
        return [p.duration for p in self.off_periods]

    def mean_cycle_duration(self) -> Optional[float]:
        """Average ON+OFF cycle length in the steady state."""
        if len(self.on_periods) < 2 or not self.off_periods:
            return None
        start = self.off_periods[0].start
        end = self.on_periods[-1].end
        cycles = len(self.on_periods) - 1
        return (end - start) / cycles if cycles else None


def detect_onoff(
    events: Union[EventLog, Sequence[Tuple[float, int]]],
    *,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
    min_on_bytes: int = DEFAULT_MIN_ON_BYTES,
    stream_end: Optional[float] = None,
) -> OnOffProfile:
    """Partition data-arrival ``events`` into ON and OFF periods.

    ``events`` is a flow's or trace's :class:`~.flowtable.EventLog`, whose
    time and advance columns are read directly, or a time-ordered sequence
    of ``(timestamp, new_bytes)`` pairs.  Retransmissions appear with
    ``new_bytes == 0`` and still count as activity.  ``stream_end``
    (defaults to the last event) bounds the analysis — idleness after the
    transfer finished is not an OFF period.
    """
    if isinstance(events, EventLog):
        times, advances = events.activity, events.advances
    else:
        times = [t for t, _ in events]
        advances = [advance for _, advance in events]
    if not times:
        return OnOffProfile([], [], gap_threshold)

    groups: List[Tuple[float, float, int]] = []  # (start, end, bytes)
    start, end, moved = times[0], times[0], advances[0]
    for t, advance in zip(islice(times, 1, None), islice(advances, 1, None)):
        if t - end > gap_threshold:
            groups.append((start, end, moved))
            start, moved = t, 0
        end = t
        moved += advance
    groups.append((start, end, moved))

    # absorb noise bursts (window probes, stray retransmits) into idle time
    significant = [g for g in groups if g[2] >= min_on_bytes]
    if not significant:
        significant = [max(groups, key=lambda g: g[2])] if groups else []

    on_periods = [OnPeriod(s, e, b) for s, e, b in significant]
    off_periods: List[OffPeriod] = []
    for prev, nxt in zip(on_periods, on_periods[1:]):
        off_periods.append(OffPeriod(prev.end, nxt.start))
    # trailing idle time within the stream's active life counts as OFF only
    # if more data was still expected; callers pass stream_end = last data
    # time, so no trailing OFF is emitted by default
    if stream_end is not None and on_periods:
        tail = stream_end - on_periods[-1].end
        if tail > gap_threshold:
            off_periods.append(OffPeriod(on_periods[-1].end, stream_end))
    return OnOffProfile(on_periods, off_periods, gap_threshold)
