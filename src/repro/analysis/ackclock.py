"""ACK-clock analysis (Section 5.1.5, Figure 9).

TCP normally paces a sender by the returning ACK stream.  After an
application-layer OFF period, RFC 5681 suggests resetting the congestion
window so the source re-probes the path; the paper measures whether the
streaming servers actually do this by looking at how much data arrives
*back-to-back within the first RTT of each ON period*.  A source with an
ACK clock can move at most its initial window in that interval; the
measured YouTube/Netflix sources instead blast `min(cwnd, block size)`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional

from .flowtable import DownloadTrace, FlowData
from .onoff import DEFAULT_GAP_THRESHOLD, DEFAULT_MIN_ON_BYTES, detect_onoff


@dataclass
class AckClockSample:
    """Bytes received in the first RTT of one ON period."""

    on_start: float
    bytes_first_rtt: int
    rtt: float


def first_rtt_bytes(
    flow: FlowData,
    *,
    rtt: Optional[float] = None,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
    min_on_bytes: int = DEFAULT_MIN_ON_BYTES,
    skip_first: bool = True,
) -> List[AckClockSample]:
    """Per-ON-period bytes arriving within one RTT of the period's start.

    This is the paper's conservative estimate of the congestion window at
    the beginning of the ON period.  ``skip_first`` excludes the buffering
    phase (whose start is connection establishment, where slow start always
    imposes an ACK clock).

    Each period's window ``[start, start + rtt]`` is found by bisecting the
    flow's time-ordered event column and its bytes read off prefix sums of
    the advances: O(P log N) for P periods over N data packets.
    """
    effective_rtt = rtt if rtt is not None else flow.handshake_rtt
    if effective_rtt is None or not flow.packet_count:
        return []
    onoff = detect_onoff(
        flow, gap_threshold=gap_threshold, min_on_bytes=min_on_bytes
    )
    periods = onoff.on_periods[1:] if skip_first else onoff.on_periods
    if not periods:
        return []
    times = flow.activity
    moved_before = [0, *accumulate(flow.advances)]  # bytes of events [0, i)
    samples = []
    for period in periods:
        lo = bisect_left(times, period.start)
        hi = bisect_right(times, period.start + effective_rtt)
        moved = moved_before[hi] - moved_before[lo] if hi > lo else 0
        samples.append(AckClockSample(period.start, moved, effective_rtt))
    return samples


def ackclock_samples(
    trace: DownloadTrace,
    *,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
    min_on_bytes: int = DEFAULT_MIN_ON_BYTES,
    include_connection_starts: bool = False,
) -> List[int]:
    """All first-RTT byte counts across the trace's flows (Figure 9 data).

    For multi-connection players (iPad, Netflix) each connection's first ON
    period is a fresh slow start; ``include_connection_starts`` keeps those
    samples (they are what makes ACK clocks visible for those players).
    """
    samples: List[int] = []
    for flow in trace.flows.values():
        flow_samples = first_rtt_bytes(
            flow,
            gap_threshold=gap_threshold,
            min_on_bytes=min_on_bytes,
            skip_first=not include_connection_starts,
        )
        samples.extend(s.bytes_first_rtt for s in flow_samples)
    return samples
