"""Resilience analysis: recovery behaviour under injected faults.

The paper's methodology (Section 5.1.1) already warns that packet loss
merges ON-OFF blocks and corrupts buffering estimates.  Fault injection
(:mod:`repro.simnet.faults`) makes those artifacts reproducible; this
module summarizes how a session *recovered* — stalls, rebuffering,
retries, wasted bytes — and quantifies the block-merging artifact by
comparing the trace-level block statistics of a clean and a faulted run
of the same session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..streaming.session import SessionResult
from .session_analysis import analyze_session
from .stats import mean, median


@dataclass
class ResilienceSummary:
    """How one session behaved under (possible) faults."""

    completed: bool               # all requested media arrived
    failed: bool                  # gave up (retries exhausted / no policy)
    fail_reason: Optional[str]
    stall_count: int
    stall_time_s: float
    rebuffer_count: int
    rebuffer_ratio: float
    startup_delay_s: Optional[float]
    retry_count: int
    wasted_redownloaded_bytes: int
    downshift_count: int
    recovery_time_s: Optional[float]   # first fault -> playback resumed

    @property
    def recovered(self) -> bool:
        """The session survived its faults (neither failed nor stuck)."""
        return not self.failed and self.recovery_time_s is not None


def _first_fault_time(result: SessionResult) -> Optional[float]:
    log = result.fault_log
    if log is None or not log.entries:
        return None
    starts = [e.time for e in log.entries if e.kind.endswith("-start")
              or e.kind == "connection-reset"]
    return min(starts) if starts else min(e.time for e in log.entries)


def recovery_time(result: SessionResult) -> Optional[float]:
    """Seconds from the first injected fault until playback recovered.

    Recovery means the end of the first stall interval that overlaps or
    follows the fault.  ``0.0`` when the fault never starved playback;
    ``None`` when the fault log is empty, the session failed, or the
    stall never ended within the capture.
    """
    t0 = _first_fault_time(result)
    if t0 is None or result.failed:
        return None
    overlapping = [end for start, end in result.stall_events if end >= t0]
    if not overlapping:
        return 0.0
    recovered_at = min(overlapping)
    # a stall interval closed exactly at the capture horizon never actually
    # recovered — the capture just ended
    if recovered_at >= result.duration_simulated:
        return None
    return recovered_at - t0


def summarize_resilience(result: SessionResult) -> ResilienceSummary:
    """Collapse one session's resilience bookkeeping into a summary."""
    return ResilienceSummary(
        completed=result.player_finished,
        failed=result.failed,
        fail_reason=result.fail_reason,
        stall_count=len(result.stall_events),
        stall_time_s=result.stall_time_s,
        rebuffer_count=result.rebuffer_count,
        rebuffer_ratio=result.rebuffer_ratio,
        startup_delay_s=result.startup_delay_s,
        retry_count=result.retry_count,
        wasted_redownloaded_bytes=result.wasted_redownloaded_bytes,
        downshift_count=len(result.downshifts),
        recovery_time_s=recovery_time(result),
    )


@dataclass
class ResilienceAggregate:
    """Fleet-level recovery statistics over many sessions."""

    sessions: int
    completed_fraction: float
    failed_fraction: float
    mean_rebuffer_ratio: float
    mean_stall_time_s: float
    mean_retries: float
    mean_recovery_time_s: Optional[float]  # over sessions that recovered
    total_wasted_bytes: int


def aggregate_resilience(
    summaries: Sequence[ResilienceSummary],
) -> ResilienceAggregate:
    """Fleet-level roll-up of per-session resilience summaries.

    Means are taken over all sessions; rates (failure, completion) are
    fractions of the whole fleet.  Raises ``ValueError`` on an empty
    input — an empty fleet has no meaningful rates.
    """
    if not summaries:
        raise ValueError("no sessions to aggregate")
    n = len(summaries)
    recoveries = [s.recovery_time_s for s in summaries
                  if s.recovery_time_s is not None]
    return ResilienceAggregate(
        sessions=n,
        completed_fraction=sum(1 for s in summaries if s.completed) / n,
        failed_fraction=sum(1 for s in summaries if s.failed) / n,
        mean_rebuffer_ratio=mean([s.rebuffer_ratio for s in summaries]),
        mean_stall_time_s=mean([s.stall_time_s for s in summaries]),
        mean_retries=mean([float(s.retry_count) for s in summaries]),
        mean_recovery_time_s=mean(recoveries) if recoveries else None,
        total_wasted_bytes=sum(s.wasted_redownloaded_bytes for s in summaries),
    )


@dataclass
class BlockMergingReport:
    """The Section 5.1.1 artifact, quantified: faults merge ON-OFF blocks."""

    clean_cycles: int
    faulted_cycles: int
    clean_median_block: Optional[float]
    faulted_median_block: Optional[float]


def quantify_block_merging(
    clean: SessionResult,
    faulted: SessionResult,
    *,
    gap_threshold: Optional[float] = None,
    min_on_bytes: Optional[int] = None,
) -> BlockMergingReport:
    """Compare trace-level block statistics between a clean and faulted run."""
    kwargs = {}
    if gap_threshold is not None:
        kwargs["gap_threshold"] = gap_threshold
    if min_on_bytes is not None:
        kwargs["min_on_bytes"] = min_on_bytes
    clean_an = analyze_session(clean, **kwargs)
    faulted_an = analyze_session(faulted, **kwargs)
    clean_blocks: List[int] = clean_an.onoff.block_sizes()
    faulted_blocks: List[int] = faulted_an.onoff.block_sizes()
    return BlockMergingReport(
        clean_cycles=clean_an.onoff.cycle_count,
        faulted_cycles=faulted_an.onoff.cycle_count,
        clean_median_block=median(clean_blocks) if clean_blocks else None,
        faulted_median_block=median(faulted_blocks) if faulted_blocks else None,
    )
