"""The engine health plane: heartbeats, worker lanes, and suspicion.

Supervision (:mod:`repro.runner.supervise`) only learns that a worker
is gone when its process exits or its unit blows the wall-clock
``unit_timeout`` — for a wedged-but-alive worker that can be minutes
away.  This module watches the gap: every supervised worker emits a
periodic heartbeat ``(units_done, rss_kb)`` on a dedicated queue, and a
:class:`HealthMonitor` in the parent folds those beats (plus the
supervisor's assign/settle notifications) into per-worker lanes —
last-beat age, units/s EWMA, RSS watermark, current unit — and raises
*suspicion* long before the timeout would fire:

* **missed-beat** — a live worker silent for more than
  ``miss_after × interval`` seconds (wedged, swapped out, SIGSTOPped);
* **straggler** — an in-flight unit running longer than
  ``straggler_factor × p50`` of the batch's completed unit latencies;
* **worker-lost** — the supervisor settled a crashed/killed/timed-out
  worker (attribution for the retry that follows).

Suspicion is *reported*, never acted on: the monitor writes it onto the
campaign's event stream (:class:`~repro.runner.ledger.RunLedger`) as a
``suspect`` event, and the supervisor's retry/quarantine behavior is
byte-for-byte unchanged whether monitoring is on or off.  The monitor
holds no reference into the engine — the engine calls it, guarded by
``if health is not None``, and all of it is default-off
(``EngineOptions.health = None``).

Every timestamp the monitor keeps comes from its injectable ``clock``
(monotonic by default), so thresholds, EWMA values and straggler flags
are exactly testable with a synthetic clock and hand-fed beats.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median
from typing import Any, Callable, Dict, List, Optional

from ..runner.ledger import RunLedger
from ..runner.supervise import WorkerLane, _worker_rss_kb

__all__ = [
    "HealthMonitor",
    "HealthPolicy",
    "Suspicion",
    "WorkerLane",
]


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds for the health plane (all time units: seconds).

    ``interval`` is the worker heartbeat period; ``miss_after`` is how
    many silent intervals earn a missed-beat suspicion (the default —
    two — matches the detection bound the integration tests assert).
    ``straggler_factor`` and ``min_completed`` govern straggler
    flagging: an in-flight unit is suspect once it runs longer than
    ``straggler_factor × p50`` of completed unit latencies, and no unit
    is flagged before ``min_completed`` latencies exist (a p50 of one
    sample flags everything).  ``ewma_alpha`` weights the newest
    completion when smoothing each lane's units/s rate, and
    ``summary_every`` paces the ledger's ``heartbeat-summary`` events.
    """

    interval: float = 1.0
    miss_after: float = 2.0
    straggler_factor: float = 4.0
    min_completed: int = 3
    ewma_alpha: float = 0.3
    summary_every: float = 5.0


@dataclass(frozen=True)
class Suspicion:
    """One health flag: a worker or unit the monitor no longer trusts."""

    kind: str                  # "missed-beat" | "straggler" | "worker-lost"
    worker: str                # lane id ("w0", ...)
    pid: int
    unit: Optional[int]        # plan index involved, when one was
    label: str                 # unit description, when one was running
    age_s: float               # beat age / unit elapsed at flag time
    detail: str                # human-readable cause


class HealthMonitor:
    """Fold worker heartbeats and supervisor events into health state.

    The supervisor drives it through the hook methods (``beat``,
    ``worker_started`` ... ``poll``); the monitor writes what it sees
    onto ``ledger``, when given: ``started``, ``heartbeat-summary`` and
    ``suspect`` events, plus a live ``beat`` per heartbeat whose value
    is the lane (unit settlements are the engine's to report).  It
    never steers: the supervisor consults nothing here.
    """

    def __init__(self, policy: Optional[HealthPolicy] = None, *,
                 ledger: Optional[RunLedger] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.policy = policy or HealthPolicy()
        self.clock = clock
        self.ledger = ledger
        self.suspicions: List[Suspicion] = []
        self.parent_rss_kb = 0
        self._lanes: Dict[str, WorkerLane] = {}
        self._latencies: List[float] = []
        self._last_summary: Optional[float] = None

    @property
    def beat_interval(self) -> float:
        """The heartbeat period workers should emit at (supervisor reads
        this when spawning worker processes)."""
        return self.policy.interval

    # -- engine hooks (called by pool/supervise, never the reverse) ----------

    def worker_started(self, worker: str, pid: Optional[int]) -> None:
        """A worker process spawned (or respawned) on lane ``worker``."""
        lane = self._lane(worker)
        lane.pid = pid or 0
        lane.alive = True
        lane.spawned_at = self.clock()
        lane.last_beat = None
        lane.unit = None
        lane.label = ""
        lane.unit_started_at = None
        lane.missing = False
        lane.straggling = False

    def worker_lost(self, worker: str, pid: Optional[int], kind: str,
                    error: str, unit: Optional[int]) -> None:
        """The supervisor settled a crashed/killed/timed-out worker."""
        lane = self._lane(worker)
        lane.alive = False
        self._suspect(Suspicion(
            kind="worker-lost", worker=worker, pid=pid or lane.pid,
            unit=unit, label=lane.label if unit is not None else "",
            age_s=lane.beat_age(self.clock()), detail=f"{kind}: {error}"))

    def unit_started(self, worker: str, index: int, label: str,
                     key: Optional[str]) -> None:
        """A unit was handed to a worker."""
        lane = self._lane(worker)
        lane.unit = index
        lane.label = label or f"unit {index}"
        lane.unit_started_at = self.clock()
        lane.straggling = False
        if self.ledger is not None:
            self.ledger.event("started", unit=index, label=lane.label,
                              worker=worker, key=key)

    def unit_finished(self, worker: str, index: int) -> None:
        """A unit completed on its worker; credit the lane's rate."""
        lane = self._lane(worker)
        now = self.clock()
        latency = (now - lane.unit_started_at
                   if lane.unit_started_at is not None else 0.0)
        lane.units_done += 1
        lane.busy_s += latency
        if latency > 0:
            sample = 1.0 / latency
            alpha = self.policy.ewma_alpha
            lane.rate = (sample if lane.rate == 0.0
                         else alpha * sample + (1 - alpha) * lane.rate)
            self._latencies.append(latency)
        lane.unit = None
        lane.label = ""
        lane.unit_started_at = None
        lane.straggling = False

    def unit_failed(self, failure: Any) -> None:
        """A supervised attempt failed (``failure.final`` = quarantined)."""
        worker = getattr(failure, "worker", None)
        if worker is not None:
            lane = self._lane(worker)
            if lane.unit == failure.index:
                lane.unit = None
                lane.label = ""
                lane.unit_started_at = None
                lane.straggling = False
            if not failure.final:
                lane.retries += 1

    def beat(self, worker: str, pid: Optional[int], units_done: int,
             rss_kb: int) -> None:
        """One heartbeat arrived from a worker process."""
        lane = self._lane(worker)
        lane.last_beat = self.clock()
        lane.beats += 1
        if pid:
            lane.pid = pid
        lane.rss_kb = max(lane.rss_kb, int(rss_kb))
        lane.missing = False  # a beat clears the suspicion
        if self.ledger is not None:
            self.ledger.event("beat", lane, worker=worker)

    def poll(self) -> List[Suspicion]:
        """Periodic check: raise fresh suspicions, pace ledger summaries.

        Called once per supervisor loop iteration; callable as often as
        desired — every threshold crossing flags exactly once (a lane
        stays flagged until a beat / a new unit clears it).  Returns the
        suspicions raised by *this* call.
        """
        now = self.clock()
        policy = self.policy
        self.parent_rss_kb = max(self.parent_rss_kb, _worker_rss_kb())
        fresh: List[Suspicion] = []
        p50 = (median(self._latencies)
               if len(self._latencies) >= policy.min_completed else None)
        for lane in self._lanes.values():
            if not lane.alive:
                continue
            age = lane.beat_age(now)
            if not lane.missing and age > policy.miss_after * policy.interval:
                lane.missing = True
                fresh.append(Suspicion(
                    kind="missed-beat", worker=lane.worker, pid=lane.pid,
                    unit=lane.unit, label=lane.label, age_s=age,
                    detail=(f"no heartbeat for {age:.2f}s "
                            f"(interval {policy.interval:.2f}s)")))
            if (p50 is not None and not lane.straggling
                    and lane.unit is not None
                    and lane.unit_started_at is not None):
                elapsed = now - lane.unit_started_at
                if elapsed > policy.straggler_factor * p50:
                    lane.straggling = True
                    fresh.append(Suspicion(
                        kind="straggler", worker=lane.worker, pid=lane.pid,
                        unit=lane.unit, label=lane.label, age_s=elapsed,
                        detail=(f"unit running {elapsed:.2f}s > "
                                f"{policy.straggler_factor:g}×p50 "
                                f"({p50:.2f}s)")))
        for suspicion in fresh:
            self._suspect(suspicion)
        if (self._last_summary is None
                or now - self._last_summary >= policy.summary_every):
            self._summarize(now)
        return fresh

    def finish(self) -> None:
        """The batch drained: flush one last ledger heartbeat-summary.

        Without it a short campaign's only summary is the one ``poll``
        writes before any beat arrives, and the report never sees the
        workers' RSS watermarks or final beat counts.
        """
        self._summarize(self.clock())

    def _summarize(self, now: float) -> None:
        self._last_summary = now
        if self.ledger is not None:
            self.ledger.event(
                "heartbeat-summary", parent_rss_kb=self.parent_rss_kb,
                workers=[lane.snapshot(now) for lane in self.lanes()])

    # -- queries -------------------------------------------------------------

    def lanes(self) -> List[WorkerLane]:
        """Every worker lane, ordered by lane id."""
        return [self._lanes[name] for name in sorted(self._lanes)]

    # -- internals -----------------------------------------------------------

    def _lane(self, worker: str) -> WorkerLane:
        lane = self._lanes.get(worker)
        if lane is None:
            lane = WorkerLane(worker=worker, spawned_at=self.clock())
            self._lanes[worker] = lane
        return lane

    def _suspect(self, suspicion: Suspicion) -> None:
        self.suspicions.append(suspicion)
        if self.ledger is not None:
            self.ledger.event(
                "suspect", suspicion, kind=suspicion.kind,
                worker=suspicion.worker, pid=suspicion.pid,
                unit=suspicion.unit, label=suspicion.label or None,
                age_s=round(suspicion.age_s, 3), detail=suspicion.detail)
