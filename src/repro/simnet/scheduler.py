"""Discrete-event scheduler.

A binary-heap event queue over the :class:`~repro.simnet.clock.SimClock`.
Events are callbacks scheduled at absolute or relative simulated times.
Cancellation is supported through :class:`EventHandle` (lazy deletion: a
cancelled event stays in the heap but is skipped when popped).

Ties are broken by insertion order so that the simulation is fully
deterministic for a given seed.

Fast path
---------

Heap entries are plain tuples ``(time, seq, callback, arg)``: because
``seq`` is unique, tuple comparison never reaches the callback, so heap
sifting runs entirely in C instead of calling ``EventHandle.__lt__``
roughly ``n log n`` times per run.  Two entry shapes share the heap:

* :meth:`EventScheduler.call_at` / :meth:`EventScheduler.call_after`
  schedule a bare callback (optionally with one argument, so hot callers
  pass the packet as ``arg`` instead of allocating a closure).  These
  events cannot be cancelled and allocate nothing but the heap tuple.
* :meth:`EventScheduler.at` / :meth:`EventScheduler.after` still return a
  cancellable :class:`EventHandle`; the handle rides in the callback slot
  of the tuple, marked by the ``_HANDLE`` sentinel in the ``arg`` slot.

:attr:`EventScheduler.pending` is O(1): an incremental live counter is
maintained at push, pop and cancel instead of scanning the heap.

OFF-period fast-forward
-----------------------

During the long OFF periods of the paper's ON/OFF cycles nothing moves:
no packet is in flight on any link and no TCP timer is armed earlier
than the next scheduled event.  :meth:`EventScheduler.fast_forward_to`
proves such a window quiescent by polling registered *quiescence probes*
(:meth:`add_quiescence_probe`; links and connections register
themselves) and, when every probe agrees, accounts the jump.  Because
the event loop already advances the clock by direct assignment between
events, the fast-forward is an *audited verification* of the jump the
loop performs anyway — it cannot perturb a timestamp.  The streaming
monitor replaces dense idle polling with analytic reschedules on the
same grid; the equivalence suite proves both against dense stepping.

Cancellable-event mark
----------------------

:attr:`EventScheduler.mark_time` / :attr:`EventScheduler.mark_seq` hold
a ``(time, seq)`` bound that :meth:`at` lowers whenever it posts an
earlier cancellable event.  A batching component seeds it with
:meth:`seed_mark` (the earliest live cancellable event in the heap,
capped at the ``run_until`` horizon) and re-reads it after each unit of
work, so it stops before any timer its own work armed without knowing
which component armed it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from .clock import SimClock
from .errors import SchedulingError

Callback = Callable[[], None]

#: Gaps shorter than this are not worth proving quiescent: the jump is
#: performed by the event loop either way, and probing has a cost.  Set
#: above the per-segment serialization spacing of the slowest profile so
#: dense trains never pay for probing, while inter-block and OFF-period
#: gaps (tens of milliseconds to seconds) always do get audited.
FAST_FORWARD_MIN_GAP_S = 5e-3

#: A quiescence probe: ``probe(until) -> bool`` — ``True`` iff the
#: component can prove it schedules nothing and changes no state before
#: simulated time ``until``.
QuiescenceProbe = Callable[[float], bool]

#: Sentinel in an entry's ``arg`` slot: the callback slot holds an
#: :class:`EventHandle` (the cancellable slow path).
_HANDLE = object()
#: Sentinel in an entry's ``arg`` slot: the callback takes no argument.
_NO_ARG = object()

#: A heap entry: ``(time, seq, callback_or_handle, arg_or_sentinel)``.
HeapEntry = Tuple[float, int, Any, Any]


class EventHandle:
    """A cancellable reference to a scheduled event."""

    __slots__ = ("time", "seq", "callback", "label", "_sched")

    def __init__(self, time: float, seq: int, callback: Optional[Callback],
                 label: str, sched: Optional["EventScheduler"] = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self._sched = sched

    def cancel(self) -> None:
        """Cancel the event.  Idempotent; a fired event cannot be cancelled."""
        if self.callback is not None:
            self.callback = None
            if self._sched is not None:
                self._sched._live -= 1

    @property
    def cancelled(self) -> bool:
        return self.callback is None

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.6f}, label={self.label!r}, {state})"


class EventScheduler:
    """Deterministic discrete-event loop."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._heap: List[HeapEntry] = []
        self._counter = itertools.count()
        self._live = 0
        self._fired = 0
        self._quiescence_probes: List[QuiescenceProbe] = []
        #: Accounting for :meth:`fast_forward_to`.
        self.fast_forwarded_s = 0.0
        self.fast_forward_jumps = 0
        self.fast_forward_refusals = 0
        # Horizon of the innermost run_until(); batched components must
        # not process work scheduled past it (run() lifts it to +inf).
        self._horizon = 0.0
        #: The cancellable-event mark (see the module docstring).
        self.mark_time = float("inf")
        self.mark_seq = float("inf")

    # -- scheduling ---------------------------------------------------------

    def at(self, time: float, callback: Callback, label: str = "") -> EventHandle:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        now = self.clock.now()
        if time < now:
            raise SchedulingError(f"cannot schedule at {time!r}; now is {now!r}")
        seq = next(self._counter)
        handle = EventHandle(time, seq, callback, label, self)
        heapq.heappush(self._heap, (time, seq, handle, _HANDLE))
        self._live += 1
        if time < self.mark_time or (time == self.mark_time
                                     and seq < self.mark_seq):
            self.mark_time = time
            self.mark_seq = seq
        return handle

    def after(self, delay: float, callback: Callback, label: str = "") -> EventHandle:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        return self.at(self.clock.now() + delay, callback, label)

    def call_at(self, time: float, callback: Callable, arg: Any = _NO_ARG) -> None:
        """Schedule a non-cancellable ``callback`` at absolute time ``time``.

        The allocation-lean fast path: no :class:`EventHandle` is created
        and none is returned.  When ``arg`` is given the event fires as
        ``callback(arg)`` — hot callers pass their per-event state (e.g.
        the packet being delivered) this way instead of binding it in a
        closure.
        """
        now = self.clock.now()
        if time < now:
            raise SchedulingError(f"cannot schedule at {time!r}; now is {now!r}")
        heapq.heappush(self._heap, (time, next(self._counter), callback, arg))
        self._live += 1

    def call_after(self, delay: float, callback: Callable,
                   arg: Any = _NO_ARG) -> None:
        """Schedule a non-cancellable ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        self.call_at(self.clock.now() + delay, callback, arg)

    def reserve_seq(self) -> int:
        """Consume and return the next insertion-order sequence number.

        Lets a caller fix an event's tie-break position *now* while
        posting the event later via :meth:`post` — the packet train in
        :class:`~repro.simnet.link.Link` uses this to keep heap ordering
        bit-identical to scheduling every delivery up front.
        """
        return next(self._counter)

    def post(self, time: float, seq: int, callback: Callable,
             arg: Any = _NO_ARG) -> None:
        """Insert an event whose seq was taken earlier via :meth:`reserve_seq`.

        ``time`` must not be in the past (the caller guarantees it; no
        check is made — this is the hot path) and ``seq`` must be unique.
        """
        heapq.heappush(self._heap, (time, seq, callback, arg))
        self._live += 1

    def seed_mark(self, floor: float) -> None:
        """Set the mark to the earliest live cancellable heap event.

        The mark starts at the ``run_until`` horizon, a time-only bound
        (events exactly at the horizon stay below it), raised to
        ``floor`` when an event is stepped past a finished horizon.
        Plain tuple events (:meth:`call_at`, :meth:`post`) do not lower
        it: they carry link deliveries, whose processing commutes with a
        batch.
        """
        mark_time = self._horizon
        if mark_time < floor:
            mark_time = floor
        mark_seq = float("inf")
        for entry in self._heap:
            if entry[3] is _HANDLE and entry[2].callback is not None:
                if entry[0] < mark_time or (
                    entry[0] == mark_time and entry[1] < mark_seq
                ):
                    mark_time = entry[0]
                    mark_seq = entry[1]
        self.mark_time = mark_time
        self.mark_seq = mark_seq

    # -- fast-forward -------------------------------------------------------

    def add_quiescence_probe(self, probe: QuiescenceProbe) -> None:
        """Register ``probe(until) -> bool`` for :meth:`fast_forward_to`.

        Links and TCP connections register themselves at construction;
        a probe must return ``True`` only when its component provably
        schedules nothing and mutates no observable state strictly
        before ``until``.
        """
        self._quiescence_probes.append(probe)

    def fast_forward_to(self, t: float) -> bool:
        """Prove the window ``(now, t)`` quiescent and account the jump.

        Every registered probe must agree; on success the clock is moved
        directly to ``t`` and the jump is tallied.  On refusal nothing
        changes (the caller falls back to ordinary event stepping).
        Timestamps cannot be perturbed either way — the event loop would
        assign the same clock value — so this is safe by construction;
        the probes turn that safety into a *checked* invariant and feed
        the ``fast_forwarded_s`` speedup accounting.
        """
        now = self.clock._now
        if t <= now:
            return True
        for probe in self._quiescence_probes:
            if not probe(t):
                self.fast_forward_refusals += 1
                return False
        self.fast_forwarded_s += t - now
        self.fast_forward_jumps += 1
        self.clock._now = t
        return True

    # -- execution ----------------------------------------------------------

    def _pop_live(self) -> Optional[HeapEntry]:
        """Pop entries until a live one is found; returns ``None`` when empty.

        For handle-carrying entries the handle's callback is moved into
        the returned tuple's callback slot (and cleared on the handle, so
        a later ``cancel()`` is a no-op).
        """
        heap = self._heap
        while heap:
            time_, seq, cb, arg = heapq.heappop(heap)
            if arg is _HANDLE:
                fn = cb.callback
                if fn is None:
                    continue  # cancelled: lazily deleted (already un-counted)
                cb.callback = None
                self._live -= 1
                return (time_, seq, fn, _NO_ARG)
            self._live -= 1
            return (time_, seq, cb, arg)
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` when the queue is empty."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head[3] is _HANDLE and head[2].callback is None:
                heapq.heappop(heap)
                continue
            return head[0]
        return None

    def step(self) -> bool:
        """Fire the next event.  Returns ``False`` when no events remain."""
        entry = self._pop_live()
        if entry is None:
            return False
        time_, _seq, callback, arg = entry
        self.clock.advance_to(time_)
        if arg is _NO_ARG:
            callback()
        else:
            callback(arg)
        self._fired += 1
        return True

    def run_until(self, t: float, max_events: Optional[int] = None) -> int:
        """Run events with time <= ``t``; returns the number fired.

        The clock is advanced to exactly ``t`` at the end even if the queue
        drains earlier, so that probes sampling "at the horizon" see a
        consistent time.
        """
        fired = 0
        self._horizon = t
        if max_events is None:
            # Fast loop: one heap pop per event, no peek_time() cleanup
            # pass, clock advanced by direct assignment (pop order is
            # nondecreasing by heap invariant, so monotonicity holds).
            heap = self._heap
            clock = self.clock
            heappop = heapq.heappop
            while heap:
                entry = heap[0]
                time_ = entry[0]
                if time_ > t:
                    break
                if time_ - clock._now > FAST_FORWARD_MIN_GAP_S:
                    self.fast_forward_to(time_)
                heappop(heap)
                cb = entry[2]
                arg = entry[3]
                if arg is _HANDLE:
                    fn = cb.callback
                    if fn is None:
                        continue
                    cb.callback = None
                    self._live -= 1
                    clock._now = time_
                    fn()
                else:
                    self._live -= 1
                    clock._now = time_
                    if arg is _NO_ARG:
                        cb()
                    else:
                        cb(arg)
                fired += 1
            self._fired += fired
        else:
            while fired < max_events:
                nxt = self.peek_time()
                if nxt is None or nxt > t:
                    break
                self.step()
                fired += 1
        if self.clock.now() < t:
            self.clock.advance_to(t)
        return fired

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue is empty (or ``max_events`` fire)."""
        fired = 0
        self._horizon = float("inf")
        while self.step():
            fired += 1
            if max_events is not None and fired >= max_events:
                break
        return fired

    def run_while(self, predicate: Callable[[], bool], horizon: float) -> int:
        """Run while ``predicate()`` is true, never past ``horizon``."""
        fired = 0
        while predicate():
            nxt = self.peek_time()
            if nxt is None or nxt > horizon:
                break
            self.step()
            fired += 1
        return fired

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._live

    @property
    def fired(self) -> int:
        """Total number of events fired so far."""
        return self._fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventScheduler(now={self.clock.now():.6f}, pending={self.pending})"
