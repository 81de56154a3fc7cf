"""The recorder: spans, counters, gauges, histograms, structured events.

One :class:`Recorder` collects everything the instrumented hot paths emit.
Its design is governed by two constraints that pull in opposite
directions:

* **Zero cost when disabled.**  The ambient recorder defaults to
  :data:`NULL`, a :class:`NullRecorder` whose ``enabled`` attribute is
  ``False`` and whose methods are no-ops.  Instrumented code holds a
  reference captured once (at object construction or scope entry) and
  guards its work with a single ``if rec.enabled:`` check — no
  context-variable lookup, no dict update, no allocation on the
  disabled path.
* **Determinism under parallelism.**  Counters, histograms and events
  carry only *simulation-derived* values (simulated timestamps, byte
  counts, event names), never wall-clock state, so the totals for a
  batch are a pure function of the plans.  Wall-clock time appears only
  in span durations, which profiling consumes and the determinism tests
  ignore.  Per-session recorders are snapshotted into
  :class:`SessionTelemetry` and merged **in plan order** by the engine,
  making ``jobs=N`` telemetry equal to ``jobs=1`` telemetry.

The ambient recorder is a :mod:`contextvars` variable, exactly like the
engine options: :func:`recording` installs a live recorder for a scope,
:func:`current_recorder` reads the one in effect.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "EventRecord",
    "HistogramSummary",
    "NullRecorder",
    "Recorder",
    "SessionTelemetry",
    "SpanRecord",
    "current_recorder",
    "recording",
    "use_recorder",
]


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: a named, nested, wall-clock-timed region.

    ``path`` is the slash-joined stack of span names at completion time
    (``"session/stream"``), which is what the profile exporter aggregates
    into the flame-style breakdown.  ``start`` and ``duration`` are
    wall-clock (``time.perf_counter``) values — useful for profiling,
    excluded from determinism comparisons.
    """

    path: str
    start: float
    duration: float


@dataclass(frozen=True)
class EventRecord:
    """One structured event: a name, a simulated timestamp, small fields.

    ``t`` is *simulated* time (or ``None`` for events outside any
    simulation, e.g. engine-level events), so event logs are
    deterministic and comparable across worker counts.
    """

    name: str
    t: Optional[float] = None
    fields: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, name: str, t: Optional[float] = None, **fields: Any) -> "EventRecord":
        return cls(name=name, t=t, fields=tuple(sorted(fields.items())))


@dataclass
class HistogramSummary:
    """Summary of an observed distribution: moments plus raw samples.

    Deliberately bucket-free: the instrumented values (session durations,
    downloaded bytes, block sizes) are deterministic, so exact moments
    merge exactly.  The raw samples are retained too — the instrumented
    paths observe a handful of values per session, so the list stays
    small while making exact percentiles possible.  Percentiles sort at
    query time, so merge order never affects them.
    """

    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None
    samples: List[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.samples.append(value)

    def merge(self, other: "HistogramSummary") -> None:
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.min = other.min if self.min is None else min(self.min, other.min)  # type: ignore[arg-type]
        self.max = other.max if self.max is None else max(self.max, other.max)  # type: ignore[arg-type]
        self.samples.extend(other.samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observed values (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """The ``q``-th percentile (0–100, linear interpolation between
        order statistics), or ``None`` when nothing was observed.

        >>> h = HistogramSummary()
        >>> for v in (1.0, 2.0, 3.0, 4.0):
        ...     h.observe(v)
        >>> h.percentile(50)
        2.5
        >>> h.percentile(100)
        4.0
        >>> HistogramSummary().percentile(95) is None
        True
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


@dataclass
class SessionTelemetry:
    """A recorder's immutable-by-convention snapshot.

    This is what rides on ``SessionResult.telemetry`` (and in the task
    envelopes of ``run_tasks``): plain dataclasses and dicts, so it
    pickles across the worker pool and into the result cache unchanged.
    """

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramSummary] = field(default_factory=dict)
    events: List[EventRecord] = field(default_factory=list)
    spans: List[SpanRecord] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        """True when nothing was recorded."""
        return not (self.counters or self.gauges or self.histograms
                    or self.events or self.spans)


class _NullSpan:
    """Shared, reusable no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled recorder: every operation is a no-op.

    Instrumented code checks ``rec.enabled`` once per scope (per span,
    per session, per player event) and skips all bookkeeping when it
    is ``False``; the methods still exist so un-guarded call sites stay
    correct, just slightly less fast.
    """

    enabled = False

    def span(self, name: str) -> _NullSpan:
        """A reusable no-op context manager."""
        return _NULL_SPAN

    def inc(self, name: str, n: float = 1) -> None:
        """Discard a counter increment."""

    def gauge(self, name: str, value: float) -> None:
        """Discard a gauge update."""

    def observe(self, name: str, value: float) -> None:
        """Discard a histogram observation."""

    def event(self, name: str, t: Optional[float] = None, **fields: Any) -> None:
        """Discard a structured event."""

    def snapshot(self) -> SessionTelemetry:
        """An empty snapshot (the null recorder never holds data)."""
        return SessionTelemetry()

    def merge(self, telemetry: SessionTelemetry) -> None:
        """Discard a merge."""


#: The process-wide disabled recorder (ambient default).
NULL = NullRecorder()


class _Span:
    """Context manager produced by :meth:`Recorder.span`."""

    __slots__ = ("_rec", "_name", "_start")

    def __init__(self, rec: "Recorder", name: str) -> None:
        self._rec = rec
        self._name = name

    def __enter__(self) -> "_Span":
        self._rec._stack.append(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        duration = time.perf_counter() - self._start
        rec = self._rec
        path = "/".join(rec._stack)
        rec._stack.pop()
        rec.spans.append(SpanRecord(path=path, start=self._start,
                                    duration=duration))
        return False


class Recorder(NullRecorder):
    """A live recorder collecting spans, counters, gauges, histograms, events.

    Subclasses :class:`NullRecorder` only so the two are substitutable;
    every method is overridden.  Not thread-safe by design — each worker
    process and each session gets its own recorder, and merging happens
    single-threaded in plan order.
    """

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, HistogramSummary] = {}
        self.events: List[EventRecord] = []
        self.spans: List[SpanRecord] = []
        self._stack: List[str] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str) -> _Span:
        """Time a named region; nests under any open spans.

        >>> rec = Recorder()
        >>> with rec.span("outer"):
        ...     with rec.span("inner"):
        ...         pass
        >>> [s.path for s in rec.spans]
        ['outer/inner', 'outer']
        """
        return _Span(self, name)

    def inc(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest ``value`` (last write wins)."""
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Feed ``value`` into the histogram summary for ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = HistogramSummary()
        hist.observe(value)

    def event(self, name: str, t: Optional[float] = None, **fields: Any) -> None:
        """Append a structured event (``t`` is *simulated* time)."""
        self.events.append(EventRecord.make(name, t, **fields))

    # -- snapshot / merge ----------------------------------------------------

    @property
    def current_path(self) -> str:
        """Slash-joined path of the currently open spans ('' at top level)."""
        return "/".join(self._stack)

    def snapshot(self) -> SessionTelemetry:
        """Copy everything recorded so far into a :class:`SessionTelemetry`."""
        return SessionTelemetry(
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            histograms={k: HistogramSummary(v.count, v.total, v.min, v.max,
                                            list(v.samples))
                        for k, v in self.histograms.items()},
            events=list(self.events),
            spans=list(self.spans),
        )

    def merge(self, telemetry: SessionTelemetry) -> None:
        """Fold a snapshot into this recorder.

        Counter values add, histogram summaries combine, gauges take the
        incoming value (last write wins), events append in order, and
        span paths are re-rooted under the currently open span — so a
        session's ``session/stream`` span shows up under the engine's
        ``engine.run_sessions`` span in the merged flame view.

        Called by the engine once per result, in plan order; merging is
        therefore deterministic for any worker count.
        """
        for name, value in telemetry.counters.items():
            self.inc(name, value)
        for name, value in telemetry.gauges.items():
            self.gauges[name] = value
        for name, hist in telemetry.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = HistogramSummary()
            mine.merge(hist)
        self.events.extend(telemetry.events)
        prefix = self.current_path
        if prefix:
            self.spans.extend(
                SpanRecord(path=f"{prefix}/{s.path}", start=s.start,
                           duration=s.duration)
                for s in telemetry.spans
            )
        else:
            self.spans.extend(telemetry.spans)


# -- the ambient recorder -----------------------------------------------------

_RECORDER: contextvars.ContextVar[NullRecorder] = contextvars.ContextVar(
    "repro-telemetry-recorder", default=NULL
)


def current_recorder() -> NullRecorder:
    """The recorder in effect for this context (:data:`NULL` when disabled).

    Instrumented code calls this once per long-lived object (a player, a
    session) and keeps the reference; it must not cache it across
    sessions.
    """
    return _RECORDER.get()


@contextmanager
def use_recorder(recorder: NullRecorder) -> Iterator[NullRecorder]:
    """Install ``recorder`` as the ambient recorder within a ``with`` block."""
    token = _RECORDER.set(recorder)
    try:
        yield recorder
    finally:
        _RECORDER.reset(token)


@contextmanager
def recording() -> Iterator[Recorder]:
    """Record telemetry for a scope and yield the live :class:`Recorder`.

    >>> from repro.telemetry import recording, current_recorder
    >>> current_recorder().enabled
    False
    >>> with recording() as rec:
    ...     current_recorder() is rec
    True
    >>> rec.enabled
    True
    """
    with use_recorder(Recorder()) as rec:
        yield rec  # type: ignore[misc]
