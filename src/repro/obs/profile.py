"""The run profile: a fold over the run ledger and the values it carries.

``repro profile`` subscribes one :class:`Profile` to the campaign's
:class:`~repro.runner.RunLedger`, exactly as progress, ``repro dash``
and the export collector do, and renders what it folded.  Nothing in
the shipped code path records for it: the engine's ledger events give
the run's shape, and each batch's plan-ordered values — the
:class:`~repro.streaming.SessionResult`\\ s, or task values carrying a
``sim_counters`` dict — give everything else.

Two kinds of section, kept apart:

* **Phases** (wall clock) — one row per engine entry point
  (``engine.run_sessions``, ``engine.run_tasks``), timed from its
  ``scheduled`` event to its ``batch-finished``, and under it the unit
  row: ``calls`` counts the units computed (cache hits excluded) and
  ``total`` sums their ``done`` latencies.  The heading carries the
  cache accounting.  These numbers describe *this* run.
* **Counters, gauges, histograms, events** — a pure function of the
  session results (plus the units scheduled, and the ``engine.jobs``
  gauge the caller sets), folded in plan order.  They are identical for any ``--jobs`` value and
  whether the results were computed, replayed from a warm cache, or
  left there by ``repro experiment``.

Typical use — the ``repro profile`` CLI does exactly this::

    ledger = RunLedger()
    profile = Profile(gauges={"engine.jobs": 1})
    ledger.subscribe(profile)
    spec.run(scale, seed=0, ledger=ledger)
    print(summarize(profile, title="fig2 profile"))

The renderers (:func:`summarize`, :func:`format_hot_spans`,
:func:`write_jsonl`, :func:`write_chrome_trace`) read a
:class:`Profile`'s fields only, so a hand-built one renders too.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..streaming.session import SessionResult
from . import exporters

__all__ = [
    "EventRecord",
    "HistogramSummary",
    "Profile",
    "SpanRecord",
    "aggregate_spans",
    "chrome_trace_events",
    "format_hot_spans",
    "hot_spans",
    "percentile_row",
    "summarize",
    "write_chrome_trace",
    "write_jsonl",
]

#: Percentiles reported for every histogram in the profile summary.
PERCENTILES = (50, 95, 99)


@dataclass(frozen=True)
class SpanRecord:
    """One timed region: a slash-joined ``path``, wall-clock ``start``
    (``time.perf_counter``) and ``duration`` in seconds."""

    path: str
    start: float
    duration: float


@dataclass(frozen=True)
class EventRecord:
    """One per-session event: a name, a simulated timestamp (``None``
    when the result does not carry one), and small sorted fields."""

    name: str
    t: Optional[float] = None
    fields: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, name: str, t: Optional[float] = None,
             **fields: Any) -> "EventRecord":
        return cls(name=name, t=t, fields=tuple(sorted(fields.items())))


@dataclass
class HistogramSummary:
    """Summary of an observed distribution: moments plus raw samples.

    Deliberately bucket-free: the folded values (session durations,
    downloaded bytes) are deterministic and few per session, so exact
    moments and exact percentiles are both cheap.  Percentiles sort at
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
class Profile:
    """One run's profile, folded from its ledger (a subscriber).

    ``spans`` holds the engine batches and the units computed under
    them; ``cache_hits`` / ``computed`` are the engine's cache
    accounting.  Everything else is folded from plan-ordered batch
    values by :meth:`fold_value`.
    """

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramSummary] = field(default_factory=dict)
    events: List[EventRecord] = field(default_factory=list)
    spans: List[SpanRecord] = field(default_factory=list)
    cache_hits: int = 0
    computed: int = 0
    #: open batches, outermost first: (row path segment, start)
    _open: List[Tuple[str, float]] = field(default_factory=list,
                                           init=False, repr=False)
    #: when the next batch's first cache hit replayed, if one has
    _replay: Optional[float] = field(default=None, init=False, repr=False)

    def _inc(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _observe(self, name: str, value: float) -> None:
        self.histograms.setdefault(name, HistogramSummary()).observe(value)

    # -- the subscriber --------------------------------------------------------

    def __call__(self, record: dict, value: Any) -> None:
        """Fold one ledger event: batch boundaries and computed units
        into spans, settlements into engine counters, and each finished
        batch's values (plan order) through :meth:`fold_value`."""
        kind = record["event"]
        if kind == "scheduled":
            units, hits = record["units"], record["cache_hits"]
            self._inc("engine.units", units)
            self.cache_hits += hits
            self.computed += units - hits
            # a batch's cache hits replay before its ``scheduled``: its
            # row starts at the first of them
            start = self._replay or time.perf_counter()
            self._replay = None
            self._open.append((f"engine.{record['batch']}", start))
        elif kind == "done":
            latency = record.get("latency_s")
            if record.get("cached"):
                self._replay = self._replay or time.perf_counter()
            elif latency is not None and self._open:
                unit = ("session" if self._open[-1][0]
                        == "engine.run_sessions" else "task")
                self.spans.append(SpanRecord(
                    self._path(unit), time.perf_counter() - latency,
                    latency))
        elif kind == "retried":
            self._inc("engine.retries")
        elif kind == "quarantined":
            self._inc("engine.quarantined")
        elif kind == "batch-finished":
            if self._open:
                path = self._path()
                _, start = self._open.pop()
                self.spans.append(SpanRecord(
                    path, start, time.perf_counter() - start))
            for item in value:
                self.fold_value(item)

    def _path(self, leaf: Optional[str] = None) -> str:
        names = [name for name, _ in self._open]
        return "/".join(names + [leaf] if leaf else names)

    # -- the value fold --------------------------------------------------------

    def fold_value(self, value: Any) -> None:
        """Fold one unit value: its ``sim_counters`` (any value carrying
        them, sessions and cohort rows alike; zero totals are skipped)
        and, for a :class:`~repro.streaming.SessionResult`, the session
        counters, histograms and events.  Other values are ignored."""
        for name, total in (getattr(value, "sim_counters", None)
                            or {}).items():
            if total:
                self._inc(name, total)
        if isinstance(value, SessionResult):
            self._fold_session(value)

    def _fold_session(self, result: SessionResult) -> None:
        self._inc("sessions.completed")
        self._inc("tcp.connections_opened", result.connections_opened)
        self._inc("pcap.packets", len(result.capture))
        rebuffers = result.stall_events[:result.rebuffer_count]
        for name, n in (("player.requests", len(result.requests)),
                        ("player.rebuffers", len(rebuffers)),
                        ("player.retries", result.retry_count),
                        ("player.downshifts", len(result.downshifts))):
            if n:
                self._inc(name, n)
        end = result.duration_simulated
        self._observe("session.sim_seconds", end)
        self._observe("session.downloaded_bytes", result.downloaded)

        config = result.config
        make = EventRecord.make
        events = self.events
        events.append(make("session.start", t=0.0,
                           video=result.video.video_id,
                           profile=config.profile.name,
                           service=config.service.name,
                           application=config.application.name))
        if result.startup_delay_s is not None:
            events.append(make("player.playback_start",
                               startup_delay_s=result.startup_delay_s))
        events.extend(make("player.request", t=t, offset=offset,
                           ranged=ranged)
                      for t, offset, ranged in result.requests)
        # a rebuffer is a stall playback resumed from; only the last
        # stall can end otherwise (stop, capture end, download done)
        events.extend(make("player.rebuffer", t=stop, started=start,
                           duration=stop - start)
                      for start, stop in rebuffers)
        events.extend(make("player.retry") for _ in range(result.retry_count))
        events.extend(make("player.downshift", t=t, old_rate=old,
                           new_rate=new)
                      for t, old, new in result.downshifts)
        if result.failed:
            events.append(make("player.failed", reason=result.fail_reason))
        events.append(make("session.end", t=end,
                           video=result.video.video_id,
                           downloaded=result.downloaded,
                           finished=result.player_finished,
                           rebuffers=result.rebuffer_count))


def percentile_row(hist: HistogramSummary,
                   qs: Sequence[float] = PERCENTILES) -> List[str]:
    """Formatted percentile cells for one histogram (``"-"`` when empty).

    >>> h = HistogramSummary()
    >>> percentile_row(h)
    ['-', '-', '-']
    >>> h.observe(2.0)
    >>> percentile_row(h)
    ['2', '2', '2']
    """
    cells = []
    for q in qs:
        value = hist.percentile(q)
        cells.append("-" if value is None else f"{value:g}")
    return cells


def _span_totals(spans: Sequence[SpanRecord]) -> Dict[str, Tuple[int, float]]:
    totals: Dict[str, Tuple[int, float]] = {}
    for span in spans:
        count, total = totals.get(span.path, (0, 0.0))
        totals[span.path] = (count + 1, total + span.duration)
    return totals


def aggregate_spans(
    spans: Sequence[SpanRecord],
) -> List[Tuple[str, int, float]]:
    """Collapse raw span records into ``(path, calls, total_seconds)`` rows.

    Rows come back sorted as a depth-first tree walk (parents before
    children, siblings by total time descending), ready for indented
    display.

    >>> rows = aggregate_spans([
    ...     SpanRecord("a", 0.0, 2.0), SpanRecord("a/b", 0.0, 1.5),
    ...     SpanRecord("a/b", 2.0, 0.5)])
    >>> [(p, n, t) for p, n, t in rows]
    [('a', 1, 2.0), ('a/b', 2, 2.0)]
    """
    totals = _span_totals(spans)

    # Depth-first ordering: group children under their parent path,
    # siblings sorted by total descending then name.
    children: Dict[str, List[str]] = {}
    for path in list(totals):
        parent = path.rsplit("/", 1)[0] if "/" in path else ""
        children.setdefault(parent, []).append(path)
        # A child can exist without its parent having a span of its own
        # (a batch whose batch-finished never came); materialize
        # intermediate nodes so the walk reaches everything.
        while parent and parent not in totals:
            totals[parent] = (0, 0.0)
            grand = parent.rsplit("/", 1)[0] if "/" in parent else ""
            children.setdefault(grand, []).append(parent)
            parent = grand

    rows: List[Tuple[str, int, float]] = []

    def walk(path: str) -> None:
        if path:
            count, total = totals[path]
            rows.append((path, count, total))
        kids = sorted(set(children.get(path, ())),
                      key=lambda p: (-totals[p][1], p))
        for kid in kids:
            walk(kid)

    walk("")
    return rows


def hot_spans(profile: Profile,
              top: int = 10) -> List[Tuple[str, int, float, float]]:
    """The ``top`` hottest span paths by *cumulative* time.

    Returns ``(path, calls, total_seconds, mean_seconds)`` rows sorted by
    total descending (ties by path).  Unlike :func:`aggregate_spans` this
    is a flat ranking, not a tree walk.

    >>> rows = hot_spans(Profile(spans=[
    ...     SpanRecord("a", 0.0, 2.0), SpanRecord("a/b", 0.0, 1.5),
    ...     SpanRecord("a/b", 2.0, 0.5)]), top=1)
    >>> [(p, n, t) for p, n, t, _mean in rows]
    [('a', 1, 2.0)]
    """
    ranked = sorted(_span_totals(profile.spans).items(),
                    key=lambda kv: (-kv[1][1], kv[0]))
    return [
        (path, count, total, total / count if count else 0.0)
        for path, (count, total) in ranked[: max(0, top)]
    ]


def format_hot_spans(profile: Profile, top: int = 10) -> str:
    """Render :func:`hot_spans` as a fixed-width table."""
    rows = hot_spans(profile, top)
    if not rows:
        return "no spans recorded"
    grand = sum(total for _, _, total, _ in rows)
    table_rows = [
        (path, str(count), _format_seconds(total).strip(),
         _format_seconds(mean).strip(),
         f"{100.0 * total / grand:5.1f}%" if grand > 0 else "  0.0%")
        for path, count, total, mean in rows
    ]
    lines = [f"hot spans (top {len(rows)} by cumulative time)"]
    lines += _table(("span", "calls", "total", "mean", "share"), table_rows)
    return "\n".join(lines)


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.2f}s"
    return f"{seconds * 1e3:7.1f}ms"


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]],
           align_left: int = 1) -> List[str]:
    """Minimal fixed-width table (first ``align_left`` columns left-aligned)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            parts.append(cell.ljust(widths[i]) if i < align_left
                         else cell.rjust(widths[i]))
        return "  ".join(parts).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return lines


def summarize(profile: Profile, title: Optional[str] = None,
              max_events: int = 10) -> str:
    """Render the profile: phases, counters, gauges, histograms, events.

    The phase table is "flame-style": one row per distinct span path,
    indented by depth, with the share of the root rows' total wall time
    in the last column.  Under ``--jobs N`` a unit row sums worker
    seconds, so its share can legitimately exceed 100% of the
    (wall-clock) batch above it — that surplus *is* the speedup.
    """
    lines: List[str] = []
    if title:
        lines += [title, "=" * len(title), ""]

    span_rows = aggregate_spans(profile.spans)
    root_total = sum(total for path, _, total in span_rows if "/" not in path)
    if span_rows:
        rendered = []
        for path, count, total in span_rows:
            depth = path.count("/")
            name = path.rsplit("/", 1)[-1]
            share = (100.0 * total / root_total) if root_total > 0 else 0.0
            mean = total / count if count else 0.0
            rendered.append((
                "  " * depth + name,
                str(count),
                _format_seconds(total).strip(),
                _format_seconds(mean).strip(),
                f"{share:5.1f}%",
            ))
        lines += [f"Phases (wall clock; {profile.cache_hits} cache hits, "
                  f"{profile.computed} computed)"]
        lines += _table(["phase", "calls", "total", "mean", "share"], rendered)
        lines.append("")

    if profile.counters:
        rows = [(name, f"{value:g}")
                for name, value in sorted(profile.counters.items())]
        lines += ["Counters"]
        lines += _table(["counter", "value"], rows)
        lines.append("")

    if profile.gauges:
        rows = [(name, f"{value:g}")
                for name, value in sorted(profile.gauges.items())]
        lines += ["Gauges"]
        lines += _table(["gauge", "value"], rows)
        lines.append("")

    if profile.histograms:
        rows = [
            (name, str(h.count), f"{h.mean:g}",
             "-" if h.min is None else f"{h.min:g}",
             *percentile_row(h),
             "-" if h.max is None else f"{h.max:g}")
            for name, h in sorted(profile.histograms.items())
        ]
        lines += ["Histograms"]
        lines += _table(["histogram", "count", "mean", "min",
                         "p50", "p95", "p99", "max"], rows)
        lines.append("")

    if profile.events:
        by_name: Dict[str, int] = {}
        for event in profile.events:
            by_name[event.name] = by_name.get(event.name, 0) + 1
        top = sorted(by_name.items(), key=lambda kv: (-kv[1], kv[0]))
        rows = [(name, str(count)) for name, count in top[:max_events]]
        lines += [f"Events ({len(profile.events)} total, "
                  f"{len(by_name)} distinct)"]
        lines += _table(["event", "count"], rows)
        lines.append("")

    if len(lines) == 0 or (title and len(lines) == 3):
        lines.append("(nothing profiled)")
    return "\n".join(lines).rstrip()


def _event_to_json(event: EventRecord) -> dict:
    record: dict = {"kind": "event", "name": event.name}
    if event.t is not None:
        record["t"] = event.t
    if event.fields:
        record["fields"] = dict(event.fields)
    return record


def write_jsonl(profile: Profile, path) -> int:
    """Dump every record as one JSON object per line; returns line count.

    Record kinds: ``span`` (path/start/duration, wall clock), ``event``
    (name/simulated t/fields), ``counter``, ``gauge``, ``histogram``,
    and one ``cache`` line (hits/computed).  Events keep their plan
    order, so a dump of a deterministic run is itself deterministic
    apart from span timings and the cache line.
    """
    lines = [{"kind": "span", "path": span.path, "start": span.start,
              "duration": span.duration} for span in profile.spans]
    lines += [_event_to_json(event) for event in profile.events]
    lines += [{"kind": "counter", "name": name, "value": value}
              for name, value in sorted(profile.counters.items())]
    lines += [{"kind": "gauge", "name": name, "value": value}
              for name, value in sorted(profile.gauges.items())]
    lines += [{"kind": "histogram", "name": name, "count": hist.count,
               "total": hist.total, "min": hist.min, "max": hist.max,
               "p50": hist.percentile(50), "p95": hist.percentile(95),
               "p99": hist.percentile(99)}
              for name, hist in sorted(profile.histograms.items())]
    lines.append({"kind": "cache", "hits": profile.cache_hits,
                  "computed": profile.computed})
    return exporters.write_jsonl(lines, path)


def chrome_trace_events(profile: Profile) -> List[dict]:
    """The span tree as Chrome trace-viewer complete events.

    One ``{"ph": "X"}`` event per span record, timestamps and durations
    in microseconds rebased to the earliest span start, so the trace
    opens at t=0 in ``chrome://tracing`` or Perfetto.  The event name is
    the last segment of the span path (the full path travels in
    ``args.path``); everything runs on pid/tid 0.

    >>> events = chrome_trace_events(Profile(spans=[
    ...     SpanRecord("a", 10.0, 2.0), SpanRecord("a/b", 10.5, 1.0)]))
    >>> [(e["name"], e["ts"], e["dur"]) for e in events]
    [('a', 0, 2000000), ('b', 500000, 1000000)]
    """
    if not profile.spans:
        return []
    base = min(span.start for span in profile.spans)
    return [
        {
            "name": span.path.rsplit("/", 1)[-1],
            "cat": "span",
            "ph": "X",
            "ts": round((span.start - base) * 1e6),
            "dur": round(span.duration * 1e6),
            "pid": 0,
            "tid": 0,
            "args": {"path": span.path},
        }
        for span in sorted(profile.spans, key=lambda s: (s.start, s.path))
    ]


def write_chrome_trace(profile: Profile, path) -> int:
    """Dump the span tree as a Chrome trace-viewer JSON array; returns
    the event count.  The plain-array flavor of the trace-event format,
    loadable by ``chrome://tracing`` and Perfetto directly."""
    events = chrome_trace_events(profile)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(events, f)
        f.write("\n")
    return len(events)
