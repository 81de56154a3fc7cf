"""Telemetry: span tracing, metrics and structured events for the engine.

The paper's own method is phase-level traffic instrumentation; this
package applies the same idea to the reproduction itself.  The worker
pool, the result cache, ``run_session`` and the players emit spans
(wall-clock timed regions), counters/gauges/histograms and structured
events into an ambient :class:`Recorder`.  The per-packet layers (the
TCP endpoints, the event scheduler) never touch it: ``run_session``
reads their plain counters once, after the session, so recording
cannot change the code path a session takes.

Three properties define the design (see ``docs/ARCHITECTURE.md``):

* **Off by default, zero-cost when off.**  The ambient recorder is a
  no-op :class:`NullRecorder`; instrumented code checks ``rec.enabled``
  once per scope and skips everything.  Report output is byte-identical
  with telemetry on or off.
* **Deterministic.**  Counters, histograms and events carry simulation
  values only; per-session buffers are merged in plan order by the
  engine, so ``--jobs N`` telemetry equals ``--jobs 1`` telemetry.
  Recording state is *excluded* from cache fingerprints.
* **Attached to results.**  Each session's telemetry snapshot rides on
  ``SessionResult.telemetry``, so it survives the worker-pool pickle
  round-trip and the result cache alongside the data it describes.

Typical use — the ``repro profile`` CLI does exactly this::

    from repro.telemetry import recording, summarize

    with recording() as rec:
        result = spec.run(scale, seed=0)
    print(summarize(rec, title="table1 profile"))

Public API: :class:`Recorder`, :class:`NullRecorder`,
:func:`current_recorder`, :func:`recording`, :func:`use_recorder` (the
recorder, :mod:`repro.telemetry.recorder`); :func:`summarize`,
:func:`write_jsonl`, :func:`aggregate_spans`, :func:`hot_spans` (the exporters,
:mod:`repro.telemetry.export`).
"""

from .export import (
    aggregate_spans,
    chrome_trace_events,
    format_hot_spans,
    hot_spans,
    percentile_row,
    summarize,
    write_chrome_trace,
    write_jsonl,
)
from .recorder import (
    NULL,
    EventRecord,
    HistogramSummary,
    NullRecorder,
    Recorder,
    SessionTelemetry,
    SpanRecord,
    current_recorder,
    recording,
    use_recorder,
)

__all__ = [
    "EventRecord",
    "HistogramSummary",
    "NULL",
    "NullRecorder",
    "Recorder",
    "SessionTelemetry",
    "SpanRecord",
    "aggregate_spans",
    "chrome_trace_events",
    "current_recorder",
    "format_hot_spans",
    "hot_spans",
    "percentile_row",
    "recording",
    "summarize",
    "use_recorder",
    "write_chrome_trace",
    "write_jsonl",
]
