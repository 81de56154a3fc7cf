"""The run ledger: the one event stream of a campaign.

The engine reports each lifecycle fact exactly once, through
:meth:`RunLedger.event`.  The call builds one ``repro-ledger/v1`` record,
appends it to the ledger file when the ledger has one, and hands it to
every subscriber as ``fn(record, value)`` — ``value`` being the live
object the record describes (a unit result, a
:class:`~repro.runner.supervise.UnitFailure`, a worker lane, a batch's
plan-ordered values), never serialized.  Live progress, ``repro dash``,
the export collector and the health plane are all subscribers or
writers here; none has a side channel of its own, so observing a run
cannot change what the ledger records.

Every campaign run with a result cache writes one JSONL file,
``<cache_root>/ledger/<experiment>-<fingerprint>.jsonl``: a
schema-versioned header, then one event per line::

    {"schema": "repro-ledger/v1", "meta": {"experiment": "fig2", ...}}
    {"seq": 0, "ts": 1754554000.21, "event": "campaign-started", ...}
    {"seq": 1, "ts": 1754554000.23, "event": "scheduled", "units": 4, ...}
    {"seq": 2, "ts": 1754554000.30, "event": "done", "key": "3f...",
     "unit": 0, "worker": "w0", "latency_s": 0.07}

``RunLedger(path=None)`` keeps the same records in memory instead
(:attr:`RunLedger.records`) — what a campaign without a cache directory
streams through.

Event kinds: ``campaign-started`` / ``campaign-finished`` (CLI scope),
``scheduled`` (one per engine batch, after cache lookup, with the
entry point that ran it in ``batch``), the unit
*settlements* ``done`` / ``retried`` / ``quarantined`` (written once
each by the engine, keyed by the unit's cache ``key``; a cache hit
replays as ``done`` with ``"cached": true``; a failure carries its
``label``, ``worker``, ``kind``, ``error`` and ``attempts``, see
:meth:`RunLedger.failure`) and ``merged`` (one per shard result handed
to the streaming reduction).  The health plane
(:mod:`repro.obs.health`) adds ``started``, ``heartbeat-summary`` and
``suspect``; a distributed campaign adds ``dist-published``,
``re-leased`` and ``worker-exit``.  Every ``unit`` field is the unit's
index in its batch's plan.  The kinds in :data:`LIVE_KINDS` reach the
subscribers but are never written: a ``beat`` per worker heartbeat
(value: the live lane) and ``batch-finished`` (value: the batch's
plan-ordered results).

:class:`UnitCounts` folds the stream into the campaign's unit tally —
units scheduled, cache hits, retries, quarantines — which the CLI's
``engine`` line and failure block, the live displays and the report's
Units line all read.

The settlements are the write-ahead record behind ``--resume`` and
``repro list``: folded last-status-wins per key (``retried`` reads as
``failed``), they say which units a killed campaign already settled.
Each event is flushed as it is appended and the loader skips the torn
final line a kill leaves behind.  The log never gates execution —
results always come from the cache or a fresh simulation — nothing
reads it back during a run beyond the resume load at open, and it
never enters a cache fingerprint.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from .fingerprint import fingerprint

__all__ = [
    "LEDGER_SCHEMA",
    "LIVE_KINDS",
    "LedgerView",
    "RunLedger",
    "UnitCounts",
    "campaign_fingerprint",
    "ledger_path",
    "list_campaigns",
    "load_ledger",
]

#: Schema identifier stamped into (and required of) every ledger file.
LEDGER_SCHEMA = "repro-ledger/v1"

#: Subdirectory of a cache root where run ledgers live.
LEDGER_DIRNAME = "ledger"

#: Kinds delivered to subscribers but never written: one per worker
#: heartbeat (value: the live lane) and one per finished engine batch
#: (value: its plan-ordered results).
LIVE_KINDS = frozenset({"beat", "batch-finished"})

#: Settlement events and the unit status each one leaves behind.
SETTLEMENTS = {"done": "done", "retried": "failed",
               "quarantined": "quarantined"}


def campaign_fingerprint(experiment: str, scale: str, seed: int) -> str:
    """A stable identity for one campaign: (experiment, scale, seed).

    Deliberately excludes ``code_version`` and ``jobs``: a resumed
    campaign must find its ledger after a code fix or with a different
    worker count.  Unit *results* still refuse to cross code versions —
    their cache keys embed ``code_version`` — so resuming across a code
    change simply re-simulates everything, correctly.
    """
    return fingerprint("campaign", experiment, scale, seed)[:16]


def ledger_path(cache_root, experiment: str, scale: str, seed: int) -> Path:
    """Where the ledger for one (experiment, scale, seed) campaign lives."""
    fp = campaign_fingerprint(experiment, scale, seed)
    return Path(cache_root) / LEDGER_DIRNAME / f"{experiment}-{fp}.jsonl"


def _count_statuses(units: Dict[str, str]) -> Dict[str, int]:
    counts = {"done": 0, "failed": 0, "quarantined": 0}
    for status in units.values():
        counts[status] += 1
    return counts


class RunLedger:
    """The campaign's event stream: an append-only log plus subscribers.

    Events are sequence-numbered and wall-clock timestamped at append
    time.  With a ``path`` each is flushed to the JSONL file
    immediately, so a killed campaign keeps every event up to the kill;
    without one they collect in :attr:`records`.  ``clock`` is
    injectable for deterministic tests.  ``units`` is the last
    settlement status per unit key, loaded at open when appending to an
    existing log.
    """

    def __init__(self, path=None, *, meta: Optional[dict] = None,
                 fresh: bool = False,
                 clock: Callable[[], float] = time.time) -> None:
        self.path = Path(path) if path is not None else None
        self.clock = clock
        self._seq = 0
        self.units: Dict[str, str] = {}
        self.records: List[dict] = []
        self._subscribers: List[Callable[[dict, Any], None]] = []
        self._file = None
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if fresh and self.path.exists():
            self.path.unlink()
        existed = self.path.exists() and self.path.stat().st_size > 0
        if existed:
            # resumed campaign: keep appending, continue the sequence
            view = load_ledger(self.path)
            self._seq = (view.events[-1]["seq"] + 1) if view.events else 0
            self.units = view.units()
        self._file = open(self.path, "a", encoding="utf-8")
        # a killed writer can leave a torn, newline-less final line; left
        # as-is the next append would glue onto it and corrupt *both*
        # records, so terminate it now (the loader skips the fragment)
        if self._file.tell() > 0:
            with open(self.path, "rb") as f:
                f.seek(-1, os.SEEK_END)
                if f.read(1) != b"\n":
                    self._file.write("\n")
                    self._file.flush()
        if not existed:
            self._append({"schema": LEDGER_SCHEMA, "meta": dict(meta or {})})

    @classmethod
    def for_campaign(cls, cache_root, experiment: str, scale: str,
                     seed: int, *, fresh: bool = False) -> "RunLedger":
        """The ledger for one campaign under a cache root; ``fresh=True``
        discards any previous event log."""
        meta = {"experiment": experiment, "scale": scale, "seed": seed}
        return cls(ledger_path(cache_root, experiment, scale, seed),
                   meta=meta, fresh=fresh)

    def _append(self, record: dict) -> None:
        if self._file is None:
            self.records.append(record)
            return
        self._file.write(json.dumps(record) + "\n")
        self._file.flush()

    def subscribe(self, fn: Callable[[dict, Any], None]) -> None:
        """Call ``fn(record, value)`` for every subsequent event."""
        self._subscribers.append(fn)

    def event(self, kind: str, value: Any = None, /, **fields: Any) -> None:
        """Report one lifecycle event (``None``-valued fields dropped).

        The record is written unless ``kind`` is in :data:`LIVE_KINDS`
        or it is a ``done`` for a unit already done (a cache hit
        replayed on resume); either way every subscriber then receives
        ``(record, value)``.  A keyed settlement updates :attr:`units`.
        """
        live = kind in LIVE_KINDS
        if live and not self._subscribers:
            return
        write = not live
        key = fields.get("key")
        status = SETTLEMENTS.get(kind)
        if status is not None and key is not None:
            if status == "done" and self.units.get(key) == "done":
                write = False
            self.units[key] = status
        record: Dict[str, Any] = {"seq": self._seq} if write else {}
        record["ts"] = round(self.clock(), 3)
        record["event"] = kind
        record.update((k, v) for k, v in fields.items() if v is not None)
        if write:
            self._seq += 1
            self._append(record)
        for fn in self._subscribers:
            fn(record, value)

    def failure(self, failure: Any) -> None:
        """Report one :class:`~repro.runner.supervise.UnitFailure`: a
        ``retried`` settlement, or ``quarantined`` once it is final."""
        self.event("quarantined" if failure.final else "retried", failure,
                   key=failure.key, unit=failure.index, label=failure.label,
                   worker=failure.worker, kind=failure.kind,
                   error=failure.error, attempts=failure.attempts)

    def unit_counts(self) -> Dict[str, int]:
        """Settled units per status: done / failed / quarantined."""
        return _count_statuses(self.units)

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._file is not None and not self._file.closed:
            self._file.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class UnitCounts:
    """The unit tally, folded from the ledger stream.

    Subscribe one to a :class:`RunLedger`, or :meth:`fold` a loaded
    ledger's events.  ``total`` grows by each ``scheduled`` batch, whose
    cache hits count as done at once; a quarantined unit counts as
    settled too, so a live display converges even when a unit never
    finishes.  ``quarantined`` keeps each quarantine record, in ledger
    order.
    """

    def __init__(self) -> None:
        self.total = 0
        self.done = 0
        self.cache_hits = 0
        self.retries = 0
        self.quarantined: List[dict] = []

    @property
    def misses(self) -> int:
        """Units scheduled but not served from the cache."""
        return self.total - self.cache_hits

    @property
    def failed(self) -> int:
        """Units quarantined."""
        return len(self.quarantined)

    def fold(self, record: dict) -> None:
        """Count one ledger record."""
        kind = record["event"]
        if kind == "scheduled":
            hits = record.get("cache_hits", 0)
            self.total += record.get("units", 0)
            self.done += hits
            self.cache_hits += hits
        elif kind == "done":
            if not record.get("cached"):
                self.done += 1
        elif kind == "retried":
            self.retries += 1
        elif kind == "quarantined":
            self.quarantined.append(record)
            self.done += 1

    def __call__(self, record: dict, value: Any = None) -> None:
        """The subscriber: fold each event as it is reported."""
        self.fold(record)


def _kind(event: dict) -> str:
    """An event's kind, with cache-hit replays told apart from real work."""
    kind = event.get("event", "?")
    return "done (cached)" if kind == "done" and event.get("cached") else kind


class LedgerView:
    """A loaded ledger: header metadata plus the event list, with the
    derived views ``repro report``, ``repro list`` and ``--resume`` read
    (counts, unit statuses, per-worker activity, latencies, failures)."""

    def __init__(self, schema: str, meta: dict, events: List[dict]) -> None:
        self.schema = schema
        self.meta = meta
        self.events = events

    def counts(self) -> Dict[str, int]:
        """Events per kind, e.g. ``{"started": 13, "done": 12, ...}``;
        cache-hit replays count as ``"done (cached)"``, not ``done``."""
        counts: Dict[str, int] = {}
        for event in self.events:
            kind = _kind(event)
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def timeline(self) -> Dict[str, List[float]]:
        """Timestamps per event kind, kinds as in :meth:`counts`."""
        kinds: Dict[str, List[float]] = {}
        for event in self.events:
            if "ts" in event:
                kinds.setdefault(_kind(event), []).append(event["ts"])
        return kinds

    def units(self) -> Dict[str, str]:
        """Last settlement status per unit key (``retried`` → ``failed``)."""
        units: Dict[str, str] = {}
        for event in self.events:
            status = SETTLEMENTS.get(event.get("event"))
            if status is not None and event.get("key"):
                units[event["key"]] = status
        return units

    def unit_counts(self) -> Dict[str, int]:
        """Settled units per status: done / failed / quarantined."""
        return _count_statuses(self.units())

    def span(self) -> Optional[tuple]:
        """``(first_ts, last_ts)`` over all events, or ``None`` if empty."""
        stamps = [e["ts"] for e in self.events if "ts" in e]
        if not stamps:
            return None
        return min(stamps), max(stamps)

    def unit_latencies(self) -> List[float]:
        """Per-unit wall latencies from ``done`` events, arrival order."""
        return [e["latency_s"] for e in self.events
                if _kind(e) == "done" and "latency_s" in e]

    def failures(self) -> List[dict]:
        """Every ``retried`` / ``quarantined`` event, ledger order."""
        return [e for e in self.events
                if e.get("event") in ("retried", "quarantined")]

    def suspicions(self) -> List[dict]:
        """Every health ``suspect`` event, ledger order."""
        return [e for e in self.events if e.get("event") == "suspect"]

    def releases(self) -> List[dict]:
        """Every ``re-leased`` event (an expired lease stolen by a live
        worker), ledger order — who lost each shard and who finished it."""
        return [e for e in self.events if e.get("event") == "re-leased"]

    def distribution(self) -> Optional[dict]:
        """The distributed-fabric summary, or ``None`` for local runs.

        Folds the ``dist-published`` event(s) — queue, TTL, spawned
        worker count, shards published vs prefilled — with the
        re-lease and worker-exit tallies the report's Distribution
        section renders.
        """
        published = [e for e in self.events
                     if e.get("event") == "dist-published"]
        if not published:
            return None
        info = {k: v for k, v in published[0].items()
                if k not in ("seq", "ts", "event")}
        info["batches"] = len(published)
        info["shards"] = sum(e.get("shards", 0) for e in published)
        info["cache_hits"] = sum(e.get("cache_hits", 0) for e in published)
        info["re_leases"] = len(self.releases())
        info["worker_exits"] = sum(1 for e in self.events
                                   if e.get("event") == "worker-exit")
        return info

    def workers(self) -> Dict[str, dict]:
        """Per-worker activity folded from unit and summary events.

        One dict per worker lane: units done, busy seconds (sum of done
        latencies), retries and quarantines attributed to it, RSS
        watermark and heartbeat count from the summaries, and the pids
        the lane cycled through (respawns append).
        """
        lanes: Dict[str, dict] = {}

        def lane(worker: str) -> dict:
            return lanes.setdefault(worker, {
                "worker": worker, "pids": [], "done": 0, "busy_s": 0.0,
                "retried": 0, "quarantined": 0, "rss_kb": 0, "beats": 0,
                "suspicions": 0})

        for event in self.events:
            kind = _kind(event)
            worker = event.get("worker")
            if kind == "done" and worker:
                entry = lane(worker)
                entry["done"] += 1
                entry["busy_s"] += event.get("latency_s", 0.0)
            elif kind in ("retried", "quarantined") and worker:
                lane(worker)[kind] += 1
            elif kind == "suspect" and worker:
                lane(worker)["suspicions"] += 1
            elif kind == "heartbeat-summary":
                for snap in event.get("workers", []):
                    entry = lane(snap.get("worker", "?"))
                    pid = snap.get("pid")
                    if pid and pid not in entry["pids"]:
                        entry["pids"].append(pid)
                    entry["rss_kb"] = max(entry["rss_kb"],
                                          snap.get("rss_kb", 0))
                    entry["beats"] = max(entry["beats"],
                                         snap.get("beats", 0))
        return lanes


def load_ledger(path) -> LedgerView:
    """Parse one ledger file into a :class:`LedgerView`.

    Torn-line tolerant (a killed writer's partial final line is skipped)
    and schema-checked: a file whose header names a different schema
    raises ``ValueError`` rather than mis-rendering silently.
    """
    schema = ""
    meta: dict = {}
    events: List[dict] = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn final line from a killed writer
            if "schema" in record:
                schema = record["schema"]
                meta = record.get("meta", {})
                continue
            if "event" in record:
                events.append(record)
    if schema and schema != LEDGER_SCHEMA:
        raise ValueError(
            f"{path}: ledger schema {schema!r}, expected {LEDGER_SCHEMA!r}")
    return LedgerView(schema or LEDGER_SCHEMA, meta, events)


def list_campaigns(cache_root) -> List[dict]:
    """Summaries of every campaign ledger under ``cache_root``.

    One dict per ledger — metadata plus settled-unit counts and the
    file's mtime — sorted by experiment name then path, for the
    ``repro list`` campaign table.
    """
    root = Path(cache_root) / LEDGER_DIRNAME
    summaries = []
    for path in sorted(root.glob("*.jsonl")):
        view = load_ledger(path)
        counts = view.unit_counts()
        summaries.append({
            "path": str(path),
            "experiment": view.meta.get("experiment", path.stem),
            "scale": view.meta.get("scale", "?"),
            "seed": view.meta.get("seed", "?"),
            "units": sum(counts.values()),
            **counts,
            "updated": os.path.getmtime(path),
        })
    summaries.sort(key=lambda s: (s["experiment"], s["path"]))
    return summaries
