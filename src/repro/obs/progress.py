"""Live run progress: a single updating stderr line over the ledger stream.

Multi-minute campaigns (`repro experiment all --jobs 8`) previously ran
silent until the first report printed.  :class:`ProgressReporter` is a
subscriber on the campaign's event stream
(:meth:`repro.runner.RunLedger.subscribe`) that keeps one
``\\r``-rewritten status line on stderr::

    sessions 37/96  3.1/s  eta 19s  cache 12/37  retries 2  faults 0

It only *reads* the events the engine reports anyway — the ledger
records the same events whether or not anyone subscribes — so enabling
it cannot perturb results or the persisted record.  Its counters are
the ledger's unit tally, :class:`~repro.runner.ledger.UnitCounts`,
which it shares with the ``repro dash`` board (:mod:`repro.obs.dash`)
and the CLI's ``engine`` line.

Two terminal realities it respects:

* **Non-TTY stderr** (CI logs, ``2> file``): the ``\\r`` dance would
  smear one unreadable mega-line, so the reporter degrades to whole
  plain lines emitted at most every ``plain_interval`` seconds.
* **KeyboardInterrupt**: used as a context manager (``with reporter:``)
  the in-place line is always released with a newline on the way out —
  including the Ctrl-C path — so the traceback or shell prompt never
  lands mid-line.

The displayed total is the number of units *scheduled so far*: an
experiment reveals its batches one ``run_sessions`` call at a time, so
the total (and the ETA derived from it) grows as the campaign
progresses.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Optional, TextIO

from ..runner.ledger import UnitCounts
from ..runner.sharding import ShardResult

__all__ = [
    "ProgressReporter",
]


class ProgressReporter(UnitCounts):
    """Render engine progress as one updating stderr line."""

    def __init__(self, stream: Optional[TextIO] = None,
                 min_interval: float = 0.1,
                 label: str = "sessions",
                 plain_interval: float = 5.0) -> None:
        super().__init__()
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.plain_interval = plain_interval
        self.label = label
        # smoothed completion rate: EWMA over inter-completion intervals,
        # so the ETA tracks the *current* pace instead of the whole-run
        # average (which goes stale after a cache-hit burst or a slow
        # warmup).  Shard campaigns smooth in the same display units —
        # each ShardResult is one engine unit — so the ETA stays
        # consistent whether units are sessions or whole shards.
        self.ewma_alpha = 0.3
        self._rate = 0.0
        self._last_done_at: Optional[float] = None
        self.faults = 0
        self.shards_done = 0
        self.shards_total = 0
        self._shard_campaigns: set = set()
        self._workers: set = set()
        self._started = time.monotonic()
        self._last_render = 0.0
        self._width = 0
        self._closed = False
        self._dirty = False
        self._emitted = False
        # \r rewriting only makes sense on a real terminal; everywhere
        # else (CI logs, redirected stderr) emit occasional plain lines
        try:
            self._tty = bool(self.stream.isatty())
        except (AttributeError, ValueError, OSError):
            self._tty = False

    def __call__(self, record: dict, value: Any) -> None:
        """Fold one ledger event into the line (the subscriber)."""
        self.fold(record)
        kind = record["event"]
        if kind == "done":
            if isinstance(value, ShardResult):
                self.shards_done += 1
                # a campaign may fan out several shard groups (one per
                # strategy, say); the total sums each group's size once
                spec = value.shard
                if spec.campaign not in self._shard_campaigns:
                    self._shard_campaigns.add(spec.campaign)
                    self.shards_total += spec.of
            if not record.get("cached"):
                now = time.monotonic()
                last, self._last_done_at = self._last_done_at, now
                if last is not None and now > last:
                    sample = 1.0 / (now - last)
                    self._rate = (sample if self._rate == 0.0
                                  else self.ewma_alpha * sample
                                  + (1 - self.ewma_alpha) * self._rate)
                self._render()
        elif kind == "beat":
            # a worker lane beat (supervised pool or distributed fleet):
            # a lane reported missing (lease older than the TTL,
            # heartbeat silent) leaves the count until it beats again
            if value.missing:
                self._workers.discard(value.worker)
            else:
                self._workers.add(value.worker)
            self._render()
        elif kind == "batch-finished":
            for result in value:
                self.retries += getattr(result, "retry_count", 0) or 0
                fault_log = getattr(result, "fault_log", None)
                if fault_log is not None:
                    self.faults += len(fault_log)
            self._render(force=self._tty)
        elif kind in ("scheduled", "retried", "quarantined"):
            self._render(force=self._tty)

    # -- rendering -----------------------------------------------------------

    def _line(self) -> str:
        elapsed = max(time.monotonic() - self._started, 1e-9)
        rate = self._rate if self._rate > 0 else self.done / elapsed
        parts = [f"{self.label} {self.done}/{self.total}"]
        if self.shards_total:
            parts.append(f"shards {self.shards_done}/{self.shards_total}")
        if self._workers:
            parts.append(f"workers {len(self._workers)}")
        parts.append(f"{rate:.1f}/s")
        remaining = self.total - self.done
        if remaining > 0 and rate > 0:
            parts.append(f"eta {remaining / rate:.0f}s")
        parts.append(f"cache {self.cache_hits}/{self.done}")
        if self.retries:
            parts.append(f"retries {self.retries}")
        if self.faults:
            parts.append(f"faults {self.faults}")
        if self.failed:
            parts.append(f"failed {self.failed}")
        return "  ".join(parts)

    def _render(self, force: bool = False) -> None:
        if self._closed:
            return
        self._dirty = True
        now = time.monotonic()
        interval = self.min_interval if self._tty else self.plain_interval
        if not force and now - self._last_render < interval:
            return
        self._emit(now)

    def _emit(self, now: float) -> None:
        self._last_render = now
        self._dirty = False
        self._emitted = True
        line = self._line()
        if self._tty:
            pad = " " * max(0, self._width - len(line))
            self._width = len(line)
            self.stream.write(f"\r{line}{pad}")
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def close(self) -> None:
        """Print the final status and release the line (idempotent).

        Safe to call from a ``finally`` around an interrupted campaign:
        the in-place line is completed and terminated with a newline so
        whatever prints next starts on a fresh line.
        """
        if self._closed:
            return
        # non-TTY campaigns always get a final summary line — including
        # zero-unit ones, which never mark the line dirty at all
        if self._tty or self._dirty or not self._emitted:
            self._emit(time.monotonic())
        self._closed = True
        if self._tty:
            self.stream.write("\n")
            self.stream.flush()

    def __enter__(self) -> "ProgressReporter":
        return self

    def __exit__(self, *exc) -> None:
        # runs on success, exceptions, and KeyboardInterrupt alike —
        # the terminal line must be restored before anything else prints
        self.close()
