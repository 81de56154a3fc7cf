"""The live campaign board: a progress header plus one line per worker.

Multi-minute campaigns (`repro experiment all --jobs 8`) previously ran
silent until the first report printed.  :class:`ProgressReporter` is a
subscriber on the campaign's event stream
(:meth:`repro.runner.RunLedger.subscribe`) that keeps a status header on
stderr::

    units 37/96  workers 2  3.1/s  eta 19s  cache 12/37  retries 2

Once worker health events arrive — the ``beat`` lanes a
:class:`~repro.obs.health.HealthMonitor` or the distributed coordinator
streams, and the monitor's ``started`` / ``suspect`` events — the board
also renders one lane per worker under the header::

      w0 pid 4242  beat  0.2s    3 units   2.2/s  rss 64MB  model_validation:Long #8 (1.2s)
      w1 pid 4244  beat  3.1s!   2 units   1.9/s  rss 63MB  model_validation:Long #9 (4.8s)  STRAGGLER

A ``!`` after the beat age marks a missed-beat suspicion; straggler and
worker-lost flags render on the lane.  ``repro experiment --progress``
and ``repro dash`` (which also turns the health plane on) build the
same board.

It only *reads* the events the engine reports anyway — the ledger
records the same events whether or not anyone subscribes — so enabling
it cannot perturb results or the persisted record.  Its counters are
the ledger's unit tally, :class:`~repro.runner.ledger.UnitCounts`,
which it shares with the CLI's ``engine`` line.

Three terminal realities it respects:

* **TTY stderr**: one ``\\r``-rewritten line while no worker lane
  exists, then a block redrawn in place with ANSI cursor-up (no curses)
  once one does.
* **Non-TTY stderr** (CI logs, ``2> file``): the rewrites would smear
  one unreadable mega-line, so the board degrades to whole plain header
  lines emitted at most every ``plain_interval`` seconds, plus an
  immediate line per retry, quarantine or suspicion.
* **KeyboardInterrupt**: used as a context manager (``with reporter:``)
  the board is always released with a newline on the way out —
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
from typing import Any, Dict, Optional, TextIO

from ..runner.ledger import UnitCounts
from ..runner.sharding import ShardResult
from ..runner.supervise import WorkerLane

__all__ = [
    "ProgressReporter",
]


class ProgressReporter(UnitCounts):
    """Render engine progress, and worker lanes once they beat, on stderr."""

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
        self.lanes: Dict[str, WorkerLane] = {}  # worker -> live lane
        self.flags: Dict[str, str] = {}     # worker -> latest suspicion kind
        self._units: Dict[str, str] = {}    # worker -> current unit label
        self._started = time.monotonic()
        self._last_render = 0.0
        self._width = 0                     # the \r line's last width
        self._drawn = 0                     # lines the TTY block occupies
        self._closed = False
        self._dirty = False
        self._emitted = False
        # in-place redraws only make sense on a real terminal; everywhere
        # else (CI logs, redirected stderr) emit occasional plain lines
        try:
            self._tty = bool(self.stream.isatty())
        except (AttributeError, ValueError, OSError):
            self._tty = False

    def __call__(self, record: dict, value: Any) -> None:
        """Fold one ledger event into the board (the subscriber)."""
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
            # a worker lane beat (supervised pool or distributed fleet)
            self.lanes[value.worker] = value
            self.flags.pop(value.worker, None)  # a beat clears the flag
            self._render()
        elif kind == "started":
            self._units[record["worker"]] = record["label"]
            self._render()
        elif kind == "suspect":
            worker = record["worker"]
            self.flags[worker] = record["kind"]
            if not self._tty:
                self._plain_line(f"suspect [{record['kind']}] {worker} "
                                 f"pid {record['pid']}: {record['detail']}")
            self._render(force=True)
        elif kind in ("retried", "quarantined"):
            # off a TTY each failed attempt gets its own line at once;
            # on one the header's retries/failed counts carry it
            if not self._tty:
                where = f" on {value.worker}" if value.worker else ""
                outcome = "quarantined" if value.final else "retrying"
                self._plain_line(f"{outcome}: {value.label}{where} "
                                 f"[{value.kind}] {value.error}")
            self._render(force=self._tty)
        elif kind == "batch-finished":
            for result in value:
                self.retries += getattr(result, "retry_count", 0) or 0
                fault_log = getattr(result, "fault_log", None)
                if fault_log is not None:
                    self.faults += len(fault_log)
            self._render(force=self._tty)
        elif kind == "scheduled":
            self._render(force=self._tty)

    # -- rendering -----------------------------------------------------------

    def _line(self) -> str:
        elapsed = max(time.monotonic() - self._started, 1e-9)
        rate = self._rate if self._rate > 0 else self.done / elapsed
        parts = [f"{self.label} {self.done}/{self.total}"]
        if self.shards_total:
            parts.append(f"shards {self.shards_done}/{self.shards_total}")
        # a lane reported missing (lease older than the TTL, heartbeat
        # silent) leaves the count until it beats again
        workers = sum(not lane.missing for lane in self.lanes.values())
        if workers:
            parts.append(f"workers {workers}")
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

    def _lane_line(self, worker: str, now: float) -> str:
        lane = self.lanes.get(worker)
        flag = self.flags.get(worker)
        if lane is None:
            line = f"  {worker} (no beats yet)"
            return line + f"  [{flag}]" if flag else line
        age = lane.beat_age(now)
        mark = "!" if lane.missing or flag == "missed-beat" else " "
        rss = f"{lane.rss_kb // 1024}MB" if lane.rss_kb else "?"
        line = (f"  {worker} pid {lane.pid}  beat {age:4.1f}s{mark} "
                f"{lane.units_done:3d} units  {lane.rate:4.1f}/s  "
                f"rss {rss}")
        unit = self._units.get(worker) or lane.label
        if lane.unit is not None and lane.unit_started_at is not None:
            line += f"  {unit} ({now - lane.unit_started_at:.1f}s)"
        if lane.straggling or flag == "straggler":
            line += "  STRAGGLER"
        if not lane.alive or flag == "worker-lost":
            line += "  LOST"
        return line

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
        if not self._tty:
            self._plain_line(self._line())
            return
        workers = sorted(set(self.lanes) | set(self.flags) | set(self._units))
        if workers:
            # the block's first draw overwrites the \r line in place
            lines = [self._line()] + [self._lane_line(w, now)
                                      for w in workers]
            up = f"\x1b[{self._drawn}A" if self._drawn else ""
            text = up + "".join(f"\r\x1b[2K{line}\n" for line in lines)
            self._drawn = len(lines)
        else:
            line = self._line()
            pad = " " * max(0, self._width - len(line))
            self._width = len(line)
            text = f"\r{line}{pad}"
        self.stream.write(text)
        self.stream.flush()

    def _plain_line(self, text: str) -> None:
        self.stream.write(text + "\n")
        self.stream.flush()

    def close(self) -> None:
        """Print the final status and release the board (idempotent).

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
        if self._tty and not self._drawn:  # a drawn block ends in \n
            self.stream.write("\n")
            self.stream.flush()

    def __enter__(self) -> "ProgressReporter":
        return self

    def __exit__(self, *exc) -> None:
        # runs on success, exceptions, and KeyboardInterrupt alike —
        # the terminal must be restored before anything else prints
        self.close()
