"""`repro dash`: a live, curses-free TTY dashboard for campaigns.

The multi-line sibling of :class:`~repro.obs.progress.ProgressReporter`:
where progress keeps one ``\\r``-rewritten line, the dashboard redraws a
small block — an aggregate header plus one lane per supervised worker —
using nothing but carriage returns and ANSI cursor-up, so it works on
any VT100-ish terminal without curses::

    fig2  units 7/13  2.1/s  eta 3s  cache 0  retries 1
      w0 pid 4242   beat 0.2s   3 units  2.2/s  rss 64MB  model_validation:Long #8 (1.2s)
      w1 pid 4244   beat 3.1s!  2 units  1.9/s  rss 63MB  model_validation:Long #9 (4.8s) STRAGGLER

A ``!`` after the beat age marks a missed-beat suspicion; straggler and
worker-lost flags render on the lane.  When stderr is not a TTY the
dashboard degrades to the progress reporter's discipline — one plain
summary line every ``plain_interval`` seconds, plus an immediate line
per suspicion — so CI logs stay readable.

Everything arrives as events on the campaign's ledger stream, to which
the dashboard subscribes: the unit counters it shares with the progress
line (:class:`~repro.runner.ledger.UnitCounts`), plus the health plane's
``started`` / ``suspect`` events and live ``beat`` lanes, so the
dashboard needs health monitoring on (the ``repro dash`` command wires
both).  Like every subscriber it only watches — closing it mid-campaign
changes nothing but the terminal.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, Optional, TextIO

from ..runner.ledger import UnitCounts

__all__ = [
    "DashboardReporter",
]


class DashboardReporter(UnitCounts):
    """Render engine + worker-health state as a live multi-line block."""

    def __init__(self, stream: Optional[TextIO] = None,
                 label: str = "units",
                 min_interval: float = 0.2,
                 plain_interval: float = 5.0) -> None:
        super().__init__()
        self.stream = stream if stream is not None else sys.stderr
        self.label = label
        self.min_interval = min_interval
        self.plain_interval = plain_interval
        self.lanes: Dict[str, Any] = {}     # worker -> live WorkerLane
        self.flags: Dict[str, str] = {}     # worker -> latest suspicion kind
        self._units: Dict[str, str] = {}    # worker -> current unit label
        self._started = time.monotonic()
        self._last_render = 0.0
        self._drawn = 0                     # lines the TTY block occupies
        self._closed = False
        try:
            self._tty = bool(self.stream.isatty())
        except (AttributeError, ValueError, OSError):
            self._tty = False

    def __call__(self, record: dict, value: Any) -> None:
        """Fold one ledger event into the board (the subscriber)."""
        self.fold(record)
        kind = record["event"]
        if kind == "started":
            self._units[record["worker"]] = record["label"]
            self._render()
        elif kind == "done":
            if not record.get("cached"):
                self._render()
        elif kind in ("retried", "quarantined"):
            if not self._tty:
                where = f" on {value.worker}" if value.worker else ""
                outcome = "quarantined" if value.final else "retrying"
                self._plain_line(f"{outcome}: {value.label}{where} "
                                 f"[{value.kind}] {value.error}")
            self._render(force=True)
        elif kind == "beat":
            self.lanes[value.worker] = value
            self.flags.pop(value.worker, None)  # a beat clears the flag
            self._render()
        elif kind == "suspect":
            worker = record["worker"]
            self.flags[worker] = record["kind"]
            if not self._tty:
                self._plain_line(
                    f"suspect [{record['kind']}] {worker} "
                    f"pid {record['pid']}: {record['detail']}")
            self._render(force=True)
        elif kind in ("scheduled", "batch-finished"):
            self._render(force=True)

    # -- rendering -----------------------------------------------------------

    def _header(self) -> str:
        elapsed = max(time.monotonic() - self._started, 1e-9)
        rate = self.done / elapsed
        parts = [f"{self.label} {self.done}/{self.total}", f"{rate:.1f}/s"]
        remaining = self.total - self.done
        if remaining > 0 and rate > 0:
            parts.append(f"eta {remaining / rate:.0f}s")
        parts.append(f"cache {self.cache_hits}")
        if self.retries:
            parts.append(f"retries {self.retries}")
        if self.failed:
            parts.append(f"failed {self.failed}")
        return "  ".join(parts)

    def _lane_line(self, worker: str) -> str:
        lane = self.lanes.get(worker)
        flag = self.flags.get(worker)
        now = time.monotonic()
        if lane is None:
            line = f"  {worker} (no beats yet)"
        else:
            age = lane.beat_age(now)
            mark = "!" if lane.missing or flag == "missed-beat" else " "
            rss = f"{lane.rss_kb // 1024}MB" if lane.rss_kb else "?"
            line = (f"  {worker} pid {lane.pid}  beat {age:4.1f}s{mark} "
                    f"{lane.units_done:3d} units  {lane.rate:4.1f}/s  "
                    f"rss {rss}")
            unit = self._units.get(worker) or lane.label
            if lane.unit is not None and lane.unit_started_at is not None:
                line += (f"  {unit} "
                         f"({now - lane.unit_started_at:.1f}s)")
            if lane.straggling or flag == "straggler":
                line += "  STRAGGLER"
            if not lane.alive or flag == "worker-lost":
                line += "  LOST"
        if flag and lane is None:
            line += f"  [{flag}]"
        return line

    def _block(self) -> list:
        lines = [self._header()]
        for worker in sorted(set(self.lanes) | set(self.flags)
                             | set(self._units)):
            lines.append(self._lane_line(worker))
        return lines

    def _render(self, force: bool = False) -> None:
        if self._closed:
            return
        now = time.monotonic()
        interval = self.min_interval if self._tty else self.plain_interval
        if not force and now - self._last_render < interval:
            return
        self._last_render = now
        if self._tty:
            self._draw_block()
        else:
            self._plain_line(self._header())

    def _draw_block(self) -> None:
        lines = self._block()
        out = []
        if self._drawn:
            out.append(f"\x1b[{self._drawn}A")  # cursor to block top
        for line in lines:
            out.append("\r\x1b[2K" + line + "\n")
        self._drawn = len(lines)
        self.stream.write("".join(out))
        self.stream.flush()

    def _plain_line(self, text: str) -> None:
        self.stream.write(text + "\n")
        self.stream.flush()

    def close(self) -> None:
        """Draw the final state and release the block (idempotent)."""
        if self._closed:
            return
        if self._tty:
            self._draw_block()
        else:
            # the final summary always prints, zero-unit campaigns too
            self._plain_line(self._header())
        self._closed = True

    def __enter__(self) -> "DashboardReporter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
