"""Fault injection: scripted and stochastic failures against a running network.

The paper's measurement artifacts are *failure phenomena* — packet loss
merges ON-OFF blocks and corrupts buffering-amount estimates (Section
5.1.1), and user interruptions truncate sessions and waste downloaded
bytes (Section 6.2).  The loss models in :mod:`repro.simnet.loss` cover
per-packet drops; this module covers the coarser failures a production
measurement fleet meets:

* **link outages / flaps** — a :class:`~repro.simnet.link.Link` goes
  *down* for a window and blackholes every packet (the sender sees pure
  silence, exactly what TCP sees when an access link dies);
* **temporary bandwidth degradation** — the bottleneck rate drops by a
  factor for a window (cross-traffic, Wi-Fi rate adaptation);
* **server-side failures** — the server answers 503 for a window, or
  aborts (RST) every open connection at an instant (process restart,
  load-balancer failover).

Faults are described declaratively (plain frozen dataclasses), collected
in a :class:`FaultSchedule`, and armed against a concrete topology with
:meth:`FaultSchedule.apply`.  Stochastic flaps draw from a named stream of
the simulation's seeded RNG registry, so every fault pattern is exactly
reproducible for a given root seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple, Union

from .errors import ConfigurationError
from .link import Link
from .path import Path
from .scheduler import EventScheduler

#: Fault directions, relative to :func:`~repro.simnet.profiles.
#: build_client_server` topologies: ``"down"`` is the server -> client
#: (forward) link carrying video data, ``"up"`` the client -> server
#: (reverse) link carrying requests and ACKs.
DIRECTIONS = ("down", "up", "both")


@dataclass(frozen=True)
class LinkOutage:
    """The link is down (blackholes packets) during ``[start, start+duration)``."""

    start: float
    duration: float
    direction: str = "both"


@dataclass(frozen=True)
class BandwidthDegradation:
    """The link rate is multiplied by ``factor`` during the window."""

    start: float
    duration: float
    factor: float
    direction: str = "down"


@dataclass(frozen=True)
class ServerOutage:
    """The server answers 503 Service Unavailable during the window."""

    start: float
    duration: float


@dataclass(frozen=True)
class ConnectionReset:
    """The server aborts (RST) every open connection at time ``at``."""

    at: float


@dataclass(frozen=True)
class RandomFlaps:
    """Stochastic link flaps: outages with exponential inter-arrival times.

    Gaps between outages are Exponential(``mean_interval_s``); each outage
    lasts Uniform(``duration_range``).  Flaps are generated from ``start``
    until ``until`` at :meth:`FaultSchedule.apply` time, from the seeded
    RNG the caller supplies — deterministic per root seed.
    """

    mean_interval_s: float
    duration_range: Tuple[float, float]
    start: float = 0.0
    until: float = 300.0
    direction: str = "both"


FaultEvent = Union[LinkOutage, BandwidthDegradation, ServerOutage,
                   ConnectionReset, RandomFlaps]


@dataclass(frozen=True)
class FaultLogEntry:
    """One armed fault transition (for tests and reports)."""

    time: float
    kind: str          # "outage-start", "outage-end", "degrade-start", ...
    detail: str = ""


@dataclass
class FaultLog:
    """Chronological record of the fault transitions one apply() armed."""

    entries: List[FaultLogEntry] = field(default_factory=list)

    def add(self, time: float, kind: str, detail: str = "") -> None:
        self.entries.append(FaultLogEntry(time, kind, detail))

    def times(self, kind: str) -> List[float]:
        return [e.time for e in self.entries if e.kind == kind]

    def __len__(self) -> int:
        return len(self.entries)


class FaultSchedule:
    """A declarative list of faults, armed against one topology at a time.

    The schedule itself is immutable state plus builder methods; calling
    :meth:`apply` schedules the fault transitions on the network's event
    scheduler and returns a :class:`FaultLog`.  One schedule may be applied
    to many sessions (``run_sessions`` reuses the config's schedule).
    """

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        self.events: List[FaultEvent] = list(events)
        for event in self.events:
            self._validate(event)

    # -- builders (chainable) ------------------------------------------------

    def outage(self, start: float, duration: float,
               direction: str = "both") -> "FaultSchedule":
        self._add(LinkOutage(start, duration, direction))
        return self

    def degrade(self, start: float, duration: float, factor: float,
                direction: str = "down") -> "FaultSchedule":
        self._add(BandwidthDegradation(start, duration, factor, direction))
        return self

    def _add(self, event: FaultEvent) -> None:
        self._validate(event)
        self.events.append(event)

    @staticmethod
    def _validate(event: FaultEvent) -> None:
        direction = getattr(event, "direction", None)
        if direction is not None and direction not in DIRECTIONS:
            raise ConfigurationError(
                f"fault direction must be one of {DIRECTIONS}, got {direction!r}")
        duration = getattr(event, "duration", None)
        if duration is not None and duration <= 0:
            raise ConfigurationError(f"fault duration must be positive, got {duration!r}")
        start = getattr(event, "start", getattr(event, "at", 0.0))
        if start < 0:
            raise ConfigurationError(f"fault start must be >= 0, got {start!r}")
        if isinstance(event, BandwidthDegradation) and not 0 < event.factor <= 1:
            raise ConfigurationError(
                f"degradation factor must be in (0, 1], got {event.factor!r}")
        if isinstance(event, RandomFlaps) and event.mean_interval_s <= 0:
            raise ConfigurationError(
                f"flap interval must be positive, got {event.mean_interval_s!r}")

    # -- arming --------------------------------------------------------------

    def apply(
        self,
        scheduler: EventScheduler,
        path: Path,
        *,
        server: Optional[Any] = None,
        rng: Optional[random.Random] = None,
        log: Optional[FaultLog] = None,
    ) -> FaultLog:
        """Arm every fault of this schedule against ``path`` (and ``server``).

        ``server`` is any object exposing ``set_unavailable(until)`` and
        ``abort_connections()`` (e.g. :class:`~repro.streaming.server.
        VideoServer`); it is only required when the schedule contains
        server-side faults.  ``rng`` is required for :class:`RandomFlaps`.
        """
        log = log if log is not None else FaultLog()
        for event in self.events:
            if isinstance(event, LinkOutage):
                self._arm_outage(scheduler, path, event.start, event.duration,
                                 event.direction, log)
            elif isinstance(event, BandwidthDegradation):
                self._arm_degradation(scheduler, path, event, log)
            elif isinstance(event, ServerOutage):
                self._arm_server_outage(scheduler, server, event, log)
            elif isinstance(event, ConnectionReset):
                self._arm_connection_reset(scheduler, server, event, log)
            elif isinstance(event, RandomFlaps):
                self._arm_flaps(scheduler, path, event, rng, log)
            else:  # pragma: no cover - defensive
                raise ConfigurationError(f"unknown fault event {event!r}")
        return log

    @staticmethod
    def _links(path: Path, direction: str) -> List[Link]:
        if direction == "down":
            return [path.forward]
        if direction == "up":
            return [path.reverse]
        return [path.forward, path.reverse]

    def _arm_outage(self, scheduler: EventScheduler, path: Path, start: float,
                    duration: float, direction: str, log: FaultLog) -> None:
        links = self._links(path, direction)

        def down() -> None:
            for link in links:
                link.set_up(False)
            log.add(scheduler.clock.now(), "outage-start", direction)

        def up() -> None:
            for link in links:
                link.set_up(True)
            log.add(scheduler.clock.now(), "outage-end", direction)

        scheduler.at(start, down, label="fault:outage-start")
        scheduler.at(start + duration, up, label="fault:outage-end")

    def _arm_degradation(self, scheduler: EventScheduler, path: Path,
                         event: BandwidthDegradation, log: FaultLog) -> None:
        links = self._links(path, event.direction)

        def degrade() -> None:
            for link in links:
                link.set_rate(link.base_rate_bps * event.factor)
            log.add(scheduler.clock.now(), "degrade-start",
                    f"x{event.factor:g}")

        def restore() -> None:
            for link in links:
                link.set_rate(link.base_rate_bps)
            log.add(scheduler.clock.now(), "degrade-end", event.direction)

        scheduler.at(event.start, degrade, label="fault:degrade-start")
        scheduler.at(event.start + event.duration, restore,
                     label="fault:degrade-end")

    @staticmethod
    def _require_server(server: Optional[Any], event: FaultEvent) -> Any:
        if server is None:
            raise ConfigurationError(
                f"{type(event).__name__} requires a server; pass server= to apply()")
        return server

    def _arm_server_outage(self, scheduler: EventScheduler,
                           server: Optional[Any], event: ServerOutage,
                           log: FaultLog) -> None:
        srv = self._require_server(server, event)

        def begin() -> None:
            srv.set_unavailable(event.start + event.duration)
            log.add(scheduler.clock.now(), "server-outage-start",
                    f"{event.duration:g}s")

        scheduler.at(event.start, begin, label="fault:server-outage")
        scheduler.at(event.start + event.duration,
                     lambda: log.add(scheduler.clock.now(), "server-outage-end"),
                     label="fault:server-outage-end")

    def _arm_connection_reset(self, scheduler: EventScheduler,
                              server: Optional[Any], event: ConnectionReset,
                              log: FaultLog) -> None:
        srv = self._require_server(server, event)

        def reset() -> None:
            n = srv.abort_connections()
            log.add(scheduler.clock.now(), "connection-reset", f"{n} conns")

        scheduler.at(event.at, reset, label="fault:conn-reset")

    def _arm_flaps(self, scheduler: EventScheduler, path: Path,
                   event: RandomFlaps, rng: Optional[random.Random],
                   log: FaultLog) -> None:
        if rng is None:
            raise ConfigurationError(
                "RandomFlaps requires a seeded rng; pass rng= to apply()")
        lo, hi = event.duration_range
        t = event.start + rng.expovariate(1.0 / event.mean_interval_s)
        while t < event.until:
            duration = rng.uniform(lo, hi)
            self._arm_outage(scheduler, path, t, duration, event.direction, log)
            t += duration + rng.expovariate(1.0 / event.mean_interval_s)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSchedule({self.events!r})"
