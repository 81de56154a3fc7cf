"""Full-duplex path: a pair of directed links between two hosts.

The paper's measurement setups are all "client behind an access link"
topologies, so a single bottleneck path per host pair is sufficient.  The
two directions can be asymmetric (e.g. the Residence ADSL profile downloads
at 7.7 Mbps and uploads at 1.2 Mbps).
"""

from __future__ import annotations

from typing import Any, Optional

from .link import Link
from .loss import LossModel
from .scheduler import EventScheduler


class Path:
    """Two directed :class:`Link` objects joining hosts ``a`` and ``b``."""

    def __init__(
        self,
        scheduler: EventScheduler,
        *,
        rate_ab_bps: float,
        rate_ba_bps: float,
        prop_delay: float,
        buffer_bytes: int = 256 * 1024,
        loss_ab: Optional[LossModel] = None,
        loss_ba: Optional[LossModel] = None,
        name: str = "path",
    ) -> None:
        self.name = name
        self.forward = Link(
            scheduler,
            rate_ab_bps,
            prop_delay,
            buffer_bytes=buffer_bytes,
            loss_model=loss_ab,
            name=f"{name}:a->b",
        )
        self.reverse = Link(
            scheduler,
            rate_ba_bps,
            prop_delay,
            buffer_bytes=buffer_bytes,
            loss_model=loss_ba,
            name=f"{name}:b->a",
        )

    def link_from(self, endpoint: str) -> Link:
        """Return the directed link leaving endpoint ``"a"`` or ``"b"``."""
        if endpoint == "a":
            return self.forward
        if endpoint == "b":
            return self.reverse
        raise ValueError(f"endpoint must be 'a' or 'b', got {endpoint!r}")

    def reset(self) -> None:
        """Reset both directions' loss/fault state (see :meth:`Link.reset`)."""
        self.forward.reset()
        self.reverse.reset()

    def add_tap(self, tap) -> None:
        """Attach a sender-side sniffer to both directions."""
        self.forward.add_tap(tap)
        self.reverse.add_tap(tap)

    def add_client_side_tap(self, tap) -> list:
        """Attach a sniffer with the vantage point of endpoint ``b`` (the
        client in :func:`~repro.simnet.profiles.build_client_server`):
        downstream (a->b) packets are seen on *arrival*, upstream (b->a)
        packets when *sent*.  This reproduces the timestamps a tcpdump on
        the client machine records — in particular the SYN -> SYN-ACK gap
        measures the full round-trip time.  Returns the tap lists joined
        (see :meth:`Link.add_tap`)."""
        return [self.forward.add_delivery_tap(tap), self.reverse.add_tap(tap)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Path(name={self.name!r}, fwd={self.forward!r}, rev={self.reverse!r})"
