"""The paper's four measurement networks (Section 4.2), as simulation profiles.

The paper measures from:

1. **Research** — 100 Mbps wired behind a 500 Mbps uplink (France).
2. **Residence** — 54 Mbps Wi-Fi behind ADSL: 7.7 Mbps down / 1.2 Mbps up
   (France); median retransmission rate observed 1.02 %.
3. **Academic** — 100 Mbps wired behind a 1 Gbps uplink (USA); median
   retransmission rate observed 0.76 %.
4. **Home** — 100 Mbps wired behind a Comcast cable modem: 20 Mbps down /
   3 Mbps up (USA).

We model each network as one full-duplex bottleneck path.  ``down_bps``
is the *end-to-end available bandwidth* toward the client — for the two
high-capacity networks this is limited by the server side, not the access
link, so we use the effective rates implied by the paper's buffering-phase
slopes (tens of Mbps) rather than the raw 100 Mbps NIC speed.  Loss rates
are chosen so the simulated retransmission levels bracket the medians the
paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from .loss import BernoulliLoss, GilbertElliottLoss, LossModel, NoLoss
from .network import Network
from .node import Host
from .path import Path
from .scheduler import EventScheduler


@dataclass(frozen=True)
class NetworkProfile:
    """Parameters of one measurement network."""

    name: str
    down_bps: float          # end-to-end available bandwidth, server -> client
    up_bps: float            # client -> server
    rtt: float               # two-way propagation delay in seconds
    loss_down: float         # Bernoulli loss probability, server -> client
    loss_up: float = 0.0     # client -> server
    buffer_bytes: int = 256 * 1024
    mss: int = 1460          # TCP maximum segment size used by endpoints
    country: str = ""
    #: When True the downstream loss is bursty (Gilbert-Elliott) with the
    #: same long-run rate: bursts defeat fast retransmit and force RTO
    #: stalls, the mechanism behind the paper's under-measured buffering
    #: amounts and merged/split blocks in the lossy networks (Section 5.1.1).
    bursty_loss: bool = False

    def build_path(self, scheduler: EventScheduler, rng, name: Optional[str] = None) -> Path:
        """Create the full-duplex bottleneck path for this profile.

        ``rng`` is a ``random.Random`` used by the loss processes; pass a
        dedicated stream so loss draws stay reproducible.
        """
        loss_ab: LossModel
        if self.loss_down <= 0:
            loss_ab = NoLoss()
        elif self.bursty_loss:
            # Gilbert-Elliott with the same long-run rate: dwell ~4 packets
            # in the bad state at 45 % loss, so loss episodes regularly
            # cluster several drops into one window and trigger RTO stalls
            # (calibrated so Residence shows ~1 % retransmissions and the
            # under-measured buffering amounts of Figure 3(a))
            loss_bad = 0.45
            p_bg = 0.25
            p_bad = min(0.5, self.loss_down / loss_bad)
            p_gb = p_bg * p_bad / (1.0 - p_bad)
            loss_ab = GilbertElliottLoss(p_gb, p_bg, rng,
                                         loss_good=0.0, loss_bad=loss_bad)
        else:
            loss_ab = BernoulliLoss(self.loss_down, rng)
        loss_ba: LossModel = (
            BernoulliLoss(self.loss_up, rng) if self.loss_up > 0 else NoLoss()
        )
        return Path(
            scheduler,
            rate_ab_bps=self.down_bps,
            rate_ba_bps=self.up_bps,
            prop_delay=self.rtt / 2.0,
            buffer_bytes=self.buffer_bytes,
            loss_ab=loss_ab,
            loss_ba=loss_ba,
            name=name or self.name,
        )

    def with_loss(self, loss_down: float, loss_up: float = 0.0) -> "NetworkProfile":
        """A copy of this profile with different loss rates (for ablations)."""
        return replace(self, loss_down=loss_down, loss_up=loss_up)


RESEARCH = NetworkProfile(
    name="Research",
    down_bps=100e6,
    up_bps=100e6,
    rtt=0.020,
    loss_down=0.0001,
    buffer_bytes=2 * 1024 * 1024,
    country="France",
)

RESIDENCE = NetworkProfile(
    name="Residence",
    down_bps=7.7e6,
    up_bps=1.2e6,
    rtt=0.045,
    loss_down=0.006,
    buffer_bytes=256 * 1024,
    country="France",
    bursty_loss=True,
)

ACADEMIC = NetworkProfile(
    name="Academic",
    down_bps=30e6,
    up_bps=30e6,
    rtt=0.018,
    loss_down=0.004,
    buffer_bytes=768 * 1024,
    country="USA",
    bursty_loss=True,
)

HOME = NetworkProfile(
    name="Home",
    down_bps=20e6,
    up_bps=3e6,
    rtt=0.028,
    loss_down=0.0005,
    buffer_bytes=1024 * 1024,
    country="USA",
)

PROFILES: Dict[str, NetworkProfile] = {
    p.name: p for p in (RESEARCH, RESIDENCE, ACADEMIC, HOME)
}

#: Order used throughout the paper's figures.
PROFILE_ORDER = ("Research", "Residence", "Academic", "Home")


def get_profile(name: str) -> NetworkProfile:
    """Look up a profile by name (case-insensitive)."""
    for key, profile in PROFILES.items():
        if key.lower() == name.lower():
            return profile
    raise KeyError(f"unknown network profile {name!r}; know {sorted(PROFILES)}")


CLIENT_IP = "10.0.0.1"
SERVER_IP = "192.0.2.1"


def build_client_server(
    profile: NetworkProfile, seed: int = 0
) -> Tuple[Network, Host, Host, Path]:
    """Build the canonical measurement topology for ``profile``.

    Returns ``(network, client, server, path)`` where the path's *forward*
    direction carries server -> client traffic (the download direction), so
    that ``profile.down_bps`` applies to video data.
    """
    net = Network(seed=seed)
    client = net.add_host(CLIENT_IP, name="client")
    server = net.add_host(SERVER_IP, name="server")
    path = profile.build_path(
        net.scheduler, net.rng.stream(f"loss:{profile.name}"), name=profile.name
    )
    # endpoint "a" = server so the forward (a->b) link is the download link
    net.add_path(server, client, path)
    return net, client, server, path
