"""Driving one streaming session on the simulator (the Section 4.2 method).

A session reproduces the paper's measurement procedure: start a capture,
start the application, stream for 180 seconds (or to completion), stop
both.  The result carries the packet records, the ground-truth video, and
player/server statistics — everything the analysis pipeline and the
experiments need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..pcap import PacketRecord, TraceCapture
from ..simnet import (
    FaultLog,
    FaultSchedule,
    Network,
    NetworkProfile,
    PeriodicProbe,
    TimeSeries,
    build_client_server,
)
from ..simnet.rng import derive_seed
from ..simnet.scheduler import EventScheduler
from ..tcp import TcpConfig, TcpConnection
from ..telemetry import (
    NullRecorder,
    Recorder,
    SessionTelemetry,
    current_recorder,
    use_recorder,
)
from ..workloads.video import Video
from .apps import Application, Container, Service, container_for_video
from .client import (
    GreedyPlayer,
    IpadPlayer,
    NetflixPlayer,
    PlayerBase,
    PullPlayer,
)
from .params import (
    GreedyClientPolicy,
    IpadClientPolicy,
    NetflixClientPolicy,
    PullClientPolicy,
    RetryPolicy,
    client_policy_for,
    server_policy_for,
)
from .server import VideoServer

#: The capture length used throughout the paper's measurements.
CAPTURE_DURATION_S = 180.0


@dataclass
class SessionConfig:
    """Everything defining one measured streaming session."""

    profile: NetworkProfile
    service: Service
    application: Application
    container: Optional[Container] = None   # derived from the video if None
    capture_duration: float = CAPTURE_DURATION_S
    seed: int = 0
    watch_fraction: float = 1.0             # beta_n; < 1 interrupts playback
    probe_period: Optional[float] = None    # sample player buffer if set
    trace_cwnd: bool = False                # record server-side cwnd traces
    server_reset_cwnd_after_idle: bool = False
    mss: int = 1460
    retry_policy: Optional[RetryPolicy] = None  # None: no watchdog/retries
    faults: Optional[FaultSchedule] = None      # armed against the access path


@dataclass
class SessionResult:
    """Outcome of one streaming session."""

    video: Video
    config: SessionConfig
    container: Container
    downloaded: int
    connections_opened: int
    playback_position_s: float
    interrupted: bool
    player_finished: bool
    capture: TraceCapture
    buffer_series: Optional[TimeSeries] = None
    rwnd_series: Optional[TimeSeries] = None
    #: Server-side congestion-window traces, one per accepted connection
    #: in accept order; populated only when ``config.trace_cwnd`` is set.
    cwnd_traces: List[TimeSeries] = field(default_factory=list)
    server_requests: int = 0
    playback_rate_bps: float = 0.0
    duration_simulated: float = 0.0
    # -- resilience / QoE (populated by every run; non-default under faults) --
    stall_events: List[Tuple[float, float]] = field(default_factory=list)
    startup_delay_s: Optional[float] = None
    rebuffer_count: int = 0
    rebuffer_ratio: float = 0.0
    retry_count: int = 0
    failed: bool = False
    fail_reason: Optional[str] = None
    wasted_redownloaded_bytes: int = 0
    downshifts: List[Tuple[float, float, float]] = field(default_factory=list)
    fault_log: Optional[FaultLog] = None
    #: Per-session telemetry snapshot; ``None`` unless the session ran
    #: inside an enabled :func:`repro.telemetry.recording` scope.
    telemetry: Optional[SessionTelemetry] = None

    @property
    def records(self) -> List[PacketRecord]:
        """Captured packets as analysis records.

        Materialized lazily from the capture's columnar buffers (and
        cached there): sessions whose results are consumed through the
        columnar paths never pay for per-packet record objects.
        """
        return self.capture.records

    @property
    def stall_time_s(self) -> float:
        return sum(end - start for start, end in self.stall_events)

    @property
    def client_ip(self) -> str:
        from ..simnet import CLIENT_IP

        return CLIENT_IP

    @property
    def server_ip(self) -> str:
        from ..simnet import SERVER_IP

        return SERVER_IP

    @property
    def unused_bytes(self) -> float:
        """Downloaded but never played — the Section 6.2 waste metric."""
        consumed = self.playback_position_s * self.playback_rate_bps / 8
        return max(0.0, self.downloaded - consumed)


def _make_player(
    net: Network,
    client_host,
    server_ip: str,
    video: Video,
    service: Service,
    container: Container,
    application: Application,
    rng: random.Random,
    tcp_config: TcpConfig,
    retry_policy: Optional[RetryPolicy] = None,
) -> PlayerBase:
    policy = client_policy_for(service, container, application)
    kwargs = dict(rng=rng, tcp_config=tcp_config, retry_policy=retry_policy)
    if isinstance(policy, GreedyClientPolicy):
        rate = video.encoding_rate_bps
        player = GreedyPlayer(client_host, net.scheduler, server_ip, video,
                              policy=policy, rate_bps=rate, **kwargs)
    elif isinstance(policy, PullClientPolicy):
        player = PullPlayer(client_host, net.scheduler, server_ip, video,
                            policy=policy, **kwargs)
    elif isinstance(policy, IpadClientPolicy):
        player = IpadPlayer(client_host, net.scheduler, server_ip, video,
                            policy=policy, **kwargs)
    elif isinstance(policy, NetflixClientPolicy):
        player = NetflixPlayer(client_host, net.scheduler, server_ip, video,
                               policy=policy, **kwargs)
    else:  # pragma: no cover - defensive
        raise TypeError(f"unhandled policy {policy!r}")
    return player


def record_sim_counters(rec: NullRecorder, scheduler: EventScheduler,
                        connections: Iterable[TcpConnection]) -> None:
    """Fold a finished simulation's TCP and scheduler counters into ``rec``.

    The TCP and scheduler layers keep plain counters (:class:`TcpStats`,
    :attr:`EventScheduler.fired`, the fast-forward tallies) and never
    touch telemetry, so recording cannot change the code path they take;
    this reads the counters once, after the run.  Zero totals are not
    recorded.
    """
    totals = {
        "scheduler.events": scheduler.fired,
        "scheduler.ff_jumps": scheduler.fast_forward_jumps,
        "scheduler.ff_refusals": scheduler.fast_forward_refusals,
        "tcp.segments_sent": 0,
        "tcp.bytes_sent": 0,
        "tcp.retransmits": 0,
    }
    for conn in connections:
        stats = conn.stats
        totals["tcp.segments_sent"] += stats.segments_sent
        totals["tcp.bytes_sent"] += stats.bytes_sent
        totals["tcp.retransmits"] += stats.retransmitted_segments
    for name, value in totals.items():
        if value:
            rec.inc(name, value)


def run_session(video: Video, config: SessionConfig) -> SessionResult:
    """Stream ``video`` once under ``config`` and capture the traffic.

    When the ambient :func:`repro.telemetry.current_recorder` is enabled,
    the session records into a *private* recorder whose snapshot is
    attached as ``result.telemetry`` — the engine merges those snapshots
    in plan order, so recording never leaks between concurrent sessions
    and ``jobs=N`` telemetry equals ``jobs=1`` telemetry.
    """
    if not current_recorder().enabled:
        return _run_session_impl(video, config)
    rec = Recorder()
    with use_recorder(rec):
        with rec.span("session"):
            result = _run_session_impl(video, config)
    result.telemetry = rec.snapshot()
    return result


def _run_session_impl(video: Video, config: SessionConfig) -> SessionResult:
    rec = current_recorder()
    with rec.span("setup"):
        container = (config.container
                     or container_for_video(video, config.service))
        session_seed = derive_seed(config.seed, f"session:{video.video_id}")
        net, client_host, server_host, path = build_client_server(
            config.profile, seed=session_seed
        )
        rng = net.rng.stream("player")

        capture = TraceCapture(name=f"{video.video_id}@{config.profile.name}")
        capture.attach(path)

        server_tcp = TcpConfig(
            mss=config.mss,
            recv_buffer=256 * 1024,
            reset_cwnd_after_idle=config.server_reset_cwnd_after_idle,
            trace_cwnd=config.trace_cwnd,
        )
        server = VideoServer(
            server_host,
            net.scheduler,
            {video.video_id: video},
            tcp_config=server_tcp,
            container_override=container,
        )

        policy = client_policy_for(config.service, container,
                                   config.application)
        client_tcp = TcpConfig(mss=config.mss, recv_buffer=policy.recv_buffer)
        player = _make_player(net, client_host, server_host.ip, video,
                              config.service, container, config.application,
                              rng, client_tcp,
                              retry_policy=config.retry_policy)

        fault_log: Optional[FaultLog] = None
        if config.faults is not None:
            fault_log = config.faults.apply(
                net.scheduler, path, server=server,
                rng=net.rng.stream("faults"))

        buffer_series: Optional[TimeSeries] = None
        if config.probe_period:
            probe = PeriodicProbe(
                net.scheduler, config.probe_period,
                lambda: player.buffer_level(), name="player-buffer",
            )
            probe.start()
            buffer_series = probe.series

        # user interruption: stop once beta * L seconds have been *watched*
        if config.watch_fraction < 1.0:
            watch_limit = config.watch_fraction * video.duration

            def interruption_check() -> None:
                if player.stopped:
                    return
                if player.playback_position_s() >= watch_limit:
                    player.stop("lack-of-interest")
                    return
                net.scheduler.after(0.25, interruption_check,
                                    label="interrupt")

            net.scheduler.after(0.25, interruption_check, label="interrupt")

    if rec.enabled:
        rec.event("session.start", t=0.0, video=video.video_id,
                  profile=config.profile.name,
                  service=config.service.name,
                  application=config.application.name)

    with rec.span("stream"):
        player.start()
        net.run_until(config.capture_duration)

    with rec.span("finalize"):
        player.finalize_qoe(net.now())
        capture.stop()

    if rec.enabled:
        rec.inc("sessions.completed")
        rec.inc("tcp.connections_opened", player.connections_opened)
        rec.inc("pcap.packets", len(capture))
        record_sim_counters(rec, net.scheduler,
                            player.connections + server.connections)
        rec.observe("session.sim_seconds", net.now())
        rec.observe("session.downloaded_bytes", player.downloaded)
        rec.event("session.end", t=net.now(), video=video.video_id,
                  downloaded=player.downloaded,
                  finished=player.finished,
                  rebuffers=player.rebuffer_count)

    return SessionResult(
        video=video,
        config=config,
        container=container,
        downloaded=player.downloaded,
        connections_opened=player.connections_opened,
        playback_position_s=player.playback_position_s(),
        interrupted=player.stopped and not player.failed,
        player_finished=player.finished,
        capture=capture,
        buffer_series=buffer_series,
        cwnd_traces=list(server.cwnd_traces),
        server_requests=server.requests_served,
        playback_rate_bps=player.playback_rate_bps,
        duration_simulated=net.now(),
        stall_events=list(player.stall_events),
        startup_delay_s=player.startup_delay_s,
        rebuffer_count=player.rebuffer_count,
        rebuffer_ratio=player.rebuffer_ratio(net.now()),
        retry_count=player.retry_count,
        failed=player.failed,
        fail_reason=player.fail_reason,
        wasted_redownloaded_bytes=player.wasted_bytes,
        downshifts=list(player.downshifts),
        fault_log=fault_log,
    )

