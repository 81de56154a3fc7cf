"""The video players: one class per client-side throttling behaviour.

Each player reproduces the mechanism the paper infers for its application:

* :class:`GreedyPlayer` — reads as fast as TCP delivers (the Flash plugin
  in any browser, Firefox's HTML5 player, HD playback).  Whatever rate
  limiting exists must come from the server.
* :class:`PullPlayer` — buffers aggressively to a 4-15 MB target, then
  drains the TCP receive buffer in fixed quanta as playback frees space.
  With a 256 kB quantum this is Internet Explorer's HTML5 behaviour
  (Figure 2(b): the receive window periodically empties); with multi-
  megabyte quanta it is Chrome's and Android's (Figure 6).
* :class:`IpadPlayer` — YouTube on iOS: byte-range requests, block size
  proportional to the encoding rate, one TCP connection per block for
  high-rate videos (Figure 7).
* :class:`NetflixPlayer` — Silverlight / native Netflix: prefetches
  fragments of several renditions during buffering (Figure 11), then
  fetches blocks of the selected rendition over fresh connections
  (PC, iPad) or one persistent connection with large blocks (Android).

All players share playback bookkeeping: playback starts once a couple of
seconds of media are buffered, consumes bytes at the encoding rate, and the
player buffer level is ``downloaded - consumed``.

Resilience: every HTTP transfer is tracked as a :class:`TransferJob`, so a
connection that dies (link outage, server RST, 503) surfaces as a failure
instead of a silent hang.  With a :class:`~repro.streaming.params.
RetryPolicy` attached, players additionally run a stall watchdog and
recover by reconnecting with exponential backoff and resuming the transfer
with an HTTP ``Range`` request from the last contiguous byte.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from ..simnet.node import Host
from ..simnet.scheduler import EventHandle, EventScheduler
from ..tcp import TcpConfig, TcpConnection
from ..workloads.video import Video
from .httpconn import HttpResponseStream
from .params import (
    GreedyClientPolicy,
    IpadClientPolicy,
    NetflixClientPolicy,
    PullClientPolicy,
    RetryPolicy,
)
from .server import video_path

#: Seconds of media that must be buffered before playback begins.
PLAYBACK_START_S = 2.0

#: Seconds of media that must re-accumulate before a stalled player resumes.
STALL_RESUME_S = 1.0

#: Period of the per-player QoE monitor / stall watchdog.
MONITOR_INTERVAL_S = 0.25


class TransferJob:
    """One logical HTTP transfer, surviving reconnects and Range resumes.

    ``start``/``end`` are absolute byte offsets into the file (``end``
    inclusive, ``None`` meaning to EOF); ``received`` accumulates across
    connection attempts, so ``start + received`` is always the first byte
    a resumed request must ask for.
    """

    __slots__ = ("path", "start", "end", "ranged", "received", "attempts",
                 "done", "error_status", "on_data", "on_complete",
                 "_segs_seen", "_last_activity")

    def __init__(
        self,
        path: str,
        *,
        start: int = 0,
        end: Optional[int] = None,
        ranged: bool = False,
        on_data: Optional[Callable[[TcpConnection, HttpResponseStream], None]] = None,
        on_complete: Optional[Callable[[TcpConnection], None]] = None,
    ) -> None:
        self.path = path
        self.start = start
        self.end = end
        self.ranged = ranged or start > 0 or end is not None
        self.received = 0
        self.attempts = 0          # failed attempts so far
        self.done = False
        self.error_status: Optional[int] = None
        self.on_data = on_data
        self.on_complete = on_complete
        self._segs_seen = 0        # watchdog: conn.stats.segments_received
        self._last_activity = 0.0  # watchdog: last time progress was seen

    @property
    def next_offset(self) -> int:
        """First byte the next (re)request should ask for."""
        return self.start + self.received


class PlayerBase:
    """Shared machinery: connections, playback clock, interruption, QoE."""

    def __init__(
        self,
        host: Host,
        scheduler: EventScheduler,
        server_ip: str,
        video: Video,
        *,
        rng: random.Random,
        server_port: int = 80,
        recv_buffer: int = 512 * 1024,
        tcp_config: Optional[TcpConfig] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.host = host
        self.scheduler = scheduler
        self.server_ip = server_ip
        self.server_port = server_port
        self.video = video
        self.rng = rng
        self.recv_buffer = recv_buffer
        self.tcp_config = tcp_config
        self.retry_policy = retry_policy

        self.downloaded = 0            # body bytes received, all connections
        self.playback_started_at: Optional[float] = None
        self.playback_rate_bps = video.encoding_rate_bps
        self.stopped = False
        self.stop_reason: Optional[str] = None
        self._frozen_consumed: Optional[float] = None  # set when stopped
        self.connections: List[TcpConnection] = []
        self.connections_opened = 0
        self._timers: List[EventHandle] = []

        # -- QoE / resilience accounting --------------------------------------
        self.stall_events: List[Tuple[float, float]] = []
        self.rebuffer_count = 0        # stalls that ended with playback resuming
        self.retry_count = 0           # reconnect attempts actually made
        self.startup_delay_s: Optional[float] = None
        self.failed = False
        self.fail_reason: Optional[str] = None
        self.wasted_bytes = 0          # bytes re-downloaded by non-resuming restarts
        self.downshifts: List[Tuple[float, float, float]] = []  # (t, old, new)
        self.requests: List[Tuple[float, int, bool]] = []  # (t, offset, ranged)
        #: Hook invoked as ``on_conn_failed(player, conn, reason)`` whenever a
        #: transfer-bearing connection dies before its response completed.
        self.on_conn_failed: Optional[
            Callable[["PlayerBase", TcpConnection, str], None]] = None
        self._session_started_at: Optional[float] = None
        self._stall_since: Optional[float] = None
        self._consecutive_rebuffers = 0
        self._monitor_started = False

    # -- playback ------------------------------------------------------------

    def _maybe_start_playback(self) -> None:
        if self.playback_started_at is not None:
            return
        threshold = PLAYBACK_START_S * self.playback_rate_bps / 8
        if self.downloaded >= threshold:
            now = self.scheduler.clock.now()
            self.playback_started_at = now
            if self._session_started_at is not None:
                self.startup_delay_s = now - self._session_started_at

    def consumed(self, now: Optional[float] = None) -> float:
        """Bytes of media the player has consumed by time ``now``.

        Once the session is stopped the playback clock freezes: a viewer
        who quit at 60 s has watched 60 s, no matter how long the capture
        keeps running.
        """
        if self._frozen_consumed is not None:
            return self._frozen_consumed
        if self.playback_started_at is None:
            return 0.0
        t = self.scheduler.clock.now() if now is None else now
        elapsed = max(0.0, t - self.playback_started_at)
        return min(float(self.downloaded),
                   elapsed * self.playback_rate_bps / 8)

    def buffer_level(self, now: Optional[float] = None) -> float:
        """Player-buffer occupancy in bytes (downloaded, not yet played)."""
        return self.downloaded - self.consumed(now)

    def playback_position_s(self, now: Optional[float] = None) -> float:
        """Seconds of the video watched so far."""
        return self.consumed(now) * 8 / self.playback_rate_bps

    @property
    def stall_time_s(self) -> float:
        """Total seconds spent stalled (including a still-open stall)."""
        total = sum(end - start for start, end in self.stall_events)
        if self._stall_since is not None:
            total += self.scheduler.clock.now() - self._stall_since
        return total

    def rebuffer_ratio(self, now: Optional[float] = None) -> float:
        """Stall time as a fraction of (watch time + stall time)."""
        stall = self.stall_time_s
        denom = self.playback_position_s(now) + stall
        return stall / denom if denom > 0 else 0.0

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        raise NotImplementedError

    def stop(self, reason: str = "interrupted") -> None:
        """Abort the session (user interruption, Section 6.2)."""
        if self.stopped:
            return
        now = self.scheduler.clock.now()
        self._frozen_consumed = self.consumed(now)
        self.stopped = True
        self.stop_reason = reason
        if self._stall_since is not None:
            self.stall_events.append((self._stall_since, now))
            self._stall_since = None
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        for conn in self.connections:
            conn._job = None  # type: ignore[attr-defined]
            conn.on_closed = None
            if not conn.fully_closed:
                conn.abort()

    def finalize_qoe(self, now: float) -> None:
        """Close an open stall interval at the end of a capture."""
        if not self.stopped and self._stall_since is not None:
            self.stall_events.append((self._stall_since, now))
            self._stall_since = None

    @property
    def finished(self) -> bool:
        """All requested media received (players may stop earlier)."""
        return self.downloaded >= self.expected_bytes

    @property
    def expected_bytes(self) -> int:
        """Total body bytes this player intends to download."""
        return self.video.size_bytes

    # -- QoE monitor / stall watchdog -------------------------------------------

    def _ensure_monitor(self) -> None:
        if self._monitor_started or self.stopped:
            return
        self._monitor_started = True
        self._session_started_at = self.scheduler.clock.now()
        self._schedule(MONITOR_INTERVAL_S, self._monitor_tick, "qoe:check")

    def _monitor_tick(self) -> None:
        if self.stopped:
            return
        now = self.scheduler.clock.now()
        self._track_stalls(now)
        if self.retry_policy is not None:
            self._check_transfer_stalls(now)
        if not self.finished:
            self._schedule(self._monitor_delay(now), self._monitor_tick,
                           "qoe:check")
        elif self._stall_since is not None:
            # the download completed while playback was starved; the stall
            # ends here as far as accounting is concerned
            self.stall_events.append((self._stall_since, now))
            self._stall_since = None

    def _monitor_delay(self, now: float) -> float:
        """Delay to the next monitor tick, skipping provably idle ones.

        Dense quarter-second ticks are replaced by a jump to the earliest
        *grid* instant at which the player buffer could possibly run dry
        — the stall-start formula in :meth:`_track_stalls` is
        tick-independent, ``downloaded`` only grows, and every skipped
        tick provably mutates nothing, so stall detection lands on
        exactly the tick dense polling would have used.  The watchdog
        (``retry_policy``) and an open stall both need real polling and
        force the dense cadence.
        """
        if self.retry_policy is not None or self._stall_since is not None:
            return MONITOR_INTERVAL_S
        if self.playback_started_at is None:
            # playback needs PLAYBACK_START_S of media buffered before it
            # can begin, so no stall can be *detected* sooner than that
            # after it starts; PLAYBACK_START_S is a grid multiple.
            return PLAYBACK_START_S
        # earliest instant the buffer can run dry if no more bytes arrive
        t0 = (self.playback_started_at
              + self.downloaded * 8 / self.playback_rate_bps)
        if t0 <= now + MONITOR_INTERVAL_S:
            return MONITOR_INTERVAL_S
        # land exactly on the dense-tick grid (session monitors anchor at
        # t=0, and k * INTERVAL is float-exact for the 0.25 s grid)
        k = int(t0 / MONITOR_INTERVAL_S)
        target = k * MONITOR_INTERVAL_S
        if target < t0:
            target += MONITOR_INTERVAL_S
        return target - now

    def _track_stalls(self, now: float) -> None:
        if self.playback_started_at is None:
            return
        buffer_bytes = self.buffer_level(now)
        media_left = self.playback_position_s(now) < self.video.duration - 1e-9
        if self._stall_since is None:
            if buffer_bytes <= 0.0 and not self.finished and media_left:
                # exact starvation instant: when the playback clock caught
                # up with the bytes downloaded so far
                start = (self.playback_started_at
                         + self.downloaded * 8 / self.playback_rate_bps)
                self._stall_since = min(max(start, self.playback_started_at), now)
        else:
            resume_bytes = STALL_RESUME_S * self.playback_rate_bps / 8
            if buffer_bytes >= resume_bytes or self.finished:
                self.stall_events.append((self._stall_since, now))
                self._stall_since = None
                self.rebuffer_count += 1
                self._consecutive_rebuffers += 1
                policy = self.retry_policy
                if (policy is not None and policy.downshift_after > 0
                        and self._consecutive_rebuffers >= policy.downshift_after):
                    if self._downshift(now):
                        self._consecutive_rebuffers = 0

    def _downshift(self, now: float) -> bool:
        """Switch to a lower rendition after repeated rebuffering.

        Returns True if a switch happened; the base player is single-rate
        and cannot degrade.
        """
        return False

    def _check_transfer_stalls(self, now: float) -> None:
        """Abort transfers that made no progress for ``stall_timeout`` seconds.

        Progress is judged at the TCP level (segments received), and only
        while our receive window is open: a full receive buffer during a
        client-throttled OFF period is self-inflicted silence, not a stall.
        """
        policy = self.retry_policy
        assert policy is not None
        for conn in list(self.connections):
            if conn.fully_closed:
                continue
            job: Optional[TransferJob] = getattr(conn, "_job", None)
            if job is None or job.done:
                continue
            segs = conn.stats.segments_received
            if segs != job._segs_seen:
                job._segs_seen = segs
                job._last_activity = now
                continue
            if conn.recvbuf.window < conn.config.mss:
                job._last_activity = now
                continue
            if now - job._last_activity >= policy.stall_timeout:
                self._handle_transfer_failure(conn, job, "stall-timeout")

    # -- plumbing ---------------------------------------------------------------

    def _note_request(self, offset: int, ranged: bool) -> None:
        """Log every HTTP request the player issues.

        Each request opens an ON-period, so :attr:`requests` is the
        ground-truth record of ON-OFF block boundaries the analysis
        pipeline later infers from packet gaps.
        """
        now = self.scheduler.clock.now()
        self.requests.append((now, offset, ranged))

    def _schedule(self, delay: float, fn: Callable[[], None], label: str) -> None:
        if self.stopped:
            return
        handle = self.scheduler.after(delay, fn, label=label)
        self._timers.append(handle)
        # prune fired/cancelled handles occasionally
        if len(self._timers) > 64:
            self._timers = [h for h in self._timers if not h.cancelled]

    def _on_body(self, n: int) -> None:
        self.downloaded += n
        self._maybe_start_playback()

    def _on_job_body(self, job: TransferJob, n: int) -> None:
        # per-segment hot path: _on_body inlined, playback check folded
        # into the one attribute read that decides it
        job.received += n
        self.downloaded += n
        if self.playback_started_at is None:
            self._maybe_start_playback()

    def _on_job_response(self, job: TransferJob, response) -> None:
        if response.status not in (200, 206):
            job.error_status = response.status

    def _on_job_complete(self, conn: TcpConnection, job: TransferJob) -> None:
        if job.error_status is not None:
            status = job.error_status
            job.error_status = None
            self._handle_transfer_failure(conn, job, f"http-{status}")
            return
        job.done = True
        conn._job = None  # type: ignore[attr-defined]
        if job.on_complete:
            job.on_complete(conn)

    def _attach_job(self, conn: TcpConnection, stream: HttpResponseStream,
                    job: TransferJob) -> None:
        conn._job = job  # type: ignore[attr-defined]
        job._segs_seen = conn.stats.segments_received
        job._last_activity = self.scheduler.clock.now()
        stream.on_body_bytes = lambda n: self._on_job_body(job, n)
        stream.on_response = lambda resp: self._on_job_response(job, resp)
        stream.on_complete = lambda resp: self._on_job_complete(conn, job)

    def _job_on_data(self, conn: TcpConnection) -> None:
        stream: HttpResponseStream = conn.http_stream
        job: Optional[TransferJob] = getattr(conn, "_job", None)
        if job is not None and job.on_data is not None:
            job.on_data(conn, stream)
        else:
            stream.take(conn, 1 << 62)

    def _open_connection(
        self,
        path: str,
        *,
        range_start: Optional[int] = None,
        range_end: Optional[int] = None,
        on_data: Optional[Callable[[TcpConnection, HttpResponseStream], None]] = None,
        on_complete: Optional[Callable[[TcpConnection], None]] = None,
        job: Optional[TransferJob] = None,
    ) -> TcpConnection:
        """Open a connection, send one GET, wire up response accounting.

        ``on_data`` decides how greedily the socket is drained; the default
        reads everything immediately.  ``on_complete`` receives the
        connection the response finished on (which, after a reconnect, may
        not be the one this call returned).  Passing ``job`` resumes an
        existing transfer from its last contiguous byte.
        """
        if job is None:
            job = TransferJob(
                path,
                start=range_start if range_start is not None else 0,
                end=range_end,
                ranged=range_start is not None,
                on_data=on_data,
                on_complete=on_complete,
            )
        self._ensure_monitor()
        config = self.tcp_config or TcpConfig(recv_buffer=self.recv_buffer)
        conn = TcpConnection(
            self.host,
            self.scheduler,
            self.host.allocate_port(),
            self.server_ip,
            self.server_port,
            config=config,
        )
        stream = HttpResponseStream(on_body_bytes=lambda n: None)
        conn.http_stream = stream
        self._attach_job(conn, stream, job)
        conn.on_data = self._job_on_data
        conn.on_closed = self._on_conn_closed

        def send_request(c: TcpConnection) -> None:
            request = f"GET {job.path} HTTP/1.1\r\nHost: video.example\r\n"
            if job.ranged or job.received:
                end = "" if job.end is None else job.end
                request += f"Range: bytes={job.next_offset}-{end}\r\n"
            request += "\r\n"
            self._note_request(job.next_offset if (job.ranged or job.received)
                               else 0, job.ranged or bool(job.received))
            c.send(request.encode("ascii"))

        conn.on_connected = send_request
        self.connections.append(conn)
        self.connections_opened += 1
        conn.connect()
        return conn

    def send_ranged_request(
        self,
        conn: Optional[TcpConnection],
        path: str,
        start: int,
        end: int,
        *,
        on_data: Optional[Callable[[TcpConnection, HttpResponseStream], None]] = None,
        on_complete: Optional[Callable[[TcpConnection], None]] = None,
    ) -> TcpConnection:
        """Issue a follow-up range request, reopening a dead connection.

        Returns the connection the request went out on (the one given, or
        a fresh one if it had already been torn down).
        """
        job = TransferJob(path, start=start, end=end, ranged=True,
                          on_data=on_data, on_complete=on_complete)
        if conn is None or conn.fully_closed:
            return self._open_connection(path, job=job)
        stream: HttpResponseStream = conn.http_stream
        self._attach_job(conn, stream, job)
        request = (
            f"GET {path} HTTP/1.1\r\nHost: video.example\r\n"
            f"Range: bytes={start}-{end}\r\n\r\n"
        )
        self._note_request(start, True)
        conn.send(request.encode("ascii"))
        return conn

    # -- failure handling --------------------------------------------------------

    def _on_conn_closed(self, conn: TcpConnection, reason: str) -> None:
        if self.stopped:
            return
        job: Optional[TransferJob] = getattr(conn, "_job", None)
        if job is None:
            return
        # salvage in-order bytes still sitting in the receive buffer —
        # they advance the resume offset (conn.recv works after teardown)
        stream: HttpResponseStream = conn.http_stream
        stream.take(conn, 1 << 62)
        if job.done or getattr(conn, "_job", None) is None:
            return  # the drain completed the response after all
        self._handle_transfer_failure(conn, job, reason)

    def _handle_transfer_failure(self, conn: TcpConnection, job: TransferJob,
                                 reason: str) -> None:
        if self.stopped or job.done:
            return
        conn._job = None  # type: ignore[attr-defined]
        conn.on_closed = None
        if not conn.fully_closed:
            conn.abort()
        job.attempts += 1
        if self.on_conn_failed is not None:
            self.on_conn_failed(self, conn, reason)
        policy = self.retry_policy
        if policy is None or job.attempts > policy.max_retries:
            self._fail(reason)
            return
        if not policy.resume_with_range and job.received:
            self.wasted_bytes += job.received
            job.received = 0
        self.retry_count += 1
        delay = policy.backoff_delay(job.attempts - 1, self.rng)
        self._schedule(delay, lambda: self._restart_job(job, conn),
                       "retry:reconnect")

    def _restart_job(self, job: TransferJob, old_conn: TcpConnection) -> None:
        if self.stopped or job.done:
            return
        new_conn = self._open_connection(job.path, job=job)
        self._on_transfer_restarted(job, old_conn, new_conn)

    def _on_transfer_restarted(self, job: TransferJob, old_conn: TcpConnection,
                               new_conn: TcpConnection) -> None:
        """Hook for subclasses tracking a designated connection."""

    def _fail(self, reason: str) -> None:
        if self.stopped:
            return
        self.failed = True
        self.fail_reason = reason
        self.stop(reason=f"failed:{reason}")


class GreedyPlayer(PlayerBase):
    """Reads everything immediately; used for Flash, HD and Firefox/HTML5."""

    def __init__(self, *args, policy: GreedyClientPolicy, rate_bps=None, **kwargs):
        kwargs.setdefault("recv_buffer", policy.recv_buffer)
        super().__init__(*args, **kwargs)
        self.policy = policy
        self._rate = rate_bps if rate_bps is not None else self.video.encoding_rate_bps

    @property
    def expected_bytes(self) -> int:
        from ..http import CONTAINER_HEADER_LEN

        return CONTAINER_HEADER_LEN + self.video.size_bytes_at(self._rate)

    def start(self) -> None:
        self._open_connection(video_path(self.video.video_id, self._rate))


class PullPlayer(PlayerBase):
    """Client-side throttling by scheduled receive-buffer drains."""

    def __init__(self, *args, policy: PullClientPolicy, **kwargs):
        kwargs.setdefault("recv_buffer", policy.recv_buffer)
        super().__init__(*args, **kwargs)
        self.policy = policy
        self.buffer_target = policy.sample_buffer_target(self.rng)
        self._budget = 0          # bytes the player may currently read
        self._buffering = True    # greedy until the target fills
        self._buffering_done_at: Optional[float] = None
        self._conn: Optional[TcpConnection] = None
        self._pulls = 0

    def start(self) -> None:
        self._conn = self._open_connection(
            video_path(self.video.video_id),
            on_data=self._on_socket_data,
        )
        self._schedule(self.policy.check_interval, self._check, "pull:check")

    def _current_target(self, now: float) -> float:
        """Buffer target, drifting upward to sustain the accumulation ratio."""
        if self._buffering_done_at is None:
            return float(self.buffer_target)
        growth = self.policy.target_growth_bps(self.playback_rate_bps)
        return self.buffer_target + growth * (now - self._buffering_done_at)

    def _on_socket_data(self, conn: TcpConnection, stream: HttpResponseStream) -> None:
        if self._buffering:
            stream.take(conn, 1 << 62)
            if self.downloaded >= self.buffer_target:
                self._buffering = False
                self._buffering_done_at = self.scheduler.clock.now()
        elif self._budget > 0:
            consumed = stream.take(conn, self._budget)
            self._budget -= consumed

    def _check(self) -> None:
        if self.stopped or self.finished:
            return
        now = self.scheduler.clock.now()
        if not self._buffering:
            free = self._current_target(now) - self.buffer_level(now)
            if free >= self.policy.pull_quantum and self._budget <= 0:
                self._budget = self.policy.pull_quantum
                self._pulls += 1
            if self._budget > 0 and self._conn is not None:
                stream = self._conn.http_stream
                consumed = stream.take(self._conn, self._budget)
                self._budget -= consumed
        self._schedule(self.policy.check_interval, self._check, "pull:check")

    def _on_transfer_restarted(self, job, old_conn, new_conn) -> None:
        if old_conn is self._conn:
            self._conn = new_conn

    @property
    def expected_bytes(self) -> int:
        from ..http import CONTAINER_HEADER_LEN

        return CONTAINER_HEADER_LEN + self.video.size_bytes


class IpadPlayer(PlayerBase):
    """YouTube's native iPad application: ranged requests, mixed strategies."""

    #: Bandwidth cap used for rendition selection on the device.
    DEVICE_RATE_CAP_BPS = 2.8e6

    def __init__(self, *args, policy: IpadClientPolicy, **kwargs):
        kwargs.setdefault("recv_buffer", policy.recv_buffer)
        super().__init__(*args, **kwargs)
        self.policy = policy
        resolution, rate = self.video.variant_at_most(self.DEVICE_RATE_CAP_BPS)
        self.selected_rate = rate
        self.playback_rate_bps = rate
        self.buffer_target = int(self.rng.uniform(*policy.buffer_target_range))
        self.multi_connection = rate >= policy.multi_connection_rate_bps
        self._next_offset = 0
        from ..http import CONTAINER_HEADER_LEN

        self.file_size = CONTAINER_HEADER_LEN + self.video.size_bytes_at(rate)
        self._in_flight = False
        self._persistent_conn: Optional[TcpConnection] = None

    @property
    def expected_bytes(self) -> int:
        return self.file_size

    def start(self) -> None:
        self._request_next_block(buffering=True)
        self._schedule(0.25, self._check, "ipad:check")

    def _block_size(self, buffering: bool) -> int:
        if buffering:
            # the heterogeneous request sizes of Figure 7(a): 64 kB - 8 MB
            lo, hi = 256 * 1024, 4 * 1024 * 1024
            span = self.rng.uniform(0.0, 1.0)
            size = int(lo * (hi / lo) ** span)  # log-uniform
        else:
            size = self.policy.block_bytes(self.selected_rate)
            if self.multi_connection:
                # Video1-style sessions spread request sizes widely around
                # the rate-proportional center, mixing short and long cycles
                import math

                spread = self.policy.block_spread
                factor = math.exp(self.rng.uniform(-math.log(spread),
                                                   math.log(spread)))
                size = int(size * factor)
                size = max(self.policy.min_block,
                           min(self.policy.max_block, size))
        return max(1, min(size, self.file_size - self._next_offset))

    def _request_next_block(self, buffering: bool) -> None:
        if self.stopped or self._next_offset >= self.file_size:
            return
        size = self._block_size(buffering)
        start = self._next_offset
        end = start + size - 1
        self._next_offset = end + 1
        self._in_flight = True
        path = video_path(self.video.video_id, self.selected_rate)

        def done(conn: TcpConnection) -> None:
            self._in_flight = False
            if self.multi_connection:
                # one range per connection: close it once the body is in
                conn.close()
            # during buffering the next request follows immediately, so the
            # buffering phase is one contiguous transfer (Figure 7(a))
            if (not self.stopped
                    and self.downloaded < self.buffer_target
                    and self._next_offset < self.file_size):
                self._request_next_block(buffering=True)

        if self.multi_connection:
            conn = self._open_connection(
                path, range_start=start, range_end=end, on_complete=done)
            conn.on_peer_fin = lambda c: c.close()
        else:
            self._persistent_conn = self.send_ranged_request(
                self._persistent_conn, path, start, end, on_complete=done)

    def _check(self) -> None:
        if self.stopped or self._next_offset >= self.file_size:
            return
        if not self._in_flight:
            now = self.scheduler.clock.now()
            if self.downloaded < self.buffer_target:
                self._request_next_block(buffering=True)
            else:
                block = self.policy.block_bytes(self.selected_rate)
                free = (self.consumed(now) + self.buffer_target) - self.downloaded
                if free >= block / self.policy.accumulation_ratio:
                    self._request_next_block(buffering=False)
        self._schedule(0.25, self._check, "ipad:check")

    def _on_transfer_restarted(self, job, old_conn, new_conn) -> None:
        if old_conn is self._persistent_conn:
            self._persistent_conn = new_conn

    def _downshift(self, now: float) -> bool:
        lower = [r for r in self.video.all_rates if r < self.selected_rate]
        if not lower:
            return False
        from ..http import CONTAINER_HEADER_LEN

        old_rate = self.selected_rate
        new_rate = max(lower)
        # carry the fetch position over at the same *media time* in the
        # smaller file of the new rendition
        fraction = self._next_offset / self.file_size if self.file_size else 0.0
        self.selected_rate = new_rate
        self.playback_rate_bps = new_rate
        self.file_size = CONTAINER_HEADER_LEN + self.video.size_bytes_at(new_rate)
        self._next_offset = min(int(fraction * self.file_size), self.file_size)
        self.downshifts.append((now, old_rate, new_rate))
        return True


class NetflixPlayer(PlayerBase):
    """Silverlight and the native Netflix mobile applications."""

    def __init__(self, *args, policy: NetflixClientPolicy, **kwargs):
        kwargs.setdefault("recv_buffer", policy.recv_buffer)
        super().__init__(*args, **kwargs)
        self.policy = policy
        ladder = sorted(self.video.all_rates)
        self.renditions = ladder[-policy.rendition_count:]
        self.selected_rate = self.renditions[-1]
        self.playback_rate_bps = self.selected_rate
        self._buffering_conns_done = 0
        self._steady_offset = 0
        self._steady_conn: Optional[TcpConnection] = None
        self._steady_started = False
        self._buffering_started_at = 0.0
        self.bandwidth_estimate_bps: Optional[float] = None

    @property
    def expected_bytes(self) -> int:
        buffering = sum(
            int(self.policy.buffering_playback_s * r / 8) for r in self.renditions
        )
        return buffering + self.video.size_bytes_at(self.selected_rate)

    def start(self) -> None:
        # one connection per rendition, fetching fragments in parallel —
        # the multi-bitrate buffering phase of Figure 11
        self._buffering_started_at = self.scheduler.clock.now()
        for rate in self.renditions:
            amount = int(self.policy.buffering_playback_s * rate / 8)
            path = video_path(self.video.video_id, rate)

            def done(conn: TcpConnection) -> None:
                conn.close()
                self._buffering_conns_done += 1
                if self._buffering_conns_done == len(self.renditions):
                    self._begin_steady_state()

            conn = self._open_connection(
                path, range_start=0, range_end=amount - 1, on_complete=done)
            conn.on_peer_fin = lambda c: c.close()
        self._steady_offset = int(
            self.policy.buffering_playback_s * self.selected_rate / 8
        )

    def _begin_steady_state(self) -> None:
        if self._steady_started or self.stopped:
            return
        self._steady_started = True
        if self.policy.adaptive:
            # adaptive rendition selection: measure the buffering-phase
            # throughput and settle on the highest rate that fits
            elapsed = (self.scheduler.clock.now()
                       - self._buffering_started_at)
            if elapsed > 0 and self.downloaded > 0:
                self.bandwidth_estimate_bps = self.downloaded * 8 / elapsed
                self.selected_rate = self.policy.select_rendition(
                    self.video.all_rates, self.bandwidth_estimate_bps)
                self.playback_rate_bps = self.selected_rate
                self._steady_offset = int(
                    self.policy.buffering_playback_s * self.selected_rate / 8)
        self._fetch_steady_block()

    def _fetch_steady_block(self) -> None:
        if self.stopped:
            return
        total = self.video.size_bytes_at(self.selected_rate)
        if self._steady_offset >= total:
            return
        block = min(self.policy.steady_block_bytes(self.selected_rate),
                    total - self._steady_offset)
        start = self._steady_offset
        end = start + block - 1
        self._steady_offset = end + 1
        path = video_path(self.video.video_id, self.selected_rate)
        # request-clocked pacing: the next fetch fires one period after this
        # one was *issued*, which is what yields the target accumulation
        # ratio k = G / e in the steady state
        interval = block * 8 / (self.policy.accumulation_ratio * self.selected_rate)
        if self.policy.new_connection_per_block:
            conn = self._open_connection(
                path, range_start=start, range_end=end,
                on_complete=lambda c: c.close())
            conn.on_peer_fin = lambda c: c.close()
        else:
            self._steady_conn = self.send_ranged_request(
                self._steady_conn, path, start, end)
            self._steady_conn.on_peer_fin = lambda c: c.close()
        self._schedule(interval, self._fetch_steady_block, "netflix:block")

    def _on_transfer_restarted(self, job, old_conn, new_conn) -> None:
        if old_conn is self._steady_conn:
            self._steady_conn = new_conn

    def _downshift(self, now: float) -> bool:
        if not self._steady_started:
            return False
        lower = [r for r in self.video.all_rates if r < self.selected_rate]
        if not lower:
            return False
        old_rate = self.selected_rate
        new_rate = max(lower)
        # keep media-time continuity: carry the steady-state fetch offset
        # over at the same playback position in the new rendition
        position_s = self._steady_offset * 8 / old_rate
        self.selected_rate = new_rate
        self.playback_rate_bps = new_rate
        self._steady_offset = int(position_s * new_rate / 8)
        self.downshifts.append((now, old_rate, new_rate))
        return True
