"""The streaming video server.

One server instance serves a catalog over HTTP/1.1 and implements the three
server-side feeding disciplines of Section 5:

* **paced** (YouTube/Flash): push ~40 s of playback immediately, then one
  64 kB block every ``block / (k * e)`` seconds — the server-driven short
  ON-OFF cycles of Figure 2(a);
* **bulk** (YouTube HD, HTML5): hand the whole response to TCP at once;
  any throttling is the client's business;
* **range** (Netflix, iPad): serve exactly the byte range requested and
  keep the connection open for the next request.

Requests use ``GET /video/<id>?rate=<bps>`` where the optional ``rate``
selects a rendition (Netflix's multi-bitrate ladder, the iPad's
resolution switching).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..http import (
    CONTAINER_HEADER_LEN,
    HttpRequest,
    HttpResponse,
    RangeError,
    build_flv_header,
    build_webm_header,
    format_content_range,
    parse_range,
    parse_request,
)
from ..simnet.monitor import TimeSeries
from ..simnet.node import Host
from ..simnet.scheduler import EventHandle, EventScheduler
from ..tcp import TcpConfig, TcpConnection, TcpListener
from ..workloads.video import Video
from .apps import Container
from .params import ServerPolicy, server_policy_for


def video_path(video_id: str, rate_bps: Optional[float] = None) -> str:
    """The request path for a video (and optionally a specific rendition)."""
    if rate_bps is None:
        return f"/video/{video_id}"
    # keep full precision: client and server must agree on the rendition
    # size byte-for-byte
    return f"/video/{video_id}?rate={rate_bps!r}"


def parse_video_path(path: str):
    """Inverse of :func:`video_path`: returns ``(video_id, rate_or_None)``."""
    base, _sep, query = path.partition("?")
    if not base.startswith("/video/"):
        raise ValueError(f"not a video path: {path!r}")
    video_id = base[len("/video/"):]
    rate = None
    for pair in query.split("&"):
        if pair.startswith("rate="):
            rate = float(pair[len("rate="):])
    return video_id, rate


class _ResponseJob:
    """One in-progress response on one connection."""

    __slots__ = ("total", "sent", "block", "interval", "timer", "close_after")

    def __init__(self, total: int, close_after: bool) -> None:
        self.total = total
        self.sent = 0
        self.block = 0
        self.interval = 0.0
        self.timer: Optional[EventHandle] = None
        self.close_after = close_after


class VideoServer:
    """HTTP video server bound to one simulated host."""

    def __init__(
        self,
        host: Host,
        scheduler: EventScheduler,
        videos: Dict[str, Video],
        *,
        port: int = 80,
        tcp_config: Optional[TcpConfig] = None,
        policy_override: Optional[ServerPolicy] = None,
        container_override: Optional[Container] = None,
    ) -> None:
        self.host = host
        self.scheduler = scheduler
        self.videos = dict(videos)
        self.port = port
        self.policy_override = policy_override
        self.container_override = container_override
        self.requests_served = 0
        self.responses_404 = 0
        self.responses_503 = 0
        self.connections_accepted = 0
        self.connections_aborted = 0
        #: Every accepted connection in accept order, closed ones included
        #: (``_open_conns`` holds only the live ones).
        self.connections: List[TcpConnection] = []
        self._unavailable_until: Optional[float] = None
        self._open_conns: List[TcpConnection] = []
        self._listener = TcpListener(
            host, scheduler, port, self._on_accept, config=tcp_config
        )

    def close(self) -> None:
        self._listener.close()

    @property
    def cwnd_traces(self) -> List[TimeSeries]:
        """Per-connection cwnd traces in accept order; populated only when
        the server's ``tcp_config`` sets ``trace_cwnd``."""
        return [conn.cwnd_series for conn in self.connections
                if conn.cwnd_series is not None]

    # -- fault injection hooks ---------------------------------------------------

    def set_unavailable(self, until: Optional[float]) -> None:
        """Answer 503 Service Unavailable to every request until ``until``.

        ``None`` restores service immediately.
        """
        self._unavailable_until = until

    @property
    def unavailable(self) -> bool:
        return (self._unavailable_until is not None
                and self.scheduler.clock.now() < self._unavailable_until)

    def abort_connections(self) -> int:
        """RST every open connection (process restart, LB failover).

        Returns the number of connections aborted.
        """
        aborted = 0
        for conn in list(self._open_conns):
            if not conn.fully_closed:
                conn.abort()
                aborted += 1
        self.connections_aborted += aborted
        return aborted

    # -- connection handling --------------------------------------------------

    def _on_accept(self, conn: TcpConnection) -> None:
        self.connections_accepted += 1
        self._open_conns.append(conn)
        self.connections.append(conn)
        state = {"buf": b"", "job": None}
        conn.on_data = lambda c: self._on_request_bytes(c, state)
        conn.on_closed = lambda c, reason: self._on_conn_closed(c, state)

    def _on_conn_closed(self, conn: TcpConnection, state: dict) -> None:
        job = state.get("job")
        if job is not None and job.timer is not None:
            job.timer.cancel()
            job.timer = None
        try:
            self._open_conns.remove(conn)
        except ValueError:
            pass

    def _on_request_bytes(self, conn: TcpConnection, state: dict) -> None:
        state["buf"] += conn.recv(8192)
        while True:
            parsed = parse_request(state["buf"])
            if parsed is None:
                return
            request, consumed = parsed
            state["buf"] = state["buf"][consumed:]
            self._handle_request(conn, state, request)

    # -- request handling -------------------------------------------------------

    def _container_of(self, video: Video) -> Container:
        if self.container_override is not None:
            return self.container_override
        if video.container == "silverlight":
            return Container.SILVERLIGHT
        if video.container == "webm":
            return Container.HTML5
        if video.resolution == "720p":
            return Container.FLASH_HD
        return Container.FLASH

    def _file_header_for(self, video: Video) -> bytes:
        """The leading container-metadata bytes of the served file."""
        if video.container == "flv":
            return build_flv_header(video.encoding_rate_bps, video.duration)
        if video.container == "webm":
            return build_webm_header(video.duration)
        return b""  # Silverlight fragments carry no parseable header here

    def _handle_request(self, conn: TcpConnection, state: dict,
                        request: HttpRequest) -> None:
        if self.unavailable:
            self.responses_503 += 1
            resp = HttpResponse(503)
            resp.headers.set("Content-Length", "0")
            conn.send(resp.serialize_head())
            conn.close()
            return
        try:
            video_id, rate = parse_video_path(request.path)
            video = self.videos[video_id]
        except (ValueError, KeyError):
            self.responses_404 += 1
            resp = HttpResponse(404)
            resp.headers.set("Content-Length", "0")
            conn.send(resp.serialize_head())
            conn.close()
            return

        encoding_rate = rate if rate is not None else video.encoding_rate_bps
        file_header = self._file_header_for(video)
        total_size = len(file_header) + video.size_bytes_at(encoding_rate)
        policy = self.policy_override or server_policy_for(self._container_of(video))

        range_header = request.range_header
        if range_header is not None:
            try:
                start, end = parse_range(range_header, total_size)
            except RangeError:
                resp = HttpResponse(416)
                resp.headers.set("Content-Length", "0")
                conn.send(resp.serialize_head())
                conn.close()
                return
            status = 206
        else:
            start, end = 0, total_size - 1
            status = 200

        length = end - start + 1
        resp = HttpResponse(status)
        resp.headers.set("Content-Type", _content_type(video))
        resp.headers.set("Content-Length", str(length))
        if status == 206:
            resp.headers.set("Content-Range",
                             format_content_range(start, end, total_size))
        conn.send(resp.serialize_head())
        self.requests_served += 1

        # body: real container-header bytes where the range overlaps them
        if start < len(file_header):
            head_part = file_header[start: min(end + 1, len(file_header))]
        else:
            head_part = b""
        body_virtual = length - len(head_part)

        # HTTP/1.1 keep-alive: partial-content (206) responses leave the
        # connection open for follow-up range requests (the iPad's Video2
        # pattern streams a whole video over one connection this way);
        # full 200 responses close once the body is served, as the 2011
        # YouTube servers did
        close_after = policy.mode != "range" and status == 200
        if policy.mode == "paced":
            self._serve_paced(conn, state, head_part, body_virtual,
                              video, policy, close_after)
        else:
            if head_part:
                conn.send(head_part)
            if body_virtual:
                conn.send_virtual(body_virtual)
            if close_after:
                conn.close()

    def _serve_paced(self, conn: TcpConnection, state: dict, head_part: bytes,
                     body_virtual: int, video: Video, policy: ServerPolicy,
                     close_after: bool) -> None:
        """Push the buffering amount, then pace fixed-size blocks."""
        total = len(head_part) + body_virtual
        job = _ResponseJob(total, close_after)
        state["job"] = job
        rate = video.encoding_rate_bps
        buffering = min(total, int(policy.buffering_playback_s * rate / 8))
        if head_part:
            conn.send(head_part)
        first_virtual = max(0, buffering - len(head_part))
        if first_virtual:
            conn.send_virtual(first_virtual)
        job.sent = len(head_part) + first_virtual
        job.block = policy.block_bytes
        job.interval = policy.block_bytes * 8 / (policy.accumulation_ratio * rate)

        def push_block() -> None:
            job.timer = None
            if conn.state not in ("ESTABLISHED", "CLOSE_WAIT"):
                return
            remaining = job.total - job.sent
            if remaining <= 0:
                if job.close_after:
                    conn.close()
                return
            take = min(job.block, remaining)
            conn.send_virtual(take)
            job.sent += take
            if job.sent >= job.total:
                if job.close_after:
                    conn.close()
                return
            job.timer = self.scheduler.after(job.interval, push_block,
                                             label="server:pace")

        job.timer = self.scheduler.after(job.interval, push_block,
                                         label="server:pace")


def _content_type(video: Video) -> str:
    return {
        "flv": "video/x-flv",
        "webm": "video/webm",
        "silverlight": "application/octet-stream",
    }[video.container]
