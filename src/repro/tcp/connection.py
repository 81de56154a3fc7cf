"""The TCP endpoint state machine.

Implements connection establishment (three-way handshake), reliable data
transfer with NewReno congestion control and receive-window flow control,
delayed ACKs, fast retransmit/recovery, RTO retransmission, zero-window
probing, and orderly FIN teardown — enough fidelity that the paper's
trace-level observations (receive-window throttling, block bursts without
an ACK clock, loss-induced block merging) emerge from the mechanism rather
than being scripted.

Sequence numbers are unwrapped integers internally; the pcap layer wraps
them to 32 bits.  Data is kept in a :class:`~repro.tcp.streambuf.
StreamBuffer`, so multi-megabyte video bodies are carried as *virtual*
bytes while HTTP headers remain real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..simnet.node import Host
from ..simnet.scheduler import EventHandle, EventScheduler
from .congestion import NewRenoCongestion
from .constants import (
    ACK,
    DEFAULT_DELAYED_ACK,
    DEFAULT_DUPACK_THRESHOLD,
    DEFAULT_INIT_CWND_SEGMENTS,
    DEFAULT_MAX_REXMIT,
    DEFAULT_MAX_RTO,
    DEFAULT_MIN_RTO,
    DEFAULT_MSS,
    DEFAULT_RECV_BUFFER,
    DEFAULT_TIME_WAIT,
    FIN,
    PSH,
    RST,
    SYN,
)
from .recvbuf import ReceiveBuffer
from .rtt import RttEstimator
from .segment import TcpSegment
from .streambuf import StreamBuffer

#: Minimum number of back-to-back full-MSS virtual segments before
#: ``_try_send`` hands the burst to the link's vectorized
#: :meth:`~repro.simnet.link.Link.transmit_train` instead of emitting
#: one segment at a time.  Below this the per-burst setup costs more
#: than the per-segment dispatch it saves.
BURST_MIN_SEGS = 3

# Connection states.
CLOSED = "CLOSED"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT_1 = "FIN_WAIT_1"
FIN_WAIT_2 = "FIN_WAIT_2"
CLOSE_WAIT = "CLOSE_WAIT"
CLOSING = "CLOSING"
LAST_ACK = "LAST_ACK"
TIME_WAIT = "TIME_WAIT"


@dataclass
class TcpConfig:
    """Tunable knobs of one endpoint."""

    mss: int = DEFAULT_MSS
    recv_buffer: int = DEFAULT_RECV_BUFFER
    init_cwnd_segments: int = DEFAULT_INIT_CWND_SEGMENTS
    min_rto: float = DEFAULT_MIN_RTO
    max_rto: float = DEFAULT_MAX_RTO
    delayed_ack: float = DEFAULT_DELAYED_ACK
    dupack_threshold: int = DEFAULT_DUPACK_THRESHOLD
    reset_cwnd_after_idle: bool = False
    time_wait: float = DEFAULT_TIME_WAIT
    #: Give up after this many *consecutive* RTO retransmissions without any
    #: forward progress and tear the connection down with reason
    #: ``"timeout"`` (Linux's tcp_retries2 analogue).  ``None`` retries
    #: forever.  With exponential backoff the default never fires on a
    #: merely lossy path — only when the peer or the link is truly gone.
    max_rexmit: Optional[int] = DEFAULT_MAX_REXMIT
    iss: int = 0
    #: Record (time, cwnd) samples on every segment sent — cheap congestion
    #: window instrumentation for analysis and teaching examples.
    trace_cwnd: bool = False


class TcpStats:
    """Per-connection counters."""

    __slots__ = (
        "segments_sent",
        "segments_received",
        "bytes_sent",
        "bytes_received",
        "retransmitted_segments",
        "retransmitted_bytes",
        "acks_sent",
        "dupacks_received",
        "window_probes",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    @property
    def retransmission_rate(self) -> float:
        """Fraction of data bytes sent that were retransmissions."""
        if self.bytes_sent == 0:
            return 0.0
        return self.retransmitted_bytes / self.bytes_sent


class TcpConnection:
    """One end of a TCP connection running on the simulator."""

    def __init__(
        self,
        host: Host,
        scheduler: EventScheduler,
        local_port: int,
        remote_ip: str,
        remote_port: int,
        config: Optional[TcpConfig] = None,
        name: str = "",
    ) -> None:
        self.host = host
        self.scheduler = scheduler
        self.local_ip = host.ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.config = config if config is not None else TcpConfig()
        self.name = name or f"{self.local_ip}:{local_port}"

        self.state = CLOSED
        self.stats = TcpStats()
        # Clock alias for the per-segment paths: reading ``_clock._now``
        # is two attribute loads instead of a bound-method call.
        self._clock = scheduler.clock

        # send side
        self.iss = self.config.iss
        self.stream = StreamBuffer()
        self.snd_una_off = 0          # lowest unacknowledged data offset
        self.snd_nxt_off = 0          # next data offset to send
        self._high_water_off = 0      # highest offset ever transmitted
        self.snd_wnd = self.config.mss  # peer window until first real ACK
        self.cc = NewRenoCongestion(
            self.config.mss,
            self.config.init_cwnd_segments,
            self.config.reset_cwnd_after_idle,
        )
        self.rtt = RttEstimator(self.config.min_rto, self.config.max_rto)
        self._fin_pending = False
        self._fin_sent = False
        self._fin_acked = False
        self._fin_off: Optional[int] = None
        self._syn_acked = False
        self._dupacks = 0
        self._last_ack_seen = -1
        self._last_wnd_seen = -1
        self._rtt_probe: Optional[tuple] = None  # (ack_off_needed, sent_time)
        self._rexmit_count = 0        # consecutive RTOs without progress
        self._last_activity = scheduler.clock.now()

        # receive side
        self.irs: Optional[int] = None
        self.recvbuf = ReceiveBuffer(self.config.recv_buffer)
        self._peer_fin_off: Optional[int] = None
        self._peer_fin_processed = False
        self._adv_window_last = self.recvbuf.window
        self._segs_since_ack = 0

        # timers — the retransmit and delayed-ACK timers are *deadline
        # based*: arming/cancelling them (which happens on nearly every
        # segment) only stores a float, while at most one scheduler event
        # per timer is in flight and lazily re-arms itself (see
        # ``_restart_rexmit_timer``).
        self._rexmit_timer: Optional[EventHandle] = None
        self._rexmit_deadline: Optional[float] = None
        self._rexmit_event_time = 0.0
        self._delack_timer: Optional[EventHandle] = None
        self._delack_deadline: Optional[float] = None
        self._persist_timer: Optional[EventHandle] = None
        self._persist_backoff = 1.0
        self._timewait_timer: Optional[EventHandle] = None
        # Window-update threshold of ``_after_app_read``; both inputs are
        # fixed at construction.
        self._wupdate_threshold = min(
            2 * self.config.mss, self.recvbuf.capacity // 2
        )
        # Resolved lazily on first emit: the bottleneck link's bound
        # ``transmit`` for this flow's (src, dst) pair, skipping the
        # host -> network -> path hop on every segment.  Links are mutated
        # in place by faults (rate/up flips), never swapped, so the bound
        # method stays valid for the connection's lifetime.
        self._transmit = None

        # optional congestion-window trace
        self.cwnd_series = None
        if self.config.trace_cwnd:
            from ..simnet.monitor import TimeSeries

            self.cwnd_series = TimeSeries(f"{self.name}:cwnd")

        # Set by the streaming client: the HTTP response parser its
        # on_data callback drains into, and the transfer it serves.  A
        # connection with an http_stream is eligible for the in-order
        # steady-state branch of on_segment (_fast_inorder_data).
        self.http_stream = None
        self._job = None

        # OFF-period fast-forward: the lazy deadline-based timers below
        # are the only state that could fire outside the scheduler heap,
        # so the connection vouches for them via a quiescence probe.
        scheduler.add_quiescence_probe(self.quiescent)

        # application callbacks
        self.on_connected: Optional[Callable[["TcpConnection"], None]] = None
        self.on_data: Optional[Callable[["TcpConnection"], None]] = None
        self.on_peer_fin: Optional[Callable[["TcpConnection"], None]] = None
        self.on_closed: Optional[Callable[["TcpConnection", str], None]] = None

        self._registered = False

    # ------------------------------------------------------------------ API

    def connect(self) -> None:
        """Active open: send SYN."""
        if self.state != CLOSED:
            raise RuntimeError(f"{self.name}: connect() in state {self.state}")
        self._register()
        self.state = SYN_SENT
        self._send_control(SYN, seq=self.iss)
        self._rtt_probe = ("syn", self.scheduler.clock.now())
        self._restart_rexmit_timer()

    def send(self, data: bytes) -> None:
        """Queue real application bytes for transmission."""
        self.stream.append(data)
        self._try_send()

    def send_virtual(self, n: int) -> None:
        """Queue ``n`` virtual (content-free) bytes for transmission."""
        self.stream.append_virtual(n)
        self._try_send()

    @property
    def available(self) -> int:
        """Bytes ready for the application to read."""
        return self.recvbuf.unread

    def recv(self, max_bytes: int) -> bytes:
        """Read up to ``max_bytes`` from the in-order receive queue."""
        data = self.recvbuf.read(max_bytes)
        if data:
            self._after_app_read()
        return data

    def recv_discard(self, max_bytes: int) -> int:
        """Consume up to ``max_bytes`` without materializing them."""
        n = self.recvbuf.read_discard(max_bytes)
        if n:
            self._after_app_read()
        return n

    def close(self) -> None:
        """Half-close: no more sends after queued data drains."""
        if self.state in (CLOSED, TIME_WAIT, LAST_ACK, FIN_WAIT_1, FIN_WAIT_2, CLOSING):
            return
        self._fin_pending = True
        if self.state == ESTABLISHED or self.state == SYN_RCVD:
            self.state = FIN_WAIT_1
        elif self.state == CLOSE_WAIT:
            self.state = LAST_ACK
        elif self.state == SYN_SENT:
            self._teardown("closed-before-established")
            return
        self._try_send()

    def abort(self) -> None:
        """Send RST and tear the connection down immediately."""
        if self.state != CLOSED:
            self._send_control(RST | ACK, seq=self._snd_nxt_seq())
        self._teardown("reset-by-local")

    # -------------------------------------------------------- derived state

    @property
    def established(self) -> bool:
        return self.state == ESTABLISHED

    @property
    def fully_closed(self) -> bool:
        return self.state == CLOSED

    @property
    def unacked_bytes(self) -> int:
        return self.snd_nxt_off - self.snd_una_off

    @property
    def unsent_bytes(self) -> int:
        return self.stream.length - self.snd_nxt_off

    @property
    def bytes_delivered(self) -> int:
        """In-order bytes ever made readable to the application."""
        return self.recvbuf.total_delivered

    # ----------------------------------------------------------- quiescence

    def quiescent(self, until: float) -> bool:
        """Quiescence probe for the scheduler's OFF-period fast-forward.

        The retransmit and delayed-ACK timers are deadline-based: the
        armed deadline lives in a float while at most one lazily
        re-arming event sits in the heap at a time *no later than the
        deadline*.  That invariant means a deadline strictly before
        ``until`` (the next heap event) is impossible in normal
        operation — this probe turns the invariant into a checked
        refusal instead of a silent assumption.
        """
        if self.state == CLOSED:
            return True
        deadline = self._rexmit_deadline
        if deadline is not None and deadline < until:
            return False
        deadline = self._delack_deadline
        if deadline is not None and deadline < until:
            return False
        return True

    # --------------------------------------------------------- registration

    def _register(self) -> None:
        if not self._registered:
            self.host.register_connection(
                (self.local_port, self.remote_ip, self.remote_port),
                self.on_segment,
            )
            self._registered = True

    def _unregister(self) -> None:
        if self._registered:
            self.host.unregister_connection(
                (self.local_port, self.remote_ip, self.remote_port)
            )
            self._registered = False

    # --------------------------------------------------------- seq mapping

    def _seq_for_data(self, off: int) -> int:
        return self.iss + 1 + off

    def _snd_nxt_seq(self) -> int:
        seq = self._seq_for_data(self.snd_nxt_off)
        if self._fin_sent:
            seq += 1
        return seq

    def _ack_no(self) -> int:
        """The cumulative ACK we advertise to the peer."""
        if self.irs is None:
            return 0
        ack = self.irs + 1 + self.recvbuf.rcv_nxt
        if self._peer_fin_processed:
            ack += 1
        return ack

    # ------------------------------------------------------------- sending

    def _build_segment(
        self,
        flags: int,
        seq: int,
        payload_len: int = 0,
        payload: Optional[bytes] = None,
        retransmission: bool = False,
    ) -> TcpSegment:
        rb = self.recvbuf
        # inline ReceiveBuffer.window (monotone right edge); this runs
        # once per segment sent
        rcv_nxt = rb.rcv_nxt
        edge = rcv_nxt + rb.capacity - rb._unread - rb._ooo_bytes
        if edge > rb._right_edge:
            rb._right_edge = edge
        window = rb._right_edge - rcv_nxt
        self._adv_window_last = window
        # inline _ack_no(): this runs once per segment sent
        irs = self.irs
        if irs is None:
            ack = 0
        else:
            ack = irs + 1 + rb.rcv_nxt
            if self._peer_fin_processed:
                ack += 1
        if payload is None and not retransmission and not (flags & (SYN | FIN | RST)):
            # Retransmit-free virtual-payload path (video body segments and
            # pure ACKs): reuse a pooled segment; the delivering link
            # releases it once the receiver has processed it.
            return TcpSegment.acquire(
                self.local_ip,
                self.local_port,
                self.remote_ip,
                self.remote_port,
                seq=seq,
                ack=ack,
                flags=flags,
                window=window,
                payload_len=payload_len,
                sent_at=self._clock._now,
            )
        return TcpSegment(
            self.local_ip,
            self.local_port,
            self.remote_ip,
            self.remote_port,
            seq=seq,
            ack=ack,
            flags=flags,
            window=window,
            payload_len=payload_len,
            payload=payload,
            sent_at=self._clock._now,
            retransmission=retransmission,
        )

    def _emit(self, seg: TcpSegment) -> None:
        stats = self.stats
        stats.segments_sent += 1
        plen = seg.payload_len
        if plen:
            stats.bytes_sent += plen
            if seg.retransmission:
                stats.retransmitted_segments += 1
                stats.retransmitted_bytes += plen
        elif seg.flags == ACK:  # pure ACK
            stats.acks_sent += 1
        self._last_activity = self._clock._now
        if self.cwnd_series is not None and (
            not self.cwnd_series.values
            or self.cwnd_series.values[-1] != self.cc.cwnd
        ):
            self.cwnd_series.append(self._last_activity, float(self.cc.cwnd))
        transmit = self._transmit
        if transmit is None:
            network = self.host.network
            if network is None:
                self.host.send_segment(seg)  # raises AddressError
                return
            transmit = self._transmit = network.transmit_fn(
                self.local_ip, self.remote_ip
            )
        transmit(seg)

    def _send_control(self, flags: int, seq: int) -> None:
        self._emit(self._build_segment(flags, seq))

    def _try_send(self) -> None:
        """Transmit as much queued data as windows permit; handle FIN."""
        if self.state not in (ESTABLISHED, FIN_WAIT_1, CLOSE_WAIT, LAST_ACK, CLOSING):
            return
        if not self._syn_acked:
            return
        cc = self.cc
        idle = self._clock._now - self._last_activity
        if idle > 0:
            cc.on_idle(idle, self.rtt.rto)
        stream = self.stream
        mss = self.config.mss
        sent_any = False
        while True:
            off = self.snd_nxt_off
            unsent = stream.length - off
            if unsent <= 0:
                break
            # effective window: min(cwnd, peer window) minus in flight
            wnd = cc.cwnd
            snd_wnd = self.snd_wnd
            if snd_wnd < wnd:
                wnd = snd_wnd
            window = int(wnd) - (off - self.snd_una_off)
            take = mss if mss < unsent else unsent
            if window < take:
                take = window
            # sender-side silly-window avoidance: don't send a runt unless
            # it is the final piece of the queued stream
            if take <= 0 or (take < mss and take < unsent):
                if off == self.snd_una_off and snd_wnd < mss:
                    # receiver-limited with nothing in flight: only a window
                    # probe can restart the transfer
                    self._start_persist()
                break
            if take == mss and window >= BURST_MIN_SEGS * mss:
                k = (window if window < unsent else unsent) // mss
                if k >= BURST_MIN_SEGS and self._burst_send(off, k):
                    sent_any = True
                    continue
            payload = stream.read_range(off, off + take)
            flags = ACK | (PSH if take == unsent else 0)
            # after a timeout snd_nxt rolls back (go-back-N), so offsets
            # below the high-water mark are retransmissions
            is_retx = off < self._high_water_off
            seg = self._build_segment(
                flags,
                self.iss + 1 + off,
                payload_len=take,
                payload=payload,
                retransmission=is_retx,
            )
            off += take
            self.snd_nxt_off = off
            if off > self._high_water_off:
                self._high_water_off = off
            if self._rtt_probe is None and not is_retx:
                self._rtt_probe = (off, self._clock._now)
            self._emit(seg)
            sent_any = True
        # FIN: everything sent, nothing more queued
        if (
            self._fin_pending
            and not self._fin_sent
            and self.snd_nxt_off >= self.stream.length
        ):
            self._fin_off = self.stream.length
            self._fin_sent = True
            self._send_control(FIN | ACK, seq=self._seq_for_data(self._fin_off))
            sent_any = True
        if sent_any:
            self._delack_deadline = None  # data segments carry the ACK
            if self._rexmit_deadline is None:
                self._restart_rexmit_timer()

    def _burst_send(self, off: int, k: int) -> bool:
        """Send ``k`` back-to-back full-MSS virtual segments as one train.

        The bulk-transfer strategy (and any cwnd-opened sender) emits
        long runs of identical segments; building them in one pass and
        handing the whole burst to :meth:`Link.transmit_train` removes
        the per-segment emit/transmit dispatch.  Byte-identical to the
        scalar loop: the advertised window and ack are frozen across the
        burst (nothing on the receive side changes between back-to-back
        builds), PSH lands on the stream's final segment exactly as the
        per-segment flag computation does, and the RTT probe samples the
        first segment.  Returns ``False`` — leaving no trace — when any
        precondition fails; the caller falls back to the scalar path.
        """
        if off < self._high_water_off:
            return False  # retransmissions take the scalar path
        if self.cwnd_series is not None:
            return False
        transmit = self._transmit
        if transmit is None:
            return False  # no emitted segment yet resolved the link
        stream = self.stream
        mss = self.config.mss
        end = off + k * mss
        if stream.read_range(off, end) is not None:
            return False  # real bytes in range: scalar path materializes
        # advertised window / ack, mirroring _build_segment (constant
        # across the burst)
        rb = self.recvbuf
        rcv_nxt = rb.rcv_nxt
        edge = rcv_nxt + rb.capacity - rb._unread - rb._ooo_bytes
        if edge > rb._right_edge:
            rb._right_edge = edge
        window = rb._right_edge - rcv_nxt
        self._adv_window_last = window
        irs = self.irs
        if irs is None:
            ack = 0
        else:
            ack = irs + 1 + rcv_nxt
            if self._peer_fin_processed:
                ack += 1
        now = self._clock._now
        total = stream.length
        seq0 = self.iss + 1 + off
        local_ip = self.local_ip
        local_port = self.local_port
        remote_ip = self.remote_ip
        remote_port = self.remote_port
        acquire = TcpSegment.acquire
        segs = []
        append = segs.append
        for i in range(k):
            o = off + i * mss
            append(acquire(
                local_ip, local_port, remote_ip, remote_port,
                seq=seq0 + i * mss,
                ack=ack,
                flags=ACK | PSH if o + mss == total else ACK,
                window=window,
                payload_len=mss,
                sent_at=now,
            ))
        stats = self.stats
        stats.segments_sent += k
        stats.bytes_sent += k * mss
        self._last_activity = now
        self.snd_nxt_off = end
        self._high_water_off = end
        if self._rtt_probe is None:
            self._rtt_probe = (off + mss, now)
        transmit.__self__.transmit_train(segs)
        return True

    # ---------------------------------------------------------- retransmit
    #
    # The timer is restarted on every ACK that leaves data outstanding, so
    # an eager cancel-and-reschedule would allocate a handle and churn the
    # heap tens of thousands of times per session.  Instead the restart
    # stores ``_rexmit_deadline`` (a float) and keeps at most one event in
    # flight: when the event fires before the deadline it re-arms itself
    # at the current deadline.  An actual timeout therefore still fires at
    # exactly ``restart_time + rto`` — the same absolute float the eager
    # scheme produced.

    def _restart_rexmit_timer(self) -> None:
        rto = self.rtt.rto
        deadline = self._clock._now + rto
        self._rexmit_deadline = deadline
        timer = self._rexmit_timer
        if timer is None:
            self._rexmit_timer = self.scheduler.after(
                rto, self._rexmit_tick, label=f"{self.name}:rto"
            )
            self._rexmit_event_time = deadline
        elif self._rexmit_event_time > deadline:
            # the RTO shrank below the in-flight event's time (fresh
            # samples after a backoff reset): bring the event forward so
            # the timeout cannot fire late
            timer.cancel()
            self._rexmit_timer = self.scheduler.at(
                deadline, self._rexmit_tick, label=f"{self.name}:rto"
            )
            self._rexmit_event_time = deadline

    def _cancel_rexmit_timer(self) -> None:
        # the in-flight event, if any, dies lazily at its scheduled time
        self._rexmit_deadline = None

    def _rexmit_tick(self) -> None:
        self._rexmit_timer = None
        deadline = self._rexmit_deadline
        if deadline is None:
            return  # cancelled since the event was scheduled
        if self._clock._now < deadline:
            # the deadline moved while we were queued: re-arm at it
            self._rexmit_timer = self.scheduler.at(
                deadline, self._rexmit_tick, label=f"{self.name}:rto"
            )
            self._rexmit_event_time = deadline
            return
        self._on_rexmit_timeout()

    def _outstanding(self) -> bool:
        if self.snd_nxt_off > self.snd_una_off:  # unacked data
            return True
        if self._fin_sent and not self._fin_acked:
            return True
        return self.state in (SYN_SENT, SYN_RCVD) and not self._syn_acked

    def _on_rexmit_timeout(self) -> None:
        if not self._outstanding():
            self._rexmit_deadline = None
            return
        self._rexmit_count += 1
        if (self.config.max_rexmit is not None
                and self._rexmit_count > self.config.max_rexmit):
            self._teardown("timeout")
            return
        self.rtt.backoff()
        self._rtt_probe = None
        if self.state == SYN_SENT:
            self._send_control(SYN, seq=self.iss)
        elif self.state == SYN_RCVD and not self._syn_acked:
            self._send_control(SYN | ACK, seq=self.iss)
        elif self.unacked_bytes > 0:
            self.cc.on_timeout(self.unacked_bytes)
            self._dupacks = 0
            self._rtt_probe = None
            # go-back-N: without SACK the sender cannot know which of the
            # outstanding segments were lost, so it restarts from snd_una
            # in slow start (classic Reno timeout behaviour)
            self.snd_nxt_off = self.snd_una_off
            self._try_send()
        elif self._fin_sent and not self._fin_acked:
            assert self._fin_off is not None
            self._send_control(FIN | ACK, seq=self._seq_for_data(self._fin_off))
        self._restart_rexmit_timer()

    def _retransmit_one(self, off: int) -> None:
        """Retransmit one MSS of data starting at stream offset ``off``."""
        end = min(off + self.config.mss, max(self.snd_nxt_off, off))
        if end <= off:
            return
        payload = self.stream.read_range(off, end)
        flags = ACK | (PSH if end == self.stream.length else 0)
        seg = self._build_segment(
            flags,
            self._seq_for_data(off),
            payload_len=end - off,
            payload=payload,
            retransmission=True,
        )
        self._rtt_probe = None  # Karn: no sampling across retransmissions
        self._emit(seg)

    # ---------------------------------------------------------- persisting

    def _start_persist(self) -> None:
        if self._persist_timer is not None:
            return
        interval = min(self.rtt.rto * self._persist_backoff, 60.0)
        self._persist_timer = self.scheduler.after(
            interval, self._on_persist, label=f"{self.name}:persist"
        )

    def _cancel_persist(self) -> None:
        if self._persist_timer is not None:
            self._persist_timer.cancel()
            self._persist_timer = None
        self._persist_backoff = 1.0

    def _on_persist(self) -> None:
        self._persist_timer = None
        if self.snd_wnd >= self.config.mss or self.state == CLOSED:
            return
        if self.unsent_bytes > 0:
            # 1-byte window probe carrying the next stream byte
            off = self.snd_nxt_off
            payload = self.stream.read_range(off, off + 1)
            seg = self._build_segment(
                ACK,
                self._seq_for_data(off),
                payload_len=1,
                payload=payload,
                retransmission=True,
            )
            self.stats.window_probes += 1
            self._emit(seg)
        self._persist_backoff = min(self._persist_backoff * 2.0, 64.0)
        self._start_persist()

    # -------------------------------------------------------------- ACKing

    def _ack_now(self) -> None:
        self._delack_deadline = None
        self._segs_since_ack = 0
        self._send_control(ACK, seq=self._snd_nxt_seq())

    # The delayed-ACK timer uses the same deadline pattern as the
    # retransmit timer: scheduling and cancelling are float stores; a
    # single lazily re-arming event fires the ACK at exactly the time the
    # eager schedule would have.

    def _schedule_delack(self) -> None:
        if self._delack_deadline is None:
            delay = self.config.delayed_ack
            self._delack_deadline = self._clock._now + delay
            if self._delack_timer is None:
                self._delack_timer = self.scheduler.after(
                    delay, self._delack_tick, label=f"{self.name}:delack"
                )

    def _cancel_delack(self) -> None:
        # the in-flight event, if any, dies (or re-arms) lazily
        self._delack_deadline = None

    def _delack_tick(self) -> None:
        self._delack_timer = None
        deadline = self._delack_deadline
        if deadline is None:
            return  # cancelled: the ACK was sent by other means
        if self._clock._now < deadline:
            self._delack_timer = self.scheduler.at(
                deadline, self._delack_tick, label=f"{self.name}:delack"
            )
            return
        self._delack_deadline = None
        self._segs_since_ack = 0
        self._send_control(ACK, seq=self._snd_nxt_seq())

    def _after_app_read(self) -> None:
        """Send a window update when the application frees enough space."""
        rb = self.recvbuf
        # inline ReceiveBuffer.window (monotone right edge); this runs
        # after every application read
        rcv_nxt = rb.rcv_nxt
        edge = rcv_nxt + rb.capacity - rb._unread - rb._ooo_bytes
        if edge > rb._right_edge:
            rb._right_edge = edge
        window = rb._right_edge - rcv_nxt
        last = self._adv_window_last
        mss = self.config.mss
        if last < mss and window >= mss:
            self._ack_now()
        elif window - last >= self._wupdate_threshold:
            self._ack_now()

    # ------------------------------------------------ steady-state branch
    #
    # on_segment tries these two guard-first helpers before the generic
    # state machine.  Each handles exactly one steady-state case and
    # replicates the generic path's writes in their exact order, so the
    # results (every ACK's timing, window and the advertised-window
    # bookkeeping included) are bit-equal.  Every guard is a pure read:
    # returning False leaves no trace and on_segment takes the generic
    # path.

    def _fast_inorder_data(self, seg: TcpSegment) -> bool:
        """An in-order data segment with a no-op ACK arriving mid-body on
        an idle-send connection whose application drains greedily."""
        # -- guards (reads only) ------------------------------------------
        hs = self.http_stream
        if hs is None or self.state != ESTABLISHED:
            return False
        job = self._job
        if job is not None and job.on_data is not None:
            return False  # throttled reader (PullPlayer): generic drain
        flags = seg.flags
        if flags != ACK and flags != ACK | PSH:
            return False
        rb = self.recvbuf
        if rb._ooo or rb._unread or self._peer_fin_off is not None:
            return False
        off = seg.seq - self.irs - 1
        if off != rb.rcv_nxt:
            return False
        una = self.snd_una_off
        if seg.ack - self.iss - 1 != una or self.snd_nxt_off != una:
            return False
        if self._fin_sent or self._fin_pending or self.stream._length != una:
            return False
        if self._persist_timer is not None or self._persist_backoff != 1.0:
            return False
        if self.cwnd_series is not None:
            return False
        # window acceptance, mirroring ReceiveBuffer.offer's in-order path
        plen = seg.payload_len
        window_end = off + rb.capacity - rb._ooo_bytes  # _unread == 0
        if window_end < rb._right_edge:
            window_end = rb._right_edge
        if off + plen > window_end:
            return False  # would be trimmed: generic path handles it
        if hs._response is None or hs._headbuf:
            return False  # parsing a head: generic drain
        if hs._body_expected - hs._body_received <= plen:
            return False  # response completes: generic drain + callbacks
        # -- commit (the generic path's writes, in order) -----------------
        self.stats.segments_received += 1
        self._last_activity = self._clock._now
        # _process_ack reduces to window bookkeeping: the ACK duplicates
        # snd_una with nothing in flight, persist is idle and nothing is
        # queued, so no other branch can be taken.
        wnd = seg.window
        self._last_wnd_seen = wnd
        self.snd_wnd = wnd
        # ReceiveBuffer.offer, in-order append (acceptance proven above)
        if rb._right_edge < window_end:
            rb._right_edge = window_end
        rb._inorder.append((plen, seg.payload))
        rb._unread = plen
        rb.rcv_nxt = off + plen
        rb.total_delivered += plen
        # every-2nd-segment ACK policy of _segment_in_open_states; the
        # ACK advertises the still-undrained chunk, as the generic
        # ordering has it
        n = self._segs_since_ack + 1
        if n >= 2:
            self._ack_now()
        else:
            self._segs_since_ack = n
            self._schedule_delack()
        # application drain: HttpResponseStream.take consuming the single
        # in-order chunk mid-body — read_discard, then _after_app_read,
        # then _account_body, exactly as the generic chain orders them.
        rb._inorder.clear()
        rb._unread = 0
        self._after_app_read()
        hs._body_received += plen
        hs.total_body_bytes += plen
        hs.on_body_bytes(plen)
        return True

    def _fast_pure_ack(self, seg: TcpSegment) -> bool:
        """A pure ACK that advances ``snd_una`` on an ESTABLISHED
        connection outside recovery, with persist idle, no FIN from the
        peer and none sent yet.  A server that closed right after
        queueing its body sits in FIN_WAIT_1 with the FIN pending behind
        the data; its ACKs take this path too.  ``_try_send`` stays a
        real call (transmitting the window the ACK opened, then the FIN,
        is the actual work)."""
        # -- guards (reads only) ------------------------------------------
        state = self.state
        if (state != ESTABLISHED and state != FIN_WAIT_1) or seg.flags != ACK:
            return False
        ack_off = seg.ack - self.iss - 1
        una = self.snd_una_off
        if ack_off <= una or ack_off > self.snd_nxt_off:
            return False  # dupack / stale / beyond-snd_nxt: generic path
        if self._fin_sent or self._peer_fin_off is not None:
            return False
        cc = self.cc
        if cc.in_recovery:
            return False  # partial-ACK retransmit logic: generic path
        if self._persist_timer is not None or self._persist_backoff != 1.0:
            return False
        # -- commit (the generic path's writes, in order) -----------------
        self.stats.segments_received += 1
        now = self._clock._now
        self._last_activity = now
        # _process_ack window bookkeeping (window_grew only matters in
        # the dupack branch, which the advance guard excludes)
        wnd = seg.window
        self._last_wnd_seen = wnd
        self.snd_wnd = wnd
        newly = ack_off - una
        self.snd_una_off = ack_off
        self.stream.trim(ack_off)
        self._dupacks = 0
        self._rexmit_count = 0
        self.rtt.reset_backoff()
        probe = self._rtt_probe
        if probe is not None and probe[0] != "syn" and ack_off >= probe[0]:
            self.rtt.sample(now - probe[1])
            self._rtt_probe = None
        snd_nxt = self.snd_nxt_off
        # cc.on_ack outside recovery, inlined (newly > 0 proven above),
        # gated by the RFC 2861-style cwnd-limited validation
        if (snd_nxt - ack_off) + newly >= cc.cwnd - self.config.mss:
            mss = cc.mss
            if cc.cwnd < cc.ssthresh:  # slow start, appropriate byte counting
                cc.cwnd += newly if newly < mss else mss
            else:
                cc.cwnd += max(1, mss * mss // cc.cwnd)
        if snd_nxt > ack_off:
            self._restart_rexmit_timer()
        else:
            self._rexmit_deadline = None  # inlined _cancel_rexmit_timer
        if self.stream._length > snd_nxt or self._fin_pending:
            self._try_send()
        return True

    # ----------------------------------------------------- segment arrival

    def on_segment(self, seg: TcpSegment) -> None:
        """Entry point for segments delivered by the host."""
        if seg.payload_len:
            if self._fast_inorder_data(seg):
                return
        elif self._fast_pure_ack(seg):
            return
        self.stats.segments_received += 1
        self._last_activity = self._clock._now
        if seg.flags & RST:
            self._teardown("reset-by-peer")
            return
        state = self.state
        if state == SYN_SENT:
            self._segment_in_syn_sent(seg)
        elif state == SYN_RCVD:
            self._segment_in_syn_rcvd(seg)
        elif state != CLOSED:
            self._segment_in_open_states(seg)

    # -- handshake ------------------------------------------------------------

    def _segment_in_syn_sent(self, seg: TcpSegment) -> None:
        if not (seg.is_syn and seg.is_ack):
            return
        if seg.ack != self.iss + 1:
            return
        self.irs = seg.seq
        self.recvbuf.set_rcv_nxt(0)
        self.snd_wnd = seg.window
        self._syn_acked = True
        self._rexmit_count = 0
        if self._rtt_probe and self._rtt_probe[0] == "syn":
            self.rtt.sample(self.scheduler.clock.now() - self._rtt_probe[1])
            self._rtt_probe = None
        self._cancel_rexmit_timer()
        self.state = ESTABLISHED
        self._ack_now()
        if self.on_connected:
            self.on_connected(self)
        self._try_send()

    def accept_syn(self, seg: TcpSegment) -> None:
        """Passive open: process the client's SYN (called by the listener)."""
        self._register()
        self.irs = seg.seq
        self.recvbuf.set_rcv_nxt(0)
        self.snd_wnd = seg.window
        self.state = SYN_RCVD
        self._send_control(SYN | ACK, seq=self.iss)
        self._rtt_probe = ("syn", self.scheduler.clock.now())
        self._restart_rexmit_timer()

    def _segment_in_syn_rcvd(self, seg: TcpSegment) -> None:
        if seg.is_syn and not seg.is_ack:
            # duplicate SYN: re-send SYN-ACK
            self._send_control(SYN | ACK, seq=self.iss)
            return
        if seg.is_ack and seg.ack >= self.iss + 1:
            self._syn_acked = True
            self._rexmit_count = 0
            if self._rtt_probe and self._rtt_probe[0] == "syn":
                self.rtt.sample(self.scheduler.clock.now() - self._rtt_probe[1])
                self._rtt_probe = None
            self._cancel_rexmit_timer()
            self.state = ESTABLISHED
            self.snd_wnd = seg.window
            if self.on_connected:
                self.on_connected(self)
            # the handshake ACK may carry data (or the request follows)
            if seg.payload_len or seg.is_fin:
                self._segment_in_open_states(seg)
            else:
                self._try_send()

    # -- established and closing states ----------------------------------------

    def _segment_in_open_states(self, seg: TcpSegment) -> None:
        flags = seg.flags  # bit tests beat the is_* properties on this hot path
        if flags & SYN:
            # stale duplicate SYN-ACK: just re-ACK
            self._ack_now()
            return
        if flags & ACK:
            self._process_ack(seg)
        if self.state == CLOSED:
            return
        delivered = 0
        needs_ack = False
        plen = seg.payload_len
        if plen:
            rb = self.recvbuf
            data_off = seg.seq - (self.irs + 1)
            before_gap = bool(rb._ooo)  # inlined ReceiveBuffer.has_gap
            delivered = rb.offer(data_off, plen, seg.payload)
            if rb._ooo or before_gap or delivered == 0:
                # out-of-order, gap-filling, or out-of-window: ACK right away
                self._ack_now()
            else:
                n = self._segs_since_ack + 1
                if n >= 2:
                    self._ack_now()
                else:
                    self._segs_since_ack = n
                    self._schedule_delack()
        if flags & FIN:
            fin_off = (seg.seq + seg.payload_len) - (self.irs + 1)
            self._peer_fin_off = fin_off
            needs_ack = True
        if self._peer_fin_off is not None and not self._peer_fin_processed:
            if self.recvbuf.rcv_nxt >= self._peer_fin_off:
                self._peer_fin_processed = True
                self._on_peer_fin_processed()
                needs_ack = True
        if needs_ack:
            self._ack_now()
        if delivered and self.on_data:
            self.on_data(self)

    def _on_peer_fin_processed(self) -> None:
        if self.state == ESTABLISHED:
            self.state = CLOSE_WAIT
        elif self.state == FIN_WAIT_1:
            self.state = CLOSING if not self._fin_acked else TIME_WAIT
        elif self.state == FIN_WAIT_2:
            self.state = TIME_WAIT
        if self.state == TIME_WAIT:
            self._enter_time_wait()
        if self.on_peer_fin:
            self.on_peer_fin(self)

    def _process_ack(self, seg: TcpSegment) -> None:
        ack_off = seg.ack - (self.iss + 1)
        fin_ack_off = None
        if self._fin_sent:
            assert self._fin_off is not None
            fin_ack_off = self._fin_off + 1
        # Window bookkeeping.  A *window update* (advertised window grew,
        # e.g. the player just drained its buffer) must not count as a
        # duplicate ACK; a shrinking window merely reflects out-of-order
        # data held at the receiver and does not disqualify the dup-ACK.
        wnd = seg.window
        window_grew = wnd > self._last_wnd_seen >= 0
        self._last_wnd_seen = wnd
        self.snd_wnd = wnd
        if wnd >= self.config.mss and (
            self._persist_timer is not None or self._persist_backoff != 1.0
        ):
            # a usable window opened: stop probing and clear probe backoff
            self._cancel_persist()

        effective_ack = ack_off
        fin_now_acked = False
        if fin_ack_off is not None and ack_off >= fin_ack_off:
            effective_ack = self._fin_off
            fin_now_acked = True
        if effective_ack > self.snd_nxt_off:
            # window probes delivered bytes past snd_nxt
            self.snd_nxt_off = min(effective_ack, self.stream.length)

        if effective_ack > self.snd_una_off:
            newly = effective_ack - self.snd_una_off
            self.snd_una_off = effective_ack
            self.stream.trim(self.snd_una_off)
            self._dupacks = 0
            self._rexmit_count = 0
            self.rtt.reset_backoff()
            if self._rtt_probe and self._rtt_probe[0] != "syn":
                probe_end, t0 = self._rtt_probe
                if effective_ack >= probe_end:
                    self.rtt.sample(self._clock._now - t0)
                    self._rtt_probe = None
            # RFC 2861-style validation: only grow cwnd when the flight was
            # actually limited by it (the acked data probed the path)
            flight_before = (self.snd_nxt_off - self.snd_una_off) + newly
            cwnd_limited = flight_before >= self.cc.cwnd - self.config.mss
            if self.cc.in_recovery and effective_ack < self._recover_off():
                # NewReno partial ACK: retransmit the next hole immediately
                self.cc.on_ack(newly, self._seq_for_data(effective_ack),
                               cwnd_limited)
                self._retransmit_one(self.snd_una_off)
            else:
                self.cc.on_ack(newly, self._seq_for_data(effective_ack),
                               cwnd_limited)
            if self._outstanding():
                self._restart_rexmit_timer()
            else:
                self._cancel_rexmit_timer()
        elif (
            seg.flags == ACK
            and seg.payload_len == 0  # inlined is_pure_ack
            and ack_off == self.snd_una_off
            and self.snd_nxt_off > self.snd_una_off
            and not window_grew
        ):
            self._dupacks += 1
            self.stats.dupacks_received += 1
            if self._dupacks == self.config.dupack_threshold:
                if self.cc.on_dupacks(self.unacked_bytes, self._seq_for_data(self.snd_nxt_off)):
                    self._retransmit_one(self.snd_una_off)
                    self._restart_rexmit_timer()
            elif self._dupacks > self.config.dupack_threshold:
                self.cc.on_extra_dupack()

        if fin_now_acked and not self._fin_acked:
            self._fin_acked = True
            self._on_local_fin_acked()
        # _try_send is a no-op without unsent data or an unsent FIN (idle
        # restart cannot trigger here: on_segment just stamped
        # _last_activity), so skip the call on the receiver-side common
        # case — every data segment carries an ACK that lands here.
        if self.stream._length > self.snd_nxt_off or (
            self._fin_pending and not self._fin_sent
        ):
            self._try_send()

    def _recover_off(self) -> int:
        """The NewReno ``recover`` point as a stream offset."""
        return self.cc.recover - (self.iss + 1)

    def _on_local_fin_acked(self) -> None:
        self._cancel_rexmit_timer()
        if self.state == FIN_WAIT_1:
            self.state = FIN_WAIT_2
        elif self.state == CLOSING:
            self.state = TIME_WAIT
            self._enter_time_wait()
        elif self.state == LAST_ACK:
            self._teardown("closed")

    # ------------------------------------------------------------- teardown

    def _enter_time_wait(self) -> None:
        self._cancel_rexmit_timer()
        if self._timewait_timer is None:
            self._timewait_timer = self.scheduler.after(
                self.config.time_wait,
                lambda: self._teardown("closed"),
                label=f"{self.name}:timewait",
            )

    def _teardown(self, reason: str) -> None:
        if self.state == CLOSED and not self._registered:
            return
        self.state = CLOSED
        self._cancel_rexmit_timer()
        self._cancel_delack()
        self._cancel_persist()
        if self._timewait_timer is not None:
            self._timewait_timer.cancel()
            self._timewait_timer = None
        self._unregister()
        if self.on_closed:
            self.on_closed(self, reason)


class TcpListener:
    """Passive endpoint accepting connections on a port."""

    def __init__(
        self,
        host: Host,
        scheduler: EventScheduler,
        port: int,
        on_accept: Callable[[TcpConnection], None],
        config: Optional[TcpConfig] = None,
    ) -> None:
        self.host = host
        self.scheduler = scheduler
        self.port = port
        self.on_accept = on_accept
        self.config = config if config is not None else TcpConfig()
        self.accepted = 0
        host.listen(port, self._on_segment)

    def _on_segment(self, seg: TcpSegment) -> None:
        if not (seg.is_syn and not seg.is_ack):
            return  # stray non-SYN for an unknown flow: ignore
        conn = TcpConnection(
            self.host,
            self.scheduler,
            self.port,
            seg.src_ip,
            seg.src_port,
            config=TcpConfig(**vars(self.config)),
            name=f"{self.host.name}:{self.port}<-{seg.src_ip}:{seg.src_port}",
        )
        self.accepted += 1
        # let the application attach callbacks before any data can arrive
        self.on_accept(conn)
        conn.accept_syn(seg)

    def close(self) -> None:
        self.host.stop_listening(self.port)
