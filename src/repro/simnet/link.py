"""Directed link with finite rate, propagation delay and a drop-tail buffer.

The link models the access bottleneck of the paper's four measurement
networks.  A packet handed to :meth:`Link.transmit`:

1. is dropped if the (virtual) transmit queue already holds more than
   ``buffer_bytes``;
2. otherwise waits for the transmitter to become free, is serialized at
   ``rate_bps``, may be dropped by the configured :class:`LossModel`, and is
   finally delivered ``prop_delay`` seconds after serialization finishes.

The queue is *virtual*: instead of an explicit FIFO we track the time at
which the transmitter becomes idle, ``_busy_until``.  While the rate has
not changed since the oldest queued packet was enqueued, the backlog in
bytes at time ``t`` is exactly ``(busy_until - t) * rate / 8``; a small
per-packet deque prices the backlog at each packet's *enqueue-time* rate
when a mid-flight :meth:`set_rate` would otherwise misprice it.

Packet trains
-------------

Every surviving packet joins the link's delivery *train*, a deque of
``(deliver_at, reserved_seq, packet)``; only the head occupies the
scheduler heap.  The delivery's tie-break seq is reserved at transmit
time (:meth:`EventScheduler.reserve_seq`), so the heap pops in
bit-identical order to scheduling every delivery individually.  Loss
draws are made at transmit time: a dropped packet never joins the train
and consumes no sequence number.  Fault injectors flip ``up``/``rate``
but never touch scheduled deliveries.

* **Burst enqueue** — :meth:`Link.transmit_train` accepts a whole burst
  of equal-size segments and computes their serialization finish times
  in one shot (``itertools.accumulate``, which adds strictly in sequence,
  so the floats are bit-equal to the per-packet recurrence).  Loss draws
  stay per-packet scalar calls so the RNG stream is untouched, and any
  burst that could hit the drop-tail check or a mixed-rate queue falls
  back to per-packet :meth:`transmit`.
* **Batched delivery** — :meth:`Link._deliver_train` delivers a prefix
  of the train under a single scheduler event.  The batch stops strictly
  before the scheduler's cancellable-event mark
  (:meth:`EventScheduler.seed_mark`): the earliest live timer, monitor
  tick or pacing push, whose callbacks may observe state the batch
  mutates, and the ``run_until`` horizon.  Timers armed *by* a delivery
  lower the mark as :meth:`EventScheduler.at` posts them, so the batch
  never needs to know who armed what.  Plain tuple events are link
  deliveries, whose processing commutes with the batch.  Each delivery
  runs at its exact reserved ``(time, seq)`` with the clock pinned to
  its timestamp, so captures and protocol state are byte-identical to
  one-event-per-packet stepping.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate, repeat
from typing import Any, Callable, Deque, List, Optional, Tuple

from .errors import ConfigurationError
from .loss import LossModel, NoLoss
from .scheduler import EventScheduler

# A wire packet is anything exposing its on-the-wire size in bytes.
DeliverFn = Callable[[Any], None]
TapFn = Callable[[float, Any], None]

class LinkStats:
    """Counters kept by each link."""

    __slots__ = (
        "packets_in",
        "packets_delivered",
        "packets_lost",
        "packets_dropped_queue",
        "packets_blackholed",
        "bytes_delivered",
    )

    def __init__(self) -> None:
        self.packets_in = 0
        self.packets_delivered = 0
        self.packets_lost = 0
        self.packets_dropped_queue = 0
        self.packets_blackholed = 0
        self.bytes_delivered = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinkStats({self.as_dict()!r})"


class Link:
    """One direction of a network path."""

    def __init__(
        self,
        scheduler: EventScheduler,
        rate_bps: float,
        prop_delay: float,
        *,
        buffer_bytes: int = 256 * 1024,
        loss_model: Optional[LossModel] = None,
        name: str = "link",
    ) -> None:
        if rate_bps <= 0:
            raise ConfigurationError(f"rate_bps must be positive, got {rate_bps!r}")
        if prop_delay < 0:
            raise ConfigurationError(f"prop_delay must be >= 0, got {prop_delay!r}")
        if buffer_bytes <= 0:
            raise ConfigurationError(f"buffer_bytes must be positive, got {buffer_bytes!r}")
        self.scheduler = scheduler
        self.rate_bps = float(rate_bps)
        self.base_rate_bps = float(rate_bps)
        self.prop_delay = float(prop_delay)
        self.buffer_bytes = int(buffer_bytes)
        self.loss_model = loss_model if loss_model is not None else NoLoss()
        self.name = name
        self.deliver: Optional[DeliverFn] = None
        self.stats = LinkStats()
        self.up = True
        self._busy_until = 0.0
        self._taps: List[TapFn] = []
        self._delivery_taps: List[TapFn] = []
        # Per-packet backlog accounting: (finish_time, size, rate, epoch).
        # The epoch stamps which set_rate() generation a packet was
        # enqueued under, so backlog_bytes() knows when the closed-form
        # virtual-queue formula is still exact.
        self._queue: Deque[Tuple[float, int, float, int]] = deque()
        self._queued_bytes = 0
        self._rate_epoch = 0
        # Delivery train: (deliver_at, reserved_seq, packet).  Only the
        # head entry occupies the scheduler heap.
        self._train: Deque[Tuple[float, int, Any]] = deque()
        # True while _deliver_train() is draining the train: a transmit
        # re-entering this link then must not post a head event (the
        # batch posts exactly one for whatever remains when it ends).
        self._in_batch = False
        scheduler.add_quiescence_probe(self.quiescent)

    # -- fault state --------------------------------------------------------

    def set_up(self, up: bool) -> None:
        """Bring the link up or down.  A down link blackholes every packet
        handed to it (link outage / flap): the sender learns nothing, which
        is exactly what TCP sees when a last-mile link dies."""
        self.up = bool(up)

    def set_rate(self, rate_bps: float) -> None:
        """Change the serialization rate (temporary bandwidth degradation)."""
        if rate_bps <= 0:
            raise ConfigurationError(f"rate_bps must be positive, got {rate_bps!r}")
        self.rate_bps = float(rate_bps)
        self._rate_epoch += 1

    def reset(self) -> None:
        """Restore fault-free initial state for reuse across runs.

        Clears the loss model's internal state (burst position, packet
        index), brings the link back up, restores the nominal rate and
        abandons any in-flight delivery train (its pending scheduler
        event, if any, belongs to the previous run's scheduler), so
        repeated sessions on one topology see identical loss processes.
        """
        self.loss_model.reset()
        self.up = True
        self.rate_bps = self.base_rate_bps
        self._rate_epoch += 1
        self._train.clear()
        self._in_batch = False

    # -- wiring -------------------------------------------------------------

    def connect(self, deliver: DeliverFn) -> None:
        """Set the far-end delivery callback."""
        self.deliver = deliver

    def add_tap(self, tap: TapFn) -> List[TapFn]:
        """Register a sender-side sniffer: ``tap(send_time, packet)`` fires
        for every packet that survives the queue, including ones later lost
        downstream (what a capture box at the transmitter sees).  Returns
        the tap list joined; removing ``tap`` from it detaches the tap."""
        self._taps.append(tap)
        return self._taps

    def add_delivery_tap(self, tap: TapFn) -> List[TapFn]:
        """Register a receiver-side sniffer: ``tap(arrival_time, packet)``
        fires only for packets actually delivered (what tcpdump at the far
        end of the link sees — lost packets never appear).  Returns the
        tap list joined, as :meth:`add_tap` does."""
        self._delivery_taps.append(tap)
        return self._delivery_taps

    # -- quiescence ---------------------------------------------------------

    def quiescent(self, until: float) -> bool:
        """Quiescence probe for the scheduler's OFF-period fast-forward.

        The link is provably idle only when no delivery train is pending
        and the transmitter has finished serializing: a packet in flight
        means the window ``(now, until)`` is not an OFF period, so the
        fast-forward must refuse it (its delivery event still fires at
        the exact scheduled time either way — refusal costs nothing but
        the accounting).
        """
        if self._train:
            return False
        return self._busy_until <= self.scheduler.clock._now

    # -- queue state --------------------------------------------------------

    def backlog_bytes(self, now: Optional[float] = None) -> float:
        """Bytes currently queued (including the packet in serialization).

        Each queued packet is priced at the rate in force when it was
        *enqueued*: after a mid-flight :meth:`set_rate` degradation the
        already-queued bytes do not shrink just because the conversion
        factor changed.  When the rate has not changed since the oldest
        queued packet, this reduces to the exact closed-form
        ``(busy_until - t) * rate / 8``.
        """
        t = self.scheduler.clock.now() if now is None else now
        queue = self._queue
        while queue and queue[0][0] <= t:
            self._queued_bytes -= queue.popleft()[1]
        if not queue:
            return 0.0
        head_finish, head_size, head_rate, head_epoch = queue[0]
        if head_epoch == self._rate_epoch:
            # Rate unchanged since the oldest queued packet: use the
            # historical closed-form arithmetic (bit-for-bit).
            return max(0.0, self._busy_until - t) * self.rate_bps / 8.0
        # Mixed-rate queue: whole bytes of every queued packet, minus the
        # part of the head already serialized at the head's own rate.
        backlog = float(self._queued_bytes)
        head_start = head_finish - head_size * 8.0 / head_rate
        if t > head_start:
            backlog -= (t - head_start) * head_rate / 8.0
        return max(0.0, backlog)

    def serialization_delay(self, size_bytes: int) -> float:
        return size_bytes * 8.0 / self.rate_bps

    # -- transmission -------------------------------------------------------

    def transmit(self, packet: Any) -> bool:
        """Enqueue ``packet`` for transmission.

        Returns ``True`` if accepted, ``False`` if dropped at the queue.
        ``packet`` must expose ``wire_size`` (bytes on the wire).
        """
        if self.deliver is None:
            raise ConfigurationError(f"link {self.name!r} has no delivery callback")
        scheduler = self.scheduler
        now = scheduler.clock._now
        stats = self.stats
        stats.packets_in += 1
        if not self.up:
            stats.packets_blackholed += 1
            return True  # swallowed by the outage; the sender cannot tell
        size = packet.wire_size
        # drop-tail check, inlining backlog_bytes() (one call per packet)
        queue = self._queue
        while queue and queue[0][0] <= now:
            self._queued_bytes -= queue.popleft()[1]
        if queue:
            head = queue[0]
            if head[3] == self._rate_epoch:
                backlog = max(0.0, self._busy_until - now) * self.rate_bps / 8.0
            else:
                backlog = float(self._queued_bytes)
                head_start = head[0] - head[1] * 8.0 / head[2]
                if now > head_start:
                    backlog -= (now - head_start) * head[2] / 8.0
                backlog = max(0.0, backlog)
            if backlog + size > self.buffer_bytes:
                stats.packets_dropped_queue += 1
                return False
        elif size > self.buffer_bytes:
            stats.packets_dropped_queue += 1
            return False
        busy = self._busy_until
        start = busy if busy > now else now
        rate = self.rate_bps
        finish = start + size * 8.0 / rate
        self._busy_until = finish
        queue.append((finish, size, rate, self._rate_epoch))
        self._queued_bytes += size
        if self._taps:
            send_time = finish  # moment the last bit leaves the sender
            for tap in self._taps:
                tap(send_time, packet)
        loss_model = self.loss_model
        if type(loss_model) is not NoLoss and loss_model.should_drop():
            stats.packets_lost += 1
            return True  # consumed link capacity, then vanished downstream
        # Reserve the delivery's tie-break seq now, but only keep the
        # train's head in the scheduler heap.
        train = self._train
        train.append((finish + self.prop_delay, scheduler.reserve_seq(), packet))
        if len(train) == 1 and not self._in_batch:
            scheduler.post(train[0][0], train[0][1], self._deliver_train)
        return True

    def transmit_train(self, packets: List[Any]) -> None:
        """Enqueue a burst of equal-size packets, vectorizing the math.

        Byte-identical to calling :meth:`transmit` once per packet: the
        serialization finish times follow the same float recurrence
        (``itertools.accumulate`` adds strictly in sequence), loss draws
        stay per-packet scalar calls in the same RNG order, and sequence
        numbers are reserved packet by packet.  Bursts that could differ
        from the scalar path — drop-tail pressure, a mixed-rate queue
        after ``set_rate``, a down link — fall back to per-packet
        :meth:`transmit`.
        """
        n = len(packets)
        if n == 0:
            return
        if self.deliver is None:
            raise ConfigurationError(f"link {self.name!r} has no delivery callback")
        scheduler = self.scheduler
        now = scheduler.clock._now
        stats = self.stats
        if not self.up:
            stats.packets_in += n
            stats.packets_blackholed += n
            return
        size = packets[0].wire_size
        queue = self._queue
        while queue and queue[0][0] <= now:
            self._queued_bytes -= queue.popleft()[1]
        rate = self.rate_bps
        busy = self._busy_until
        start = busy if busy > now else now
        delta = size * 8.0 / rate
        # The backlog the drop-tail check sees is largest just before the
        # final packet; if even that fits (at the uniform current rate),
        # no per-packet drop decision can differ from the scalar path.
        worst = (start + (n - 1) * delta - now) * rate / 8.0
        if (
            (queue and queue[0][3] != self._rate_epoch)
            or worst + size > self.buffer_bytes
        ):
            for packet in packets:
                self.transmit(packet)
            return
        stats.packets_in += n
        finish_list = list(accumulate(repeat(delta, n), initial=start))[1:]
        self._busy_until = finish_list[-1]
        self._queued_bytes += size * n
        epoch = self._rate_epoch
        qappend = queue.append
        taps = self._taps
        loss_model = self.loss_model
        draw = None if type(loss_model) is NoLoss else loss_model.should_drop
        train = self._train
        tappend = train.append
        reserve = scheduler.reserve_seq
        prop = self.prop_delay
        for i in range(n):
            packet = packets[i]
            finish = finish_list[i]
            qappend((finish, size, rate, epoch))
            if taps:
                for tap in taps:
                    tap(finish, packet)
            if draw is not None and draw():
                stats.packets_lost += 1
                continue
            tappend((finish + prop, reserve(), packet))
            if len(train) == 1 and not self._in_batch:
                scheduler.post(train[0][0], train[0][1], self._deliver_train)

    def _deliver_train(self) -> None:
        """Deliver a train prefix under the single already-fired head event.

        Each entry runs at its exact reserved ``(time, seq)`` with the
        clock pinned to its timestamp, so everything it computes or
        records is bit-equal to one-event-per-packet stepping.  The batch
        stops strictly before the scheduler's cancellable-event mark,
        seeded here and lowered by every timer a delivery arms (see the
        module docstring).  Afterwards the clock is restored to the head
        event's time: the remaining heap events re-pin it as they fire,
        and restoring keeps it below every remaining entry so
        strict-monotonic stepping stays valid.
        """
        scheduler = self.scheduler
        train = self._train
        t0 = train[0][0]
        scheduler.seed_mark(t0)
        clock = scheduler.clock
        stats = self.stats
        taps = self._delivery_taps
        tap1 = taps[0] if len(taps) == 1 else None
        deliver = self.deliver
        # Delivery counters accumulate in locals and flush after the
        # batch — nothing inside a batch reads link stats.
        n_delivered = 0
        n_bytes = 0
        self._in_batch = True
        try:
            while True:
                t, _seq, packet = train.popleft()
                clock._now = t
                n_delivered += 1
                n_bytes += packet.wire_size
                if tap1 is not None:
                    tap1(t, packet)
                elif taps:
                    for tap in taps:
                        tap(t, packet)
                deliver(packet)
                # The receiver is done with the segment (processing is
                # synchronous and the columnar taps copy fields out);
                # pooled segments can be recycled for the next build.
                if getattr(packet, "poolable", False):
                    packet.release()
                if not train:
                    break
                nxt = train[0]
                mark_time = scheduler.mark_time
                if nxt[0] > mark_time or (nxt[0] == mark_time
                                          and nxt[1] >= scheduler.mark_seq):
                    break
        finally:
            self._in_batch = False
            stats.packets_delivered += n_delivered
            stats.bytes_delivered += n_bytes
        if train:
            nxt = train[0]
            scheduler.post(nxt[0], nxt[1], self._deliver_train)
        clock._now = t0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link(name={self.name!r}, rate={self.rate_bps / 1e6:.1f}Mbps, "
            f"delay={self.prop_delay * 1e3:.1f}ms)"
        )
