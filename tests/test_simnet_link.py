"""Tests for links, paths and the network fabric."""

import pytest

from repro.simnet import (
    AddressError,
    ConfigurationError,
    DeterministicLoss,
    EventScheduler,
    Link,
    Network,
    Path,
)


class FakePacket:
    def __init__(self, wire_size=1000, dst_ip="10.0.0.1"):
        self.wire_size = wire_size
        self.dst_ip = dst_ip
        # fields needed by Host.deliver_segment
        self.dst_port = 80
        self.src_ip = "192.0.2.1"
        self.src_port = 5000


class TestLink:
    def make_link(self, rate=8e6, delay=0.01, **kw):
        sched = EventScheduler()
        link = Link(sched, rate, delay, **kw)
        delivered = []
        link.connect(lambda p: delivered.append((sched.clock.now(), p)))
        return sched, link, delivered

    def test_parameter_validation(self):
        sched = EventScheduler()
        with pytest.raises(ConfigurationError):
            Link(sched, 0, 0.01)
        with pytest.raises(ConfigurationError):
            Link(sched, 1e6, -1.0)
        with pytest.raises(ConfigurationError):
            Link(sched, 1e6, 0.0, buffer_bytes=0)

    def test_requires_delivery_callback(self):
        sched = EventScheduler()
        link = Link(sched, 1e6, 0.0)
        with pytest.raises(ConfigurationError):
            link.transmit(FakePacket())

    def test_delivery_time_serialization_plus_propagation(self):
        # 1000 bytes at 8 Mbps = 1 ms serialization; +10 ms propagation
        sched, link, delivered = self.make_link()
        link.transmit(FakePacket(1000))
        sched.run()
        assert delivered[0][0] == pytest.approx(0.011)

    def test_train_delivers_in_one_event(self):
        sched, link, delivered = self.make_link()
        for _ in range(3):
            link.transmit(FakePacket(1000))
        sched.run()
        assert [t for t, _ in delivered] == pytest.approx(
            [0.011, 0.012, 0.013])
        assert sched.fired == 1
        assert link.stats.packets_delivered == 3

    def test_batch_stops_before_a_timer_a_delivery_arms(self):
        """A timer armed by one delivery, due before the next packet,
        fires in between: the batch re-reads the scheduler's mark."""
        sched = EventScheduler()
        link = Link(sched, 8e6, 0.01)
        order = []

        def deliver(packet):
            order.append(("packet", sched.clock.now()))
            if len(order) == 1:
                sched.at(0.0115, lambda: order.append(
                    ("timer", sched.clock.now())))

        link.connect(deliver)
        for _ in range(3):
            link.transmit(FakePacket(1000))
        sched.run()
        assert [kind for kind, _ in order] == [
            "packet", "timer", "packet", "packet"]
        assert [t for _, t in order] == pytest.approx(
            [0.011, 0.0115, 0.012, 0.013])
        assert sched.fired == 3

    def test_back_to_back_packets_queue(self):
        sched, link, delivered = self.make_link()
        link.transmit(FakePacket(1000))
        link.transmit(FakePacket(1000))
        sched.run()
        times = [t for t, _ in delivered]
        assert times[0] == pytest.approx(0.011)
        assert times[1] == pytest.approx(0.012)  # waits for serialization

    def test_backlog_tracks_queued_bytes(self):
        sched, link, _ = self.make_link()
        link.transmit(FakePacket(1000))
        link.transmit(FakePacket(1000))
        # at t=0 both packets are still unserialized
        assert link.backlog_bytes(0.0) == pytest.approx(2000)

    def test_backlog_priced_at_enqueue_rate_after_set_rate(self):
        """Regression: a mid-flight set_rate degradation must not reprice
        already-queued bytes with the new conversion factor.

        Historically the backlog was derived as ``(busy_until - t) * rate
        / 8`` using the *current* rate, so degrading 8 Mbps -> 0.8 Mbps
        with 2000 queued bytes made the backlog report 200 bytes."""
        sched, link, _ = self.make_link(delay=0.0)
        link.transmit(FakePacket(1000))
        link.transmit(FakePacket(1000))
        assert link.backlog_bytes(0.0) == pytest.approx(2000)
        link.set_rate(8e5)  # 10x degradation while both packets queue
        assert link.backlog_bytes(0.0) == pytest.approx(2000)
        # the head keeps serializing at its own enqueue-time rate
        assert link.backlog_bytes(0.0005) == pytest.approx(1500)
        # after the head's finish time only the second packet remains
        assert link.backlog_bytes(0.0015) == pytest.approx(500)

    def test_backlog_rate_change_affects_later_packets_only(self):
        sched, link, _ = self.make_link(delay=0.0)
        link.transmit(FakePacket(1000))            # 8 Mbps: finishes at 1 ms
        link.set_rate(4e6)
        link.transmit(FakePacket(1000))            # 4 Mbps: 1 ms .. 3 ms
        # t = 2 ms: first packet gone, second half-serialized at 4 Mbps
        assert link.backlog_bytes(0.002) == pytest.approx(500)
        # the drop-tail admission check uses the same pricing
        sched.run_until(0.002)
        assert link.transmit(FakePacket(1000)) is True

    def test_drop_tail_when_buffer_full(self):
        sched, link, delivered = self.make_link(buffer_bytes=2500)
        accepted = [link.transmit(FakePacket(1000)) for _ in range(4)]
        assert accepted == [True, True, False, False]
        assert link.stats.packets_dropped_queue == 2
        sched.run()
        assert len(delivered) == 2

    def test_queue_drains_over_time(self):
        sched, link, delivered = self.make_link(buffer_bytes=2500)
        link.transmit(FakePacket(1000))
        link.transmit(FakePacket(1000))
        sched.run_until(0.0015)  # first packet half served
        assert link.transmit(FakePacket(1000)) is True
        sched.run()
        assert len(delivered) == 3

    def test_loss_model_drops_after_consuming_capacity(self):
        sched, link, delivered = self.make_link()
        link.loss_model = DeterministicLoss({0})
        link.transmit(FakePacket(1000))
        link.transmit(FakePacket(1000))
        sched.run()
        assert len(delivered) == 1
        assert link.stats.packets_lost == 1
        # the survivor was still delayed behind the lost packet
        assert delivered[0][0] == pytest.approx(0.012)

    def test_tap_sees_all_transmitted_packets(self):
        sched, link, _ = self.make_link()
        link.loss_model = DeterministicLoss({1})
        tapped = []
        link.add_tap(lambda t, p: tapped.append(p))
        link.transmit(FakePacket(1000))
        link.transmit(FakePacket(1000))
        sched.run()
        assert len(tapped) == 2  # a sender-side capture sees lost packets too

    def test_stats_bytes_delivered(self):
        sched, link, _ = self.make_link()
        link.transmit(FakePacket(700))
        sched.run()
        assert link.stats.bytes_delivered == 700
        assert link.stats.packets_delivered == 1


class TestPath:
    def test_directions_are_independent(self):
        sched = EventScheduler()
        path = Path(sched, rate_ab_bps=8e6, rate_ba_bps=1e6, prop_delay=0.005)
        assert path.forward.rate_bps == 8e6
        assert path.reverse.rate_bps == 1e6

    def test_rtt_floor(self):
        sched = EventScheduler()
        path = Path(sched, rate_ab_bps=1e6, rate_ba_bps=1e6, prop_delay=0.01)
        assert path.rtt_floor == pytest.approx(0.02)

    def test_link_from_validates_endpoint(self):
        sched = EventScheduler()
        path = Path(sched, rate_ab_bps=1e6, rate_ba_bps=1e6, prop_delay=0.01)
        assert path.link_from("a") is path.forward
        assert path.link_from("b") is path.reverse
        with pytest.raises(ValueError):
            path.link_from("c")


class TestNetwork:
    def test_duplicate_host_rejected(self):
        net = Network()
        net.add_host("10.0.0.1")
        with pytest.raises(ConfigurationError):
            net.add_host("10.0.0.1")

    def test_unknown_host_lookup(self):
        with pytest.raises(AddressError):
            Network().host("1.2.3.4")

    def test_route_between_hosts(self):
        net = Network()
        a = net.add_host("10.0.0.1")
        b = net.add_host("192.0.2.1")
        path = Path(net.scheduler, rate_ab_bps=8e6, rate_ba_bps=8e6, prop_delay=0.001)
        net.add_path(a, b, path)
        received = []
        b.listen(80, lambda seg: received.append(seg))
        pkt = FakePacket(dst_ip="192.0.2.1")
        a.send_segment(pkt)
        net.run()
        assert received == [pkt]

    def test_route_without_path_raises(self):
        net = Network()
        a = net.add_host("10.0.0.1")
        net.add_host("192.0.2.1")
        with pytest.raises(AddressError):
            net.route(a, FakePacket(dst_ip="192.0.2.1"))

    def test_stray_segment_silently_dropped(self):
        net = Network()
        a = net.add_host("10.0.0.1")
        b = net.add_host("192.0.2.1")
        net.add_path(a, b, Path(net.scheduler, rate_ab_bps=1e6, rate_ba_bps=1e6, prop_delay=0.0))
        a.send_segment(FakePacket(dst_ip="192.0.2.1"))  # nobody listening
        net.run()  # must not raise

    def test_ephemeral_ports_are_unique(self):
        net = Network()
        a = net.add_host("10.0.0.1")
        ports = {a.allocate_port() for _ in range(100)}
        assert len(ports) == 100
        assert min(ports) >= 49152
