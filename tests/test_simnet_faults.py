"""Tests for fault injection: link outage state, schedules, resets."""

import random

import pytest

from repro.simnet import (
    BandwidthDegradation,
    ConfigurationError,
    ConnectionReset,
    DeterministicLoss,
    EventScheduler,
    FaultSchedule,
    GilbertElliottLoss,
    LinkOutage,
    Network,
    Path,
    PredicateLoss,
    RandomFlaps,
    ServerOutage,
)
from repro.simnet.link import Link


class FakePacket:
    def __init__(self, wire_size=100):
        self.wire_size = wire_size


def make_link(sched=None):
    sched = sched or EventScheduler()
    return Link(sched, rate_bps=8e6, prop_delay=0.01)


def make_path(sched):
    return Path(sched, rate_ab_bps=8e6, rate_ba_bps=1e6, prop_delay=0.01)


class TestLinkFaultState:
    def test_down_link_blackholes(self):
        link = make_link()
        delivered = []
        link.connect(delivered.append)
        link.set_up(False)
        assert link.transmit(FakePacket()) is True  # swallowed, not queue-dropped
        link.scheduler.run()
        assert delivered == []
        assert link.stats.packets_blackholed == 1
        assert link.stats.packets_dropped_queue == 0

    def test_up_link_delivers(self):
        link = make_link()
        delivered = []
        link.connect(delivered.append)
        link.set_up(False)
        link.set_up(True)
        link.transmit(FakePacket())
        link.scheduler.run()
        assert len(delivered) == 1
        assert link.stats.packets_blackholed == 0

    def test_set_rate_changes_serialization(self):
        def serialization_s(rate_scale):
            link = make_link()
            arrived = []
            link.connect(lambda p: arrived.append(link.scheduler.clock.now()))
            link.set_rate(link.base_rate_bps * rate_scale)
            link.transmit(FakePacket(wire_size=1000))
            link.scheduler.run()
            return arrived[0] - link.prop_delay
        assert serialization_s(0.25) == pytest.approx(4 * serialization_s(1.0))

    def test_set_rate_rejects_nonpositive(self):
        link = make_link()
        with pytest.raises(ConfigurationError):
            link.set_rate(0.0)

    def test_reset_restores_rate_up_and_loss(self):
        link = Link(EventScheduler(), rate_bps=8e6, prop_delay=0.01,
                    loss_model=DeterministicLoss({0}))
        link.connect(lambda p: None)
        link.set_up(False)
        link.set_rate(1e6)
        link.loss_model.should_drop()  # advance the loss index
        link.reset()
        assert link.up
        assert link.rate_bps == link.base_rate_bps
        # the loss model starts over: index 0 drops again
        assert link.loss_model.should_drop() is True


class TestPathAndNetworkReset:
    def test_path_reset_covers_both_directions(self):
        sched = EventScheduler()
        path = Path(sched, rate_ab_bps=8e6, rate_ba_bps=1e6, prop_delay=0.01,
                    loss_ab=DeterministicLoss({0}), loss_ba=DeterministicLoss({0}))
        path.forward.set_up(False)
        path.reverse.set_rate(1.0)
        path.forward.loss_model.should_drop()
        path.reverse.loss_model.should_drop()
        path.reset()
        assert path.forward.up
        assert path.reverse.rate_bps == path.reverse.base_rate_bps
        assert path.forward.loss_model.should_drop() is True
        assert path.reverse.loss_model.should_drop() is True

    def test_add_path_resets_leftover_fault_state(self):
        # a Path object reused across Network instances must not leak
        # outage/degradation/loss-position state into the next run
        sched = EventScheduler()
        path = make_path(sched)
        path.forward.set_up(False)
        path.forward.set_rate(1.0)
        net = Network(scheduler=sched)
        a = net.add_host("10.0.0.1")
        b = net.add_host("10.0.0.2")
        net.add_path(a, b, path)
        assert path.forward.up
        assert path.forward.rate_bps == path.forward.base_rate_bps


class TestFaultScheduleValidation:
    def test_bad_direction_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule().outage(1.0, 2.0, direction="sideways")

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule().outage(1.0, 0.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule().outage(-1.0, 2.0)

    def test_degradation_factor_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule().degrade(1.0, 2.0, factor=0.0)
        with pytest.raises(ConfigurationError):
            FaultSchedule().degrade(1.0, 2.0, factor=1.5)

    def test_flap_interval_positive(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule([RandomFlaps(0.0, (1.0, 2.0))])

    def test_constructor_validates_events(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule([LinkOutage(0.0, 1.0, direction="nope")])


class TestFaultScheduleArming:
    def test_outage_window_downs_then_restores(self):
        sched = EventScheduler()
        path = make_path(sched)
        log = FaultSchedule().outage(1.0, 2.0, direction="down").apply(sched, path)
        sched.run_until(0.5)
        assert path.forward.up and path.reverse.up
        sched.run_until(1.5)
        assert not path.forward.up
        assert path.reverse.up  # direction="down" leaves the uplink alone
        sched.run_until(4.0)
        assert path.forward.up
        assert log.times("outage-start") == [1.0]
        assert log.times("outage-end") == [3.0]

    def test_degradation_window_scales_rate(self):
        sched = EventScheduler()
        path = make_path(sched)
        FaultSchedule().degrade(1.0, 2.0, factor=0.25).apply(sched, path)
        sched.run_until(1.5)
        assert path.forward.rate_bps == pytest.approx(0.25 * path.forward.base_rate_bps)
        sched.run_until(4.0)
        assert path.forward.rate_bps == path.forward.base_rate_bps

    def test_server_faults_dispatch_to_server_object(self):
        class FakeServer:
            def __init__(self):
                self.until = None
                self.aborts = 0

            def set_unavailable(self, until):
                self.until = until

            def abort_connections(self):
                self.aborts += 1
                return 3

        sched = EventScheduler()
        path = make_path(sched)
        server = FakeServer()
        log = (FaultSchedule([ServerOutage(1.0, 5.0), ConnectionReset(2.0)])
               .apply(sched, path, server=server))
        sched.run_until(10.0)
        assert server.until == 6.0
        assert server.aborts == 1
        assert log.times("server-outage-start") == [1.0]
        assert log.times("connection-reset") == [2.0]

    def test_server_faults_require_server(self):
        sched = EventScheduler()
        with pytest.raises(ConfigurationError):
            FaultSchedule([ServerOutage(1.0, 5.0)]).apply(sched,
                                                          make_path(sched))

    def test_flaps_require_rng(self):
        sched = EventScheduler()
        with pytest.raises(ConfigurationError):
            FaultSchedule([RandomFlaps(5.0, (0.5, 1.0))]).apply(
                sched, make_path(sched))

    def test_flaps_deterministic_under_seed(self):
        def flap_times(seed):
            sched = EventScheduler()
            path = make_path(sched)
            log = (FaultSchedule([RandomFlaps(5.0, (0.5, 1.0), until=60.0)])
                   .apply(sched, path, rng=random.Random(seed)))
            sched.run_until(100.0)
            return log.times("outage-start"), log.times("outage-end")

        starts_a, ends_a = flap_times(7)
        starts_b, ends_b = flap_times(7)
        assert starts_a == starts_b and ends_a == ends_b
        assert starts_a  # at least one flap in 60 s at mean interval 5 s
        assert len(starts_a) == len(ends_a)
        assert flap_times(8)[0] != starts_a

    def test_schedule_reusable_across_topologies(self):
        schedule = FaultSchedule().outage(1.0, 1.0)
        for _ in range(2):
            sched = EventScheduler()
            path = make_path(sched)
            schedule.apply(sched, path)
            sched.run_until(1.5)
            assert not path.forward.up


class TestGilbertElliottStatistics:
    """Satellite coverage: burst structure of the bursty loss model."""

    P_GB, P_BG = 0.02, 0.25

    def make_model(self, seed=42):
        return GilbertElliottLoss(self.P_GB, self.P_BG, random.Random(seed),
                                  loss_good=0.0, loss_bad=1.0)

    def test_empirical_rate_matches_steady_state(self):
        model = self.make_model()
        n = 50_000
        drops = sum(model.should_drop() for _ in range(n))
        assert drops / n == pytest.approx(model.steady_state_loss, rel=0.15)

    def test_mean_burst_length_is_geometric(self):
        # with loss_bad=1 a drop burst is one dwell in the bad state:
        # lengths are Geometric(p_bg) with mean 1/p_bg
        model = self.make_model()
        bursts, current = [], 0
        for _ in range(50_000):
            if model.should_drop():
                current += 1
            elif current:
                bursts.append(current)
                current = 0
        assert len(bursts) > 100
        mean_burst = sum(bursts) / len(bursts)
        assert mean_burst == pytest.approx(1.0 / self.P_BG, rel=0.15)

    def test_reset_clears_burst_state(self):
        model = GilbertElliottLoss(1.0, 0.0, random.Random(1),
                                   loss_good=0.0, loss_bad=1.0)
        assert model.should_drop()  # enters (and never leaves) the bad state
        model.reset()
        assert model._bad is False


class TestDeterministicModelReset:
    """Satellite coverage: reset semantics of the scripted loss models."""

    def test_deterministic_loss_replays_after_reset(self):
        model = DeterministicLoss({1, 3})
        first = [model.should_drop() for _ in range(5)]
        assert first == [False, True, False, True, False]
        model.reset()
        assert [model.should_drop() for _ in range(5)] == first

    def test_predicate_loss_replays_after_reset(self):
        model = PredicateLoss(lambda i: i % 3 == 0)
        first = [model.should_drop() for _ in range(6)]
        assert first == [True, False, False, True, False, False]
        model.reset()
        assert [model.should_drop() for _ in range(6)] == first
