"""Tests for the simulation clock and event scheduler."""

import pytest

from repro.simnet import EventScheduler, SchedulingError, SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now() == 0.0

    def test_starts_at_given_time(self):
        assert SimClock(5.0).now() == 5.0

    def test_rejects_negative_start(self):
        with pytest.raises(SchedulingError):
            SimClock(-1.0)

    def test_advances_forward(self):
        clock = SimClock()
        clock.advance_to(3.5)
        assert clock.now() == 3.5

    def test_rejects_backwards_move(self):
        clock = SimClock(2.0)
        with pytest.raises(SchedulingError):
            clock.advance_to(1.0)

    def test_advance_to_same_time_is_allowed(self):
        clock = SimClock(2.0)
        clock.advance_to(2.0)
        assert clock.now() == 2.0


class TestEventScheduler:
    def test_fires_in_time_order(self):
        sched = EventScheduler()
        fired = []
        sched.at(2.0, lambda: fired.append("b"))
        sched.at(1.0, lambda: fired.append("a"))
        sched.at(3.0, lambda: fired.append("c"))
        sched.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        sched = EventScheduler()
        fired = []
        for name in "abcde":
            sched.at(1.0, lambda n=name: fired.append(n))
        sched.run()
        assert fired == list("abcde")

    def test_clock_advances_with_events(self):
        sched = EventScheduler()
        seen = []
        sched.at(1.5, lambda: seen.append(sched.clock.now()))
        sched.run()
        assert seen == [1.5]

    def test_after_schedules_relative(self):
        sched = EventScheduler()
        seen = []
        sched.at(1.0, lambda: sched.after(0.5, lambda: seen.append(sched.clock.now())))
        sched.run()
        assert seen == [1.5]

    def test_rejects_past_events(self):
        sched = EventScheduler()
        sched.at(1.0, lambda: None)
        sched.run()
        with pytest.raises(SchedulingError):
            sched.at(0.5, lambda: None)

    def test_rejects_negative_delay(self):
        sched = EventScheduler()
        with pytest.raises(SchedulingError):
            sched.after(-0.1, lambda: None)

    def test_cancel_prevents_firing(self):
        sched = EventScheduler()
        fired = []
        handle = sched.at(1.0, lambda: fired.append("x"))
        handle.cancel()
        sched.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        sched = EventScheduler()
        handle = sched.at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_run_until_stops_at_horizon(self):
        sched = EventScheduler()
        fired = []
        sched.at(1.0, lambda: fired.append(1))
        sched.at(2.0, lambda: fired.append(2))
        n = sched.run_until(1.5)
        assert n == 1
        assert fired == [1]
        assert sched.clock.now() == 1.5

    def test_run_until_advances_clock_even_without_events(self):
        sched = EventScheduler()
        sched.run_until(10.0)
        assert sched.clock.now() == 10.0

    def test_run_until_inclusive_of_horizon_events(self):
        sched = EventScheduler()
        fired = []
        sched.at(2.0, lambda: fired.append(2))
        sched.run_until(2.0)
        assert fired == [2]

    def test_pending_counts_live_events(self):
        sched = EventScheduler()
        h1 = sched.at(1.0, lambda: None)
        sched.at(2.0, lambda: None)
        assert sched.pending == 2
        h1.cancel()
        assert sched.pending == 1

    def test_peek_time_skips_cancelled(self):
        sched = EventScheduler()
        h1 = sched.at(1.0, lambda: None)
        sched.at(2.0, lambda: None)
        h1.cancel()
        assert sched.peek_time() == 2.0

    def test_step_returns_false_when_empty(self):
        assert EventScheduler().step() is False

    def test_events_scheduled_during_run_fire(self):
        sched = EventScheduler()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sched.after(1.0, lambda: chain(n + 1))

        sched.at(0.0, lambda: chain(0))
        sched.run()
        assert fired == [0, 1, 2, 3]
        assert sched.clock.now() == 3.0

    def test_max_events_bound(self):
        sched = EventScheduler()
        for i in range(10):
            sched.at(float(i), lambda: None)
        n = sched.run(max_events=4)
        assert n == 4
        assert sched.pending == 6

    def test_fired_counter(self):
        sched = EventScheduler()
        sched.at(1.0, lambda: None)
        sched.at(2.0, lambda: None)
        sched.run()
        assert sched.fired == 2


class TestFastPathEdgeCases:
    """Edge cases of the tuple-entry fast path (PR 5).

    Cancellation is *lazy*: a cancelled handle stays in the heap until it
    surfaces, so every consumer (``peek_time``, ``step``, ``run_until``)
    must skip corpses without firing them or counting them.
    """

    def test_cancelled_head_is_skipped_lazily_by_peek_and_run(self):
        sched = EventScheduler()
        fired = []
        h1 = sched.at(1.0, lambda: fired.append("cancelled"))
        sched.at(1.0, lambda: fired.append("live"))
        h2 = sched.at(2.0, lambda: fired.append("also-cancelled"))
        h1.cancel()
        h2.cancel()
        # peek sees through both corpses without disturbing order
        assert sched.peek_time() == 1.0
        assert sched.pending == 1
        n = sched.run_until(3.0)
        assert n == 1
        assert fired == ["live"]
        assert sched.pending == 0

    def test_peek_time_prunes_to_none_when_all_cancelled(self):
        sched = EventScheduler()
        handles = [sched.at(1.0, lambda: None) for _ in range(5)]
        for h in handles:
            h.cancel()
        assert sched.peek_time() is None
        assert sched.pending == 0
        assert sched.run_until(2.0) == 0

    def test_cancel_after_fire_is_harmless(self):
        sched = EventScheduler()
        h = sched.at(1.0, lambda: None)
        sched.run()
        h.cancel()
        h.cancel()
        assert sched.pending == 0

    def test_same_time_ties_fire_in_schedule_order_across_entry_kinds(self):
        """Handle entries, argument entries and reserved-seq posts all draw
        from one sequence counter, so same-time events fire in exactly the
        order they were scheduled, whatever their kind."""
        sched = EventScheduler()
        fired = []
        sched.at(1.0, lambda: fired.append("at-0"))
        sched.call_at(1.0, fired.append, "call_at-1")
        seq = sched.reserve_seq()
        sched.at(1.0, lambda: fired.append("at-3"))
        sched.post(1.0, seq, fired.append, "post-2")  # seq reserved earlier
        sched.call_at(1.0, lambda: fired.append("call_at-4"))
        sched.run()
        assert fired == ["at-0", "call_at-1", "post-2", "at-3", "call_at-4"]

    def test_call_at_passes_argument_identity(self):
        sched = EventScheduler()
        marker = object()
        got = []
        sched.call_at(1.0, got.append, marker)
        sched.call_at(2.0, got.append, marker)
        sched.run()
        assert got == [marker, marker]
        assert got[0] is marker

    def test_seed_mark_takes_earliest_live_cancellable_event(self):
        """Cancelled handles and plain tuple events do not bound a batch;
        the earliest live handle does."""
        sched = EventScheduler()
        later = sched.at(2.0, lambda: None)
        sched.at(1.0, lambda: None).cancel()
        sched.call_at(0.5, lambda: None)
        sched.seed_mark(10.0)
        assert (sched.mark_time, sched.mark_seq) == (2.0, later.seq)

    def test_seed_mark_caps_at_horizon_time_only(self):
        sched = EventScheduler()
        sched.run_until(3.0)
        sched.at(5.0, lambda: None)
        sched.seed_mark(0.0)
        assert (sched.mark_time, sched.mark_seq) == (3.0, float("inf"))

    def test_at_lowers_the_mark_only_for_earlier_events(self):
        sched = EventScheduler()
        sched.seed_mark(4.0)
        sched.at(6.0, lambda: None)
        assert sched.mark_time == 4.0
        early = sched.at(1.5, lambda: None)
        assert (sched.mark_time, sched.mark_seq) == (1.5, early.seq)
        sched.at(1.5, lambda: None)         # same time, later seq
        assert sched.mark_seq == early.seq

    def test_run_until_max_events_uses_resumable_slow_path(self):
        sched = EventScheduler()
        fired = []
        for i in range(6):
            sched.call_at(float(i), fired.append, i)
        assert sched.run_until(10.0, max_events=3) == 3
        assert fired == [0, 1, 2]
        # the remaining events are intact and fire on resume
        assert sched.run_until(10.0) == 3
        assert fired == [0, 1, 2, 3, 4, 5]
        assert sched.clock.now() == 10.0


class TestFastForwardQuiescence:
    """The analytic OFF-period fast-forward (PR 8 tentpole).

    ``fast_forward_to`` may move the clock only through a window every
    registered quiescence probe vouches for; links refuse while a
    delivery train is in flight or the transmitter is serializing, TCP
    connections refuse while an armed timer deadline falls inside the
    window, and a jump can only ever land exactly on the next scheduled
    event (fault transitions included) because that is the only target
    ``run_until`` asks for.
    """

    def test_jump_lands_exactly_on_target_and_is_accounted(self):
        sched = EventScheduler()
        assert sched.fast_forward_to(10.0) is True
        assert sched.clock.now() == 10.0
        assert sched.fast_forward_jumps == 1
        assert sched.fast_forwarded_s == 10.0
        assert sched.fast_forward_refusals == 0

    def test_jump_to_now_or_past_is_a_noop(self):
        sched = EventScheduler()
        sched.clock.advance_to(5.0)
        assert sched.fast_forward_to(5.0) is True
        assert sched.fast_forward_to(1.0) is True
        assert sched.fast_forward_jumps == 0
        assert sched.fast_forwarded_s == 0.0

    def test_refusing_probe_blocks_the_jump_and_is_counted(self):
        sched = EventScheduler()
        sched.add_quiescence_probe(lambda until: until <= 3.0)
        assert sched.fast_forward_to(3.0) is True
        assert sched.fast_forward_to(8.0) is False
        assert sched.clock.now() == 3.0        # refusal leaves the clock
        assert sched.fast_forward_jumps == 1
        assert sched.fast_forward_refusals == 1

    def test_every_probe_must_agree(self):
        sched = EventScheduler()
        polled = []
        sched.add_quiescence_probe(lambda until: polled.append("a") or True)
        sched.add_quiescence_probe(lambda until: False)
        assert sched.fast_forward_to(1.0) is False
        assert polled == ["a"]                 # probes polled in order

    def test_run_until_jumps_exactly_onto_event_times(self):
        """With fast-forward on, events still fire at exactly their
        scheduled times: the jump target is always the next event."""
        sched = EventScheduler()
        seen = []
        for t in (0.001, 2.0, 7.5):
            sched.at(t, lambda t=t: seen.append((t, sched.clock.now())))
        sched.run_until(10.0)
        assert seen == [(0.001, 0.001), (2.0, 2.0), (7.5, 7.5)]
        assert sched.clock.now() == 10.0
        assert sched.fast_forward_jumps >= 2   # the >5ms gaps were jumped
        # only inter-event gaps are probed jumps; the final advance to
        # the (event-free) horizon is a plain clock move
        assert sched.fast_forwarded_s == pytest.approx(
            (2.0 - 0.001) + (7.5 - 2.0))

    def test_link_refuses_while_train_in_flight(self):
        from repro.simnet.link import Link
        from repro.tcp.constants import ACK
        from repro.tcp.segment import TcpSegment

        sched = EventScheduler()
        link = Link(sched, rate_bps=8e6, prop_delay=0.01, name="dn")
        delivered = []
        link.connect(delivered.append)
        seg = TcpSegment("10.0.0.2", 80, "10.0.0.1", 5000, seq=0, ack=1,
                         flags=ACK, window=65535, payload_len=1460,
                         sent_at=0.0)
        assert link.transmit(seg)
        # delivery train pending + transmitter busy: both reasons refuse
        assert sched.fast_forward_to(1.0) is False
        assert sched.fast_forward_refusals == 1
        sched.run_until(1.0)
        assert delivered
        # drained and idle: the same jump is now provable
        assert sched.fast_forward_to(2.0) is True

    def test_link_refuses_while_transmitter_busy(self):
        from repro.simnet.link import Link

        sched = EventScheduler()
        link = Link(sched, rate_bps=8e6, prop_delay=0.01, name="dn")
        link.connect(lambda packet: None)
        assert link.quiescent(5.0) is True
        link._busy_until = 0.5                 # mid-serialization
        assert link.quiescent(5.0) is False
        assert sched.fast_forward_to(5.0) is False

    def test_connection_refuses_armed_timer_inside_window(self):
        from tests.test_tcp_connection import make_pair

        net, client, state, _, _ = make_pair()
        client.connect()
        net.run_until(1.0)                     # established and quiet
        sched = net.scheduler
        now = net.now()
        refusals = sched.fast_forward_refusals

        client._rexmit_deadline = now + 0.5
        assert client.quiescent(now + 1.0) is False
        assert sched.fast_forward_to(now + 1.0) is False
        assert sched.fast_forward_refusals == refusals + 1
        # a deadline at-or-past the window edge does not block it
        assert client.quiescent(now + 0.5) is True
        client._rexmit_deadline = None

        client._delack_deadline = now + 0.2
        assert client.quiescent(now + 1.0) is False
        client._delack_deadline = None
        assert client.quiescent(now + 1.0) is True

    def test_closed_connection_never_refuses(self):
        from repro.tcp import CLOSED
        from tests.test_tcp_connection import make_pair

        net, client, state, _, _ = make_pair()
        client.connect()
        net.run_until(1.0)
        client.close()
        state["server"].close()
        net.run_until(5.0)
        assert client.state == CLOSED
        client._rexmit_deadline = net.now() + 0.1   # stale garbage
        assert client.quiescent(net.now() + 10.0) is True

    def test_fault_transitions_fire_at_exact_times_under_fast_forward(self):
        """Fault windows are ordinary scheduler events: a jump lands on
        the outage boundary, never across it, so the fault log records
        bit-exact transition times with fast-forward on."""
        from repro.simnet.faults import FaultSchedule
        from tests.test_tcp_connection import CLEAN, make_pair

        net, client, state, path, _ = make_pair(CLEAN)
        log = FaultSchedule().outage(8.0, 3.0).apply(net.scheduler, path)
        client.connect()
        net.run_until(30.0)
        assert log.times("outage-start") == [8.0]
        assert log.times("outage-end") == [11.0]
        assert net.scheduler.fast_forward_jumps >= 1
