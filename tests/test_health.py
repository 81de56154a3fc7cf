"""Tests for the engine health plane (``repro.obs.health`` + dash).

The unit half drives a :class:`HealthMonitor` with a synthetic clock and
hand-fed beats, so every threshold (missed-beat age, straggler factor,
EWMA smoothing) is asserted at its exact boundary.  The integration half
runs real supervised workers and injures them — SIGSTOP for the
wedged-but-alive case heartbeats exist to catch, SIGKILL for crash
attribution — asserting detection lands well before ``unit_timeout``
would.
"""

import io
import os
import signal
import time
from statistics import median

import pytest

from repro.obs import (
    HealthMonitor,
    HealthPolicy,
    ProgressReporter,
    RunLedger,
    Suspicion,
    load_ledger,
)
from repro.runner import (
    ResultCache,
    RetryBudget,
    SupervisionPolicy,
    UnitCounts,
    engine_options,
    run_supervised,
    run_tasks,
    task_fingerprint,
)

#: Retry without waiting; generous deadline the tests must beat.
FAST = RetryBudget(max_attempts=3, backoff_base=0.0)


class FakeClock:
    """A monotonic clock the test advances by hand."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now


class Spy:
    """A ledger subscriber recording every health-related event."""

    def __init__(self):
        self.beats = []
        self.suspicions = []
        self.units = []

    def __call__(self, record, value):
        kind = record["event"]
        if kind == "started":
            self.units.append((record["unit"], record["label"],
                               record["worker"]))
        elif kind == "beat":
            self.beats.append((value.worker, value.beats))
        elif kind == "suspect":
            self.suspicions.append(value)


def _watched(subscriber):
    """An in-memory ledger feeding ``subscriber``."""
    ledger = RunLedger()
    ledger.subscribe(subscriber)
    return ledger


def _monitor(clock, ledger=None, **policy_kw):
    policy = HealthPolicy(**policy_kw) if policy_kw else HealthPolicy()
    return HealthMonitor(policy, ledger=ledger, clock=clock)


class TestMissedBeat:
    def test_flags_exactly_past_the_threshold(self):
        clock = FakeClock()
        monitor = _monitor(clock, interval=1.0, miss_after=2.0)
        monitor.worker_started("w0", 100)
        monitor.beat("w0", 100, 0, 0)
        clock.now = 2.0                       # age == miss_after × interval
        assert monitor.poll() == []
        clock.now = 2.0 + 1e-6                # one epsilon past it
        fresh = monitor.poll()
        assert [s.kind for s in fresh] == ["missed-beat"]
        assert fresh[0].worker == "w0"
        assert fresh[0].pid == 100
        assert fresh[0].age_s == pytest.approx(2.0, abs=1e-3)

    def test_flags_once_until_a_beat_clears_it(self):
        clock = FakeClock()
        monitor = _monitor(clock, interval=0.5, miss_after=2.0)
        monitor.worker_started("w0", 1)
        monitor.beat("w0", 1, 0, 0)
        clock.now = 5.0
        assert len(monitor.poll()) == 1
        clock.now = 50.0                      # still silent: no re-flag
        assert monitor.poll() == []
        monitor.beat("w0", 1, 1, 0)           # recovery clears the flag
        assert monitor.lanes()[0].missing is False
        clock.now = 60.0                      # silent again: flags anew
        assert len(monitor.poll()) == 1
        assert len(monitor.suspicions) == 2

    def test_age_anchors_to_spawn_before_first_beat(self):
        clock = FakeClock(10.0)
        monitor = _monitor(clock, interval=1.0, miss_after=2.0)
        monitor.worker_started("w0", 1)       # spawned at t=10, never beat
        clock.now = 12.5
        fresh = monitor.poll()
        assert [s.kind for s in fresh] == ["missed-beat"]
        assert fresh[0].age_s == pytest.approx(2.5)

    def test_dead_lane_is_not_polled(self):
        clock = FakeClock()
        monitor = _monitor(clock)
        monitor.worker_started("w0", 1)
        monitor.worker_lost("w0", 1, "crash", "exit 9", None)
        clock.now = 100.0
        assert monitor.poll() == []           # lost, not missing


class TestStraggler:
    def _seed(self, monitor, clock, latencies, worker="w0"):
        for i, latency in enumerate(latencies):
            monitor.unit_started(worker, i, f"u{i}", None)
            clock.advance(latency)
            monitor.unit_finished(worker, i)

    def test_flags_exactly_past_factor_times_p50(self):
        clock = FakeClock()
        monitor = _monitor(clock, straggler_factor=4.0, min_completed=3,
                           miss_after=1e9)
        self._seed(monitor, clock, [1.0, 1.0, 1.0])
        monitor.unit_started("w1", 99, "slowpoke", None)
        clock.advance(4.0)                    # elapsed == factor × p50
        assert monitor.poll() == []
        clock.advance(1e-6)
        fresh = monitor.poll()
        assert [s.kind for s in fresh] == ["straggler"]
        assert fresh[0].unit == 99
        assert fresh[0].label == "slowpoke"
        assert monitor.poll() == []           # flagged once per unit

    def test_no_flag_below_min_completed(self):
        clock = FakeClock()
        monitor = _monitor(clock, straggler_factor=2.0, min_completed=3,
                           miss_after=1e9)
        self._seed(monitor, clock, [0.1, 0.1])   # one sample short
        monitor.unit_started("w1", 5, "u", None)
        clock.advance(1000.0)
        assert all(s.kind != "straggler" for s in monitor.poll())

    def test_threshold_tracks_seeded_latency_distribution(self):
        import random

        rng = random.Random(7)
        latencies = [round(0.2 + rng.random(), 3) for _ in range(9)]
        clock = FakeClock()
        monitor = _monitor(clock, straggler_factor=3.0, min_completed=3,
                           miss_after=1e9)
        self._seed(monitor, clock, latencies)
        p50 = median(latencies)
        monitor.unit_started("w1", 50, "probe", None)
        clock.advance(3.0 * p50 - 0.001)      # just under the bar
        assert monitor.poll() == []
        clock.advance(0.002)                  # the same unit crosses it
        flagged = [s for s in monitor.poll() if s.kind == "straggler"]
        assert [s.unit for s in flagged] == [50]

    def test_completion_clears_the_flag(self):
        clock = FakeClock()
        monitor = _monitor(clock, straggler_factor=2.0, min_completed=3,
                           miss_after=1e9)
        self._seed(monitor, clock, [0.5, 0.5, 0.5])
        monitor.unit_started("w1", 9, "u", None)
        clock.advance(10.0)
        assert len(monitor.poll()) == 1
        monitor.unit_finished("w1", 9)
        assert monitor.lanes()[1].straggling is False


class TestLaneAccounting:
    def test_ewma_rate_matches_hand_computation(self):
        clock = FakeClock()
        monitor = _monitor(clock, ewma_alpha=0.3)
        latencies = [1.0, 2.0, 4.0]
        expected = 0.0
        for i, latency in enumerate(latencies):
            monitor.unit_started("w0", i, "u", None)
            clock.advance(latency)
            monitor.unit_finished("w0", i)
            sample = 1.0 / latency
            expected = (sample if expected == 0.0
                        else 0.3 * sample + 0.7 * expected)
        lane = monitor.lanes()[0]
        assert lane.rate == pytest.approx(expected)
        assert lane.units_done == 3
        assert lane.busy_s == pytest.approx(sum(latencies))

    def test_ewma_is_deterministic_across_runs(self):
        def run():
            clock = FakeClock()
            monitor = _monitor(clock, ewma_alpha=0.3)
            for i, latency in enumerate([0.3, 0.7, 0.1, 2.0]):
                monitor.unit_started("w0", i, "u", None)
                clock.advance(latency)
                monitor.unit_finished("w0", i)
            return monitor.lanes()[0].rate

        assert run() == run()

    def test_respawn_keeps_cumulative_counters(self):
        clock = FakeClock()
        monitor = _monitor(clock)
        monitor.worker_started("w0", 10)
        monitor.unit_started("w0", 0, "u", None)
        clock.advance(1.0)
        monitor.unit_finished("w0", 0)
        monitor.worker_lost("w0", 10, "crash", "exit 9", None)
        monitor.worker_started("w0", 11)      # the respawn
        lane = monitor.lanes()[0]
        assert lane.pid == 11
        assert lane.alive is True
        assert lane.units_done == 1           # history survives the pid
        assert lane.unit is None

    def test_unit_failed_counts_retries_and_clears_lane(self):
        class Failure:
            index = 3
            label = "u3"
            key = None
            kind = "exception"
            error = "boom"
            attempts = 1
            final = False
            worker = "w0"

        clock = FakeClock()
        monitor = _monitor(clock)
        monitor.unit_started("w0", 3, "u3", None)
        monitor.unit_failed(Failure())
        lane = monitor.lanes()[0]
        assert lane.retries == 1
        assert lane.unit is None
        Failure.final = True
        monitor.unit_failed(Failure())
        assert lane.retries == 1              # quarantine is not a retry

    def test_beats_update_watermarks_and_forward_to_observer(self):
        clock = FakeClock()
        spy = Spy()
        ledger = _watched(spy)
        monitor = _monitor(clock, ledger)
        monitor.beat("w0", 5, 1, 1000)
        monitor.beat("w0", 5, 2, 400)         # watermark keeps the max
        lane = monitor.lanes()[0]
        assert lane.rss_kb == 1000
        assert lane.beats == 2
        assert spy.beats == [("w0", 1), ("w0", 2)]
        assert ledger.records == []           # beats are live-only

    def test_worker_lost_is_a_suspicion(self):
        clock = FakeClock()
        spy = Spy()
        ledger = _watched(spy)
        monitor = _monitor(clock, ledger)
        monitor.unit_started("w0", 7, "doomed", None)
        monitor.worker_lost("w0", 42, "timeout", "deadline exceeded", 7)
        assert spy.units == [(7, "doomed", "w0")]
        assert [s.kind for s in spy.suspicions] == ["worker-lost"]
        assert spy.suspicions[0].unit == 7
        assert "deadline exceeded" in spy.suspicions[0].detail
        assert [(r["event"], r.get("unit")) for r in ledger.records] == [
            ("started", 7), ("suspect", 7)]


# -- integration: real workers, real injuries --------------------------------


def _stop_self(item):
    """Write the pid, SIGSTOP this worker, square after SIGCONT."""
    root, x = item
    pidfile = os.path.join(root, f"pid-{x}")
    with open(pidfile, "w") as f:
        f.write(str(os.getpid()))
    os.kill(os.getpid(), signal.SIGSTOP)
    return x * x


def _sigkill_once(item):
    """SIGKILL the worker the first time each marker is seen."""
    root, x = item
    marker = os.path.join(root, f"kill-{x}.seen")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


class _Rescuer:
    """SIGCONT the stopped worker the moment suspicion lands."""

    def __init__(self, pidfile):
        self.pidfile = pidfile
        self.detected_at = None
        self.kinds = []

    def __call__(self, record, suspicion):
        if record["event"] != "suspect":
            return
        self.kinds.append(suspicion.kind)
        if suspicion.kind != "missed-beat" or self.detected_at is not None:
            return
        self.detected_at = time.monotonic()
        with open(self.pidfile) as f:
            os.kill(int(f.read()), signal.SIGCONT)


class TestSupervisedIntegration:
    def test_sigstopped_worker_detected_by_missed_beats(self, tmp_path):
        """A wedged (stopped) worker is flagged within ~2 heartbeat
        intervals — and rescued, long before the 30s unit_timeout."""
        unit_timeout = 30.0
        interval = 0.1
        rescuer = _Rescuer(str(tmp_path / "pid-5"))
        monitor = HealthMonitor(HealthPolicy(interval=interval),
                                ledger=_watched(rescuer))
        policy = SupervisionPolicy(unit_timeout=unit_timeout, retry=FAST)
        started = time.monotonic()
        results, quarantined, _ = run_supervised(
            _stop_self, [(str(tmp_path), 5)], jobs=1, policy=policy,
            health=monitor)
        elapsed = time.monotonic() - started
        assert results == [25]
        assert quarantined == []
        assert "missed-beat" in rescuer.kinds
        assert rescuer.detected_at is not None
        # detection beat the deadline by an order of magnitude
        detect_s = rescuer.detected_at - started
        assert detect_s < unit_timeout / 2
        assert elapsed < unit_timeout

    def test_sigkilled_worker_attributed_in_ledger(self, tmp_path):
        """kill -9 mid-unit: the supervisor settles the corpse, the
        engine ledgers the retry attributed to the lane, the monitor
        ledgers the worker-lost suspicion, and the retried unit still
        completes — all well inside unit_timeout."""
        unit_timeout = 30.0
        ledger = RunLedger(tmp_path / "run.jsonl",
                           meta={"experiment": "kill-test"})
        spy = Spy()
        ledger.subscribe(spy)
        counts = UnitCounts()
        ledger.subscribe(counts)
        monitor = HealthMonitor(HealthPolicy(interval=0.1), ledger=ledger)
        policy = SupervisionPolicy(unit_timeout=unit_timeout, retry=FAST)
        args = (str(tmp_path), 3)
        started = time.monotonic()
        with ledger, engine_options(supervision=policy, health=monitor,
                                    ledger=ledger):
            results = run_tasks(_sigkill_once, [(args,)])
        elapsed = time.monotonic() - started
        assert results == [9]
        assert counts.failed == 0
        assert counts.retries == 1
        assert elapsed < unit_timeout
        assert "worker-lost" in [s.kind for s in spy.suspicions]

        view = load_ledger(tmp_path / "run.jsonl")
        key = task_fingerprint(_sigkill_once, (args,))
        retried = [e for e in view.events if e["event"] == "retried"]
        assert len(retried) == 1
        assert retried[0]["worker"] == "w0"   # the attribution
        assert retried[0]["kind"] == "crash"
        assert retried[0]["key"] == key
        assert retried[0]["label"].startswith("_sigkill_once(")
        lost = [e for e in view.suspicions() if e["kind"] == "worker-lost"]
        assert lost and lost[0]["worker"] == "w0"
        # the respawned worker finished the retry on the same lane, and
        # that settlement is the unit's one done event
        done = [e for e in view.events if e["event"] == "done"]
        assert [(e["worker"], e["key"]) for e in done] == [("w0", key)]
        assert done[0]["latency_s"] >= 0
        assert view.units() == {key: "done"}

    def test_started_and_done_share_the_plan_index(self, tmp_path):
        """With some units already cached, the supervisor runs a
        sub-batch; the monitor's `started` events still carry each
        unit's plan index, the same one its `done` event carries."""
        cache = ResultCache(tmp_path / "cache")
        args = [(x,) for x in range(6)]
        with engine_options(cache=cache):
            run_tasks(_square, args[::2])        # cache units 0, 2, 4
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger, engine_options(
                jobs=2, cache=cache, ledger=ledger,
                health=HealthMonitor(HealthPolicy(interval=1.0),
                                     ledger=ledger)):
            assert run_tasks(_square, args) == [x * x for x in range(6)]
        events = load_ledger(path).events
        started = {e["key"]: e["unit"] for e in events
                   if e["event"] == "started"}
        done = {e["key"]: e["unit"] for e in events
                if e["event"] == "done" and not e.get("cached")}
        assert sorted(done.values()) == [1, 3, 5]
        assert started == done

    def test_healthy_run_raises_no_suspicion(self, tmp_path):
        # thresholds generous (but finite) against a loaded machine:
        # worker spawn latency must not read as a missed beat, and the
        # unit sleeps long enough that 50×p50 clears the time a unit
        # spends queued on a worker that is still importing — exact
        # thresholds are covered by the synthetic-clock suites above
        monitor = HealthMonitor(HealthPolicy(interval=1.0,
                                             straggler_factor=50.0))
        results, quarantined, retries = run_supervised(
            _slow_square, list(range(6)), jobs=2,
            policy=SupervisionPolicy(retry=FAST), health=monitor)
        assert results == [x * x for x in range(6)]
        assert monitor.suspicions == []
        lanes = monitor.lanes()
        assert [lane.worker for lane in lanes] == ["w0", "w1"]
        assert sum(lane.units_done for lane in lanes) == 6
        assert all(lane.beats >= 1 for lane in lanes)


def _square(x):
    return x * x


def _slow_square(x):
    time.sleep(0.05)
    return x * x


# -- the dashboard -----------------------------------------------------------


class _FakeTty(io.StringIO):
    def isatty(self):
        return True


def _lane(worker="w0", **kw):
    from repro.obs import WorkerLane

    lane = WorkerLane(worker=worker, pid=4242)
    lane.last_beat = time.monotonic()
    for key, value in kw.items():
        setattr(lane, key, value)
    return lane


class TestDashboardReporter:
    def test_tty_redraws_a_block_with_lanes(self):
        stream = _FakeTty()
        dash = ProgressReporter(stream=stream, min_interval=0.0, label="units")
        ledger = _watched(dash)
        ledger.event("scheduled", units=4, cache_hits=1)
        for lane in (_lane("w0", units_done=2, rss_kb=64 * 1024),
                     _lane("w1")):
            ledger.event("beat", lane, worker=lane.worker)
        dash.close()
        out = stream.getvalue()
        assert "\x1b[2K" in out               # in-place erase
        assert "\x1b[" in out and "A" in out  # cursor-up redraw
        assert "w0 pid 4242" in out
        assert "rss 64MB" in out

    def test_non_tty_emits_plain_lines(self):
        stream = io.StringIO()
        dash = ProgressReporter(stream=stream, min_interval=0.0,
                                plain_interval=0.0, label="units")
        ledger = _watched(dash)
        ledger.event("scheduled", units=2, cache_hits=0)
        ledger.event("done", object(), unit=0)
        dash.close()
        out = stream.getvalue()
        assert "\x1b" not in out and "\r" not in out
        assert out.splitlines()[-1].startswith("units 1/2")

    def test_suspicion_prints_immediately_when_plain(self):
        stream = io.StringIO()
        dash = ProgressReporter(stream=stream, plain_interval=3600.0,
                                label="units")
        clock = FakeClock()
        monitor = _monitor(clock, _watched(dash))
        monitor.worker_started("w1", 7)
        clock.advance(2.5)
        [suspicion] = monitor.poll()
        assert isinstance(suspicion, Suspicion)
        assert "suspect [missed-beat] w1 pid 7: no heartbeat for 2.50s" \
            in stream.getvalue()
        assert dash.flags == {"w1": "missed-beat"}

    def test_straggler_flag_renders_on_the_lane(self):
        stream = _FakeTty()
        dash = ProgressReporter(stream=stream, min_interval=0.0, label="units")
        _watched(dash).event("beat", _lane("w0", straggling=True),
                             worker="w0")
        dash.close()
        assert "STRAGGLER" in stream.getvalue()

    def test_zero_unit_close_still_prints_summary(self):
        stream = io.StringIO()
        with ProgressReporter(stream=stream, label="units") as dash:
            _watched(dash).event("scheduled", units=0, cache_hits=0)
        assert stream.getvalue().splitlines()[-1].startswith("units 0/0")
