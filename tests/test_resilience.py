"""End-to-end resilience: faults vs retry policies, for every player.

These are the acceptance tests for the fault-injection subsystem: a
scripted link outage during a Netflix session triggers the stall
watchdog, a backoff reconnect with HTTP Range resume, and full recovery
(no byte re-downloaded); disabling retries turns the same fault into a
cleanly failed — never hung — session.
"""

import pytest

from repro.analysis import (
    quantify_block_merging,
    recovery_time,
    summarize_resilience,
)
from repro.simnet import (
    RESIDENCE,
    ConnectionReset,
    FaultSchedule,
    NetworkProfile,
    ServerOutage,
)
from repro.streaming import (
    DEFAULT_RETRY,
    NO_RETRY,
    RESTART_RETRY,
    Application,
    Container,
    Service,
    SessionConfig,
    run_session,
)
from repro.workloads import MBPS, NETFLIX_LADDER_BPS, Video

PROFILE = RESIDENCE.with_loss(0.0)


def make_video():
    return Video(
        video_id="resilience",
        duration=90.0,
        encoding_rate_bps=1.0 * MBPS,
        resolution="480p",
        container="silverlight",
        variants=(("235p", 0.5 * MBPS), ("480p", 1.0 * MBPS),
                  ("720p", 1.75 * MBPS)),
    )


def netflix_session(faults=None, retry_policy=None, seed=7, capture=120.0):
    config = SessionConfig(
        profile=PROFILE,
        service=Service.NETFLIX,
        application=Application.IOS,
        capture_duration=capture,
        seed=seed,
        retry_policy=retry_policy,
        faults=faults,
    )
    return run_session(make_video(), config)


@pytest.fixture(scope="module")
def clean_run():
    return netflix_session(retry_policy=DEFAULT_RETRY)


@pytest.fixture(scope="module")
def outage_resume_run():
    return netflix_session(FaultSchedule().outage(20.0, 10.0), DEFAULT_RETRY)


class TestOutageRecovery:
    """The ISSUE's acceptance scenario: a 10 s link outage mid-session."""

    def test_clean_baseline_sees_no_faults(self, clean_run):
        assert not clean_run.failed
        assert clean_run.retry_count == 0
        assert clean_run.wasted_redownloaded_bytes == 0
        assert clean_run.fault_log is None

    def test_stall_detected_and_reconnected(self, outage_resume_run):
        # the watchdog noticed the dead transfer and reconnected (with
        # exponential backoff) at least once
        assert outage_resume_run.retry_count > 0
        assert not outage_resume_run.failed

    def test_range_resume_redownloads_nothing(self, outage_resume_run):
        assert outage_resume_run.wasted_redownloaded_bytes == 0

    def test_session_fully_recovers(self, clean_run, outage_resume_run):
        # everything the clean run delivered is delivered despite the cut
        assert outage_resume_run.downloaded == clean_run.downloaded

    def test_fault_log_records_the_window(self, outage_resume_run):
        log = outage_resume_run.fault_log
        assert log is not None
        assert log.times("outage-start") == [20.0]
        assert log.times("outage-end") == [30.0]

    def test_restart_policy_pays_for_lost_bytes(self, clean_run):
        result = netflix_session(
            FaultSchedule().outage(20.0, 10.0), RESTART_RETRY)
        assert not result.failed
        assert result.retry_count > 0
        assert result.wasted_redownloaded_bytes > 0
        # the waste is real traffic: wire bytes exceed the clean run's
        assert result.downloaded >= clean_run.downloaded

    def test_no_retry_fails_cleanly_not_hung(self):
        result = netflix_session(
            FaultSchedule().outage(20.0, 10.0), NO_RETRY)
        assert result.failed
        assert result.fail_reason == "stall-timeout"
        assert result.retry_count == 0
        # the session terminated on its own, well before the capture end
        assert result.stall_time_s < result.duration_simulated

    def test_runs_are_deterministic(self, outage_resume_run):
        again = netflix_session(
            FaultSchedule().outage(20.0, 10.0), DEFAULT_RETRY)
        assert again.downloaded == outage_resume_run.downloaded
        assert again.retry_count == outage_resume_run.retry_count
        assert again.stall_events == outage_resume_run.stall_events
        assert again.connections_opened == outage_resume_run.connections_opened


class TestOtherFaultKinds:
    def test_connection_reset_without_policy_fails_cleanly(self):
        # satellite (a): a torn-down connection is surfaced to the player,
        # so even without a retry policy the session fails instead of
        # idling to the capture horizon
        result = netflix_session(FaultSchedule([ConnectionReset(2.0)]))
        assert result.failed
        assert result.fail_reason == "reset-by-peer"

    def test_connection_reset_with_policy_recovers(self, clean_run):
        result = netflix_session(
            FaultSchedule([ConnectionReset(2.0)]), DEFAULT_RETRY)
        assert not result.failed
        assert result.retry_count > 0
        assert result.downloaded == clean_run.downloaded

    def test_server_outage_503_then_recovery(self, clean_run):
        # the server 503s every block request for 10 s of steady state;
        # the client keeps retrying with backoff until it comes back
        result = netflix_session(
            FaultSchedule([ServerOutage(30.0, 10.0)]), DEFAULT_RETRY)
        assert not result.failed
        assert result.retry_count >= 1
        assert result.downloaded == clean_run.downloaded
        assert result.fault_log.times("server-outage-end") == [40.0]


# -- satellite (d): every player type terminates under a mid-session outage --

FAST = NetworkProfile(
    name="Fast", down_bps=40e6, up_bps=40e6, rtt=0.02, loss_down=0.0,
    buffer_bytes=1024 * 1024,
)

PLAYER_CASES = [
    ("flash", Service.YOUTUBE, Application.FIREFOX, Container.FLASH, "flv"),
    ("ie", Service.YOUTUBE, Application.INTERNET_EXPLORER, Container.HTML5,
     "webm"),
    ("chrome", Service.YOUTUBE, Application.CHROME, Container.HTML5, "webm"),
    ("android", Service.YOUTUBE, Application.ANDROID, Container.HTML5,
     "webm"),
    ("ipad", Service.YOUTUBE, Application.IOS, Container.HTML5, "webm"),
    ("netflix", Service.NETFLIX, Application.FIREFOX, None, "silverlight"),
]


def build_case_video(codec):
    if codec == "silverlight":
        ladder = tuple(zip(("a", "b", "c", "d", "e"), NETFLIX_LADDER_BPS))
        return Video(video_id="term", duration=2400.0,
                     encoding_rate_bps=NETFLIX_LADDER_BPS[-1],
                     resolution="1080p", container="silverlight",
                     variants=ladder)
    return Video(video_id="term", duration=300.0,
                 encoding_rate_bps=1.8 * MBPS, resolution="360p",
                 container=codec)


@pytest.mark.parametrize("name,service,application,container,codec",
                         PLAYER_CASES, ids=[c[0] for c in PLAYER_CASES])
def test_every_player_terminates_under_permanent_outage(
        name, service, application, container, codec):
    # the link dies at t=10 s and never comes back; with retries disabled
    # the stall watchdog must end every session — no player may simply
    # stop making progress and idle to the capture horizon
    config = SessionConfig(
        profile=FAST, service=service, application=application,
        container=container, capture_duration=75.0, seed=9,
        retry_policy=NO_RETRY,
        faults=FaultSchedule().outage(10.0, 500.0),
    )
    result = run_session(build_case_video(codec), config)
    assert result.failed or result.player_finished
    if result.failed:
        assert result.fail_reason is not None
    assert result.downloaded > 0  # it did stream before the cut


class TestResilienceAnalysis:
    def test_summary_of_recovered_session(self, outage_resume_run):
        summary = summarize_resilience(outage_resume_run)
        assert not summary.failed
        assert summary.retry_count == outage_resume_run.retry_count
        assert summary.recovery_time_s is not None

    def test_recovery_time_semantics(self, outage_resume_run, clean_run):
        rec = recovery_time(outage_resume_run)
        if outage_resume_run.stall_events:
            assert rec is not None and rec > 0.0
        else:
            assert rec == 0.0  # fault absorbed without a stall
        assert recovery_time(clean_run) is None  # no fault log at all

    def test_block_merging_report(self, clean_run, outage_resume_run):
        report = quantify_block_merging(clean_run, outage_resume_run)
        assert report.clean_cycles > 0
        assert report.faulted_cycles > 0
