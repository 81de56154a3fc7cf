"""Tests for the campaign observatory (``repro.obs``).

The load-bearing guarantee is determinism: flow and metric exports must
be byte-identical for any ``--jobs`` value, identical with the
``repro profile`` subscriber on or off, and observing a run must never change what lands
in the result cache.  One test asserts all three at once; another that
subscribing to the run ledger never changes what it persists.
"""

import io
import json

import pytest

from repro.cli import main
from repro.experiments import Scale, fig2
from repro.obs import (
    FLOW_FIELDS,
    METRIC_FIELDS,
    CampaignCollector,
    ProgressReporter,
    flow_records,
    metric_samples,
    prometheus_lines,
    write_csv,
    write_jsonl,
)
from repro.obs.profile import Profile
from repro.runner import (
    ResultCache,
    RunLedger,
    current_options,
    engine_options,
    load_ledger,
    run_sessions,
)
from repro.runner.fingerprint import plan_fingerprint
from repro.simnet import RESEARCH
from repro.streaming import (
    Application,
    Container,
    Service,
    SessionConfig,
    run_session,
)
from repro.workloads import MBPS, Video

#: Same tiny scale as test_runner/test_profile, for suite latency.
TINY = Scale(name="tiny", sessions_per_cell=3, capture_duration=90.0,
             catalog_scale=0.02, mc_horizon=4000.0)


def _video():
    return Video(video_id="v-obs", duration=300.0, encoding_rate_bps=MBPS,
                 resolution="360p", container="flv")


def _config(**kw):
    return SessionConfig(profile=RESEARCH, service=Service.YOUTUBE,
                         application=Application.FIREFOX,
                         container=Container.FLASH,
                         capture_duration=60.0, seed=3, **kw)


def _subscribed(*subscribers, path=None):
    """A run ledger (in memory unless ``path``) feeding ``subscribers``."""
    ledger = RunLedger(path)
    for fn in subscribers:
        ledger.subscribe(fn)
    return ledger


def _collect(jobs=1, profile=False, cache=None):
    """Run fig2 at TINY scale under a collector (and the profile
    subscriber when ``profile``); return the collector."""
    collector = CampaignCollector()
    subscribers = (collector, Profile()) if profile else (collector,)
    with engine_options(jobs=jobs, cache=cache,
                        ledger=_subscribed(*subscribers)):
        fig2.run(TINY, seed=0)
    return collector


def _export_bytes(collector, tmp_path, tag):
    flows = tmp_path / f"flows-{tag}.jsonl"
    metrics = tmp_path / f"metrics-{tag}.csv"
    collector.write_flows(flows)
    collector.write_metrics(metrics)
    return flows.read_bytes(), metrics.read_bytes()


class TestFlowRecords:
    def _result(self):
        return run_session(_video(), _config())

    def test_fields_and_values(self):
        result = self._result()
        records = flow_records(result, "s0000")
        assert records, "a streamed session must produce at least one flow"
        for record in records:
            assert tuple(record) == FLOW_FIELDS
        first = records[0]
        assert first["session"] == "s0000"
        assert first["protocol"] == "tcp"
        assert first["src_ip"] == result.server_ip
        assert first["dst_ip"] == result.client_ip
        assert first["bytes"] > 0
        assert first["packets"] > 0
        assert 0.0 <= first["retransmission_rate"] <= 1.0
        assert first["onoff_blocks"] >= 0
        assert first["strategy"]
        assert first["failed"] is False

    def test_flows_ordered_by_first_activity(self):
        records = flow_records(self._result(), "s")
        starts = [r["first_ts"] for r in records if r["first_ts"] is not None]
        assert starts == sorted(starts)

    def test_records_never_read_telemetry(self):
        plain = flow_records(self._result(), "s")
        with engine_options(ledger=_subscribed(Profile())):
            [result] = run_sessions([(_video(), _config())])
        assert flow_records(result, "s") == plain


class TestMetricSamples:
    def test_emits_expected_metrics(self):
        result = run_session(_video(), _config())
        samples = metric_samples(result, "s0000")
        names = {s["metric"] for s in samples}
        assert {"download_bytes", "throughput_bps", "link_utilization",
                "recv_window_bytes"} <= names
        for sample in samples:
            assert sample["session"] == "s0000"
            assert isinstance(sample["t"], float)

    def test_cwnd_traces_when_enabled(self):
        result = run_session(_video(), _config(trace_cwnd=True))
        assert result.cwnd_traces
        samples = metric_samples(result, "s")
        cwnd = [s for s in samples if s["metric"] == "cwnd_bytes"]
        assert cwnd
        assert {s["conn"] for s in cwnd} == \
            set(range(len(result.cwnd_traces)))

    def test_utilization_bounded_by_capacity(self):
        result = run_session(_video(), _config())
        samples = metric_samples(result, "s")
        util = [s["value"] for s in samples
                if s["metric"] == "link_utilization"]
        assert util
        assert all(0.0 <= u <= 1.5 for u in util)  # small burst tolerance


class TestSerializers:
    RECORDS = [
        {"metric": "up", "session": "s0", "t": 1.5, "value": 2.0},
        {"metric": "up", "session": "s1", "t": 2.0, "value": 3.5},
        {"metric": "down", "session": "s0", "t": None, "value": 1},
    ]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "r.jsonl"
        assert write_jsonl(self.RECORDS, path) == 3
        back = [json.loads(line) for line in path.read_text().splitlines()]
        assert back == self.RECORDS

    def test_csv_fixed_columns_and_none(self, tmp_path):
        path = tmp_path / "r.csv"
        n = write_csv(self.RECORDS, path,
                      fields=("metric", "session", "t", "value"))
        assert n == 3
        lines = path.read_text().splitlines()
        assert lines[0] == "metric,session,t,value"
        assert lines[3] == "down,s0,,1"  # None renders as empty cell

    def test_prometheus_exposition_format(self):
        lines = prometheus_lines(self.RECORDS)
        assert lines[0] == "# TYPE repro_up gauge"
        assert lines[1] == 'repro_up{session="s0"} 2.0 1500'
        # one TYPE header per metric, at first occurrence only
        assert sum(1 for l in lines if l.startswith("# TYPE")) == 2
        # records without a timestamp omit it
        assert lines[-1] == 'repro_down{session="s0"} 1'

    def test_prometheus_sanitizes_names(self):
        lines = prometheus_lines(
            [{"metric": "a.b-c", "session": "s0", "t": None, "value": 1}])
        assert lines[1].startswith("repro_a_b_c{")

    def test_prometheus_escapes_hostile_label_values(self):
        """Quotes, backslashes and newlines in a label value must be
        escaped per the text exposition format, not passed through."""
        hostile = 'ca"t\\dog\nfish'
        lines = prometheus_lines(
            [{"metric": "up", "session": hostile, "t": None, "value": 1}])
        assert lines[1] == 'repro_up{session="ca\\"t\\\\dog\\nfish"} 1'
        # the sample stays one physical line with balanced quoting
        assert "\n" not in lines[1]
        assert lines[1].count('"') - lines[1].count('\\"') == 2

    def test_prometheus_escaping_round_trips(self):
        import re

        hostile = 'a\\b"c\nd'
        lines = prometheus_lines(
            [{"metric": "up", "session": hostile, "t": None, "value": 1}])
        quoted = re.search(r'session="((?:[^"\\]|\\.)*)"', lines[1]).group(1)
        unescaped = (quoted.replace("\\n", "\n").replace('\\"', '"')
                     .replace("\\\\", "\x00").replace("\x00", "\\"))
        # NB: inverse order of the writer's; \\ placeholder avoids
        # re-interpreting the backslash that \n/\" unescaping produced
        assert unescaped == 'a\\b"c\nd'.replace("\\\\", "\\")


class TestDeterminism:
    def test_exports_identical_across_jobs_telemetry_and_cache(self, tmp_path):
        """The acceptance gate: one test, three guarantees.

        1. jobs=4 exports are byte-identical to jobs=1 exports;
        2. the profile subscriber on/off does not change a byte;
        3. observing/exporting never enters the cache fingerprints —
           a run with the observer installed and files written hits the
           same cache entries as a run without it.
        """
        base_flows, base_metrics = _export_bytes(
            _collect(jobs=1), tmp_path, "base")

        # 1: worker-count independence
        par_flows, par_metrics = _export_bytes(
            _collect(jobs=4), tmp_path, "jobs4")
        assert par_flows == base_flows
        assert par_metrics == base_metrics

        # 2: profile independence
        rec_flows, rec_metrics = _export_bytes(
            _collect(profile=True), tmp_path, "rec")
        assert rec_flows == base_flows
        assert rec_metrics == base_metrics

        # 3: cache-fingerprint independence — first run (no observer,
        # no exports) populates the cache; an observed, exporting run
        # must hit every entry and add none
        cache_dir = tmp_path / "cache"
        with engine_options(cache=cache_dir):
            fig2.run(TINY, seed=0)
        keys_before = sorted(p.name for p in cache_dir.glob("*/*.pkl"))
        assert keys_before
        observed = _collect(cache=cache_dir)
        obs_flows, obs_metrics = _export_bytes(observed, tmp_path, "cached")
        keys_after = sorted(p.name for p in cache_dir.glob("*/*.pkl"))
        assert keys_after == keys_before
        assert obs_flows == base_flows
        assert obs_metrics == base_metrics

    def test_exports_identical_with_health_monitoring(self, tmp_path):
        """Health plane on vs off, same supervision: byte-identical.

        The monitor observes a supervised run (heartbeats, lanes,
        suspicion) but must never change what the engine computes or
        exports — the kill-a-worker acceptance check in
        ``tests/test_health.py`` asserts attribution; this one asserts
        the zero-perturbation half of the invariant.
        """
        from repro.obs import HealthMonitor, HealthPolicy
        from repro.runner import SupervisionPolicy

        def run(policy, tag):
            collector = CampaignCollector()
            ledger = _subscribed(collector)
            monitor = (HealthMonitor(policy, ledger=ledger)
                       if policy is not None else None)
            with engine_options(jobs=2, ledger=ledger,
                                supervision=SupervisionPolicy(),
                                health=monitor):
                fig2.run(TINY, seed=0)
            return _export_bytes(collector, tmp_path, tag), monitor, ledger

        off, _, _ = run(None, "health-off")
        on, monitor, ledger = run(HealthPolicy(interval=0.05), "health-on")
        assert on == off
        # and the monitor really was live, not silently bypassed
        lanes = monitor.lanes()
        assert lanes
        done = [r for r in ledger.records if r["event"] == "done"]
        assert done
        assert sum(lane.units_done for lane in lanes) == len(done)
        assert sum(lane.beats for lane in lanes) >= len(lanes)  # birth beats

    def test_plan_fingerprint_ignores_observer_state(self):
        video, config = _video(), _config()
        base = plan_fingerprint(video, config)
        with engine_options(ledger=_subscribed(CampaignCollector())):
            assert plan_fingerprint(video, config) == base


def _persisted(path):
    """The ledger file's ``(event, unit, key, cached)`` sequence."""
    return [(e["event"], e.get("unit"), e.get("key"), e.get("cached"))
            for e in load_ledger(path).events]


def _observed_campaign(tmp_path, subscribers):
    """fig2 cold then warm into one cache, one ledger file per pass."""
    cache = ResultCache(tmp_path / "cache")
    sequences = []
    for tag in ("cold", "warm"):
        path = tmp_path / f"{tag}.jsonl"
        with _subscribed(*subscribers, path=path) as ledger, \
                engine_options(cache=cache, ledger=ledger):
            fig2.run(TINY, seed=0)
        sequences.append(_persisted(path))
    return sequences


@pytest.fixture(scope="module")
def unobserved_ledger(tmp_path_factory):
    return _observed_campaign(tmp_path_factory.mktemp("unobserved"), [])


class TestObserverHook:
    @pytest.mark.parametrize("observers", [
        (), ("progress",), ("collector",), ("progress", "collector")])
    def test_observing_never_changes_the_persisted_ledger(
            self, tmp_path, observers, unobserved_ledger):
        made = {"progress": lambda: ProgressReporter(stream=io.StringIO()),
                "collector": CampaignCollector}
        subscribers = [made[name]() for name in observers]
        assert _observed_campaign(tmp_path, subscribers) \
            == unobserved_ledger
        cold, warm = unobserved_ledger
        assert [e for e, *_ in cold].count("done") == 2
        assert all(cached for e, _, _, cached in warm if e == "done")
        for subscriber in subscribers:
            if isinstance(subscriber, ProgressReporter):
                assert (subscriber.done, subscriber.total) == (4, 4)
                assert subscriber.cache_hits == 2
            else:
                assert len(subscriber.sessions) == 4

    def test_engine_options_inherit_observer(self):
        ledger = _subscribed(CampaignCollector())
        with engine_options(ledger=ledger):
            with engine_options(jobs=2):  # None ledger -> inherit
                assert current_options().ledger is ledger
        assert current_options().ledger is None

    def test_ledger_fans_out_to_every_subscriber(self):
        a, b = CampaignCollector(), CampaignCollector()
        ledger = _subscribed(a, b)
        result = run_session(_video(), _config())
        ledger.event("batch-finished", [result])
        assert len(a.sessions) == len(b.sessions) == 1
        assert ledger.records == []   # a live kind: delivered, not kept

    def test_collector_skips_non_session_values(self):
        collector = CampaignCollector()
        collector.batch_finished([1, "x", None])
        assert collector.sessions == []

    def test_collector_ids_are_sequential(self):
        collector = CampaignCollector()
        result = run_session(_video(), _config())
        collector.batch_finished([result])
        collector.batch_finished([result])
        assert [sid for sid, _ in collector.sessions] == ["s0000", "s0001"]

    def test_observer_sees_batches_through_run_sessions(self):
        seen = []

        def spy(record, value):
            seen.append((record["event"], value))

        with engine_options(ledger=_subscribed(spy)):
            results = run_sessions([(_video(), _config())])
        assert len(results) == 1
        assert [kind for kind, _ in seen] == [
            "scheduled", "done", "batch-finished"]
        assert seen[1][1] is results[0]       # the live result, not a copy
        assert seen[2][1] == results


class _FakeTty(io.StringIO):
    """A StringIO that claims to be a terminal, for \\r-rewrite tests."""

    def isatty(self):
        return True


class _FakeTime:
    """Stand-in for the ``time`` module inside ``repro.obs.progress``."""

    def __init__(self, now=100.0):
        self.now = now

    def monotonic(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestProgressReporter:
    def test_renders_single_line_with_rate_and_cache(self):
        stream = _FakeTty()
        reporter = ProgressReporter(stream=stream, min_interval=0.0)
        ledger = _subscribed(reporter)
        ledger.event("scheduled", units=4, cache_hits=1)
        ledger.event("done", object(), unit=1)
        reporter.close()
        out = stream.getvalue()
        assert "\r" in out
        last = out.rstrip("\n").rsplit("\r", 1)[-1].strip()
        assert last.startswith("sessions 2/4")
        assert "cache 1/2" in last
        assert out.endswith("\n")

    def test_counts_retries_and_faults(self):
        class FakeResult:
            retry_count = 2
            fault_log = [1, 2, 3]

        stream = _FakeTty()
        reporter = ProgressReporter(stream=stream, min_interval=0.0)
        ledger = _subscribed(reporter)
        ledger.event("scheduled", units=1, cache_hits=0)
        ledger.event("batch-finished", [FakeResult()])
        reporter.close()
        line = stream.getvalue()
        assert "retries 2" in line
        assert "faults 3" in line

    def test_close_is_idempotent(self):
        stream = _FakeTty()
        reporter = ProgressReporter(stream=stream)
        reporter.close()
        once = stream.getvalue()
        reporter.close()
        assert stream.getvalue() == once
        assert once.count("\n") == 1

    def test_non_tty_emits_plain_lines_not_rewrites(self):
        stream = io.StringIO()  # isatty() is False
        reporter = ProgressReporter(stream=stream, min_interval=0.0,
                                    plain_interval=0.0)
        ledger = _subscribed(reporter)
        ledger.event("scheduled", units=2, cache_hits=0)
        ledger.event("done", object(), unit=0)
        ledger.event("done", object(), unit=1)
        reporter.close()
        out = stream.getvalue()
        assert "\r" not in out
        lines = [l for l in out.splitlines() if l]
        assert lines, "plain mode must still report progress"
        assert lines[-1].startswith("sessions 2/2")

    def test_non_tty_throttles_to_plain_interval(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, min_interval=0.0,
                                    plain_interval=3600.0)
        ledger = _subscribed(reporter)
        ledger.event("scheduled", units=10, cache_hits=0)
        for unit in range(10):
            ledger.event("done", object(), unit=unit)
        reporter.close()
        out = stream.getvalue()
        # one initial line, plus the final flush of pending progress
        assert 1 <= out.count("\n") <= 2
        assert out.splitlines()[-1].startswith("sessions 10/10")

    def test_zero_unit_non_tty_close_still_summarizes(self):
        """A campaign that schedules nothing never dirties the line;
        close() must still emit the one-line summary (regression:
        zero-unit non-TTY runs used to end completely silent)."""
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, plain_interval=3600.0)
        reporter.close()
        out = stream.getvalue()
        assert out.count("\n") == 1
        assert out.splitlines()[0].startswith("sessions 0/0")
        reporter.close()  # still idempotent
        assert stream.getvalue() == out

    def test_eta_uses_smoothed_rate_not_whole_run_average(self, monkeypatch):
        fake = _FakeTime()
        monkeypatch.setattr("repro.obs.progress.time", fake)
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, min_interval=0.0,
                                    plain_interval=0.0)
        ledger = _subscribed(reporter)
        ledger.event("scheduled", units=20, cache_hits=0)
        # a burst at 10/s, then the pace collapses to 0.5/s
        for _ in range(5):
            fake.advance(0.1)
            ledger.event("done", object())
        for _ in range(5):
            fake.advance(2.0)
            ledger.event("done", object())
        # the first completion only anchors the clock: 4 fast samples
        expected = 0.0
        for sample in [10.0] * 4 + [0.5] * 5:
            expected = (sample if expected == 0.0
                        else 0.3 * sample + 0.7 * expected)
        assert reporter._rate == pytest.approx(expected)
        last = stream.getvalue().splitlines()[-1]
        assert f"{expected:.1f}/s" in last       # ~2.1/s: the current pace
        whole_run = reporter.done / (fake.monotonic() - 100.0)
        assert f"{whole_run:.1f}/s" not in last  # ~1.0/s: the stale average

    def test_unit_failed_counts_retry_then_quarantine(self):
        class Attempt:
            def __init__(self, final):
                self.final = final

        stream = _FakeTty()
        reporter = ProgressReporter(stream=stream, min_interval=0.0)
        ledger = _subscribed(reporter)
        ledger.event("scheduled", units=2, cache_hits=0)
        ledger.event("retried", Attempt(final=False), unit=0)
        ledger.event("quarantined", Attempt(final=True), unit=0)
        ledger.event("done", object(), unit=1)
        reporter.close()
        line = stream.getvalue().rstrip("\n").rsplit("\r", 1)[-1]
        assert "retries 1" in line
        assert "failed 1" in line
        # the quarantined unit counts as settled: 1 finished + 1 failed
        assert line.strip().startswith("sessions 2/2")

    def test_context_manager_releases_line_on_interrupt(self):
        stream = _FakeTty()
        with pytest.raises(KeyboardInterrupt):
            with ProgressReporter(stream=stream, min_interval=0.0) as rep:
                ledger = _subscribed(rep)
                ledger.event("scheduled", units=5, cache_hits=0)
                ledger.event("done", object(), unit=0)
                raise KeyboardInterrupt
        assert stream.getvalue().endswith("\n")


class TestCli:
    def test_experiment_flow_and_metric_export(self, tmp_path, capsys):
        flows = tmp_path / "flows.jsonl"
        metrics = tmp_path / "metrics.prom"
        code = main(["experiment", "model_validation", "--scale", "small",
                     "--flows", str(flows), "--metrics", str(metrics)])
        assert code == 0
        out = capsys.readouterr().out
        assert "flows written" in out
        assert "metrics written" in out
        # model_validation runs tasks, not sessions: flows legitimately
        # empty, but both files must exist and be well-formed
        assert flows.exists()
        assert metrics.exists()

    def test_experiment_rejects_unknown_export_suffix(self, tmp_path):
        with pytest.raises(ValueError):
            CampaignCollector().write_flows(tmp_path / "flows.xml")

    def test_progress_flag_writes_stderr_only(self, tmp_path, capsys):
        code = main(["experiment", "model_validation", "--scale", "small",
                     "--progress"])
        assert code == 0
        captured = capsys.readouterr()
        # captured stderr is not a TTY: plain lines, never \r rewrites
        assert "\r" not in captured.err
        assert "units" in captured.err
        assert "units" not in captured.out
