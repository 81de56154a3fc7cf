"""Tests for the run profile (``repro profile``), a fold over the ledger.

Covers the profile's public guarantees — its deterministic sections
(counters, gauges, histograms, events) are a pure function of the
session results, so ``jobs=N`` folds equal ``jobs=1`` folds and a warm
or foreign-filled cache profiles exactly like a cold run; report output
is byte-identical with the profile subscribed or not; no phase row
exceeds the run's wall time — plus the histogram/exporter semantics and
the ``repro profile`` CLI.
"""

import dataclasses
import json
import re

import pytest

from repro.cli import main
from repro.experiments import SCALES, Scale, fig2
from repro.obs.profile import (
    EventRecord,
    HistogramSummary,
    Profile,
    SpanRecord,
    aggregate_spans,
    format_hot_spans,
    hot_spans,
    summarize,
    write_jsonl,
)
from repro.runner import RunLedger, engine_options, run_sessions, run_tasks
from repro.simnet import RESEARCH
from repro.streaming import Application, Container, Service, SessionConfig, run_session
from repro.workloads import MBPS, Video

#: Same tiny scale as test_runner, for suite latency.
TINY = Scale(name="tiny", sessions_per_cell=3, capture_duration=90.0,
             catalog_scale=0.02, mc_horizon=4000.0)


def _video():
    return Video(video_id="v-tel", duration=300.0, encoding_rate_bps=MBPS,
                 resolution="360p", container="flv")


def _config(**kw):
    return SessionConfig(profile=RESEARCH, service=Service.YOUTUBE,
                         application=Application.FIREFOX,
                         container=Container.FLASH,
                         capture_duration=60.0, seed=3, **kw)


def _ledger(profile=None):
    """An in-memory ledger, with ``profile`` subscribed when given."""
    ledger = RunLedger()
    if profile is not None:
        ledger.subscribe(profile)
    return ledger


def _profiled_session(config=None):
    """One session through the engine under a subscribed profile."""
    profile = Profile()
    with engine_options(ledger=_ledger(profile)):
        [result] = run_sessions([(_video(), config or _config())])
    return profile, result


def _fig2(jobs=1, cache=None, profiled=True):
    """fig2 at TINY scale; returns ``(profile or None, report)``."""
    profile = Profile(gauges={"engine.jobs": jobs}) if profiled else None
    with engine_options(jobs=jobs, cache=cache, ledger=_ledger(profile)):
        report = fig2.run(TINY, seed=0).report()
    return profile, report


def _folded(profile):
    """The deterministic fold (everything but wall-clock phases)."""
    return (profile.counters,
            {k: (h.count, h.total, h.samples)
             for k, h in profile.histograms.items()},
            profile.events)


def _session_task(seed):
    """A task that runs a session batch of its own (inline at jobs=1)."""
    [result] = run_sessions([(_video(), _config())])
    return result.downloaded + seed


class TestRecorder:
    def test_counters_gauges_histograms_events(self):
        profile, result = _profiled_session()
        assert profile.gauges == {}              # no --jobs, no gauge
        counters = profile.counters
        assert counters["engine.units"] == 1
        assert counters["sessions.completed"] == 1
        assert counters["pcap.packets"] == len(result.capture)
        assert counters["player.requests"] == len(result.requests)
        hist = profile.histograms["session.sim_seconds"]
        assert (hist.count, hist.min, hist.max) == (1, 60.0, 60.0)
        assert profile.histograms["session.downloaded_bytes"].total \
            == result.downloaded
        names = [e.name for e in profile.events]
        assert names[0] == "session.start" and names[-1] == "session.end"

    def test_event_fields_are_order_insensitive(self):
        assert EventRecord.make("e", a=1, b=2) == EventRecord.make("e", b=2, a=1)

    def test_histogram_merge(self):
        a = HistogramSummary()
        b = HistogramSummary()
        a.observe(1.0)
        b.observe(5.0)
        b.observe(3.0)
        a.merge(b)
        assert (a.count, a.total, a.min, a.max) == (3, 9.0, 1.0, 5.0)

    def test_histogram_percentile_empty_is_none(self):
        h = HistogramSummary()
        assert h.percentile(50) is None
        assert h.percentile(99) is None

    def test_histogram_percentile_single_sample(self):
        h = HistogramSummary()
        h.observe(7.0)
        assert h.percentile(0) == 7.0
        assert h.percentile(50) == 7.0
        assert h.percentile(100) == 7.0

    def test_histogram_percentile_interpolates(self):
        h = HistogramSummary()
        for v in (10.0, 20.0, 30.0, 40.0):
            h.observe(v)
        assert h.percentile(0) == 10.0
        assert h.percentile(50) == 25.0
        assert h.percentile(100) == 40.0

    def test_histogram_percentile_merge_order_irrelevant(self):
        a, b = HistogramSummary(), HistogramSummary()
        a.observe(3.0)
        b.observe(1.0)
        b.observe(2.0)
        a.merge(b)
        assert a.percentile(50) == 2.0

    def test_histogram_percentile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            HistogramSummary().percentile(101)

    def test_snapshot_copies_samples(self):
        # a merge copies the other summary's samples, never aliases them
        a, b = HistogramSummary(), HistogramSummary()
        b.observe(1.0)
        a.merge(b)
        b.observe(100.0)
        assert a.samples == [1.0]
        assert a.percentile(95) == 1.0

    def test_span_paths_nest(self):
        profile, _ = _profiled_session()
        # the computed session nests under its engine batch
        assert [s.path for s in profile.spans] == \
            ["engine.run_sessions/session", "engine.run_sessions"]
        assert all(s.duration >= 0 for s in profile.spans)
        unit, batch = profile.spans
        assert unit.duration <= batch.duration

    def test_merge_adds_counters_and_reroots_spans(self):
        # a task batch whose inline task runs a session batch: the inner
        # batch roots under the outer one, and every batch adds its units
        profile = Profile()
        with engine_options(jobs=1, ledger=_ledger(profile)):
            run_tasks(_session_task, [(0,)])
        assert [s.path for s in profile.spans] == [
            "engine.run_tasks/engine.run_sessions/session",
            "engine.run_tasks/engine.run_sessions",
            "engine.run_tasks/task",
            "engine.run_tasks"]
        assert profile.counters["engine.units"] == 2
        assert profile.counters["sessions.completed"] == 1
        assert profile.computed == 2 and profile.cache_hits == 0


class TestSessionTelemetry:
    def test_disabled_by_default_and_attaches_nothing(self):
        # a session carries its own totals, never observer state, and is
        # the same result whether a profile watched it or not
        plain = run_session(_video(), _config())
        _, profiled = _profiled_session()
        assert not hasattr(plain, "telemetry")
        assert plain.sim_counters == profiled.sim_counters
        assert plain.requests == profiled.requests

    def test_recording_attaches_a_snapshot(self):
        profile, result = _profiled_session()
        counters = profile.counters
        assert counters["sessions.completed"] == 1
        assert counters["tcp.segments_sent"] > 0
        assert counters["scheduler.events"] > 0
        assert counters["player.requests"] >= 1
        for name, total in result.sim_counters.items():
            assert counters.get(name, 0) == total
        names = [e.name for e in profile.events]
        # ON-block boundaries: Flash short cycles mean many range requests
        assert names.count("player.request") == counters["player.requests"]

    @pytest.mark.parametrize("application,container", [
        (Application.FIREFOX, Container.FLASH),
        (Application.IOS, Container.HTML5),
    ])
    def test_request_log_does_not_depend_on_recording(self, application,
                                                      container):
        """``SessionResult.requests`` is always recorded; profiled, it
        equals the ``player.request`` events."""
        config = dataclasses.replace(_config(), application=application,
                                     container=container)
        plain = run_session(_video(), config)
        profile, traced = _profiled_session(config)
        assert plain.requests
        assert plain.requests == traced.requests
        events = [(e.t, dict(e.fields)["offset"], dict(e.fields)["ranged"])
                  for e in profile.events if e.name == "player.request"]
        assert events == traced.requests

    def test_tcp_counters_sum_every_connection(self, monkeypatch):
        """The session's TCP totals are sums of ``TcpStats`` over every
        connection the session created, closed ones included."""
        from repro.tcp import TcpConnection

        conns = []
        init = TcpConnection.__init__

        def tracked_init(conn, *args, **kwargs):
            init(conn, *args, **kwargs)
            conns.append(conn)

        monkeypatch.setattr(TcpConnection, "__init__", tracked_init)
        counters = run_session(_video(), _config()).sim_counters
        assert len(conns) >= 2  # the client's and the server's ends
        assert counters["tcp.segments_sent"] == sum(
            c.stats.segments_sent for c in conns)
        assert counters["tcp.bytes_sent"] == sum(
            c.stats.bytes_sent for c in conns)

    def test_session_recorder_is_private(self):
        # a bare run_session reports nothing to an installed ledger:
        # only the engine speaks on the stream
        ledger = RunLedger()
        seen = []
        ledger.subscribe(lambda record, value: seen.append(record))
        with engine_options(ledger=ledger):
            run_session(_video(), _config())
        assert seen == [] and ledger.records == []

    def test_identical_telemetry_across_recorded_runs(self):
        a, _ = _profiled_session()
        b, _ = _profiled_session()
        assert _folded(a) == _folded(b)


class TestEngineDeterminism:
    """jobs=N folds must equal jobs=1 folds exactly."""

    def test_jobs3_counters_and_events_match_jobs1(self):
        serial, report1 = _fig2(jobs=1)
        parallel, report3 = _fig2(jobs=3)
        assert report3 == report1
        assert _folded(parallel) == _folded(serial)
        assert parallel.gauges == {"engine.jobs": 3}
        # one batch row and its unit row in both
        assert [s.path for s in serial.spans].count(
            "engine.run_sessions/session") == serial.computed
        assert [s.path for s in parallel.spans].count(
            "engine.run_sessions/session") == parallel.computed

    def test_report_identical_with_telemetry_on_or_off(self):
        _, plain = _fig2(profiled=False)
        _, profiled = _fig2()
        assert profiled == plain

    def test_cache_round_trip_with_and_without_recording(self, tmp_path):
        # entries written with the profile on replay with it off, and
        # vice versa; the warm fold equals the cold one
        cold, first = _fig2(cache=tmp_path)
        _, second = _fig2(cache=tmp_path, profiled=False)
        warm, third = _fig2(cache=tmp_path)
        assert first == second == third
        assert cold.computed > 0 and cold.cache_hits == 0
        assert warm.cache_hits == cold.computed and warm.computed == 0
        assert _folded(warm) == _folded(cold)
        assert not [s for s in warm.spans if "/" in s.path]


class TestExporters:
    def _sample(self):
        return Profile(
            counters={"n": 2}, gauges={"g": 1},
            histograms={"h": HistogramSummary(1, 1.5, 1.5, 1.5, [1.5])},
            events=[EventRecord.make("e", t=0.1, what="x")],
            spans=[SpanRecord("run", 0.0, 2.0),
                   SpanRecord("run/step", 0.5, 1.0)])

    def test_aggregate_spans_tree_order(self):
        rows = aggregate_spans(self._sample().spans)
        assert [(path, calls) for path, calls, _ in rows] == \
            [("run", 1), ("run/step", 1)]

    def test_aggregate_spans_materializes_missing_parents(self):
        # the parent has no record of its own: it must still appear
        rows = aggregate_spans([SpanRecord("a/b", 0.0, 1.0)])
        assert [path for path, _, _ in rows] == ["a", "a/b"]

    def test_hot_spans_ranks_by_cumulative_time(self):
        profile = Profile(spans=[SpanRecord("outer", 0.0, 3.0),
                                 SpanRecord("outer/hot", 0.0, 1.0),
                                 SpanRecord("outer/hot", 1.0, 1.5)])
        rows = hot_spans(profile, top=10)
        # flat ranking by total descending; outer's wall time dominates
        assert rows[0][0] == "outer"
        paths = [path for path, _, _, _ in rows]
        assert "outer/hot" in paths
        hot_row = rows[paths.index("outer/hot")]
        assert hot_row[1] == 2                    # two calls aggregated
        assert hot_row[2] >= hot_row[3]           # total >= mean
        assert len(hot_spans(profile, top=1)) == 1    # top-N truncation
        text = format_hot_spans(profile, top=10)
        assert "hot spans" in text and "outer/hot" in text

    def test_hot_spans_empty(self):
        assert "no spans" in format_hot_spans(Profile())

    def test_summarize_renders_all_sections(self):
        text = summarize(self._sample(), title="sample")
        for needle in ("sample", "run", "step", "Counters", "Gauges",
                       "Histograms", "Events (1 total"):
            assert needle in text

    def test_summarize_empty_telemetry(self):
        assert "nothing profiled" in summarize(Profile())

    def test_write_jsonl_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        written = write_jsonl(self._sample(), path)
        lines = [json.loads(line) for line in
                 path.read_text().splitlines()]
        assert len(lines) == written
        kinds = {line["kind"] for line in lines}
        assert kinds == {"span", "counter", "gauge", "histogram", "event",
                         "cache"}


def _after_phases(text):
    """Everything after the Phases table: the deterministic sections."""
    return text[text.index("\nCounters\n"):]


def _seconds(cell):
    return float(cell[:-2]) / 1e3 if cell.endswith("ms") else float(cell[:-1])


class TestProfileCli:
    def test_profile_smoke(self, capsys, tmp_path):
        trace = tmp_path / "fig1.jsonl"
        rc = main(["profile", "fig1", "--trace", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        for needle in ("fig1", "Phases", "engine.run_sessions",
                       "sessions.completed", "tcp.segments_sent"):
            assert needle in out
        assert trace.exists() and trace.stat().st_size > 0

    def test_profile_unknown_experiment_rejected(self, capsys):
        rc = main(["profile", "fig99"])
        assert rc == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_profile_top_prints_hot_span_table(self, capsys):
        rc = main(["profile", "fig1", "--top", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hot spans (top" in out
        # flat paths, ranked: the root engine span must lead the table
        table = out[out.index("hot spans"):]
        assert "engine.run_sessions" in table.splitlines()[3]

    def test_profile_independent_of_who_filled_the_cache(self, capsys,
                                                        tmp_path,
                                                        monkeypatch):
        """A cold profile, a warm rerun, and a profile over a cache that
        ``repro experiment`` filled print the same deterministic
        sections, and no phase row outlasts the run."""
        monkeypatch.setitem(SCALES, "small", TINY)
        outs = []
        for argv in (["profile", "fig2", "--cache-dir", str(tmp_path / "a")],
                     ["profile", "fig2", "--cache-dir", str(tmp_path / "a")],
                     ["experiment", "fig2", "--cache-dir",
                      str(tmp_path / "b")],
                     ["profile", "fig2", "--cache-dir", str(tmp_path / "b")]):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        cold, warm, _experiment, foreign = outs
        assert "scale=tiny" in cold
        assert _after_phases(warm) == _after_phases(cold)
        assert _after_phases(foreign) == _after_phases(cold)
        assert "0 cache hits" in cold and "0 computed" in warm
        for out in (cold, warm, foreign):
            wall = float(re.search(r"wall=([0-9.]+)s", out).group(1))
            table = out[out.index("Phases"):out.index("\nCounters\n")]
            for row in table.splitlines()[3:]:
                if row.strip():
                    # rows print rounded; allow the title's rounding
                    assert _seconds(row.split()[2]) <= wall + 0.005, row
