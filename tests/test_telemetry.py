"""Tests for the telemetry/profiling layer.

Covers the three public guarantees — ``jobs=N`` telemetry identical to
``jobs=1`` (counters, histograms, events merge in plan order), the
disabled recorder costs nothing and records nothing, and report output
is byte-identical with recording on or off — plus the recorder/exporter
semantics and the ``repro profile`` CLI.
"""

import json

import pytest

from repro.cli import main
from repro.experiments import Scale, fig2
from repro.runner import engine_options
from repro.simnet import RESEARCH
from repro.streaming import Application, Container, Service, SessionConfig, run_session
from repro.telemetry import (
    NULL,
    EventRecord,
    HistogramSummary,
    NullRecorder,
    Recorder,
    aggregate_spans,
    current_recorder,
    recording,
    summarize,
    use_recorder,
    write_jsonl,
)
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


class TestRecorder:
    def test_default_recorder_is_disabled(self):
        rec = current_recorder()
        assert rec is NULL
        assert rec.enabled is False

    def test_null_recorder_accepts_everything_and_stays_empty(self):
        rec = NullRecorder()
        with rec.span("a"):
            rec.inc("c")
            rec.gauge("g", 1.0)
            rec.observe("h", 2.0)
            rec.event("e", t=0.0, k="v")
        assert rec.snapshot().empty

    def test_span_paths_nest(self):
        rec = Recorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
            with rec.span("inner"):
                pass
        # children close before the parent, depth via the path
        assert [s.path for s in rec.spans] == \
            ["outer/inner", "outer/inner", "outer"]
        assert all(s.duration >= 0 for s in rec.spans)

    def test_counters_gauges_histograms_events(self):
        rec = Recorder()
        rec.inc("c")
        rec.inc("c", 4)
        rec.gauge("g", 1.0)
        rec.gauge("g", 2.0)           # last write wins
        rec.observe("h", 1.0)
        rec.observe("h", 3.0)
        rec.event("e", t=1.5, reason="x")
        snap = rec.snapshot()
        assert snap.counters == {"c": 5}
        assert snap.gauges == {"g": 2.0}
        assert snap.histograms["h"].count == 2
        assert snap.histograms["h"].mean == 2.0
        assert snap.histograms["h"].min == 1.0
        assert snap.histograms["h"].max == 3.0
        assert snap.events == [EventRecord.make("e", t=1.5, reason="x")]

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
        rec = Recorder()
        rec.observe("h", 1.0)
        snap = rec.snapshot()
        rec.observe("h", 100.0)
        assert snap.histograms["h"].samples == [1.0]
        assert snap.histograms["h"].percentile(95) == 1.0

    def test_merge_adds_counters_and_reroots_spans(self):
        child = Recorder()
        with child.span("work"):
            child.inc("n", 2)
            child.event("e", t=0.5)
        parent = Recorder()
        with parent.span("batch"):
            parent.inc("n", 1)
            parent.merge(child.snapshot())
        assert parent.counters == {"n": 3}
        # merged span paths are re-rooted under the open parent span
        assert "batch/work" in [s.path for s in parent.spans]
        assert parent.events == [EventRecord.make("e", t=0.5)]

    def test_use_recorder_scopes_and_restores(self):
        rec = Recorder()
        with use_recorder(rec):
            assert current_recorder() is rec
            with use_recorder(NULL):
                assert current_recorder() is NULL
            assert current_recorder() is rec
        assert current_recorder() is NULL

    def test_recording_installs_a_fresh_recorder(self):
        with recording() as rec:
            assert current_recorder() is rec
            assert rec.enabled
        assert not current_recorder().enabled


class TestSessionTelemetry:
    def test_disabled_by_default_and_attaches_nothing(self):
        result = run_session(_video(), _config())
        assert result.telemetry is None

    def test_recording_attaches_a_snapshot(self):
        with recording():
            result = run_session(_video(), _config())
        snap = result.telemetry
        assert snap is not None
        assert snap.counters["sessions.completed"] == 1
        assert snap.counters["tcp.segments_sent"] > 0
        assert snap.counters["scheduler.events"] > 0
        assert snap.counters["player.requests"] >= 1
        paths = [s.path for s in snap.spans]
        for phase in ("session/setup", "session/stream",
                      "session/finalize", "session"):
            assert phase in paths
        names = [e.name for e in snap.events]
        assert names[0] == "session.start"
        assert names[-1] == "session.end"
        # ON-block boundaries: Flash short cycles mean many range requests
        assert names.count("player.request") == snap.counters["player.requests"]

    def test_tcp_counters_sum_every_connection(self, monkeypatch):
        """The folded TCP counters are sums of ``TcpStats`` over every
        connection the session created, closed ones included."""
        from repro.tcp import TcpConnection

        conns = []
        init = TcpConnection.__init__

        def tracked_init(conn, *args, **kwargs):
            init(conn, *args, **kwargs)
            conns.append(conn)

        monkeypatch.setattr(TcpConnection, "__init__", tracked_init)
        with recording():
            result = run_session(_video(), _config())
        counters = result.telemetry.counters
        assert len(conns) >= 2  # the client's and the server's ends
        assert counters["tcp.segments_sent"] == sum(
            c.stats.segments_sent for c in conns)
        assert counters["tcp.bytes_sent"] == sum(
            c.stats.bytes_sent for c in conns)

    def test_session_recorder_is_private(self):
        # a session must not leak its spans into the ambient recorder's
        # stack mid-flight; only the merged snapshot arrives
        with recording() as rec:
            run_session(_video(), _config())
            assert rec.current_path == ""

    def test_identical_telemetry_across_recorded_runs(self):
        with recording() as a:
            run_session(_video(), _config())
        with recording() as b:
            run_session(_video(), _config())
        assert a.counters == b.counters
        assert a.events == b.events
        assert {k: (h.count, h.total) for k, h in a.histograms.items()} == \
               {k: (h.count, h.total) for k, h in b.histograms.items()}


class TestEngineDeterminism:
    """jobs=N telemetry must equal jobs=1 telemetry exactly."""

    def test_jobs3_counters_and_events_match_jobs1(self):
        with recording() as serial:
            report1 = fig2.run(TINY, seed=0).report()
        with engine_options(jobs=3):
            with recording() as parallel:
                report3 = fig2.run(TINY, seed=0).report()
        assert report3 == report1
        assert parallel.counters == serial.counters
        assert parallel.events == serial.events
        assert {k: (h.count, h.total) for k, h in parallel.histograms.items()} \
            == {k: (h.count, h.total) for k, h in serial.histograms.items()}
        # merged session spans appear in plan order in both
        assert [s.path for s in parallel.spans if s.path.endswith("/session")] \
            == [s.path for s in serial.spans if s.path.endswith("/session")]

    def test_report_identical_with_telemetry_on_or_off(self):
        plain = fig2.run(TINY, seed=0).report()
        with recording():
            recorded = fig2.run(TINY, seed=0).report()
        assert recorded == plain

    def test_cache_round_trip_with_and_without_recording(self, tmp_path):
        # entries written with recording on replay correctly with it off,
        # and vice versa
        with engine_options(cache=tmp_path):
            with recording() as cold:
                first = fig2.run(TINY, seed=0).report()
            second = fig2.run(TINY, seed=0).report()
            with recording() as warm:
                third = fig2.run(TINY, seed=0).report()
        assert first == second == third
        assert cold.counters["engine.cache_misses"] > 0
        assert warm.counters["engine.cache_hits"] == \
            cold.counters["engine.cache_misses"]


class TestExporters:
    def _sample(self):
        rec = Recorder()
        with rec.span("run"):
            with rec.span("step"):
                rec.inc("n", 2)
                rec.observe("h", 1.5)
                rec.event("e", t=0.1, what="x")
        return rec

    def test_aggregate_spans_tree_order(self):
        rec = self._sample()
        rows = aggregate_spans(rec.spans)
        assert [(path, calls) for path, calls, _ in rows] == \
            [("run", 1), ("run/step", 1)]

    def test_aggregate_spans_materializes_missing_parents(self):
        rec = Recorder()
        with rec.span("a"):
            with rec.span("b"):
                pass
        # drop the root record: the parent must still appear as a node
        rows = aggregate_spans([s for s in rec.spans if s.path != "a"])
        assert [path for path, _, _ in rows] == ["a", "a/b"]

    def test_hot_spans_ranks_by_cumulative_time(self):
        from repro.telemetry import format_hot_spans, hot_spans

        rec = Recorder()
        with rec.span("outer"):
            with rec.span("hot"):
                pass
            with rec.span("hot"):
                pass
        rows = hot_spans(rec, top=10)
        # flat ranking by total descending; outer's wall time dominates
        assert rows[0][0] == "outer"
        paths = [path for path, _, _, _ in rows]
        assert "outer/hot" in paths
        hot_row = rows[paths.index("outer/hot")]
        assert hot_row[1] == 2                    # two calls aggregated
        assert hot_row[2] >= hot_row[3]           # total >= mean
        assert len(hot_spans(rec, top=1)) == 1    # top-N truncation
        text = format_hot_spans(rec, top=10)
        assert "hot spans" in text and "outer/hot" in text

    def test_hot_spans_empty(self):
        from repro.telemetry import format_hot_spans

        assert "no spans" in format_hot_spans(NULL.snapshot())

    def test_summarize_renders_all_sections(self):
        text = summarize(self._sample(), title="sample")
        for needle in ("sample", "run", "step", "n", "h", "e"):
            assert needle in text

    def test_summarize_empty_telemetry(self):
        assert "no telemetry" in summarize(NULL.snapshot())

    def test_write_jsonl_round_trips(self, tmp_path):
        rec = self._sample()
        path = tmp_path / "trace.jsonl"
        written = write_jsonl(rec, path)
        lines = [json.loads(line) for line in
                 path.read_text().splitlines()]
        assert len(lines) == written
        kinds = {line["kind"] for line in lines}
        assert kinds == {"span", "counter", "histogram", "event"}


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
