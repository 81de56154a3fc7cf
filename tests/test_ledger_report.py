"""Tests for the run ledger and ``repro report`` rendering.

Half synthetic (a hand-built event stream exercises every loader and
renderer path: torn lines, schema checks, resume sequencing, worker
folding), half end-to-end: the acceptance test runs a real 4-shard
campaign with ``--health`` and renders the complete report from the
ledger it left behind.
"""

import json

import pytest

from repro.cli import main
from repro.obs import (
    LEDGER_SCHEMA,
    LedgerView,
    RunLedger,
    ledger_path,
    load_ledger,
    render_html,
    render_report,
    write_report,
)
from repro.runner import UnitCounts


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt
        return self.now


def _write_campaign(path, clock=None):
    """A small, fully-populated campaign ledger (two workers, one of
    everything the report renders)."""
    clock = clock or FakeClock()
    ledger = RunLedger(path, meta={"experiment": "fig9", "scale": "small",
                                   "seed": 3}, clock=clock)
    ledger.event("campaign-started", experiment="fig9", jobs=2)
    ledger.event("scheduled", units=3, cache_hits=1)
    ledger.event("started", unit=0, label="u0", worker="w0")
    ledger.event("started", unit=1, label="u1", worker="w1")
    clock.advance(2.0)
    ledger.event("done", unit=0, worker="w0", latency_s=2.0)
    ledger.event("retried", unit=1, label="u1", worker="w1",
                 kind="crash", error="exit 9", attempts=1)
    ledger.event("suspect", kind="worker-lost", worker="w1", pid=77,
                 unit=1, age_s=0.4, detail="crash: exit 9")
    ledger.event("started", unit=1, label="u1", worker="w1")
    clock.advance(1.0)
    ledger.event("done", unit=1, worker="w1", latency_s=1.0)
    ledger.event("heartbeat-summary", parent_rss_kb=9000, workers=[
        {"worker": "w0", "pid": 50, "beats": 4, "rss_kb": 2048},
        {"worker": "w1", "pid": 77, "beats": 3, "rss_kb": 4096},
    ])
    ledger.event("merged", campaign="fig9", shard=0, of=2, units=2)
    ledger.event("campaign-finished", experiment="fig9", elapsed_s=3.0)
    ledger.close()
    return path


class TestRunLedger:
    def test_roundtrip_header_events_and_counts(self, tmp_path):
        path = _write_campaign(tmp_path / "run.jsonl")
        view = load_ledger(path)
        assert view.schema == LEDGER_SCHEMA
        assert view.meta == {"experiment": "fig9", "scale": "small",
                             "seed": 3}
        counts = view.counts()
        assert counts["started"] == 3
        assert counts["done"] == 2
        assert counts["retried"] == 1
        counts = UnitCounts()
        for event in view.events:
            counts.fold(event)
        assert counts.total == 3
        assert counts.cache_hits == 1
        assert view.unit_latencies() == [2.0, 1.0]
        assert [e["seq"] for e in view.events] == list(range(len(view.events)))

    def test_none_fields_are_dropped(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl")
        ledger.event("started", unit=0, key=None, worker="w0")
        ledger.close()
        line = (tmp_path / "run.jsonl").read_text().splitlines()[1]
        record = json.loads(line)
        assert "key" not in record
        assert record["worker"] == "w0"

    def test_loader_tolerates_torn_final_line(self, tmp_path):
        path = _write_campaign(tmp_path / "run.jsonl")
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"seq": 99, "ts": 123.0, "event": "do')  # the kill
        view = load_ledger(path)
        assert all(e["seq"] != 99 for e in view.events)
        assert view.counts()["done"] == 2

    def test_resume_terminates_torn_line_and_continues_seq(self, tmp_path):
        path = _write_campaign(tmp_path / "run.jsonl")
        last_seq = load_ledger(path).events[-1]["seq"]
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"torn')
        resumed = RunLedger(path)                 # fresh=False: append
        resumed.event("scheduled", units=1, cache_hits=1)
        resumed.close()
        view = load_ledger(path)
        assert view.events[-1]["event"] == "scheduled"
        assert view.events[-1]["seq"] == last_seq + 1
        counts = UnitCounts()
        for event in view.events:
            counts.fold(event)
        assert counts.total == 4

    def test_fresh_discards_previous_log(self, tmp_path):
        path = _write_campaign(tmp_path / "run.jsonl")
        ledger = RunLedger(path, meta={"experiment": "fig9"}, fresh=True)
        ledger.event("scheduled", units=1, cache_hits=0)
        ledger.close()
        view = load_ledger(path)
        assert view.counts() == {"scheduled": 1}
        assert view.events[0]["seq"] == 0

    def test_schema_mismatch_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "repro-ledger/v99", "meta": {}}\n')
        with pytest.raises(ValueError, match="repro-ledger/v99"):
            load_ledger(path)

    def test_for_campaign_names_by_fingerprint(self, tmp_path):
        ledger = RunLedger.for_campaign(tmp_path, "fig9", "small", 3)
        ledger.close()
        expected = ledger_path(tmp_path, "fig9", "small", 3)
        assert ledger.path == expected
        assert expected.exists()
        assert expected.parent.name == "ledger"
        # a different seed lands in a different file
        assert ledger_path(tmp_path, "fig9", "small", 4) != expected

    def test_workers_folds_unit_and_summary_events(self, tmp_path):
        view = load_ledger(_write_campaign(tmp_path / "run.jsonl"))
        workers = view.workers()
        assert set(workers) == {"w0", "w1"}
        assert workers["w0"]["done"] == 1
        assert workers["w0"]["busy_s"] == pytest.approx(2.0)
        assert workers["w0"]["pids"] == [50]
        assert workers["w0"]["rss_kb"] == 2048
        assert workers["w1"]["retried"] == 1
        assert workers["w1"]["suspicions"] == 1
        assert workers["w1"]["beats"] == 3


class TestRenderReport:
    def _view(self, tmp_path):
        return load_ledger(_write_campaign(tmp_path / "run.jsonl"))

    def test_contains_every_section(self, tmp_path):
        markdown = render_report(self._view(tmp_path))
        assert markdown.startswith("# Campaign report — fig9")
        for section in ("## Timeline", "## Workers", "## Unit latencies",
                        "## Failures", "## Health suspicions"):
            assert section in markdown
        assert "- Units: 3 scheduled (1 cache hits), 2 done, 1 retried" \
            in markdown
        assert "- Shards merged: 1" in markdown
        assert "| w1 |" in markdown
        assert "exit 9" in markdown

    def test_empty_ledger_renders_without_crashing(self, tmp_path):
        markdown = render_report(LedgerView(LEDGER_SCHEMA, {}, []))
        assert "(empty ledger)" in markdown

    def test_html_wraps_tables_and_escapes(self, tmp_path):
        markdown = render_report(self._view(tmp_path))
        html_doc = render_html(markdown, title='report <&> "x"')
        assert html_doc.startswith("<!DOCTYPE html>")
        assert "<table>" in html_doc and "<th>" in html_doc
        assert "report &lt;&amp;&gt;" in html_doc
        assert "<script" not in html_doc

    def test_write_report_dispatches_on_suffix(self, tmp_path):
        view = self._view(tmp_path)
        md_path = tmp_path / "out.md"
        html_path = tmp_path / "out.html"
        returned = write_report(view, md_path)
        assert md_path.read_text() == returned
        write_report(view, html_path)
        assert html_path.read_text().startswith("<!DOCTYPE html>")


class TestReportCli:
    def test_four_shard_campaign_reports_complete(self, tmp_path, capsys):
        """Acceptance: a sharded --health campaign leaves a ledger that
        `repro report` renders into a complete report."""
        cache = tmp_path / "cache"
        code = main(["experiment", "model_validation", "--scale", "small",
                     "--sessions", "8", "--shards", "4", "--jobs", "2",
                     "--cache-dir", str(cache), "--health"])
        assert code == 0
        capsys.readouterr()

        code = main(["report", "model_validation", "--cache-dir",
                     str(cache)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("# Campaign report — model_validation")
        assert "## Timeline" in out
        assert "## Workers" in out
        assert "## Unit latencies" in out
        # 3 strategy campaigns × 4 shards each
        assert "- Shards merged: 12" in out
        assert "| w0 |" in out

    def test_merged_events_do_not_depend_on_export_flags(self, tmp_path,
                                                         capsys):
        """A sharded campaign ledgers one `merged` event per shard in
        plan order, whether or not `--aggregate` asked for an export."""
        cache = tmp_path / "cache"
        argv = ["experiment", "model_validation", "--scale", "small",
                "--sessions", "8", "--shards", "2", "--cache-dir",
                str(cache)]
        merged = []
        for extra in ([], ["--aggregate", str(tmp_path / "agg.csv")]):
            assert main(argv + extra) == 0
            view = load_ledger(ledger_path(cache, "model_validation",
                                           "small", 0))
            merged.append([(e["campaign"], e["shard"], e["of"])
                           for e in view.events
                           if e["event"] == "merged"])
        capsys.readouterr()
        # 3 strategy campaigns × 2 shards each
        assert len(merged[0]) == 6
        assert merged[0] == merged[1]
        assert merged[0][:2] == [("model_validation:No ON-OFF", 0, 2),
                                 ("model_validation:No ON-OFF", 1, 2)]

    def test_cached_campaign_reports_without_health(self, tmp_path, capsys):
        """Every cached campaign writes the one log: `repro report`
        renders a run without --health, with exactly one non-cached
        `done` per simulated unit; a warm rerun replays them as hits."""
        cache = tmp_path / "cache"
        argv = ["experiment", "fig2", "--scale", "small", "--seed", "1",
                "--cache-dir", str(cache)]
        report = ["report", "fig2", "--seed", "1", "--cache-dir",
                  str(cache)]
        assert main(argv) == 0
        capsys.readouterr()
        view = load_ledger(ledger_path(cache, "fig2", "small", 1))
        done = [e for e in view.events if e["event"] == "done"]
        assert len(done) == 2  # fig2 simulates two units
        assert not any(e.get("cached") for e in done)
        assert len({e["key"] for e in done}) == 2
        assert main(report) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Campaign report — fig2")
        assert ("- Units: 2 scheduled (0 cache hits), 2 done, 0 retried, "
                "0 quarantined") in out

        assert main(argv) == 0  # warm: a fresh log of two replays
        capsys.readouterr()
        assert main(report) == 0
        out = capsys.readouterr().out
        assert ("- Units: 2 scheduled (2 cache hits), 0 done, 0 retried, "
                "0 quarantined") in out
        assert "| done (cached) | 2 |" in out

    def test_inline_units_report_latency(self, tmp_path, capsys):
        """A `--jobs 1` campaign runs its units inline; each computed
        unit's `done` still carries its latency, so `repro report` has
        a unit-latency table for it."""
        cache = tmp_path / "cache"
        assert main(["experiment", "fig2", "--scale", "small", "--jobs",
                     "1", "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        view = load_ledger(ledger_path(cache, "fig2", "small", 0))
        latencies = view.unit_latencies()
        assert len(latencies) == 2  # one per computed fig2 unit
        assert all(latency > 0 for latency in latencies)
        assert main(["report", "fig2", "--cache-dir", str(cache)]) == 0
        assert "## Unit latencies" in capsys.readouterr().out

    def test_report_out_renders_html(self, tmp_path, capsys):
        view_path = _write_campaign(tmp_path / "run.jsonl")
        out = tmp_path / "report.html"
        code = main(["report", "--ledger", str(view_path),
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("<!DOCTYPE html>")
        assert "report written" in capsys.readouterr().out

    def test_report_without_ledger_or_cache_fails_cleanly(self, capsys,
                                                          monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        code = main(["report", "fig2"])
        assert code == 2
        assert "cache dir" in capsys.readouterr().err

    def test_report_missing_ledger_fails_cleanly(self, tmp_path, capsys):
        code = main(["report", "fig2", "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "repro report:" in capsys.readouterr().err
