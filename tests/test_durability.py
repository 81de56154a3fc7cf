"""End-to-end durability tests: chaos injection, kill + resume, degradation.

The property under test is the acceptance criterion for the durability
layer: a campaign killed at a random point and resumed with
``--resume`` produces byte-identical exports to an uninterrupted
``jobs=1`` run, re-simulating only the units the kill lost.  Kills are
real (``os._exit`` via the ``$REPRO_CHAOS`` hooks), so those runs
execute in a subprocess; the engine-level degradation tests run
in-process.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import CampaignCollector
from repro.runner import (
    CampaignAborted,
    FailedUnit,
    ResultCache,
    RetryBudget,
    SupervisionPolicy,
    RunLedger,
    UnitCounts,
    engine_options,
    list_campaigns,
    load_ledger,
    run_sessions,
)
from repro.simnet import RESEARCH
from repro.streaming import (
    Application,
    Container,
    Service,
    SessionConfig,
)
from repro.workloads import MBPS, Video

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _video(n=0):
    return Video(video_id=f"v-dur-{n}", duration=300.0,
                 encoding_rate_bps=MBPS, resolution="360p", container="flv")


def _config(seed=3):
    return SessionConfig(profile=RESEARCH, service=Service.YOUTUBE,
                         application=Application.FIREFOX,
                         container=Container.FLASH,
                         capture_duration=45.0, seed=seed)


def _plans(n=3):
    return [(_video(i), _config(seed=i)) for i in range(n)]


def _mixed_plans(n_clean=2, n_poisoned=1, rate=0.5):
    """Plans with a known chaos fate: ``n_clean`` unselected at ``rate``
    followed by ``n_poisoned`` selected ones.

    Chaos selects units by hashing their cache key, which embeds the
    code version — so *which* seed is selected shifts with every source
    edit.  Evaluating the predicate here keeps the tests deterministic
    at any code version.
    """
    from repro.runner.fingerprint import plan_fingerprint
    from repro.runner.supervise import _chaos_selected

    clean, poisoned = [], []
    for i in range(256):
        plan = (_video(i), _config(seed=i))
        if _chaos_selected(plan_fingerprint(*plan), rate):
            poisoned.append(plan)
        else:
            clean.append(plan)
        if len(clean) >= n_clean and len(poisoned) >= n_poisoned:
            break
    return clean[:n_clean] + poisoned[:n_poisoned]


def _cli(args, tmp_path, chaos=None, chaos_dir=None):
    """Run the repro CLI in a subprocess with optional chaos injection."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_CHAOS", None)
    env.pop("REPRO_CHAOS_DIR", None)
    if chaos is not None:
        env["REPRO_CHAOS"] = chaos
        env["REPRO_CHAOS_DIR"] = str(chaos_dir or tmp_path / "chaos")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=env, cwd=str(tmp_path), capture_output=True, text=True,
        timeout=600)


EXPERIMENT = ["experiment", "fig2", "--scale", "small", "--seed", "1",
              "--jobs", "1"]

#: One quarantined fig2 unit in the CLI's failure block.  The poisoned
#: key's prefix is a regex: plan keys embed the code version, so it
#: moves with every source edit.
_QUARANTINE_ROW = (r"  \[exception\] {video} seed=1 after 2 attempt\(s\): "
                   r"ChaosError: poison unit [0-9a-f]{{12}}")


class TestKillAndResume:
    def test_killed_campaign_resumes_byte_identical(self, tmp_path):
        # reference: one uninterrupted jobs=1 run, no cache
        clean = _cli([*EXPERIMENT, "--flows", "clean.jsonl",
                      "--metrics", "clean-metrics.jsonl"], tmp_path)
        assert clean.returncode == 0, clean.stderr

        # the same campaign, killed after 1 completed unit
        killed = _cli([*EXPERIMENT, "--cache-dir", "cache"], tmp_path,
                      chaos="kill-after:1")
        assert killed.returncode == 130, killed.stderr

        # the ledger recorded what the kill did not lose
        campaigns = list_campaigns(tmp_path / "cache")
        assert len(campaigns) == 1
        done_before_resume = campaigns[0]["done"]
        assert done_before_resume >= 1

        # resume: finishes, re-simulates only the lost units
        resumed = _cli([*EXPERIMENT, "--cache-dir", "cache", "--resume",
                        "--flows", "resumed.jsonl",
                        "--metrics", "resumed-metrics.jsonl"], tmp_path)
        assert resumed.returncode == 0, resumed.stderr
        assert f"journal has {done_before_resume} done" in resumed.stderr
        engine_line = [l for l in resumed.stdout.splitlines()
                       if l.startswith("engine fig2")][0]
        assert f"hits {done_before_resume}" in engine_line

        # the property: byte-identical exports, as if never killed
        for name in ("clean.jsonl", "resumed.jsonl"):
            assert (tmp_path / name).exists()
        assert ((tmp_path / "clean.jsonl").read_bytes()
                == (tmp_path / "resumed.jsonl").read_bytes())
        assert ((tmp_path / "clean-metrics.jsonl").read_bytes()
                == (tmp_path / "resumed-metrics.jsonl").read_bytes())

    def test_resume_without_cache_is_a_usage_error(self, tmp_path):
        result = _cli([*EXPERIMENT, "--resume"], tmp_path)
        assert result.returncode == 2
        assert "--resume" in result.stderr

    def test_crash_chaos_retries_transparently(self, tmp_path):
        clean = _cli([*EXPERIMENT, "--flows", "clean.jsonl"], tmp_path)
        assert clean.returncode == 0, clean.stderr
        # every unit's worker crashes once; supervision retries it
        crashed = _cli([*EXPERIMENT, "--max-attempts", "2",
                        "--flows", "crashed.jsonl"], tmp_path,
                       chaos="crash:1.0")
        assert crashed.returncode == 0, crashed.stderr
        assert ((tmp_path / "clean.jsonl").read_bytes()
                == (tmp_path / "crashed.jsonl").read_bytes())

    def test_poison_chaos_degrades_with_exit_code_3(self, tmp_path):
        result = _cli([*EXPERIMENT, "--max-attempts", "2", "--degrade",
                       "--failures", "failures.jsonl"], tmp_path,
                      chaos="poison:1.0")
        assert result.returncode == 3, result.stderr
        lines = result.stdout.splitlines()
        block = lines.index("2 unit(s) quarantined (2 retries spent):")
        for row, video in zip(lines[block + 1:block + 3],
                              ("fig2-flash", "fig2-html5")):
            assert re.fullmatch(_QUARANTINE_ROW.format(video=video), row), row
        assert ("engine fig2: 2 units, hits 0, re-simulated 2, retries 2, "
                "failed 2") in lines
        failures = (tmp_path / "failures.jsonl").read_text().splitlines()
        assert len(failures) == 2  # fig2 runs two units
        assert all('"kind": "exception"' in line for line in failures)

    def test_poison_chaos_aborts_by_default(self, tmp_path):
        result = _cli([*EXPERIMENT, "--max-attempts", "2"], tmp_path,
                      chaos="poison:1.0")
        assert result.returncode == 1
        lines = result.stdout.splitlines()
        block = lines.index("fig2: campaign aborted — 2 unit(s) "
                            "quarantined (2 retries spent):")
        for row, video in zip(lines[block + 1:block + 3],
                              ("fig2-flash", "fig2-html5")):
            assert re.fullmatch(_QUARANTINE_ROW.format(video=video), row), row


class TestEngineDurability:
    """In-process: supervision/ledger/quarantine through run_sessions."""

    def _run(self, tmp_path, *, chaos=None, monkeypatch=None, plans=None,
             ledger=None, **opts):
        if chaos is not None:
            monkeypatch.setenv("REPRO_CHAOS", chaos)
            monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path / "chaos"))
        ledger = RunLedger() if ledger is None else ledger
        counts = UnitCounts()
        ledger.subscribe(counts)
        with engine_options(ledger=ledger, **opts):
            results = run_sessions(plans if plans is not None else _plans())
        return results, counts

    def test_supervised_run_matches_plain_run(self, tmp_path):
        plain, _ = self._run(tmp_path)
        policy = SupervisionPolicy(retry=RetryBudget(backoff_base=0.0))
        supervised, _ = self._run(tmp_path, supervision=policy, jobs=2)
        assert [r.records for r in supervised] == [r.records for r in plain]

    def test_journal_records_done_units(self, tmp_path):
        ledger = RunLedger(tmp_path / "j.jsonl")
        try:
            self._run(tmp_path, ledger=ledger)
            assert ledger.unit_counts() == {"done": 3, "failed": 0,
                                            "quarantined": 0}
        finally:
            ledger.close()

    def test_cache_hits_are_journaled_too(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        self._run(tmp_path, cache=cache)
        ledger = RunLedger(tmp_path / "j.jsonl")
        try:
            _, counts = self._run(tmp_path, cache=cache, ledger=ledger)
            assert counts.cache_hits == 3
            assert ledger.unit_counts()["done"] == 3
        finally:
            ledger.close()
        # replays are marked as such, so reports never count them as work
        assert load_ledger(ledger.path).counts()["done (cached)"] == 3

    def test_poison_aborts_after_persisting_completed_units(
            self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        ledger = RunLedger(tmp_path / "j.jsonl")
        policy = SupervisionPolicy(
            retry=RetryBudget(max_attempts=2, backoff_base=0.0))
        tally = UnitCounts()
        ledger.subscribe(tally)
        plans = _mixed_plans(n_clean=2, n_poisoned=1)
        try:
            with pytest.raises(CampaignAborted) as excinfo:
                self._run(tmp_path, chaos="poison:0.5",
                          monkeypatch=monkeypatch, plans=plans, cache=cache,
                          ledger=ledger, supervision=policy)
            counts = ledger.unit_counts()
            # abort happens *after* the batch: completed units are in the
            # cache and ledger, quarantined ones attributed
            assert counts["quarantined"] == 1
            assert counts["done"] == 2
            assert len(cache) == 2
            assert [f.index for f in excinfo.value.failures] == [2]
            assert tally.failed == 1
            assert tally.quarantined[0]["key"] == excinfo.value.failures[0].key
        finally:
            ledger.close()

    def test_degrade_returns_placeholders_in_plan_order(
            self, tmp_path, monkeypatch):
        policy = SupervisionPolicy(
            retry=RetryBudget(max_attempts=2, backoff_base=0.0),
            degrade=True)
        results, counts = self._run(tmp_path, chaos="poison:0.5",
                                    monkeypatch=monkeypatch,
                                    plans=_mixed_plans(n_clean=2,
                                                       n_poisoned=1),
                                    supervision=policy)
        assert len(results) == 3
        placeholders = [i for i, r in enumerate(results)
                        if isinstance(r, FailedUnit)]
        assert placeholders == [2]  # the poisoned plan, in its slot
        assert counts.failed == 1
        assert [r["unit"] for r in counts.quarantined] == placeholders

    def test_collector_exports_failures(self, tmp_path, monkeypatch):
        collector = CampaignCollector()
        ledger = RunLedger()
        ledger.subscribe(collector)
        policy = SupervisionPolicy(
            retry=RetryBudget(max_attempts=2, backoff_base=0.0),
            degrade=True)
        self._run(tmp_path, chaos="poison:0.5", monkeypatch=monkeypatch,
                  plans=_mixed_plans(n_clean=2, n_poisoned=1),
                  supervision=policy, ledger=ledger)
        assert len(collector.failures) == 1  # the quarantine reached it
        path = tmp_path / "failures.jsonl"
        n = collector.write_failures(path)
        assert n == 1
        assert path.exists()
        # only final quarantines are exported, and sessions exclude them
        assert all(f.final for f in collector.failures)
        assert len(collector.sessions) == 2
