"""Tests for the resume view of the run ledger: the write-ahead record
behind --resume and ``repro list``.

The ledger's settlement events (``done`` / ``retried`` / ``quarantined``,
keyed by the unit's cache key) fold last-status-wins into the per-unit
state a resumed campaign reports; ``retried`` reads as ``failed``.
"""

import json

from repro.runner import (
    RunLedger,
    campaign_fingerprint,
    list_campaigns,
    load_ledger,
)


KEY_A = "aa" + "0" * 38
KEY_B = "bb" + "0" * 38


class TestCampaignFingerprint:
    def test_stable_and_distinct(self):
        fp = campaign_fingerprint("fig2", "small", 1)
        assert fp == campaign_fingerprint("fig2", "small", 1)
        assert fp != campaign_fingerprint("fig2", "small", 2)
        assert fp != campaign_fingerprint("fig2", "full", 1)
        assert fp != campaign_fingerprint("fig3", "small", 1)
        assert len(fp) == 16
        int(fp, 16)


class TestCampaignJournal:
    def test_round_trip_with_meta_header(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunLedger(path, meta={"experiment": "fig2"}) as ledger:
            ledger.event("done", key=KEY_A)
            ledger.event("quarantined", key=KEY_B, error="boom", attempts=3)
        view = load_ledger(path)
        assert view.meta == {"experiment": "fig2"}
        assert view.units() == {KEY_A: "done", KEY_B: "quarantined"}
        [quarantined] = view.failures()
        assert quarantined["error"] == "boom"
        assert quarantined["attempts"] == 3
        assert view.unit_counts() == {"done": 1, "failed": 0,
                                      "quarantined": 1}
        with RunLedger(path) as reopened:
            assert reopened.units.get(KEY_A) == "done"
            assert reopened.units.get(KEY_B) == "quarantined"
            assert len(reopened.units) == 2

    def test_last_status_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunLedger(path) as ledger:
            ledger.event("retried", key=KEY_A, error="transient",
                         attempts=1)
            assert ledger.units.get(KEY_A) == "failed"
            ledger.event("done", key=KEY_A, attempts=2)
        with RunLedger(path) as loaded:
            assert loaded.units.get(KEY_A) == "done"
            assert loaded.unit_counts()["failed"] == 0

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunLedger(path) as ledger:
            ledger.event("done", key=KEY_A)
        # simulate a writer killed mid-append: a partial trailing line
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"seq": 1, "event": "done", "key": "' + KEY_B + '", "ts')
        with RunLedger(path) as loaded:
            assert loaded.units.get(KEY_A) == "done"
            assert loaded.units.get(KEY_B) is None
        # and the ledger stays appendable afterwards
        with RunLedger(path) as ledger:
            ledger.event("done", key=KEY_B)
        with RunLedger(path) as loaded:
            assert loaded.units.get(KEY_B) == "done"

    def test_done_is_idempotent_on_disk(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunLedger(path) as ledger:
            for _ in range(5):
                ledger.event("done", key=KEY_A)
        lines = [l for l in path.read_text().splitlines() if l]
        assert len(lines) == 2  # the header, then one settlement line
        # a resumed writer replaying the same unit adds nothing either
        with RunLedger(path) as ledger:
            ledger.event("done", key=KEY_A, cached=True)
        assert len([l for l in path.read_text().splitlines() if l]) == 2

    def test_status_of_unknown_key_is_none(self, tmp_path):
        with RunLedger(tmp_path / "j.jsonl") as ledger:
            assert ledger.units.get(KEY_A) is None

    def test_for_campaign_names_by_fingerprint(self, tmp_path):
        ledger = RunLedger.for_campaign(tmp_path, "fig2", "small", 1)
        ledger.close()
        fp = campaign_fingerprint("fig2", "small", 1)
        assert ledger.path.name == f"fig2-{fp}.jsonl"
        assert ledger.path.parent == tmp_path / "ledger"
        assert load_ledger(ledger.path).meta == {
            "experiment": "fig2", "scale": "small", "seed": 1}

    def test_for_campaign_resumes_then_fresh_discards(self, tmp_path):
        with RunLedger.for_campaign(tmp_path, "fig2", "small", 1) as j:
            j.event("done", key=KEY_A)
        with RunLedger.for_campaign(tmp_path, "fig2", "small", 1) as j:
            assert j.units.get(KEY_A) == "done"  # resumed
        with RunLedger.for_campaign(tmp_path, "fig2", "small", 1,
                                    fresh=True) as j:
            assert j.units.get(KEY_A) is None    # discarded
        # header rewritten
        assert load_ledger(j.path).meta["experiment"] == "fig2"

    def test_meta_header_is_first_line(self, tmp_path):
        with RunLedger.for_campaign(tmp_path, "fig2", "small", 1) as j:
            j.event("done", key=KEY_A)
        first = json.loads(j.path.read_text().splitlines()[0])
        assert first == {"schema": "repro-ledger/v1",
                         "meta": {"experiment": "fig2", "scale": "small",
                                  "seed": 1}}


class TestListJournals:
    def test_empty_root_lists_nothing(self, tmp_path):
        assert list_campaigns(tmp_path) == []
        assert list_campaigns(tmp_path / "missing") == []
        # a pre-ledger journal directory is not a campaign log
        (tmp_path / "journal").mkdir()
        (tmp_path / "journal" / "fig2-0123456789abcdef.jsonl").write_text(
            '{"meta": {"experiment": "fig2"}}\n')
        assert list_campaigns(tmp_path) == []

    def test_summaries_are_sorted_and_counted(self, tmp_path):
        with RunLedger.for_campaign(tmp_path, "fig3", "small", 0) as j:
            j.event("done", key=KEY_A)
            j.event("done", key=KEY_B)
        with RunLedger.for_campaign(tmp_path, "fig2", "small", 1) as j:
            j.event("done", key=KEY_A)
            j.event("quarantined", key=KEY_B, error="boom", attempts=3)
        summaries = list_campaigns(tmp_path)
        assert [s["experiment"] for s in summaries] == ["fig2", "fig3"]
        fig2, fig3 = summaries
        assert fig2["done"] == 1
        assert fig2["quarantined"] == 1
        assert fig2["seed"] == 1
        assert fig3["done"] == 2
        assert fig3["units"] == 2
