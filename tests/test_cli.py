"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_list_prints_inventory(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "Research" in out
        assert "firefox" in out

    def test_list_json_emits_registry(self, capsys):
        import json

        from repro.experiments import REGISTRY

        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in payload] == list(REGISTRY)
        for entry in payload:
            assert set(entry) == {"name", "title", "paper", "tags"}
            assert isinstance(entry["tags"], list)

    def test_list_with_cache_dir_shows_campaign_journals(self, capsys,
                                                         tmp_path):
        from repro.runner import RunLedger

        with RunLedger.for_campaign(tmp_path, "fig2", "small", 1) as j:
            j.event("done", key="aa" + "0" * 38)
            j.event("quarantined", key="bb" + "0" * 38, error="boom",
                    attempts=3)
        assert main(["list", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Campaign journals" in out
        assert "fig2" in out
        assert "Quarantined" in out

    def test_list_with_empty_cache_dir_says_none(self, capsys, tmp_path):
        assert main(["list", "--cache-dir", str(tmp_path)]) == 0
        assert "campaign journals: none" in capsys.readouterr().out

    def test_list_json_with_cache_dir_adds_campaigns(self, capsys,
                                                     tmp_path):
        import json

        from repro.runner import RunLedger

        with RunLedger.for_campaign(tmp_path, "fig3", "small", 0) as j:
            j.event("done", key="aa" + "0" * 38)
        assert main(["list", "--json", "--cache-dir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"experiments", "campaigns"}
        assert payload["campaigns"][0]["experiment"] == "fig3"
        assert payload["campaigns"][0]["done"] == 1


class TestStream:
    def test_flash_session(self, capsys):
        code = main([
            "stream", "--network", "Research", "--application", "firefox",
            "--container", "flash", "--rate-mbps", "1.0",
            "--duration", "300", "--capture", "60",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "strategy         : Short" in out
        assert "accumulation" in out

    def test_html5_chrome_session(self, capsys):
        code = main([
            "stream", "--application", "chrome", "--container", "html5",
            "--rate-mbps", "2.0", "--duration", "200", "--capture", "90",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "strategy" in out

    def test_netflix_session(self, capsys):
        code = main([
            "stream", "--service", "netflix", "--network", "Academic",
            "--duration", "2400", "--capture", "60",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Netflix" in out
        assert "connection(s)" in out

    def test_interrupted_session_reports_waste(self, capsys):
        code = main([
            "stream", "--application", "firefox", "--container", "html5",
            "--rate-mbps", "1.0", "--duration", "300", "--capture", "120",
            "--watch-fraction", "0.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "interrupted at" in out
        assert "wasted" in out

    def test_pcap_output_and_analyze_round_trip(self, capsys, tmp_path):
        pcap = str(tmp_path / "session.pcap")
        assert main([
            "stream", "--container", "flash", "--rate-mbps", "0.8",
            "--duration", "240", "--capture", "45", "--pcap", pcap,
        ]) == 0
        capsys.readouterr()
        assert main(["analyze", pcap, "--duration", "240"]) == 0
        out = capsys.readouterr().out
        assert "strategy         : Short" in out
        assert "flv-header" in out


class TestExperimentCommand:
    def test_model_validation_runs(self, capsys):
        assert main(["experiment", "model_validation"]) == 0
        out = capsys.readouterr().out
        assert "53.3" in out

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_network_raises(self):
        with pytest.raises(KeyError):
            main(["stream", "--network", "Atlantis"])
