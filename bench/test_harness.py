"""Tests of the benchmark harness: ``python -m pytest bench -q``.

They run the quick sizes (2 experiments, 4 sessions, 20k Monte-Carlo
sessions per strategy) and check the output contract and the output
checks, never performance.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import agree
import run
import speed

SPEC = run.load_spec()


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_reported(workload, trace, capsys):
    code = run.main(["--workload", workload, "--quick", "--seconds", "1",
                     "--trace", str(trace)])
    result = last_json(capsys)
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == {m["name"]: m["unit"]
                                           for m in wanted}
    if trace:
        if workload == "session_grid":
            shares = [metric["value"] for name, metric in
                      result["metrics"].items()
                      if name.startswith("self_share.")]
            assert sum(shares) == pytest.approx(100.0, abs=5.0)
        assert result["metrics"]["trace_overhead"]["value"] > 0
    else:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_tampered_pin_fails(monkeypatch, capsys):
    pins = run.load_pins()
    pins["quick"]["session_grid"] = "0" * 16
    monkeypatch.setattr(run, "load_pins", lambda: pins)
    code = run.main(["--workload", "session_grid", "--quick",
                     "--seconds", "1"])
    assert code == 1 and last_json(capsys)["correct"] is False


def test_pins_bind_seed_zero_only(monkeypatch, capsys):
    pins = run.load_pins()
    pins["quick"]["session_grid"] = "0" * 16
    monkeypatch.setattr(run, "load_pins", lambda: pins)
    code = run.main(["--workload", "session_grid", "--quick",
                     "--seconds", "1", "--seed", "1"])
    assert code == 0 and last_json(capsys)["correct"] is True


def test_tampered_aggregate_fails(monkeypatch, capsys):
    # seed 1 has no pin: only the cross-transport comparison can notice
    original = run.read_agg

    def tampered(path):
        data = original(path)
        return data + b"\n" if path.name.startswith("agg-cross") else data

    monkeypatch.setattr(run, "read_agg", tampered)
    code = run.main(["--workload", "mc_sharded", "--quick", "--seconds", "1",
                     "--seed", "1"])
    assert code == 1 and last_json(capsys)["correct"] is False


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "session_grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_reference_seconds_follow_the_readings():
    # the host runs the kernel at half speed until t=5, then at full speed
    readings = [(t / 10, speed.REFERENCE_S * (2 if t < 50 else 1))
                for t in range(100)]
    assert speed.reference_seconds(1.0, 3.0, readings) == pytest.approx(1.0)
    assert speed.reference_seconds(6.0, 8.0, readings) == pytest.approx(2.0)
    # too short for its own readings: scaled by the nearest ones
    assert speed.reference_seconds(2.0, 2.01, readings) == \
        pytest.approx(0.005)


def _results(path, workload, walls):
    with open(path, "w", encoding="utf-8") as f:
        for wall in walls:
            f.write(json.dumps({
                "workload": workload, "trace": 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}) + "\n")


def test_agree_flags_a_median_beyond_its_bound(tmp_path):
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["wall_s"]
    a, b, c, d = (tmp_path / name for name in "abcd")
    _results(a, "session_grid", [10.0, 10.1, 9.9, 10.0, 10.2])
    _results(b, "session_grid", [10.1, 10.0, 9.9, 10.2, 10.0])
    _results(c, "session_grid", [10.0 * (1 + 2 * bound)] * 5)
    _results(d, "session_grid", [10.1, 10.0, 9.9, 10.2])
    assert agree.main([str(a), str(b)]) == 0
    assert agree.main([str(a), str(c)]) == 1
    assert agree.main([str(a), str(d)]) == 1  # fewer than five runs
