"""Benchmark: the session-execution engine itself.

Runs Table 1 — 16 independent sessions, the repository's canonical
multi-session campaign — three ways and compares wall-clock:

* serial, no cache (the pre-engine baseline),
* ``jobs=4`` against a cold cache (the fan-out path), and
* ``jobs=4`` against the now-warm cache (the memoization path).

All three must render byte-identical reports; that equality *is* the
engine's central guarantee.  The warm rerun must be far cheaper than any
cold run on every machine; the parallel cold run is only asserted faster
on hardware that can actually run 4 workers at once.
"""

import os
import time

from repro.analysis import format_table
from repro.experiments import get_experiment
from repro.runner import ResultCache, RunLedger, UnitCounts


def _timed(spec, scale, **options):
    ledger, counts = RunLedger(), UnitCounts()
    ledger.subscribe(counts)
    started = time.perf_counter()
    result = spec.run(scale, seed=0, ledger=ledger, **options)
    return time.perf_counter() - started, result.report(), counts


def test_bench_runner_speedup(benchmark, scale, show, tmp_path):
    spec = get_experiment("table1")
    cache = ResultCache(tmp_path / "cache")

    def campaign():
        serial = _timed(spec, scale, jobs=1)
        cold = _timed(spec, scale, jobs=4, cache=cache)
        warm = _timed(spec, scale, jobs=4, cache=cache)
        return serial, cold, warm

    (serial_s, serial_report, _), \
        (cold_s, cold_report, cold_stats), \
        (warm_s, warm_report, warm_stats) = benchmark.pedantic(
            campaign, rounds=1, iterations=1)

    show(format_table(
        ["Run", "Wall(s)", "Hits", "Misses", "Speedup vs serial"],
        [
            ("serial, no cache", f"{serial_s:.1f}", "-", "-", "1.0x"),
            ("jobs=4, cold cache", f"{cold_s:.1f}", cold_stats.cache_hits,
             cold_stats.misses, f"{serial_s / cold_s:.1f}x"),
            ("jobs=4, warm cache", f"{warm_s:.2f}", warm_stats.cache_hits,
             warm_stats.misses, f"{serial_s / warm_s:.1f}x"),
        ],
        title=f"table1 ({scale.name}) through the engine "
              f"[{os.cpu_count() or 1} cpus]",
    ))

    # The guarantee everything else rests on: identical output.
    assert cold_report == serial_report
    assert warm_report == serial_report
    # Cold run simulated everything; warm run simulated nothing.
    assert cold_stats.misses == cold_stats.total
    assert warm_stats.cache_hits == warm_stats.total
    # Memoization pays regardless of core count.
    assert warm_s < cold_s / 2
    # Fan-out pays when the hardware can actually parallelize.
    if (os.cpu_count() or 1) >= 4:
        assert cold_s < serial_s / 2, (
            f"jobs=4 cold ({cold_s:.1f}s) should be >=2x faster than "
            f"serial ({serial_s:.1f}s) on {os.cpu_count()} cpus"
        )
