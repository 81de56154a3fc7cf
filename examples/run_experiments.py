#!/usr/bin/env python3
"""Run paper experiments through the registry API.

The experiment registry (`repro.experiments.REGISTRY`) describes every
table/figure reproduction as an `ExperimentSpec` — CLI name, human title,
paper reference, tags — and `spec.run()` executes it through the session
engine, which fans independent sessions out over a worker pool and
memoizes completed results in a content-addressed cache.  This example:

1. lists the registry, grouped by tag;
2. runs the Netflix-tagged figures at a tiny scale with `jobs=2` and an
   on-disk cache;
3. runs them again to show the rerun is served from the cache
   (identical reports, zero sessions simulated).

Run:  python examples/run_experiments.py
"""

import tempfile
import time

from repro.experiments import REGISTRY, Scale, iter_experiments
from repro.runner import RunLedger, UnitCounts

#: Keep the demo snappy: one session per cell, short captures.
TINY = Scale(name="tiny", sessions_per_cell=1, capture_duration=60.0,
             catalog_scale=0.02, mc_horizon=2000.0)


def main() -> None:
    print(f"{len(REGISTRY)} experiments registered:\n")
    for spec in iter_experiments():
        tags = ", ".join(spec.tags)
        print(f"  {spec.name:<20} {spec.paper:<14} {spec.title}  [{tags}]")

    chosen = [spec for spec in iter_experiments() if "netflix" in spec.tags]
    print(f"\nRunning {', '.join(s.name for s in chosen)} "
          f"(tag 'netflix') at tiny scale with jobs=2 ...\n")

    with tempfile.TemporaryDirectory() as cache_dir:
        for label in ("cold cache", "warm cache"):
            for spec in chosen:
                # the engine reports every unit on the run ledger; the
                # unit tally subscribed to it counts hits and misses
                ledger, counts = RunLedger(), UnitCounts()
                ledger.subscribe(counts)
                started = time.perf_counter()
                result = spec.run(TINY, seed=0, jobs=2, cache=cache_dir,
                                  ledger=ledger)
                elapsed = time.perf_counter() - started
                print(f"[{label}] {spec.name}: {elapsed:.1f}s, "
                      f"{counts.cache_hits} hits / "
                      f"{counts.misses} simulated")
                if label == "warm cache":
                    assert counts.misses == 0, "expected pure cache hits"
            if label == "cold cache":
                print()

    print("\nWarm-cache reruns simulated nothing; reports are identical "
          "by construction (results are keyed by video+config+code).")


if __name__ == "__main__":
    main()
