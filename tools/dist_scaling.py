#!/usr/bin/env python
"""The CI fabric-scaling floor: more distributed workers must be faster.

Runs the same sharded ``model_validation`` campaign (small scale, seed
0, 250-session shards) through the lease-based shard queue with 1 and
then 4 workers, each run over a throwaway queue and store so every
shard really simulates — a warm store would measure the prefill path,
not the fabric.  Fails unless the first-to-last wall-time ratio reaches the
floor: 2.5x when the process may use at least 4 cores, 1.0 otherwise
(pipelining must never make the campaign slower than one worker, but
a 2.5x speedup only means anything with real cores under it).

Beside ``workers=1`` it prints the same campaign run in-process at
``--jobs 1`` (no queue, no worker process), so the fabric's own cost
at one worker shows next to the compute it carries.  That line is
information only: the gate compares fabric runs alone.

Usage::

    PYTHONPATH=src python tools/dist_scaling.py [--sessions 24000]
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

WORKERS = (1, 4)
SHARD_SIZE = 250


def campaign_wall_s(workers: Optional[int], sessions: int) -> float:
    """Wall time of one campaign over a fresh store: distributed over a
    fresh queue with ``workers`` workers, or in-process at ``jobs=1``
    when ``workers`` is ``None``."""
    from repro.experiments import REGISTRY, SCALES
    from repro.runner import DistPolicy, ResultCache, Sharding

    tmp = Path(tempfile.mkdtemp(prefix="repro-dist-scaling-"))
    dist = (DistPolicy(queue=str(tmp / "queue"), workers=workers)
            if workers is not None else None)
    try:
        started = time.perf_counter()
        REGISTRY["model_validation"].run(
            SCALES["small"], seed=0, jobs=1, cache=ResultCache(tmp / "cache"),
            sharding=Sharding(sessions=sessions, shard_size=SHARD_SIZE),
            dist=dist)
        return time.perf_counter() - started
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=24_000,
                        help="campaign size (default 24000)")
    args = parser.parse_args(argv)

    walls = []
    for count in WORKERS:
        wall = campaign_wall_s(count, args.sessions)
        walls.append(wall)
        print(f"workers={count}  {wall:8.3f}s  "
              f"{args.sessions / wall:9.1f} sessions/s")
        if count == 1:
            inline = campaign_wall_s(None, args.sessions)
            print(f"in-process --jobs 1  {inline:8.3f}s  "
                  f"{args.sessions / inline:9.1f} sessions/s  "
                  f"(fabric/in-process {wall / inline:.2f}x)")

    cores = len(os.sched_getaffinity(0))
    floor = 2.5 if cores >= 4 else 1.0
    speedup = walls[0] / walls[-1]
    print(f"cores={cores} speedup={speedup:.3f} floor={floor}")
    if speedup < floor:
        print(f"FAIL: speedup {speedup:.2f}x < floor {floor:.1f}x",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
