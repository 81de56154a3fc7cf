"""Shared scaffolding for the per-figure/per-table experiments.

Every experiment exposes ``run(scale=SMALL, seed=...) -> <Result>`` and the
result renders itself through ``report()``.  ``Scale`` trades fidelity for
runtime: ``SMALL`` (the default used by tests and benchmarks) streams a few
videos per cell with shortened captures; ``FULL`` approaches the paper's
session counts and the full 180 s captures.

Experiments do not stream sessions in hand-rolled serial loops; they build
:class:`~repro.runner.SessionPlan` batches and hand them to
:func:`run_sessions` (re-exported here from :mod:`repro.runner`), which
fans them out over a worker pool and memoizes completed results in a
content-addressed cache.  Parallelism and caching are ambient — installed
by the CLI or a test via :func:`~repro.runner.engine_options` — so
experiment code stays a pure description of *what* to measure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..runner import (
    RetryBudget,
    SessionPlan,
    SupervisionPolicy,
    engine_options,
    run_sessions,
    run_tasks,
)
from ..simnet.rng import derive_seed
from ..workloads.catalog import Catalog
from ..workloads.video import Video

__all__ = [
    "FULL",
    "MB",
    "MEDIUM",
    "RetryBudget",
    "SCALES",
    "SMALL",
    "Scale",
    "SessionPlan",
    "SupervisionPolicy",
    "engine_options",
    "pick_videos",
    "run_sessions",
    "run_tasks",
]

MB = 1024 * 1024


@dataclass(frozen=True)
class Scale:
    """Knobs controlling experiment size."""

    name: str
    sessions_per_cell: int        # videos streamed per (dataset, network)
    capture_duration: float       # seconds of capture per session
    catalog_scale: float          # dataset size multiplier
    mc_horizon: float             # Monte-Carlo horizon for the model benches


SMALL = Scale(
    name="small",
    sessions_per_cell=5,
    capture_duration=120.0,
    catalog_scale=0.02,
    mc_horizon=6000.0,
)

MEDIUM = Scale(
    name="medium",
    sessions_per_cell=12,
    capture_duration=150.0,
    catalog_scale=0.05,
    mc_horizon=15000.0,
)

FULL = Scale(
    name="full",
    sessions_per_cell=40,
    capture_duration=180.0,
    catalog_scale=1.0,
    mc_horizon=60000.0,
)

SCALES = {scale.name: scale for scale in (SMALL, MEDIUM, FULL)}


def pick_videos(
    catalog: Catalog,
    n: int,
    seed: int,
    *,
    min_size_bytes: int = 0,
    max_size_bytes: Optional[int] = None,
    min_duration: float = 0.0,
    min_rate_bps: float = 0.0,
) -> List[Video]:
    """Sample ``n`` videos satisfying size/duration/rate constraints.

    Experiments that characterize the *steady state* need videos large
    enough to outlive the buffering phase — and, for the long-cycle
    players, encoding rates high enough that several multi-megabyte cycles
    fit in one capture.  Bulk-transfer experiments cap sizes to keep
    simulated packet counts tractable.
    """
    rng = random.Random(derive_seed(seed, f"pick:{catalog.name}"))
    eligible = [
        v for v in catalog
        if v.size_bytes >= min_size_bytes
        and (max_size_bytes is None or v.size_bytes <= max_size_bytes)
        and v.duration >= min_duration
        and v.encoding_rate_bps >= min_rate_bps
    ]
    if not eligible:
        raise ValueError(
            f"no videos in {catalog.name} satisfy the constraints "
            f"(min={min_size_bytes}, max={max_size_bytes}, "
            f"min_duration={min_duration}, min_rate={min_rate_bps})"
        )
    if n >= len(eligible):
        return list(eligible)
    return rng.sample(eligible, n)
