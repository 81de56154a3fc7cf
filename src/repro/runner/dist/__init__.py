"""The distributed shard fabric: queue, workers, streaming coordinator.

The horizontal half of the campaign engine.  Single-host sharding
(:mod:`repro.runner.sharding`) already made campaigns content-addressed
— every shard has a fingerprint, every artifact lives in a shared
:class:`~repro.runner.sharding.ShardStore` — so distribution only has
to move *scheduling* across processes, never results or trust:

* :mod:`repro.runner.dist.queue` — :class:`ShardQueue`, the lease-based
  work queue.  :class:`FileShardQueue` runs it over any shared
  directory with nothing but atomic filesystem primitives.
* :mod:`repro.runner.dist.worker` — the ``repro worker`` loop: claim a
  shard, run it in the drain's one supervised child, push the
  artifact, renew the lease while doing so.
* :mod:`repro.runner.dist.coordinator` — ``repro experiment
  --distributed``: publish shards, keep an elastic local fleet alive,
  and reduce artifacts *as they land* by committing the contiguous
  plan-order prefix, which keeps distributed aggregates byte-identical
  to the single-host sharded path.

Installed via :class:`DistPolicy` on
:class:`~repro.runner.pool.EngineOptions` (CLI: ``--distributed
--queue-dir DIR --workers N``); :func:`~repro.runner.sharding.run_shards`
routes here when the policy is present, so sharding-aware experiments
distribute without code changes.
"""

from .coordinator import DistPolicy, run_shards_distributed
from .queue import (
    ClaimedShard,
    FileShardQueue,
    Lease,
    ShardQueue,
    default_worker_id,
    make_queue,
)
from .worker import LeaseRenewer, WorkerOptions, WorkerStats, run_worker

__all__ = [
    "ClaimedShard",
    "DistPolicy",
    "FileShardQueue",
    "Lease",
    "LeaseRenewer",
    "ShardQueue",
    "WorkerOptions",
    "WorkerStats",
    "default_worker_id",
    "make_queue",
    "run_shards_distributed",
    "run_worker",
]
