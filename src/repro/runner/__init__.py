"""Parallel session-execution engine with a content-addressed result cache.

The paper's dataset is thousands of captures; reproducing its tables
replays dozens of independent seeded sessions per figure.  This package
makes that campaign layer a property of the framework instead of each
experiment: plans fan out over supervised worker processes (inline
for ``jobs=1``), completed results memoize into an on-disk cache keyed by (video, config, code
version), and ordering/seeding guarantees make ``jobs=N`` byte-identical
to ``jobs=1``.

Public API:

* :class:`SessionPlan`, :func:`run_sessions`, :func:`run_tasks` — the
  execution engine (see :mod:`repro.runner.pool`).
* :class:`ResultCache` — the content-addressed store
  (:mod:`repro.runner.cache`).
* :func:`plan_fingerprint`, :func:`task_fingerprint`,
  :func:`code_version`, :func:`fingerprint`, :func:`canonical` — cache
  keys (:mod:`repro.runner.fingerprint`).
* :func:`engine_options`, :class:`EngineOptions`,
  :func:`current_options` — ambient configuration the CLI installs and
  experiments inherit.
* :class:`SupervisionPolicy`, :class:`RetryBudget`,
  :class:`CampaignAborted`, :class:`UnitFailure`, :class:`FailedUnit`,
  :func:`format_failures`, :func:`run_supervised` — the durability layer
  (:mod:`repro.runner.supervise`): the worker loop every ``jobs>1``
  batch runs on, with per-unit deadlines, retries with backoff, and
  quarantine of poison units under a policy.
* :class:`RunLedger`, :class:`UnitCounts`, :func:`load_ledger`,
  :func:`ledger_path`, :func:`campaign_fingerprint`,
  :func:`list_campaigns` — the one campaign event stream
  (:mod:`repro.runner.ledger`): the engine's write-ahead record of
  every unit settlement, behind ``--resume``, ``repro list`` and
  ``repro report``, the unit tally the CLI's ``engine`` line reads,
  and the only channel :mod:`repro.obs` subscribes its progress, dash
  and exporters to.
* :class:`Sharding`, :class:`ShardSpec`, :class:`ShardResult`,
  :class:`ShardStore`, :func:`run_shards`, :func:`run_sharded_sessions`,
  :func:`shard_fingerprint` — the million-session campaign layer
  (:mod:`repro.runner.sharding`): deterministic shards through the
  supervised pool, shard-level artifacts, streaming reduction.
* :class:`DistPolicy`, :class:`ShardQueue`, :class:`FileShardQueue`,
  :class:`WorkerOptions`, :func:`run_worker`, :func:`make_queue` — the
  distributed shard fabric (:mod:`repro.runner.dist`): a lease-based
  work queue over shared storage, ``repro worker`` processes that
  drain it, and a coordinator that reduces artifacts as they land.
"""

from .cache import ResultCache
from .dist import (
    DistPolicy,
    FileShardQueue,
    ShardQueue,
    WorkerOptions,
    WorkerStats,
    make_queue,
    run_worker,
)
from .fingerprint import (
    canonical,
    code_version,
    fingerprint,
    plan_fingerprint,
    task_fingerprint,
)
from .ledger import (
    RunLedger,
    UnitCounts,
    campaign_fingerprint,
    ledger_path,
    list_campaigns,
    load_ledger,
)
from .pool import (
    CacheLike,
    EngineOptions,
    SessionPlan,
    current_options,
    engine_options,
    merge_options,
    run_sessions,
    run_tasks,
)
from .sharding import (
    ShardResult,
    ShardSpec,
    ShardStore,
    Sharding,
    run_sharded_sessions,
    run_shards,
    shard_fingerprint,
    split_items,
)
from .supervise import (
    CampaignAborted,
    ChaosError,
    FailedUnit,
    RetryBudget,
    SupervisionPolicy,
    UnitFailure,
    format_failures,
    run_supervised,
)

__all__ = [
    "CacheLike",
    "CampaignAborted",
    "ChaosError",
    "DistPolicy",
    "EngineOptions",
    "FailedUnit",
    "FileShardQueue",
    "ResultCache",
    "RetryBudget",
    "RunLedger",
    "SessionPlan",
    "ShardQueue",
    "ShardResult",
    "ShardSpec",
    "ShardStore",
    "Sharding",
    "SupervisionPolicy",
    "UnitCounts",
    "UnitFailure",
    "WorkerOptions",
    "WorkerStats",
    "campaign_fingerprint",
    "canonical",
    "code_version",
    "current_options",
    "engine_options",
    "fingerprint",
    "format_failures",
    "ledger_path",
    "list_campaigns",
    "load_ledger",
    "make_queue",
    "merge_options",
    "plan_fingerprint",
    "run_sessions",
    "run_sharded_sessions",
    "run_shards",
    "run_supervised",
    "run_tasks",
    "run_worker",
    "shard_fingerprint",
    "split_items",
    "task_fingerprint",
]
