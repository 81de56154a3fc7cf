"""Sharded campaigns: split, supervise, and streamingly reduce.

A 64-session campaign fits in one pool run; a million-session campaign
does not — not because the CPU time is unaffordable but because nothing
may *retain* a million session results.  This module grows the engine to
that scale with three moves:

1. **Deterministic shards.**  One campaign plan splits into ``shards``
   contiguous chunks.  Each shard is identified by a :class:`ShardSpec`
   — ``(campaign, scale, seed, index, units)`` — and content-addressed
   by :func:`shard_fingerprint`, which also folds in the worker function
   and its arguments plus :func:`~repro.runner.fingerprint.code_version`.
   The *total* shard count is deliberately excluded: re-dimensioning a
   campaign (more sessions at the same per-shard size) leaves existing
   shard fingerprints untouched, so only the new shards simulate.
2. **The existing supervised pool.**  :func:`run_shards` feeds shards
   through :func:`~repro.runner.pool.run_tasks` with explicit shard
   keys, so everything the engine already guarantees — plan-order
   results, ``jobs=N`` determinism, supervision retries/quarantine, the
   campaign's run ledger and its subscribers — applies per *shard* with
   no new machinery.  Shard artifacts land in a :class:`ShardStore` (the
   content-addressed cache, namespaced under ``<root>/shards``), so a
   re-run of a completed campaign re-simulates zero shards and a resumed
   one only the missing ones.
3. **Streaming reduction.**  A shard worker never returns its sessions;
   it folds them into mergeable aggregates — count/mean/M2 moments and
   histogram sketches (:mod:`repro.stats`) — and returns the snapshot.
   The parent merges snapshots in shard order, so campaign memory is
   O(shards), not O(sessions), and the merged statistics equal an
   unsharded reduction (bit-for-bit for counts/min/max/histograms,
   ~1e-9 relative for the float moments; see ``tests/test_sharding.py``).

The policy knob is :class:`Sharding` on
:class:`~repro.runner.pool.EngineOptions` (CLI: ``repro experiment
--shards N --sessions M``); sharding-aware call sites —
:func:`run_sharded_sessions` here, the Monte-Carlo aggregate campaign in
``experiments/model_validation.py`` — consult it ambiently.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from .cache import ResultCache
from .fingerprint import code_version, fingerprint, fingerprint_batch
from .pool import SessionPlan, current_options, run_tasks
from .supervise import CHAOS_ENV, chaos_hook, chaos_mark_done

__all__ = [
    "ShardResult",
    "ShardSpec",
    "ShardStore",
    "Sharding",
    "run_shards",
    "run_sharded_sessions",
    "shard_fingerprint",
    "split_items",
]

#: Subdirectory of a cache root where shard artifacts live.
SHARD_DIRNAME = "shards"


@dataclass(frozen=True)
class Sharding:
    """The campaign-scaling policy (``EngineOptions.sharding``).

    ``shards`` is how many units one campaign plan splits into;
    ``sessions`` optionally re-dimensions the campaign to a total
    session count (sharding-aware experiments scale their workload to
    it — ``model_validation`` turns it into a Poisson arrival horizon).
    ``shards=1`` still routes through the shard path (one shard), which
    keeps the artifact store and ledger semantics identical at every
    scale.

    ``shard_size`` (CLI: ``--shard-size``) switches from count-based to
    size-based splitting: the campaign becomes ``ceil(total / size)``
    shards of exactly ``size`` units (last one smaller).  Many small
    shards are the work-stealing knob for distributed runs — a
    straggling worker then holds back one small shard, not a fixed
    1/Nth of the campaign.  The two knobs are exclusive; the fixed
    count-based split stays the default so existing shard fingerprints
    remain valid.
    """

    shards: int = 1
    sessions: Optional[int] = None
    shard_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.sessions is not None and self.sessions < 1:
            raise ValueError(f"sessions must be >= 1, got {self.sessions}")
        if self.shard_size is not None and self.shard_size < 1:
            raise ValueError(
                f"shard_size must be >= 1, got {self.shard_size}")

    def shard_count(self, total_units: int) -> int:
        """How many shards a ``total_units``-unit campaign splits into."""
        if self.shard_size is not None:
            return max(1, -(-total_units // self.shard_size))
        return self.shards


@dataclass(frozen=True)
class ShardSpec:
    """Identity of one shard of one campaign.

    ``of`` (the campaign's total shard count) is carried for progress
    reporting but excluded from :func:`shard_fingerprint`, so growing a
    campaign does not invalidate its existing shards.
    """

    campaign: str   # experiment / campaign name
    scale: str      # scale name the campaign ran at
    seed: int       # campaign seed
    index: int      # 0-based shard index
    of: int         # total shards in this campaign (display only)
    units: int      # sessions / tasks folded into this shard


@dataclass
class ShardResult:
    """What a shard worker returns: its spec plus the reduced value.

    The wrapper travels through the pool, the artifact store and the
    ledger's subscribers, so a progress reporter can count shards and a
    collector can merge ``value`` (a snapshot) without either knowing
    how the shard was produced.
    """

    shard: ShardSpec
    value: Any


def _shard_row(spec: ShardSpec, fn: Callable[..., Any],
               args: Sequence[Any]) -> tuple:
    name = f"{fn.__module__}.{fn.__qualname__}"
    return ("shard", code_version(), name, spec.campaign, spec.scale,
            spec.seed, spec.index, spec.units, list(args))


def shard_fingerprint(spec: ShardSpec, fn: Callable[..., Any],
                      args: Sequence[Any]) -> str:
    """Content address of one shard artifact.

    Covers the campaign identity ``(campaign, scale, seed, index,
    units)``, the worker function, its arguments, and the simulator
    ``code_version`` — everything that determines the shard's reduced
    value, and nothing (total shard count, jobs, observers) that does
    not.
    """
    return fingerprint(*_shard_row(spec, fn, args))


class ShardStore(ResultCache):
    """The shard-level artifact store: a result cache namespaced under
    ``<cache_root>/shards``.

    Shard artifacts are small (aggregate snapshots, never sessions), so
    they share the cache's content-addressed layout but live apart from
    per-session results — ``stats()`` and ``clear()`` operate on shard
    artifacts only, and a session-cache purge cannot strand a campaign.
    """

    def __init__(self, cache_root) -> None:
        super().__init__(ResultCache(cache_root).root / SHARD_DIRNAME
                         if not isinstance(cache_root, ResultCache)
                         else cache_root.root / SHARD_DIRNAME)

    @classmethod
    def for_cache(cls, cache: Optional[ResultCache]) -> Optional["ShardStore"]:
        """The shard store co-located with ``cache`` (None when uncached)."""
        if cache is None:
            return None
        if isinstance(cache, ShardStore):
            return cache
        return cls(cache)


def split_items(items: Sequence[Any], shards: int = 1, *,
                size: Optional[int] = None) -> List[List[Any]]:
    """Split ``items`` into contiguous chunks, by count or by size.

    The default (count-based) mode fixes the chunk size at
    ``ceil(len/shards)`` rather than balancing: growing the item list
    at the same per-shard size extends the tail without disturbing
    earlier chunks, which is what keeps their shard fingerprints (and
    cached artifacts) valid across a re-dimension.  The cost is
    imbalance — the last chunk can be almost empty (16 items over 5
    shards gives ``[4, 4, 4, 4]`` then nothing for the fifth).

    ``size`` switches to size-based splitting: every chunk holds
    exactly ``size`` items (last one smaller), and the chunk *count*
    floats instead of the chunk size.  That is the work-stealing mode —
    many small uniform chunks — and it composes with re-dimensioning
    the same way: same ``size``, more items, only new tail chunks.
    Empty chunks are never produced in either mode.

    >>> split_items([1, 2, 3, 4, 5], 3)
    [[1, 2], [3, 4], [5]]
    >>> split_items([1, 2, 3, 4, 5], size=2)
    [[1, 2], [3, 4], [5]]
    """
    if size is not None:
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
    elif shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if not items:
        return []
    if size is None:
        size = -(-len(items) // shards)  # ceil division
    return [list(items[i:i + size]) for i in range(0, len(items), size)]


def _shard_call(payload: Tuple[Callable[..., Any], ShardSpec, tuple]):
    """Pool worker: run one shard and wrap its reduction in a
    :class:`ShardResult` (in the worker, so cached artifacts carry the
    spec too).  Chaos hooks (``$REPRO_CHAOS``) fire here like they do
    for plain session units, keyed on the shard's campaign identity so
    the same shards misbehave on every run and under any ``--jobs``."""
    fn, spec, args = payload
    chaos = CHAOS_ENV in os.environ
    chaos_key = f"shard:{spec.campaign}:{spec.index}/{spec.of}"
    if chaos:
        chaos_hook(chaos_key)
    result = ShardResult(spec, fn(*args))
    if chaos:
        chaos_mark_done(chaos_key)
    return result


def run_shards(fn: Callable[..., Any],
               shards: Sequence[Tuple[ShardSpec, tuple]],
               *, jobs: Optional[int] = None,
               on_result: Optional[Callable[[Any], None]] = None
               ) -> List[Any]:
    """Run ``fn(*args)`` for each ``(spec, args)`` shard, in shard order.

    The shard batch rides :func:`~repro.runner.pool.run_tasks` — ambient
    jobs/supervision/ledger all apply, each shard is one
    supervised unit — but cache keys are :func:`shard_fingerprint`\\ s
    and artifacts land in the :class:`ShardStore` next to the ambient
    cache.  Returns the plan-ordered values (:class:`ShardResult`\\ s,
    or :class:`~repro.runner.supervise.FailedUnit` placeholders under a
    degraded campaign).

    ``on_result`` is the streaming-reduction hook: it receives every
    value **in plan order**, and callers merge there instead of over
    the returned list.  On this local path it fires after the batch; a
    distributed run (an ambient
    :class:`~repro.runner.dist.DistPolicy` on the engine options
    re-routes the whole batch through the shard queue and its worker
    fleet) streams it over the growing plan-order prefix while later
    shards are still simulating — same call order, same merge result,
    reduction overlapped with execution.  Either way the ambient ledger
    gets one ``merged`` event per shard result handed on, in plan order.
    """
    options = current_options()
    ledger = options.ledger

    def reduce(result: Any) -> None:
        if ledger is not None and isinstance(result, ShardResult):
            spec = result.shard
            ledger.event("merged", campaign=spec.campaign,
                         shard=spec.index, of=spec.of, units=spec.units)
        if on_result is not None:
            on_result(result)

    keys = fingerprint_batch(_shard_row(spec, fn, args)
                             for spec, args in shards)
    if options.dist is not None:
        from .dist.coordinator import run_shards_distributed

        return run_shards_distributed(fn, shards, keys, on_result=reduce)
    store = ShardStore.for_cache(options.cache)
    payloads = [((fn, spec, tuple(args)),) for spec, args in shards]
    results = run_tasks(_shard_call, payloads, jobs=jobs, cache=store,
                        keys=keys)
    for result in results:
        reduce(result)
    return results


def _session_shard(plans: Tuple[SessionPlan, ...]):
    """Shard worker for session campaigns: stream every plan, fold each
    result into a campaign snapshot and drop it, return the snapshot."""
    from ..obs.collect import CampaignSnapshot
    from ..streaming import run_session

    snapshot = CampaignSnapshot()
    for plan in plans:
        snapshot.fold(run_session(plan.video, plan.config))
    return snapshot


PlanLike = Any  # SessionPlan or (video, config); see pool.run_sessions


def run_sharded_sessions(plans: Iterable[PlanLike], *, campaign: str,
                         scale: str = "adhoc", seed: int = 0,
                         shards: Optional[int] = None):
    """Run a session campaign sharded, reducing to one campaign snapshot.

    The streaming counterpart of :func:`~repro.runner.pool.run_sessions`:
    instead of a list of :class:`~repro.streaming.SessionResult`\\ s —
    O(sessions) memory — it returns one merged
    :class:`~repro.obs.collect.CampaignSnapshot` of flow/metric/QoE
    aggregates, and no session result ever crosses a process boundary.
    ``shards`` defaults to the ambient :class:`Sharding` policy (1 when
    none is installed).  Supervision retries whole shards; the ledger
    and artifact store make a killed campaign resumable at shard
    granularity.
    """
    from ..obs.collect import CampaignSnapshot

    options = current_options()
    size = None
    if shards is None:
        policy = options.sharding
        shards = policy.shards if policy is not None else 1
        size = policy.shard_size if policy is not None else None
    normalized = [p if isinstance(p, SessionPlan) else SessionPlan(*p)
                  for p in plans]
    chunks = split_items(normalized, shards, size=size)
    units = [
        (ShardSpec(campaign=campaign, scale=scale, seed=seed, index=i,
                   of=len(chunks), units=len(chunk)), (tuple(chunk),))
        for i, chunk in enumerate(chunks)
    ]
    merged = CampaignSnapshot()

    def fold(result: Any) -> None:
        if isinstance(result, ShardResult):
            merged.merge(result.value)  # plan order: see run_shards

    run_shards(_session_shard, units, on_result=fold)
    return merged
