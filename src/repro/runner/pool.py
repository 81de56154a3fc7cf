"""The session-execution engine: fan-out, memoization, determinism.

Every experiment in this repository reduces to a batch of *independent*
``run_session(video, config)`` calls — independent because each session
builds a private network whose RNG streams derive from ``config.seed``
(see :func:`repro.simnet.rng.derive_seed`), never from shared state.  The
engine exploits exactly that:

* ``run_sessions(plans)`` executes a batch over ``jobs`` supervised
  worker processes (:func:`~repro.runner.supervise.run_supervised`; a
  ``jobs=1`` batch runs inline) and returns results **in plan order** —
  completion-order results land in their input slots, so the output is
  byte-identical to a serial run regardless of worker scheduling.
* With a :class:`~repro.runner.cache.ResultCache`, each plan is first
  looked up by content fingerprint (video + config + code version); only
  misses are simulated, and their results are stored for the next run.
* ``run_tasks(fn, argslist)`` is the same machinery for coarser units
  (e.g. a whole concurrent-session cohort, or a Monte-Carlo run) that are
  not shaped like a single session.

Experiments do not thread ``jobs``/``cache`` through their signatures;
the CLI (or a test) installs them ambiently::

    with engine_options(jobs=4, cache="~/.cache/repro"):
        spec.run(scale, seed=0)     # every run_sessions() inside fans out

Observation rides the same ambient options: an installed
:class:`~repro.runner.ledger.RunLedger` hears each batch's ``scheduled``
event, every unit settlement, and the batch's plan-ordered values, and
its subscribers (progress, the export collector, ``repro profile``) fold
those.  No subscriber reaches back into a unit, so observing a run never
changes what it computes or where its result is cached.
"""

from __future__ import annotations

import contextvars
import dataclasses
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple, Union

from .cache import ResultCache
from .fingerprint import plan_fingerprint, task_fingerprint
from .ledger import RunLedger
from .supervise import (
    CHAOS_ENV,
    CampaignAborted,
    SupervisionPolicy,
    chaos_hook,
    chaos_mark_done,
    run_supervised,
)

__all__ = [
    "CacheLike",
    "EngineOptions",
    "SessionPlan",
    "current_options",
    "engine_options",
    "merge_options",
    "run_sessions",
    "run_tasks",
]


@dataclass(frozen=True)
class SessionPlan:
    """One unit of work for the engine: stream ``video`` under ``config``.

    Both fields are plain dataclasses, so a plan pickles to a worker and
    fingerprints into a cache key.
    """

    video: Any
    config: Any

    @property
    def key(self) -> str:
        return plan_fingerprint(self.video, self.config)


@dataclass
class EngineOptions:
    """Ambient engine configuration (see :func:`engine_options`).

    ``supervision``/``ledger`` form the durability layer: a
    :class:`~repro.runner.supervise.SupervisionPolicy` routes cache
    misses through supervised worker processes (deadlines, retries,
    quarantine), and a :class:`~repro.runner.ledger.RunLedger` receives
    every lifecycle event — one write-ahead record as each unit
    settles, retry and quarantine included, streamed on to its
    subscribers (the unit tally, progress, dash, the export
    collector).  ``sharding`` is the
    campaign-scaling layer: a
    :class:`~repro.runner.sharding.Sharding` policy that sharding-aware
    call sites (:func:`~repro.runner.sharding.run_shards`, the
    ``model_validation`` experiment) consult to split one campaign into
    deterministic, individually-cached shards.  ``health`` is a
    :class:`~repro.obs.health.HealthMonitor` that receives worker
    heartbeats and unit lifecycle notifications from the supervised
    path and writes what it concludes onto its ledger — report-only,
    never part of a cache fingerprint (typed
    ``Any`` because the runner must not import ``repro.obs``, which
    imports the runner).  ``dist`` is the horizontal-scaling layer: a
    :class:`~repro.runner.dist.DistPolicy` that re-routes
    :func:`~repro.runner.sharding.run_shards` batches through the
    lease-based shard queue and its worker fleet instead of the local
    pool (typed ``Any`` to keep the ``dist`` subpackage a lazy import).
    Everything defaults to off/None — the engine then behaves exactly
    as it always has.
    """

    jobs: int = 1
    cache: Optional[ResultCache] = None
    supervision: Optional[SupervisionPolicy] = None
    ledger: Optional[RunLedger] = None
    sharding: Optional[Any] = None  # repro.runner.sharding.Sharding
    health: Optional[Any] = None    # repro.obs.health.HealthMonitor
    dist: Optional[Any] = None      # repro.runner.dist.DistPolicy


_OPTIONS: contextvars.ContextVar[EngineOptions] = contextvars.ContextVar(
    "repro-engine-options", default=EngineOptions()
)

CacheLike = Union[ResultCache, str, Path, None]


def _as_cache(cache: CacheLike) -> Optional[ResultCache]:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


#: Per-field override normalizers applied by :func:`merge_options`.
_NORMALIZE = {
    "jobs": lambda jobs: max(1, int(jobs)),
    "cache": _as_cache,
}

_FIELD_NAMES = frozenset(f.name for f in dataclasses.fields(EngineOptions))


def merge_options(base: EngineOptions, overrides: dict) -> EngineOptions:
    """A new :class:`EngineOptions` = ``base`` with non-``None`` overrides.

    One ``dataclasses.replace`` call instead of a per-field
    ``base.x if x is None else x`` ladder: adding an engine option is
    now one dataclass field (plus, where needed, one ``_NORMALIZE``
    entry), and every caller — :func:`engine_options`, tests, the CLI —
    inherits it without edits.  ``None`` always means "keep the
    surrounding value", which is what makes nested scopes compose.
    """
    unknown = set(overrides) - _FIELD_NAMES
    if unknown:
        raise TypeError(
            f"unknown engine option(s): {', '.join(sorted(unknown))}; "
            f"know {', '.join(sorted(_FIELD_NAMES))}"
        )
    changes = {
        name: _NORMALIZE.get(name, lambda v: v)(value)
        for name, value in overrides.items()
        if value is not None
    }
    return dataclasses.replace(base, **changes)


def current_options() -> EngineOptions:
    """The engine options in effect for this context."""
    return _OPTIONS.get()


@contextmanager
def engine_options(**overrides):
    """Override the ambient engine options within a ``with`` block.

    Keywords are the :class:`EngineOptions` fields — ``jobs``, ``cache``
    (a :class:`ResultCache`, a path, or ``None``), ``supervision``,
    ``ledger``, ``sharding``, ``health``, ``dist``.  ``None`` keeps the
    surrounding value, so nested scopes compose: a test can pin
    ``jobs=1`` around an experiment the CLI configured with ``jobs=8``.
    """
    base = _OPTIONS.get()
    options = merge_options(base, overrides)
    token = _OPTIONS.set(options)
    try:
        yield options
    finally:
        _OPTIONS.reset(token)


# -- workers ------------------------------------------------------------------
# Module-level functions: picklable by reference under both fork and spawn.

def _call_plan(plan: SessionPlan):
    from ..streaming import run_session

    # chaos hooks ($REPRO_CHAOS): deterministic fault injection for the
    # durability tests and the chaos-smoke CI job; one dict lookup when off
    chaos = CHAOS_ENV in os.environ
    if chaos:
        chaos_hook(plan.key)
    result = run_session(plan.video, plan.config)
    if chaos:
        chaos_mark_done(plan.key)
    return result


def _call_task(payload: Tuple[Callable[..., Any], tuple]):
    fn, args = payload
    return fn(*args)


def _keyed(cache: Optional[ResultCache],
           ledger: Optional[RunLedger]) -> bool:
    """Whether a batch needs unit keys: to address the cache, or to
    settle its units in a ledger file ``--resume`` can read back."""
    return cache is not None or (ledger is not None
                                 and ledger.path is not None)


def _run_cached(worker: Callable[[Any], Any], items: Sequence[Any],
                keys: Optional[List[str]], jobs: int,
                cache: Optional[ResultCache], options: EngineOptions,
                describe: Callable[[int], str], batch: str) -> List[Any]:
    """Cache-lookup, execute, persist: the engine's one batch pipeline.

    Every unit that completes is persisted (cache + ledger) *as it
    completes*, not after the batch — a campaign killed mid-batch keeps
    everything already simulated.  Each settlement is reported to the
    ledger exactly once, here, with the unit's value for its
    subscribers.  Cache misses run inline when the batch asks for one
    job with neither a supervision policy nor a health monitor; every
    other batch runs on :func:`~repro.runner.supervise.run_supervised`'s
    worker processes — with deadlines, retries and quarantine under a
    policy, fail-fast without one — where a health monitor additionally
    receives worker heartbeats and unit lifecycle notifications
    (report-only).  Either way each computed unit's ``done`` carries
    its wall latency.  ``batch`` names the engine entry point in the
    ``scheduled`` event.
    """
    supervision = options.supervision
    ledger = options.ledger
    health = options.health
    results: List[Any] = [None] * len(items)
    pending = list(range(len(items)))
    if cache is not None and keys is not None:
        pending = []
        for i, key in enumerate(keys):
            hit = cache.get(key)
            if hit is None:
                pending.append(i)
            else:
                results[i] = hit
                if ledger is not None:
                    ledger.event("done", hit, key=key, unit=i,
                                 cached=True)
    hits = len(items) - len(pending)
    if ledger is not None:
        ledger.event("scheduled", units=len(items), cache_hits=hits,
                     batch=batch)

    def on_done(i: int, value: Any, lane: Optional[str] = None,
                latency_s: Optional[float] = None) -> None:
        results[i] = value
        key = keys[i] if keys is not None else None
        if cache is not None and key is not None:
            cache.put(key, value)
        if ledger is not None:
            ledger.event("done", value, key=key, unit=i,
                         worker=lane, latency_s=latency_s)

    if jobs == 1 and supervision is None and health is None:
        # inline: no process, no pickle round-trip, and an exception
        # propagates straight from the unit that raised it
        for i in pending:
            started = time.perf_counter()
            value = worker(items[i])
            on_done(i, value,
                    latency_s=round(time.perf_counter() - started, 6))
    else:
        computed, quarantined, retries = run_supervised(
            worker, [items[i] for i in pending], jobs=jobs,
            policy=supervision,
            describe=lambda li: describe(pending[li]),
            keys=[keys[i] for i in pending] if keys is not None else None,
            on_done=on_done,
            on_failure=ledger.failure if ledger is not None else None,
            health=health,
            plan_index=pending)
        for i, result in zip(pending, computed):
            results[i] = result  # FailedUnit placeholders land here too
        if quarantined and not (supervision is not None
                                and supervision.degrade):
            raise CampaignAborted(quarantined, retries)
    return results


PlanLike = Union[SessionPlan, Tuple[Any, Any]]


def run_sessions(plans: Iterable[PlanLike], *, jobs: Optional[int] = None,
                 cache: CacheLike = None) -> List[Any]:
    """Execute a batch of session plans; results come back in plan order.

    ``plans`` holds :class:`SessionPlan` objects or ``(video, config)``
    tuples.  ``jobs``/``cache`` default to the ambient
    :func:`engine_options`; experiments normally pass none of them.
    """
    options = _OPTIONS.get()
    jobs = options.jobs if jobs is None else max(1, int(jobs))
    cache = options.cache if cache is None else _as_cache(cache)
    normalized = [p if isinstance(p, SessionPlan) else SessionPlan(*p)
                  for p in plans]
    keys = None
    if _keyed(cache, options.ledger):
        # The cache key is (video, config, code version) only — who is
        # observing the run never changes what a session computes, so it
        # must not change where its result lives.
        keys = [plan.key for plan in normalized]

    def describe(i: int) -> str:
        plan = normalized[i]
        video = getattr(plan.video, "video_id", None) or "session"
        seed = getattr(plan.config, "seed", "?")
        return f"{video} seed={seed}"

    results = _run_cached(_call_plan, normalized, keys, jobs, cache,
                          options, describe, "run_sessions")
    if options.ledger is not None:
        options.ledger.event("batch-finished", results)
    return results


def run_tasks(fn: Callable[..., Any], argslist: Iterable[tuple], *,
              jobs: Optional[int] = None, cache: CacheLike = None,
              keys: Optional[List[str]] = None) -> List[Any]:
    """Execute ``fn(*args)`` for each args tuple, in order.

    ``fn`` must be a module-level function (picklable by reference) and
    deterministic in its arguments — the cache key is (function name,
    args, code version), exactly parallel to the session path.  A caller
    that already owns a content-addressing scheme (the shard engine's
    shard fingerprints) passes explicit ``keys``, one per args tuple;
    the caller then guarantees the key covers everything the task result
    depends on.
    """
    options = _OPTIONS.get()
    jobs = options.jobs if jobs is None else max(1, int(jobs))
    cache = options.cache if cache is None else _as_cache(cache)
    items = [(fn, tuple(args)) for args in argslist]
    if keys is not None:
        keys = list(keys)
        if len(keys) != len(items):
            raise ValueError(
                f"run_tasks got {len(items)} tasks but {len(keys)} keys")
    elif _keyed(cache, options.ledger):
        # Keyed on (function, args, code version) only.
        keys = [task_fingerprint(fn, args) for _fn, args in items]

    def describe(i: int) -> str:
        _fn, args = items[i]
        rendered = repr(args)
        if len(rendered) > 60:
            rendered = rendered[:57] + "..."
        return f"{fn.__name__}{rendered}"

    results = _run_cached(_call_task, items, keys, jobs, cache,
                          options, describe, "run_tasks")
    if options.ledger is not None:
        options.ledger.event("batch-finished", results)
    return results
