"""The session-execution engine: fan-out, memoization, determinism.

Every experiment in this repository reduces to a batch of *independent*
``run_session(video, config)`` calls — independent because each session
builds a private network whose RNG streams derive from ``config.seed``
(see :func:`repro.simnet.rng.derive_seed`), never from shared state.  The
engine exploits exactly that:

* ``run_sessions(plans)`` executes a batch over a ``multiprocessing``
  pool of ``jobs`` workers and returns results **in plan order** — the
  pool's ``map`` reassembles completion-order results by input index, so
  the output is byte-identical to a serial run regardless of worker
  scheduling.
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

Telemetry follows the same ambient pattern (:mod:`repro.telemetry`):
inside a ``recording()`` scope the engine times its phases, counts cache
hits/misses, and merges each session's recorded snapshot back **in plan
order**, so ``jobs=N`` telemetry equals ``jobs=1`` telemetry just as the
results do.  Recording state never enters a cache fingerprint.
"""

from __future__ import annotations

import contextvars
import dataclasses
import multiprocessing
import os
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple, Union

from ..telemetry import NullRecorder, Recorder, SessionTelemetry, current_recorder, use_recorder
from .cache import ResultCache
from .fingerprint import plan_fingerprint, task_fingerprint
from .ledger import RunLedger
from .supervise import (
    CHAOS_ENV,
    CampaignAborted,
    FailureReport,
    SupervisionPolicy,
    UnitFailure,
    chaos_hook,
    chaos_mark_done,
    run_supervised,
)

__all__ = [
    "CacheLike",
    "CompositeRunObserver",
    "EngineOptions",
    "NULL_OBSERVER",
    "NullRunObserver",
    "RunStats",
    "SessionPlan",
    "current_options",
    "engine_options",
    "merge_options",
    "run_sessions",
    "run_tasks",
]


class NullRunObserver:
    """The disabled run observer: every callback is a no-op.

    Observers are the engine's outward-facing hook — live progress
    reporting and result collection (:mod:`repro.obs`) both plug in
    here.  The pattern mirrors :class:`~repro.telemetry.NullRecorder`:
    the ambient default is this disabled instance, call sites guard with
    a single ``if observer.enabled:`` check, and the observing path can
    never change what the engine computes — observers see results, they
    do not produce them, so outputs stay byte-identical for any worker
    count and cache keys never include observer state.
    """

    enabled = False

    def batch_started(self, units: int, cache_hits: int) -> None:
        """A ``run_sessions``/``run_tasks`` batch began (after cache lookup)."""

    def unit_started(self, index: int, label: str, worker: str) -> None:
        """A unit was handed to a supervised worker (health monitoring
        only: the :class:`~repro.obs.health.HealthMonitor` forwards it)."""

    def unit_finished(self, value: Any) -> None:
        """One simulated unit completed (cache misses only, completion order)."""

    def unit_failed(self, failure: UnitFailure) -> None:
        """A supervised unit's attempt failed; ``failure.final`` marks
        the attempt that quarantined it (only fires under supervision)."""

    def worker_beat(self, lane: Any) -> None:
        """A worker heartbeat arrived; ``lane`` is the live
        :class:`~repro.obs.health.WorkerLane` (health monitoring only)."""

    def worker_suspect(self, suspicion: Any) -> None:
        """Health monitoring flagged a :class:`~repro.obs.health.Suspicion`
        (missed-beat, straggler, worker-lost).  Report-only: supervision
        retry behavior never consults it."""

    def batch_finished(self, values: Sequence[Any]) -> None:
        """A batch returned; ``values`` holds every result in plan order."""


#: The process-wide disabled observer (ambient default).
NULL_OBSERVER = NullRunObserver()


class CompositeRunObserver(NullRunObserver):
    """Fan every engine callback out to several observers.

    ``enabled`` is true when any member is enabled, so a composite of
    disabled observers still costs a single guard check.
    """

    def __init__(self, *observers: NullRunObserver) -> None:
        self.observers = tuple(o for o in observers if o is not None)
        self.enabled = any(o.enabled for o in self.observers)

    def batch_started(self, units: int, cache_hits: int) -> None:
        for observer in self.observers:
            if observer.enabled:
                observer.batch_started(units, cache_hits)

    def unit_started(self, index: int, label: str, worker: str) -> None:
        for observer in self.observers:
            if observer.enabled:
                observer.unit_started(index, label, worker)

    def unit_finished(self, value: Any) -> None:
        for observer in self.observers:
            if observer.enabled:
                observer.unit_finished(value)

    def unit_failed(self, failure: UnitFailure) -> None:
        for observer in self.observers:
            if observer.enabled:
                observer.unit_failed(failure)

    def worker_beat(self, lane: Any) -> None:
        for observer in self.observers:
            if observer.enabled:
                observer.worker_beat(lane)

    def worker_suspect(self, suspicion: Any) -> None:
        for observer in self.observers:
            if observer.enabled:
                observer.worker_suspect(suspicion)

    def batch_finished(self, values: Sequence[Any]) -> None:
        for observer in self.observers:
            if observer.enabled:
                observer.batch_finished(values)


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
class RunStats:
    """Counters the engine accumulates while an experiment runs."""

    sessions: int = 0        # units requested (sessions + coarse tasks)
    cache_hits: int = 0
    cache_misses: int = 0    # units actually simulated
    retries: int = 0         # failed attempts that were re-run (supervision)
    failed: int = 0          # units quarantined after exhausting retries

    def add(self, requested: int, hits: int) -> None:
        self.sessions += requested
        self.cache_hits += hits
        self.cache_misses += requested - hits


@dataclass
class EngineOptions:
    """Ambient engine configuration (see :func:`engine_options`).

    ``supervision``/``ledger``/``failures`` form the durability layer:
    a :class:`~repro.runner.supervise.SupervisionPolicy` routes cache
    misses through supervised worker processes (deadlines, retries,
    quarantine), a :class:`~repro.runner.ledger.RunLedger` receives
    one write-ahead event as each unit settles, and a
    :class:`~repro.runner.supervise.FailureReport` accumulates whatever
    was quarantined.  ``sharding`` is the campaign-scaling layer: a
    :class:`~repro.runner.sharding.Sharding` policy that sharding-aware
    call sites (:func:`~repro.runner.sharding.run_shards`, the
    ``model_validation`` experiment) consult to split one campaign into
    deterministic, individually-cached shards.  ``health`` is the
    observability side-channel: a
    :class:`~repro.obs.health.HealthMonitor` that receives worker
    heartbeats and unit lifecycle notifications from the supervised
    path — report-only, never part of a cache fingerprint (typed
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
    stats: Optional[RunStats] = None
    observer: NullRunObserver = NULL_OBSERVER
    supervision: Optional[SupervisionPolicy] = None
    ledger: Optional[RunLedger] = None
    failures: Optional[FailureReport] = None
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
    (a :class:`ResultCache`, a path, or ``None``), ``stats``,
    ``observer``, ``supervision``, ``ledger``, ``failures``,
    ``sharding``, ``health``, ``dist``.  ``None`` keeps the surrounding value, so nested
    scopes compose: a test can pin ``jobs=1`` around an experiment the
    CLI configured with ``jobs=8``.
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
# Each payload carries an explicit ``record`` flag because the ambient
# recorder is a contextvar: a forked worker would inherit it, a spawned
# worker would not, and telemetry must not depend on the start method.

def _call_plan(payload: Tuple[SessionPlan, bool]):
    plan, record = payload
    from ..streaming import run_session

    # chaos hooks ($REPRO_CHAOS): deterministic fault injection for the
    # durability tests and the chaos-smoke CI job; one dict lookup when off
    chaos = CHAOS_ENV in os.environ
    if chaos:
        chaos_hook(plan.key)
    if record:
        # run_session sees an enabled ambient recorder and attaches its
        # per-session snapshot to the result, which travels back to the
        # parent through the ordinary pickle round-trip.
        with use_recorder(Recorder()):
            result = run_session(plan.video, plan.config)
    else:
        result = run_session(plan.video, plan.config)
    if chaos:
        chaos_mark_done(plan.key)
    return result


@dataclass
class _TaskEnvelope:
    """A task result plus the telemetry its worker recorded.

    ``run_tasks`` results are arbitrary objects with nowhere to attach a
    snapshot, so recorded runs wrap them; the engine unwraps and merges
    before returning.  Envelopes may land in the result cache — a later
    telemetry-off run unwraps them the same way.
    """

    value: Any
    telemetry: Optional[SessionTelemetry] = None


def _call_task(payload: Tuple[Callable[..., Any], tuple, bool]):
    fn, args, record = payload
    if record:
        rec = Recorder()
        with use_recorder(rec):
            value = fn(*args)
        return _TaskEnvelope(value, rec.snapshot())
    return fn(*args)


def _pool_context():
    # fork starts in milliseconds and inherits sys.path; spawn is the
    # portable fallback (macOS/Windows default)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _pool_worker_init() -> None:
    # Pool.terminate() ends its workers with SIGTERM while holding the
    # task queue's read lock.  A forked worker inherits whatever SIGTERM
    # handler the parent installed (``repro worker`` installs one); a
    # Python-level handler turns the signal into an exception that can
    # race the worker's own shutdown and leave it blocked on that lock,
    # hanging terminate() forever.  Workers always take the default
    # action, whatever the parent process does with the signal.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _indexed_call(payload: Tuple[int, Callable[[Any], Any], Any]):
    """Pool shim tagging each result with its input index, so the parent
    can persist results in *completion* order and still reassemble the
    plan-ordered list."""
    index, worker, item = payload
    return index, worker(item)


def _execute(worker: Callable[[Any], Any], items: Sequence[Any],
             jobs: int, observer: NullRunObserver = NULL_OBSERVER,
             on_unit: Optional[Callable[[int, Any], None]] = None) -> List[Any]:
    """Run ``worker`` over ``items``, preserving input order.

    ``jobs=1`` (the default everywhere) runs inline — no pool, no pickle
    round-trip — so tests and single-session experiments pay nothing.
    The parallel path calls the *same* worker function on the same
    arguments; results only travel through a pickle round-trip, which is
    lossless for session results, so outputs are identical bytewise.

    ``on_unit(index, result)`` is the durability hook: it fires as each
    unit completes (completion order in the parallel path), letting the
    caller persist results incrementally so a killed campaign keeps what
    it already computed.
    """
    results: List[Any] = [None] * len(items)

    def settle(index: int, result: Any) -> None:
        if on_unit is not None:
            on_unit(index, result)
        if observer.enabled:
            observer.unit_finished(result)
        results[index] = result

    if jobs <= 1 or len(items) <= 1:
        for index, item in enumerate(items):
            settle(index, worker(item))
        return results
    # An explicit jobs=N request spawns N workers even when os.cpu_count()
    # is lower: oversubscription costs little for these CPU-bound sessions,
    # and the parallel code path (fork + pickle round-trip) must behave
    # identically everywhere for the jobs=N == jobs=1 guarantee to be
    # testable on any machine.
    processes = min(jobs, len(items))
    with _pool_context().Pool(processes=processes,
                              initializer=_pool_worker_init) as pool:
        # chunksize=1: sessions vary widely in cost (a 16-cell Table 1
        # batch mixes 30 s bulk transfers with 180 s Netflix sessions),
        # so fine-grained dispatch keeps the stragglers from serializing;
        # imap_unordered yields completion-order results, so a straggler
        # never delays persisting the units that finished after it, and
        # the index tag restores plan order.
        indexed = [(i, worker, item) for i, item in enumerate(items)]
        for index, result in pool.imap_unordered(_indexed_call, indexed,
                                                 chunksize=1):
            settle(index, result)
    return results


def _run_cached(worker: Callable[[Any], Any], items: Sequence[Any],
                keys: Optional[List[str]], jobs: int,
                cache: Optional[ResultCache], stats: Optional[RunStats],
                rec: NullRecorder, options: EngineOptions,
                describe: Callable[[int], str]) -> List[Any]:
    """Cache-lookup, execute, persist: the engine's one batch pipeline.

    Every unit that completes is persisted (cache + ledger) *as it
    completes*, not after the batch — a campaign killed mid-batch keeps
    everything already simulated.  Each settlement is written to the
    ledger exactly once, here.  With a supervision policy, cache misses
    run under :func:`~repro.runner.supervise.run_supervised` (deadlines,
    retries, quarantine) instead of the plain pool; a health monitor
    additionally receives worker heartbeats and unit lifecycle
    notifications there (report-only).
    """
    observer = options.observer
    supervision = options.supervision
    ledger = options.ledger
    failures = options.failures
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
                    ledger.event("done", key=key, unit=i, cached=True)
    hits = len(items) - len(pending)
    if ledger is not None:
        ledger.event("scheduled", units=len(items), cache_hits=hits)
    if observer.enabled:
        observer.batch_started(len(items), hits)
    if health is not None:
        health.attach(observer, ledger)
        health.batch_started(len(items), hits)
    if rec.enabled:
        rec.inc("engine.units", len(items))
        rec.inc("engine.cache_hits", hits)
        rec.inc("engine.cache_misses", len(pending))

    def persist(local_index: int, result: Any, lane: Optional[str] = None,
                latency_s: Optional[float] = None) -> None:
        i = pending[local_index]
        results[i] = result
        if keys is not None:
            if cache is not None:
                cache.put(keys[i], result)
            if ledger is not None:
                ledger.event("done", key=keys[i], unit=i, worker=lane,
                             latency_s=latency_s)

    def on_done(local_index: int, value: Any, lane: str,
                latency_s: float) -> None:
        persist(local_index, value, lane, round(latency_s, 6))
        if observer.enabled:
            observer.unit_finished(value)

    def on_failure(failure: UnitFailure) -> None:
        # remap the supervisor's batch-local index to the plan index
        failure.index = pending[failure.index]
        if ledger is not None and failure.key is not None:
            ledger.event(
                "quarantined" if failure.final else "retried",
                key=failure.key, unit=failure.index, label=failure.label,
                worker=failure.worker, kind=failure.kind,
                error=failure.error, attempts=failure.attempts)
        if failure.final and failures is not None:
            failures.add(failure)
        if observer.enabled:
            observer.unit_failed(failure)

    pending_items = [items[i] for i in pending]
    quarantined: List[UnitFailure] = []
    retries = 0
    with rec.span("engine.execute"):
        if supervision is None:
            _execute(worker, pending_items, jobs, observer, persist)
        else:
            computed, quarantined, retries = run_supervised(
                worker, pending_items, jobs=jobs, policy=supervision,
                describe=lambda li: describe(pending[li]),
                keys=[keys[i] for i in pending] if keys is not None else None,
                on_done=on_done, on_failure=on_failure, health=health)
            for i, result in zip(pending, computed):
                results[i] = result  # FailedUnit placeholders land here too
    if stats is not None:
        stats.add(len(items), hits)
        stats.retries += retries
        stats.failed += len(quarantined)
    if supervision is None:
        return results
    if failures is not None:
        failures.retries += retries
    if rec.enabled:
        rec.inc("engine.retries", retries)
        rec.inc("engine.quarantined", len(quarantined))
    if quarantined and not supervision.degrade:
        # the ambient report (when installed) already holds the batch's
        # quarantines via on_failure; raise with it so callers see one
        # accumulated account, not a per-batch fragment
        report = failures
        if report is None:
            report = FailureReport()
            report.retries = retries
            for failure in quarantined:
                report.add(failure)
        raise CampaignAborted(report)
    return results


PlanLike = Union[SessionPlan, Tuple[Any, Any]]


def run_sessions(plans: Iterable[PlanLike], *, jobs: Optional[int] = None,
                 cache: CacheLike = None,
                 stats: Optional[RunStats] = None) -> List[Any]:
    """Execute a batch of session plans; results come back in plan order.

    ``plans`` holds :class:`SessionPlan` objects or ``(video, config)``
    tuples.  ``jobs``/``cache``/``stats`` default to the ambient
    :func:`engine_options`; experiments normally pass none of them.
    """
    options = _OPTIONS.get()
    jobs = options.jobs if jobs is None else max(1, int(jobs))
    cache = options.cache if cache is None else _as_cache(cache)
    stats = options.stats if stats is None else stats
    normalized = [p if isinstance(p, SessionPlan) else SessionPlan(*p)
                  for p in plans]
    keys = None
    if cache is not None or options.ledger is not None:
        # The cache key is (video, config, code version) only — whether
        # telemetry is recording never changes what a session computes,
        # so it must not change where its result lives.
        keys = [plan.key for plan in normalized]
    rec = current_recorder()
    payloads = [(plan, rec.enabled) for plan in normalized]

    def describe(i: int) -> str:
        plan = normalized[i]
        video = getattr(plan.video, "video_id", None) or "session"
        seed = getattr(plan.config, "seed", "?")
        return f"{video} seed={seed}"

    with rec.span("engine.run_sessions"):
        if rec.enabled:
            rec.gauge("engine.jobs", jobs)
        results = _run_cached(_call_plan, payloads, keys, jobs, cache,
                              stats, rec, options, describe)
        if rec.enabled:
            # Merge per-session telemetry in *plan order* — the results
            # list is already plan-ordered, so merged counters and event
            # logs are identical for any worker count.  Cache hits replay
            # whatever telemetry they were computed with (possibly none).
            for result in results:
                telemetry = getattr(result, "telemetry", None)
                if telemetry is not None:
                    rec.merge(telemetry)
    if options.observer.enabled:
        options.observer.batch_finished(results)
    return results


def run_tasks(fn: Callable[..., Any], argslist: Iterable[tuple], *,
              jobs: Optional[int] = None, cache: CacheLike = None,
              stats: Optional[RunStats] = None,
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
    stats = options.stats if stats is None else stats
    rec = current_recorder()
    items = [(fn, tuple(args), rec.enabled) for args in argslist]
    if keys is not None:
        keys = list(keys)
        if len(keys) != len(items):
            raise ValueError(
                f"run_tasks got {len(items)} tasks but {len(keys)} keys")
    elif cache is not None or options.ledger is not None:
        # Keyed on (function, args, code version); the record flag is
        # deliberately excluded, like everything telemetry-related.
        keys = [task_fingerprint(fn, args) for _fn, args, _record in items]

    def describe(i: int) -> str:
        _fn, args, _record = items[i]
        rendered = repr(args)
        if len(rendered) > 60:
            rendered = rendered[:57] + "..."
        return f"{fn.__name__}{rendered}"

    with rec.span("engine.run_tasks"):
        if rec.enabled:
            rec.gauge("engine.jobs", jobs)
        results = _run_cached(_call_task, items, keys, jobs, cache, stats,
                              rec, options, describe)
        unwrapped: List[Any] = []
        for result in results:
            if isinstance(result, _TaskEnvelope):
                if result.telemetry is not None:
                    rec.merge(result.telemetry)
                unwrapped.append(result.value)
            else:
                unwrapped.append(result)
    if options.observer.enabled:
        options.observer.batch_finished(unwrapped)
    return unwrapped
