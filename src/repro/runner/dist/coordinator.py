"""The distributed coordinator: publish, watch, and streamingly reduce.

``repro experiment --distributed`` swaps the shard engine's *execution*
transport while keeping every contract the single-host path already
honors.  :func:`run_shards_distributed` is a drop-in body for
:func:`~repro.runner.sharding.run_shards` when the ambient
:class:`DistPolicy` is installed:

1. **Prefill** — every shard key is looked up in the shared
   :class:`~repro.runner.sharding.ShardStore` first, so a resumed
   campaign (or a re-dimensioned one) re-simulates zero landed shards.
2. **Publish** — the misses are published to the
   :class:`~repro.runner.dist.queue.ShardQueue` in plan order.
3. **Elastic local workers** — ``workers=N`` forks N drain-mode worker
   lanes from the coordinator over the same queue and store (none when
   every shard prefilled); a lane that dies is respawned (budgeted),
   and ``repro worker`` processes on other hosts drain the same queue
   concurrently.
4. **Pipelined reduction** — the coordinator polls the done markers,
   reads each completed shard's artifact from the store, and hands
   them to ``on_result`` as the *contiguous plan-order prefix* grows.
   Committing the prefix — not the completion order — is what keeps
   the reduction byte-identical to the single-host path:
   ``CampaignSnapshot`` float moments merge via Chan's method, which is
   order-dependent, so the merge order must be plan order; everything
   before the barrier (simulation, artifact landing, lease traffic)
   still overlaps freely.

The run ledger gains the distributed lifecycle: ``dist-published``,
per-shard ``done`` events attributed to the worker that landed them,
``re-leased`` when an expired holder's shard moves, and ``worker-exit``
when a local worker leaves.  Worker lanes are synthesized from queue
lease state and streamed as the ledger's live ``beat`` events, so
``repro dash`` renders a distributed campaign with no code of its own.
"""

from __future__ import annotations

import pickle
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ...telemetry.recorder import _RECORDER, NULL
from ..pool import _OPTIONS, EngineOptions, current_options
from ..sharding import ShardSpec, ShardStore
from ..supervise import (CampaignAborted, FailedUnit, FailureReport,
                         UnitFailure, _process_context)
from .queue import ShardQueue, make_queue, queue_path
from .worker import WorkerOptions, worker_main

__all__ = [
    "DistPolicy",
    "DistWorkerLane",
    "run_shards_distributed",
]


@dataclass(frozen=True)
class DistPolicy:
    """The distributed-execution policy (``EngineOptions.dist``).

    ``queue`` is the shared queue directory; ``workers`` is how many
    local drain-mode workers the coordinator spawns — zero means the
    fleet is entirely external (other terminals, other hosts).
    ``max_attempts``/``unit_timeout`` are forwarded to each spawned
    worker's supervised pool.  ``respawns`` bounds elastic worker
    replacement so a deterministically-crashing fleet terminates.
    """

    queue: str
    workers: int = 0
    ttl: float = 30.0
    poll: float = 0.1
    max_attempts: int = 1
    unit_timeout: Optional[float] = None
    respawns: int = 8

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.ttl <= 0:
            raise ValueError(f"lease ttl must be > 0, got {self.ttl}")
        queue_path(self.queue)  # a URL is refused here, not at publish


@dataclass
class DistWorkerLane:
    """A worker lane synthesized from queue lease state.

    Duck-typed to :class:`~repro.obs.health.WorkerLane` — exactly the
    attributes the dashboard and health reporters read — so the obs
    layer renders distributed workers without importing this module.
    """

    worker: str
    pid: int = 0
    alive: bool = True
    missing: bool = False
    straggling: bool = False
    rss_kb: int = 0
    units_done: int = 0
    rate: float = 0.0
    unit: Optional[int] = None
    label: str = ""
    unit_started_at: Optional[float] = None
    last_beat: float = field(default_factory=time.monotonic)

    def beat_age(self, now: float) -> float:
        return max(0.0, now - self.last_beat)


def _lane_main(options: WorkerOptions) -> None:
    """One local worker lane, forked from the coordinator.  It drops the
    inherited engine options (ledger, dist policy, health monitor) and
    telemetry recorder, and starts from the defaults as ``repro worker``
    does."""
    _OPTIONS.set(EngineOptions())
    _RECORDER.set(NULL)
    sys.exit(worker_main(options)[0])


class _LocalFleet:
    """The coordinator's elastic local workers: fork, respawn, reap."""

    def __init__(self, policy: DistPolicy, cache_root, ledger=None) -> None:
        self.policy = policy
        self.ledger = ledger
        self.lane = WorkerOptions(
            queue=str(policy.queue), cache_dir=str(cache_root),
            ttl=policy.ttl, drain=True, max_attempts=policy.max_attempts,
            unit_timeout=policy.unit_timeout)
        self.procs: Dict[int, Any] = {}
        self.respawned = 0

    def start(self) -> None:
        for index in range(self.policy.workers):
            self._spawn(index)

    def _spawn(self, index: int) -> None:
        # the coordinator runs no threads, so forking it is safe; flush,
        # or the lane would print the coordinator's buffered output
        # again; non-daemonic: a lane forks its supervised child
        sys.stdout.flush()
        sys.stderr.flush()
        lane = replace(self.lane, worker_id=f"local-w{index}")
        proc = _process_context().Process(
            target=_lane_main, args=(lane,), daemon=False)
        proc.start()
        self.procs[index] = proc

    def tend(self, work_remains: bool) -> None:
        """Reap exits; while work remains, respawn crashed workers —
        the *elastic* half of the fabric — within the respawn budget."""
        for index, proc in list(self.procs.items()):
            code = proc.exitcode
            if code is None:
                continue
            del self.procs[index]
            if self.ledger is not None:
                self.ledger.event("worker-exit", worker=f"local-w{index}",
                                  pid=proc.pid, code=code)
            if code != 0 and work_remains:
                if self.respawned >= self.policy.respawns:
                    raise RuntimeError(
                        f"distributed workers crashed {self.respawned + 1} "
                        f"times (respawn budget {self.policy.respawns}); "
                        f"giving up — see the queue's failed/ markers")
                self.respawned += 1
                self._spawn(index)

    def stop(self) -> None:
        for proc in self.procs.values():
            if proc.exitcode is None:
                proc.terminate()
        deadline = time.monotonic() + 5.0
        for proc in self.procs.values():
            proc.join(max(0.1, deadline - time.monotonic()))
            if proc.exitcode is None:
                proc.kill()
                proc.join()
        self.procs.clear()


def _shard_label(spec: ShardSpec) -> str:
    return f"{spec.campaign} #{spec.index}/{spec.of}"


def run_shards_distributed(
    fn: Callable[..., Any],
    shards: Sequence[Tuple[ShardSpec, tuple]],
    keys: Sequence[str],
    *, stats=None,
    on_result: Optional[Callable[[Any], None]] = None,
    queue: Optional[ShardQueue] = None,
) -> List[Any]:
    """Run one shard batch over the distributed fabric (see module doc).

    Same contract as the local :func:`~repro.runner.sharding.run_shards`
    body: plan-ordered results (``ShardResult`` or ``FailedUnit``),
    ambient stats/ledger/failures honored, ``CampaignAborted`` on a
    quarantined shard unless the supervision policy degrades — plus
    ``on_result`` streamed over the growing plan-order prefix.
    """
    options = current_options()
    policy = options.dist
    store = ShardStore.for_cache(options.cache)
    if store is None:
        raise RuntimeError(
            "distributed runs need a shared artifact store: pass "
            "--cache-dir (or engine_options(cache=...)) so workers and "
            "the coordinator see the same ShardStore")
    if queue is None:
        queue = make_queue(policy.queue, ttl=policy.ttl)
    ledger = options.ledger
    # a private report when the caller keeps none: an abort still names
    # every quarantined shard
    failures = options.failures if options.failures is not None \
        else FailureReport()
    stats = options.stats if stats is None else stats

    total = len(shards)
    results: List[Any] = [None] * total
    settled = [False] * total
    index_of = {key: i for i, key in enumerate(keys)}

    # 1. prefill from the store (a resumed campaign re-simulates
    # nothing); 2. publish the misses in plan order (claim order follows)
    hits = published = 0
    for i, (key, (spec, args)) in enumerate(zip(keys, shards)):
        artifact = store.get(key)
        if artifact is not None:
            results[i] = artifact
            settled[i] = True
            hits += 1
            if ledger is not None:
                ledger.event("done", artifact, key=key, unit=i, cached=True)
        elif queue.publish(key, pickle.dumps(
                (fn, spec, tuple(args)), protocol=pickle.HIGHEST_PROTOCOL)):
            published += 1
    if ledger is not None:
        ledger.event("scheduled", units=total, cache_hits=hits)
        ledger.event("dist-published", shards=total - hits,
                     new=published, cache_hits=hits, queue=str(policy.queue),
                     workers=policy.workers, ttl=policy.ttl)

    quarantined: List[UnitFailure] = []
    done_by: Dict[str, int] = {}     # worker -> shards landed
    released: set = set()            # keys already ledgered as re-leased
    cursor = 0          # next plan index to hand to on_result

    def commit_prefix() -> None:
        # the pipelined reduction: merge order is plan order, so only
        # the contiguous settled prefix may flow to the caller
        nonlocal cursor
        while cursor < total and settled[cursor]:
            if on_result is not None:
                on_result(results[cursor])
            cursor += 1

    def land(i: int) -> bool:
        # called once the done marker exists: its record names the worker
        artifact = store.get(keys[i])
        if artifact is None:
            return False
        results[i] = artifact
        settled[i] = True
        record = queue.done_record(keys[i])
        worker = record.get("worker")
        done_by[worker or "?"] = done_by.get(worker or "?", 0) + 1
        if ledger is not None:
            # the done marker is the authoritative re-lease record:
            # watch_leases only sees transitions that straddle an idle
            # poll, but a stolen lease always names its dead holder here
            stolen_from = record.get("previous")
            if stolen_from and keys[i] not in released:
                released.add(keys[i])
                ledger.event("re-leased", worker=worker,
                             previous=stolen_from, unit=i,
                             shard=_shard_label(shards[i][0]))
            ledger.event("done", artifact, key=keys[i], unit=i,
                         worker=worker, latency_s=record.get("wall_s"),
                         shard=_shard_label(shards[i][0]))
        return True

    def quarantine(i: int, record: dict) -> None:
        failure = UnitFailure(
            index=i, label=_shard_label(shards[i][0]), key=keys[i],
            kind="shard-failed",
            error=record.get("error", "worker reported failure"),
            attempts=int(record.get("attempts", 1)), final=True,
            worker=record.get("worker"))
        results[i] = FailedUnit(failure)
        settled[i] = True
        quarantined.append(failure)
        if ledger is not None:
            ledger.event("quarantined", failure, key=failure.key, unit=i,
                         worker=failure.worker, error=failure.error,
                         attempts=failure.attempts, shard=failure.label)
        failures.add(failure)

    lanes: Dict[str, DistWorkerLane] = {}
    holder: Dict[str, str] = {}      # key -> worker last seen leasing it
    started = time.monotonic()

    def watch_leases() -> None:
        now = time.monotonic()
        for lease in queue.leases():
            previous = holder.get(lease.key)
            if previous is not None and previous != lease.worker:
                # an expired holder's shard moved: the re-lease is the
                # fabric's whole fault-tolerance story, so it is ledgered
                # (land() re-checks the done marker for steals this poll
                # loop never witnessed; ``released`` dedups the two paths)
                if ledger is not None and lease.key not in released:
                    released.add(lease.key)
                    i = index_of.get(lease.key)
                    ledger.event(
                        "re-leased", worker=lease.worker, previous=previous,
                        unit=i,
                        shard=_shard_label(shards[i][0]) if i is not None
                        else None)
            holder[lease.key] = lease.worker
            lane = lanes.get(lease.worker)
            if lane is None:
                lane = lanes[lease.worker] = DistWorkerLane(
                    worker=lease.worker)
            lane.pid = lease.pid
            lane.last_beat = now - min(lease.age_s, policy.ttl)
            lane.missing = lease.age_s > policy.ttl
            i = index_of.get(lease.key)
            lane.unit = i
            lane.label = (_shard_label(shards[i][0])
                          if i is not None else lease.key[:12])
            lane.unit_started_at = now - lease.age_s
        elapsed = max(now - started, 1e-9)
        for worker, lane in lanes.items():
            lane.units_done = done_by.get(worker, 0)
            lane.rate = lane.units_done / elapsed
            if ledger is not None:
                ledger.event("beat", lane, worker=worker)

    # the root workers receive must be the *cache* root, not the shard
    # namespace under it — ShardStore(cache_root) re-derives the latter
    cache_root = (store.root.parent if isinstance(options.cache, ShardStore)
                  else options.cache.root)
    fleet = _LocalFleet(policy, cache_root, ledger=ledger)
    waiting_notice = None if (policy.workers or hits == total) \
        else time.monotonic() + max(5.0, policy.ttl)
    try:
        if hits < total:  # a warm rerun needs no fleet
            fleet.start()
        commit_prefix()
        while not all(settled):
            # one listing of each marker directory per pass
            done, failed = queue.done_keys(), queue.failures()
            progressed = False
            for i in range(total):
                if settled[i]:
                    continue
                if keys[i] in done and land(i):
                    progressed = True
                elif keys[i] in failed:
                    quarantine(i, failed[keys[i]])
                    progressed = True
            commit_prefix()
            if progressed:
                continue
            fleet.tend(work_remains=not all(settled))
            watch_leases()
            if waiting_notice is not None \
                    and time.monotonic() > waiting_notice:
                waiting_notice = None
                print(f"coordinator: waiting for workers on "
                      f"{policy.queue} — start some with: repro worker "
                      f"--queue-dir {policy.queue} --cache-dir "
                      f"{cache_root}", file=sys.stderr)
            time.sleep(policy.poll)
    finally:
        fleet.stop()

    if stats is not None:
        stats.add(total, hits)
        stats.failed += len(quarantined)
    degrade = options.supervision is not None and options.supervision.degrade
    if quarantined and not degrade:
        raise CampaignAborted(failures)
    if ledger is not None:
        ledger.event("batch-finished", results)
    return results
