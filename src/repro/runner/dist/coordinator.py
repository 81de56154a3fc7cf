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
when a local worker leaves.  Worker lanes
(:class:`~repro.runner.supervise.WorkerLane`, the pool's own lane type)
are synthesized from queue lease state and streamed as the ledger's
live ``beat`` events, so the progress board renders a distributed
campaign with no code of its own.
"""

from __future__ import annotations

import pickle
import sys
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..pool import _OPTIONS, EngineOptions, current_options
from ..sharding import ShardSpec, ShardStore
from ..supervise import (CampaignAborted, FailedUnit, UnitFailure,
                         WorkerLane, _process_context)
from .queue import ShardQueue, make_queue, queue_path
from .worker import WorkerOptions, worker_main

__all__ = [
    "DistPolicy",
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


def _lane_main(options: WorkerOptions) -> None:
    """One local worker lane, forked from the coordinator.  It drops the
    inherited engine options (ledger, dist policy, health monitor) and
    starts from the defaults as ``repro worker`` does."""
    _OPTIONS.set(EngineOptions())
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
    *, on_result: Optional[Callable[[Any], None]] = None,
    queue: Optional[ShardQueue] = None,
) -> List[Any]:
    """Run one shard batch over the distributed fabric (see module doc).

    Same contract as the local :func:`~repro.runner.sharding.run_shards`
    body: plan-ordered results (``ShardResult`` or ``FailedUnit``),
    every settlement on the ambient ledger, ``CampaignAborted`` on a
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
        ledger.event("scheduled", units=total, cache_hits=hits,
                     batch="run_shards_distributed")
        ledger.event("dist-published", shards=total - hits,
                     new=published, cache_hits=hits, queue=str(policy.queue),
                     workers=policy.workers, ttl=policy.ttl)

    quarantined: List[UnitFailure] = []
    retries = 0                      # failed attempts at settled shards
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

    def retried(i: int, record: dict) -> None:
        # a marker's attempts count the worker's failed tries too; each
        # is ledgered ahead of the shard's settlement, so the resume fold
        # (last status wins) still ends on that settlement
        nonlocal retries
        worker = record.get("worker")
        for attempt in range(1, int(record.get("attempts", 1))):
            retries += 1
            if ledger is not None:
                ledger.failure(UnitFailure(
                    index=i, label=_shard_label(shards[i][0]), key=keys[i],
                    kind="shard-retried",
                    error=f"attempt {attempt} failed on {worker}",
                    attempts=attempt, worker=worker))

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
        retried(i, record)
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
        retried(i, record)
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
            ledger.failure(failure)

    lanes: Dict[str, WorkerLane] = {}
    holder: Dict[str, str] = {}      # key -> worker last seen leasing it
    started = time.monotonic()

    def watch_leases() -> None:
        now = time.monotonic()
        leasing = set()
        for lease in queue.leases():
            i = index_of.get(lease.key)
            if i is not None and settled[i]:
                # a landed shard's worker writes the done marker before
                # it drops the lease: that lease runs nothing
                continue
            previous = holder.get(lease.key)
            if previous is not None and previous != lease.worker:
                # an expired holder's shard moved: the re-lease is the
                # fabric's whole fault-tolerance story, so it is ledgered
                # (land() re-checks the done marker for steals this poll
                # loop never witnessed; ``released`` dedups the two paths)
                if ledger is not None and lease.key not in released:
                    released.add(lease.key)
                    ledger.event(
                        "re-leased", worker=lease.worker, previous=previous,
                        unit=i,
                        shard=_shard_label(shards[i][0]) if i is not None
                        else None)
            holder[lease.key] = lease.worker
            leasing.add(lease.worker)
            lane = lanes.get(lease.worker)
            if lane is None:
                lane = lanes[lease.worker] = WorkerLane(worker=lease.worker)
            lane.pid = lease.pid
            lane.last_beat = now - min(lease.age_s, policy.ttl)
            lane.missing = lease.age_s > policy.ttl
            lane.unit = i
            lane.label = (_shard_label(shards[i][0])
                          if i is not None else lease.key[:12])
            lane.unit_started_at = now - lease.age_s
        elapsed = max(now - started, 1e-9)
        for worker, lane in lanes.items():
            if worker not in leasing:   # its shard landed: nothing running
                lane.unit, lane.label, lane.unit_started_at = None, "", None
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
        watch_leases()   # the final beat follows the final landings
    finally:
        fleet.stop()

    degrade = options.supervision is not None and options.supervision.degrade
    if quarantined and not degrade:
        raise CampaignAborted(quarantined, retries)
    if ledger is not None:
        ledger.event("batch-finished", results)
    return results
