"""``repro worker``: a long-lived process that drains a shard queue.

A worker is the executing half of the distributed fabric: it claims one
shard at a time from a :class:`~repro.runner.dist.queue.ShardQueue`,
runs it in a supervised child process
(:func:`~repro.runner.supervise.run_supervised`, so retries, deadlines,
crash containment and the chaos hooks all apply per shard unchanged),
puts the artifact into the content-addressed
:class:`~repro.runner.sharding.ShardStore` under the shard's published
key, and marks the shard done.  Results never travel through the
queue: the store is where the coordinator's streaming reducer picks
them up.  One drain is one supervised batch whose items are the claims
themselves, pulled only when the child is idle — so a drain forks one
child for all its shards, not one per shard.

While a shard is held, the supervisor's loop renews its lease every
``ttl / 3`` seconds through a :class:`LeaseRenewer`; a worker that dies
(SIGKILL, OOM, power loss) simply stops renewing, and after the TTL
some other worker steals the lease and re-runs the shard.  A worker
that was merely *presumed* dead keeps computing — completion is
idempotent: the store write is content-addressed and the first
``done`` marker wins, so the duplicate costs one redundant simulation
and corrupts nothing.

Claim-one-at-a-time is the work-stealing scheduler: parallelism is the
number of worker processes, and balance comes from shard granularity
(``--shard-size`` makes many small shards) rather than from a fixed
per-worker chunk, so a straggling host holds back exactly one shard,
never a fixed fraction of the campaign.
"""

from __future__ import annotations

import pickle
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Set, Tuple

from ..pool import RunStats
from ..sharding import ShardSpec, ShardStore, _shard_call
from ..supervise import (RetryBudget, SupervisionPolicy, UnitFailure,
                         run_supervised)
from .queue import ClaimedShard, ShardQueue, default_worker_id, make_queue

__all__ = [
    "LeaseRenewer",
    "WorkerOptions",
    "WorkerStats",
    "run_worker",
    "worker_main",
]


class LeaseRenewer:
    """Renew every lease one worker holds, once per call.

    A worker calls it from its supervisor's loop (``run_supervised``'s
    ``tick``), so renewal needs no thread.  A key is dropped from
    renewal *before* the shard is completed, failed or abandoned, so no
    renewal races the lease's removal.  Renewal failure (the lease was
    stolen after a TTL expiry we slept through) is counted in ``lost``,
    not raised: the worker finishes the shard anyway and relies on
    completion idempotency, which is cheaper than abandoning work that
    is already mostly done.
    """

    def __init__(self, queue: ShardQueue, worker: str) -> None:
        self.queue = queue
        self.worker = worker
        self.held: Set[str] = set()
        self.lost = 0

    def hold(self, key: str) -> None:
        """Start renewing ``key``'s lease."""
        self.held.add(key)

    def release(self, key: str) -> None:
        """Stop renewing ``key``'s lease (before it is settled)."""
        self.held.discard(key)

    def __call__(self) -> None:
        for key in list(self.held):
            if not self.queue.renew(key, self.worker):
                self.held.discard(key)
                self.lost += 1

    def abandon(self) -> None:
        """Hand every held lease back to the queue at once."""
        for key in list(self.held):
            self.release(key)
            self.queue.abandon(key, self.worker)


@dataclass(frozen=True)
class WorkerOptions:
    """Everything ``repro worker`` configures.

    ``drain=True`` exits once the queue settles (every published shard
    done or failed) — what coordinator-spawned workers use; the default
    keeps polling forever, for pre-started fleets fed by a coordinator
    that arrives later.  ``max_shards`` bounds the shards one worker
    executes (tests, canary workers).
    """

    queue: str                       # shared queue directory
    cache_dir: str                   # shared store root (same as coordinator)
    worker_id: Optional[str] = None  # default: <host>-<pid>
    ttl: float = 30.0
    poll: float = 0.5
    drain: bool = False
    max_shards: Optional[int] = None
    max_attempts: int = 1
    unit_timeout: Optional[float] = None
    supervised: bool = True          # False: inline, leases unrenewed (tests)
    verbose: bool = False


@dataclass
class WorkerStats:
    """What one worker did, printed at exit and returned to callers."""

    worker: str = ""
    claimed: int = 0        # leases acquired
    completed: int = 0      # shards finished (first completion)
    duplicates: int = 0     # completions that lost the done-marker race
    failed: int = 0         # shards quarantined by supervision
    stolen: int = 0         # claims that re-leased an expired holder
    lost_leases: int = 0    # renewals that found the lease gone
    busy_s: float = 0.0
    stats: RunStats = field(default_factory=RunStats)

    def summary(self) -> str:
        return (f"worker {self.worker}: {self.completed} shards "
                f"({self.stolen} re-leased, {self.duplicates} duplicate, "
                f"{self.failed} failed) in {self.busy_s:.1f}s busy")


def _policy(options: WorkerOptions) -> Optional[SupervisionPolicy]:
    if not options.supervised:
        return None
    return SupervisionPolicy(
        unit_timeout=options.unit_timeout,
        retry=RetryBudget(max_attempts=max(1, options.max_attempts)))


def run_worker(options: WorkerOptions,
               queue: Optional[ShardQueue] = None) -> WorkerStats:
    """The worker loop: claim, execute, complete, repeat.

    Returns when ``drain`` is set and the queue has settled, when
    ``max_shards`` is reached, or on SIGTERM/KeyboardInterrupt (the
    held lease is abandoned so the shard re-leases immediately instead
    of waiting out the TTL).  A shard that exhausts its attempts
    becomes a queue-level failure marker for the coordinator to judge;
    the worker itself never aborts.
    """
    if queue is None:
        queue = make_queue(options.queue, ttl=options.ttl)
    store = ShardStore(options.cache_dir)
    worker_id = options.worker_id or default_worker_id()
    policy = _policy(options)
    out = WorkerStats(worker=worker_id)
    renewer = LeaseRenewer(queue, worker_id)
    # claims handed to the supervisor, by its pull-order index
    running: Dict[int, Tuple[ClaimedShard, ShardSpec, float]] = {}

    def note(message: str) -> None:
        if options.verbose:
            print(f"[{worker_id}] {message}", file=sys.stderr, flush=True)

    def complete(shard: ClaimedShard, spec: ShardSpec,
                 started: float) -> None:
        renewer.release(shard.key)
        wall = time.perf_counter() - started
        out.busy_s += wall
        if queue.complete(shard.key, worker_id, wall_s=wall,
                          previous=shard.previous):
            out.completed += 1
            note(f"done {shard.key[:12]} "
                 f"({spec.campaign} #{spec.index}, {wall:.2f}s)")
        else:
            out.duplicates += 1
            note(f"duplicate {shard.key[:12]} (presumed dead, "
                 f"another worker completed it)")

    def claims() -> Iterator[tuple]:
        index = 0  # the supervisor numbers pulled items the same way
        while options.max_shards is None or out.claimed < options.max_shards:
            shard = queue.claim(worker_id)
            if shard is None:
                if options.drain and queue.settled():
                    return
                time.sleep(options.poll)
                continue
            renewer.hold(shard.key)
            started = time.perf_counter()
            out.claimed += 1
            if shard.previous:
                out.stolen += 1
                note(f"re-leased {shard.key[:12]} from {shard.previous}")
            fn, spec, args = pickle.loads(shard.payload)
            hit = shard.key in store
            out.stats.add(1, int(hit))
            if hit:
                # landed by a holder presumed dead: nothing to recompute
                complete(shard, spec, started)
                continue
            running[index] = (shard, spec, started)
            index += 1
            yield fn, spec, args

    def on_done(index: int, value, *_lane) -> None:
        shard, spec, started = running.pop(index)
        store.put(shard.key, value)
        complete(shard, spec, started)

    def on_failure(failure: UnitFailure) -> None:
        if not failure.final:
            return
        shard, _spec, started = running.pop(failure.index)
        renewer.release(shard.key)
        out.busy_s += time.perf_counter() - started
        out.failed += 1
        queue.fail(shard.key, worker_id, failure.error,
                   attempts=failure.attempts)
        note(f"failed {shard.key[:12]}: {failure.error}")

    note(f"draining {options.queue} (ttl {options.ttl}s)")
    try:
        if policy is None:
            for index, item in enumerate(claims()):
                on_done(index, _shard_call(item))
        else:
            _, quarantined, retries = run_supervised(
                _shard_call, claims(), jobs=1, policy=policy,
                describe=lambda i: f"shard {running[i][1].campaign} "
                                   f"#{running[i][1].index}",
                on_done=on_done, on_failure=on_failure,
                tick=(max(0.05, options.ttl / 3.0), renewer))
            out.stats.retries += retries
            out.stats.failed += len(quarantined)
    except BaseException:
        # SIGTERM/Ctrl-C (or an unsupervised shard crash): hand the
        # lease back so the shard re-leases now, not after the TTL
        renewer.abandon()
        raise
    out.lost_leases = renewer.lost
    note(out.summary())
    return out


def worker_main(options: WorkerOptions, queue: Optional[ShardQueue] = None
                ) -> Tuple[int, Optional[WorkerStats]]:
    """One worker's life, for ``repro worker`` and the coordinator's
    forked lanes alike: ``(exit code, stats or None if stopped)``.

    SIGTERM (how the coordinator stops its lanes) goes through the
    normal teardown, so the held lease is abandoned at once instead of
    after the TTL; the caller's handler is restored on return.
    """
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return 0, run_worker(options, queue=queue)
    except KeyboardInterrupt:
        print("worker interrupted; lease abandoned", file=sys.stderr)
        return 130, None
    except SystemExit as exc:
        # the coordinator's routine drain-phase SIGTERM: exit quietly
        if options.verbose:
            print("worker terminated; lease abandoned", file=sys.stderr)
        return int(exc.code or 0), None
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
