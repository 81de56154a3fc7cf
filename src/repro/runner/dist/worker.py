"""``repro worker``: a long-lived process that drains a shard queue.

A worker is the executing half of the distributed fabric: it claims one
shard at a time from a :class:`~repro.runner.dist.queue.ShardQueue`,
runs it through the *existing* engine (``run_tasks`` with the shard's
published key — so the supervised pool, retries, chaos hooks and the
content-addressed :class:`~repro.runner.sharding.ShardStore` all apply
unchanged), and marks the shard done.  Results never travel through the
queue: the artifact lands in the shared store under the same key the
queue tracked, which is where the coordinator's streaming reducer picks
it up.

While a shard runs, a :class:`LeaseHeartbeat` thread renews the lease
every ``ttl / 3`` seconds; a worker that dies (SIGKILL, OOM, power
loss) simply stops renewing, and after the TTL some other worker steals
the lease and re-runs the shard.  A worker that was merely *presumed*
dead keeps computing — completion is idempotent: the store write is
content-addressed and the first ``done`` marker wins, so the duplicate
costs one redundant simulation and corrupts nothing.

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
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..pool import RunStats, engine_options, run_tasks
from ..sharding import ShardStore, _shard_call
from ..supervise import FailedUnit, RetryBudget, SupervisionPolicy
from .queue import ShardQueue, default_worker_id, make_queue

__all__ = [
    "LeaseHeartbeat",
    "WorkerOptions",
    "WorkerStats",
    "run_worker",
    "worker_main",
]


class LeaseHeartbeat:
    """Renew one lease from a daemon thread while its shard runs.

    Renewal failure (the lease was stolen after a TTL expiry we slept
    through) is recorded, not raised: the worker finishes the shard
    anyway and relies on completion idempotency, which is cheaper than
    abandoning work that is already mostly done.
    """

    def __init__(self, queue: ShardQueue, key: str, worker: str,
                 interval: float) -> None:
        self.queue = queue
        self.key = key
        self.worker = worker
        self.interval = max(0.05, interval)
        self.lost = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            if not self.queue.renew(self.key, self.worker):
                self.lost = True
                return

    def __enter__(self) -> "LeaseHeartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


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
    supervised: bool = True          # False: run shards inline (tests)
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
    lost_leases: int = 0    # heartbeats that found the lease gone
    busy_s: float = 0.0
    stats: RunStats = field(default_factory=RunStats)

    def summary(self) -> str:
        return (f"worker {self.worker}: {self.completed} shards "
                f"({self.stolen} re-leased, {self.duplicates} duplicate, "
                f"{self.failed} failed) in {self.busy_s:.1f}s busy")


def _policy(options: WorkerOptions) -> Optional[SupervisionPolicy]:
    if not options.supervised:
        return None
    # degrade=True always: a failed shard becomes a queue-level failure
    # marker for the coordinator to judge; the worker itself never aborts
    return SupervisionPolicy(
        unit_timeout=options.unit_timeout,
        retry=RetryBudget(max_attempts=max(1, options.max_attempts)),
        degrade=True)


def run_worker(options: WorkerOptions,
               queue: Optional[ShardQueue] = None) -> WorkerStats:
    """The worker loop: claim, execute, complete, repeat.

    Returns when ``drain`` is set and the queue has settled, when
    ``max_shards`` is reached, or on SIGTERM/KeyboardInterrupt (the
    held lease is abandoned so the shard re-leases immediately instead
    of waiting out the TTL).
    """
    if queue is None:
        queue = make_queue(options.queue, ttl=options.ttl)
    store = ShardStore(options.cache_dir)
    worker_id = options.worker_id or default_worker_id()
    policy = _policy(options)
    out = WorkerStats(worker=worker_id)

    def note(message: str) -> None:
        if options.verbose:
            print(f"[{worker_id}] {message}", file=sys.stderr, flush=True)

    note(f"draining {options.queue} (ttl {options.ttl}s)")
    while True:
        if options.max_shards is not None \
                and out.claimed >= options.max_shards:
            break
        claimed = queue.claim(worker_id)
        if claimed is None:
            if options.drain and queue.settled():
                break
            time.sleep(options.poll)
            continue
        out.claimed += 1
        if claimed.previous:
            out.stolen += 1
            note(f"re-leased {claimed.key[:12]} from {claimed.previous}")
        fn, spec, args = pickle.loads(claimed.payload)
        started = time.perf_counter()
        heartbeat = LeaseHeartbeat(queue, claimed.key, worker_id,
                                   interval=options.ttl / 3.0)
        try:
            with heartbeat, engine_options(jobs=1, cache=store,
                                           stats=out.stats,
                                           supervision=policy):
                [result] = run_tasks(_shard_call, [((fn, spec, args),)],
                                     keys=[claimed.key])
        except BaseException:
            # SIGTERM/Ctrl-C (or an unsupervised shard crash): hand the
            # lease back so the shard re-leases now, not after the TTL
            queue.abandon(claimed.key, worker_id)
            raise
        wall = time.perf_counter() - started
        out.busy_s += wall
        if heartbeat.lost:
            out.lost_leases += 1
        if isinstance(result, FailedUnit):
            out.failed += 1
            queue.fail(claimed.key, worker_id, result.failure.error,
                       attempts=result.failure.attempts)
            note(f"failed {claimed.key[:12]}: {result.failure.error}")
            continue
        if queue.complete(claimed.key, worker_id, wall_s=wall,
                          previous=claimed.previous):
            out.completed += 1
            note(f"done {claimed.key[:12]} "
                 f"({spec.campaign} #{spec.index}, {wall:.2f}s)")
        else:
            out.duplicates += 1
            note(f"duplicate {claimed.key[:12]} (presumed dead, "
                 f"another worker completed it)")
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
