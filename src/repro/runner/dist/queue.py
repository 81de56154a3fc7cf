"""The shard work queue: lease-based claims over shared storage.

One campaign's shards become one queue: the coordinator *publishes*
each shard's payload under its content-address
(:func:`~repro.runner.sharding.shard_fingerprint`), any number of
worker processes — on one host or many — *claim* shards one at a time,
and completion is recorded with a marker the coordinator (and every
other worker) can see.  Results never travel through the queue: a
worker pushes its :class:`~repro.runner.sharding.ShardResult` into the
shared :class:`~repro.runner.sharding.ShardStore` and the queue only
says *whose turn it is* and *what already happened*.

:class:`FileShardQueue` is the reference backend: a directory (local
tmpfs for same-host fleets, NFS or another shared filesystem for
multi-host ones) holding four kinds of entries::

    <root>/tasks/<key>.task    pickled (fn, spec, args), atomically published
    <root>/leases/<key>.lease  live claim; mtime is the TTL authority
    <root>/done/<key>.done     completion marker (worker + wall seconds)
    <root>/failed/<key>.failed quarantine marker (worker + error)

The lease protocol is built entirely on atomic filesystem primitives,
so it needs no daemon and no locks:

* **Claim** — ``open(..., O_CREAT | O_EXCL)`` on the lease path.  At
  most one process can create a given file, so at most one worker
  holds a shard.  The lease *content* (worker id, pid, host) is
  attribution only; liveness is the file's **mtime**, which means a
  torn content write can never corrupt the protocol.  Each claimer
  walks a cursor over a publish-ordered listing of the open tasks, so
  a claim costs O(1) filesystem calls amortized; the listing is re-read
  on a miss and once it is a TTL old.
* **Renew** — the holder rewrites its lease record and touches its
  mtime every ``ttl / 3`` seconds (see
  :class:`~repro.runner.dist.worker.LeaseRenewer`).  The lease is
  opened without ``O_CREAT``, so a renewal that races a steal or the
  holder's own completion fails instead of resurrecting the lease; the
  mtime touch is the one atomic step that extends the TTL.
* **Expire + steal** — a lease whose mtime is older than ``ttl`` is
  presumed dead.  A stealer first ``os.rename``\\ s the stale lease to a
  unique tombstone — rename is atomic, so exactly one stealer wins —
  and then claims fresh.  The tombstone's content names the previous
  holder, which is how re-leases are attributed in the run ledger.
* **Complete** — the done marker's record goes to a temporary file
  that is ``os.link``\\ ed into place; the link fails if the marker
  exists, and a marker never appears without its record.  Duplicate
  completions (a presumed-dead worker that was merely slow) are
  harmless: the artifact store write is idempotent (same key, same
  bytes) and the second done marker loses the race and is dropped.

TTLs compare a lease's mtime against the *observer's* clock, so hosts
sharing one queue should have loosely synchronized clocks (NTP-grade
skew is fine for the multi-second TTLs this queue is meant for).
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

__all__ = [
    "ClaimedShard",
    "FileShardQueue",
    "Lease",
    "ShardQueue",
    "default_worker_id",
    "make_queue",
    "queue_path",
]


def default_worker_id() -> str:
    """``<host>-<pid>``: unique per worker process across a shared queue."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass(frozen=True)
class Lease:
    """One live claim, as an observer sees it (coordinator lane feed)."""

    key: str                 # shard fingerprint the lease covers
    worker: str              # holder's worker id ("?" if content torn)
    pid: int                 # holder's pid (0 if content torn)
    host: str                # holder's hostname ("?" if content torn)
    age_s: float             # seconds since the last renewal (mtime)
    renewals: int            # heartbeat renewals recorded so far


@dataclass(frozen=True)
class ClaimedShard:
    """What :meth:`ShardQueue.claim` hands a worker.

    ``previous`` names the worker whose expired lease was stolen to
    make this claim, or ``None`` for a first lease — the re-lease
    attribution that ends up in the run ledger.
    """

    key: str
    payload: bytes
    previous: Optional[str] = None


@dataclass
class _Cursor:
    """One claimer's position in a publish-ordered task listing."""

    keys: List[str] = field(default_factory=list)
    position: int = 0
    listed_at: float = float("-inf")


class ShardQueue:
    """The queue interface every backend implements.

    Payloads are opaque bytes (the shard engine pickles
    ``(fn, spec, args)``); keys are the shard fingerprints the artifact
    store is addressed by, so queue state and store state line up
    one-to-one.
    """

    def publish(self, key: str, payload: bytes) -> bool:
        """Make one shard claimable; ``False`` if already published."""
        raise NotImplementedError

    def claim(self, worker: str) -> Optional[ClaimedShard]:
        """Lease one unclaimed, unfinished shard; ``None`` if none."""
        raise NotImplementedError

    def renew(self, key: str, worker: str) -> bool:
        """Heartbeat one held lease; ``False`` when it was lost."""
        raise NotImplementedError

    def complete(self, key: str, worker: str, wall_s: float = 0.0,
                 previous: Optional[str] = None, attempts: int = 1) -> bool:
        """Mark one shard done; ``False`` on a duplicate completion.

        ``previous`` (the dead holder a stolen lease was taken from, as
        reported by :attr:`ClaimedShard.previous`) is recorded in the
        done marker so the coordinator can attribute the re-lease even
        if it never observed the intermediate lease states.
        ``attempts`` above 1 (the worker retried the shard before it
        succeeded) is recorded too, so the coordinator can ledger the
        failed attempts as retries.
        """
        raise NotImplementedError

    def fail(self, key: str, worker: str, error: str,
             attempts: int = 1) -> None:
        """Mark one shard quarantined (supervision exhausted retries)."""
        raise NotImplementedError

    def abandon(self, key: str, worker: str) -> None:
        """Release a held lease without completing (clean shutdown)."""
        raise NotImplementedError

    def done_keys(self) -> Set[str]:
        """Every key with a completion marker."""
        raise NotImplementedError

    def done_record(self, key: str) -> dict:
        """The completion marker's attribution (worker, wall seconds)."""
        raise NotImplementedError

    def pending(self) -> List[str]:
        """Published keys not yet done and not failed."""
        raise NotImplementedError

    def settled(self) -> bool:
        """True when every published shard is done or failed."""
        return not self.pending()

    def leases(self) -> List[Lease]:
        """Every live (unexpired *or* expired-but-unstolen) lease."""
        raise NotImplementedError

    def failures(self) -> Dict[str, dict]:
        """Quarantine records by key."""
        raise NotImplementedError


class FileShardQueue(ShardQueue):
    """The shared-directory backend (see the module docstring for the
    protocol).  ``ttl`` is the lease lifetime in seconds; a holder that
    stops renewing for longer than that is presumed dead and its shard
    is re-leased."""

    def __init__(self, root, *, ttl: float = 30.0,
                 clock=time.time) -> None:
        if ttl <= 0:
            raise ValueError(f"lease ttl must be > 0, got {ttl}")
        self.root = Path(root)
        self.ttl = float(ttl)
        self.clock = clock
        self._tasks = self.root / "tasks"
        self._leases = self.root / "leases"
        self._done = self.root / "done"
        self._failed = self.root / "failed"
        for directory in (self._tasks, self._leases, self._done,
                          self._failed):
            directory.mkdir(parents=True, exist_ok=True)
        # each claimer's cursor over the open tasks, in publish order
        self._cursors: Dict[str, _Cursor] = {}

    # -- helpers -------------------------------------------------------------

    def _task_path(self, key: str) -> Path:
        return self._tasks / f"{key}.task"

    def _lease_path(self, key: str) -> Path:
        return self._leases / f"{key}.lease"

    def _done_path(self, key: str) -> Path:
        return self._done / f"{key}.done"

    def _failed_path(self, key: str) -> Path:
        return self._failed / f"{key}.failed"

    @staticmethod
    def _read_json(path: Path) -> dict:
        """Best-effort JSON read: attribution survives torn writes as
        ``{}`` — never an exception, never a protocol decision."""
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}

    def _marker(self, path: Path, record: dict) -> bool:
        """Create a write-once marker; ``False`` when it already exists.
        The record is written first and hard-linked into place, so a
        marker is never seen without its attribution."""
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(json.dumps(record))
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        finally:
            os.unlink(tmp)
        return True

    # -- publishing ----------------------------------------------------------

    def publish(self, key: str, payload: bytes) -> bool:
        path = self._task_path(key)
        if path.exists():
            return False
        tmp = path.with_name(f".{os.getpid()}-{key}.tmp")
        tmp.write_bytes(payload)
        os.replace(tmp, path)  # atomic: a claimer never sees a torn payload
        return True

    def payload(self, key: str) -> Optional[bytes]:
        try:
            return self._task_path(key).read_bytes()
        except OSError:
            return None

    # -- claiming ------------------------------------------------------------

    def _acquire(self, key: str, worker: str,
                 previous: Optional[str]) -> bool:
        path = self._lease_path(key)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False  # another claimer beat us to it
        record = {"worker": worker, "pid": os.getpid(),
                  "host": socket.gethostname(), "renewals": 0,
                  "claimed_at": round(self.clock(), 3)}
        if previous:
            record["previous"] = previous
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(json.dumps(record))
        return True

    def _steal(self, key: str) -> Optional[str]:
        """Tombstone one expired lease; returns the previous holder's
        worker id when *this* caller won the rename race, else ``None``."""
        path = self._lease_path(key)
        tomb = self._leases / f".stale-{key}-{os.getpid()}-{time.monotonic_ns()}"
        try:
            os.rename(path, tomb)
        except OSError:
            return None  # someone else stole (or the holder completed)
        return self._read_json(tomb).get("worker") or "?"

    def _relist(self, cursor: _Cursor, now: float) -> None:
        """Re-read the unsettled task files in publish order and rewind
        ``cursor``: one listing of each marker directory, one ``stat``
        per task still open."""
        settled = {path.stem for path in self._done.glob("*.done")} | {
            path.stem for path in self._failed.glob("*.failed")}
        tasks = []
        for path in self._tasks.glob("*.task"):
            key = path.name[:-len(".task")]
            if key in settled:
                continue
            try:
                tasks.append((path.stat().st_mtime, key))
            except OSError:
                continue  # racing publisher; the next listing sees it
        # publish order first: the coordinator publishes in plan order,
        # so draining oldest-first keeps the reducer's plan-order prefix
        # growing instead of landing artifacts it cannot commit yet
        tasks.sort()
        cursor.keys = [key for _, key in tasks]
        cursor.position = 0
        cursor.listed_at = now

    def _take(self, key: str, worker: str,
              now: float) -> Optional[ClaimedShard]:
        """Lease ``key`` if it is open: unsettled, and unleased or held
        past the TTL."""
        if self._done_path(key).exists() or self._failed_path(key).exists():
            return None
        previous = None
        if not self._acquire(key, worker, None):
            try:
                age = now - self._lease_path(key).stat().st_mtime
            except OSError:
                return None  # released since: the next listing retries it
            if age <= self.ttl:
                return None  # live holder
            previous = self._steal(key)
            if previous is None or not self._acquire(key, worker, previous):
                return None  # lost the steal (or the re-claim) race
        payload = self.payload(key)
        if payload is None:  # pragma: no cover - publisher race
            self.abandon(key, worker)
            return None
        return ClaimedShard(key, payload, previous)

    def claim(self, worker: str) -> Optional[ClaimedShard]:
        """Lease the oldest open shard past ``worker``'s cursor.

        The cursor walks a publish-ordered listing, so a drain costs
        O(1) filesystem calls per claim.  The listing is re-read on a
        miss, and once it is older than the TTL — which rewinds the
        cursor, so a lease that expired behind it is stolen within one
        TTL, oldest first.
        """
        now = self.clock()
        cursor = self._cursors.setdefault(worker, _Cursor())
        fresh = now - cursor.listed_at > self.ttl
        if fresh:
            self._relist(cursor, now)
        while True:
            while cursor.position < len(cursor.keys):
                key = cursor.keys[cursor.position]
                cursor.position += 1
                claimed = self._take(key, worker, now)
                if claimed is not None:
                    return claimed
            if fresh:
                return None
            self._relist(cursor, now)
            fresh = True

    # -- lease lifecycle -----------------------------------------------------

    def renew(self, key: str, worker: str) -> bool:
        path = self._lease_path(key)
        record = self._read_json(path)
        if record.get("worker") != worker:
            return False  # expired and re-leased to someone else
        record["renewals"] = int(record.get("renewals", 0)) + 1
        try:
            # never O_CREAT: a lease renamed away since the read (stolen,
            # completed, abandoned) stays gone instead of coming back
            fd = os.open(path, os.O_WRONLY | os.O_TRUNC)
        except OSError:
            return False
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            # attribution refresh first, then the mtime touch that
            # actually extends the TTL (utime is the atomic step)
            f.write(json.dumps(record))
            f.flush()
            os.utime(f.fileno())
        return True

    def complete(self, key: str, worker: str, wall_s: float = 0.0,
                 previous: Optional[str] = None, attempts: int = 1) -> bool:
        record = {"worker": worker, "wall_s": round(wall_s, 6),
                  "finished_at": round(self.clock(), 3)}
        if previous:
            record["previous"] = previous
        if attempts > 1:
            record["attempts"] = attempts
        first = self._marker(self._done_path(key), record)
        self.abandon(key, worker)
        return first

    def fail(self, key: str, worker: str, error: str,
             attempts: int = 1) -> None:
        self._marker(self._failed_path(key), {
            "worker": worker, "error": error, "attempts": attempts,
            "failed_at": round(self.clock(), 3)})
        self.abandon(key, worker)

    def abandon(self, key: str, worker: str) -> None:
        path = self._lease_path(key)
        if self._read_json(path).get("worker") == worker:
            try:
                path.unlink()
            except OSError:
                pass

    # -- observation ---------------------------------------------------------

    def done_keys(self) -> Set[str]:
        return {path.stem for path in self._done.glob("*.done")}

    def done_record(self, key: str) -> dict:
        return self._read_json(self._done_path(key))

    def failure_record(self, key: str) -> dict:
        return self._read_json(self._failed_path(key))

    def pending(self) -> List[str]:
        settled = self.done_keys() | {
            path.stem for path in self._failed.glob("*.failed")}
        return sorted(path.stem for path in self._tasks.glob("*.task")
                      if path.stem not in settled)

    def leases(self) -> List[Lease]:
        now = self.clock()
        out = []
        for path in self._leases.glob("*.lease"):
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue  # completed/stolen between glob and stat
            record = self._read_json(path)
            out.append(Lease(
                key=path.name[:-len(".lease")],
                worker=record.get("worker", "?"),
                pid=int(record.get("pid", 0)),
                host=record.get("host", "?"),
                age_s=age,
                renewals=int(record.get("renewals", 0))))
        return sorted(out, key=lambda lease: lease.key)

    def failures(self) -> Dict[str, dict]:
        out = {}
        for path in self._failed.glob("*.failed"):
            out[path.name[:-len(".failed")]] = self._read_json(path)
        return out


def queue_path(spec) -> str:
    """The directory a queue spec names.

    A URL (``scheme://...``) raises ``ValueError``: the shared directory
    is the only transport, and ``redis://host`` must not quietly become
    a directory called ``redis:``.
    """
    text = str(spec)
    if "://" in text:
        raise ValueError(
            f"shard queue {text!r} is a URL; the queue is a directory "
            f"path shared by the coordinator and every worker")
    return os.path.expanduser(text)


def make_queue(spec, *, ttl: float = 30.0) -> ShardQueue:
    """A :class:`FileShardQueue` over the directory ``spec`` names
    (see :func:`queue_path`)."""
    return FileShardQueue(queue_path(spec), ttl=ttl)
