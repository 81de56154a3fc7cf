"""Tests for the distributed shard fabric: queue, worker, coordinator.

The load-bearing guarantees:

* **Lease protocol** — ``O_CREAT|O_EXCL`` claims are mutually
  exclusive; the lease *mtime* is the TTL authority (renewal is one
  ``utime``); an expired lease is stolen through an atomic rename so
  exactly one stealer wins and the previous holder is attributed;
  completion markers are write-once, so duplicate completions from a
  presumed-dead-but-slow worker are harmless.
* **Crash safety** — a worker that dies mid-shard (simulated here by a
  claim that never completes, aged past the TTL) loses nothing: the
  shard re-leases to a live worker, the re-lease lands in the run
  ledger with both identities, and artifacts already in the store are
  never re-simulated.
* **Byte-identity** — the coordinator commits the contiguous
  *plan-order* prefix to ``on_result``, so a distributed campaign's
  streamed reduction (and its exports, checked at the CLI level) is
  identical to the single-host sharded run.
* **Store atomicity** — many worker processes hammering one
  content-addressed store concurrently never produce a torn or corrupt
  entry (every ``get`` sees a complete value or a miss).

TTL expiry is simulated by back-dating the lease file's mtime with
``os.utime`` instead of sleeping, so the suite stays fast and exact.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.runner.cache import ResultCache
from repro.runner.dist import coordinator
from repro.runner.dist import (
    DistPolicy,
    FileShardQueue,
    LeaseRenewer,
    WorkerOptions,
    make_queue,
    run_worker,
)
from repro.runner.dist.coordinator import _LocalFleet
from repro.runner.ledger import (RunLedger, UnitCounts, ledger_path,
                                 load_ledger)
from repro.runner.pool import engine_options
from repro.runner.sharding import (
    ShardResult,
    ShardSpec,
    ShardStore,
    _shard_call,
    run_shards,
    shard_fingerprint,
)
from repro.runner import supervise
from repro.runner.supervise import (
    CampaignAborted,
    FailedUnit,
    RetryBudget,
    SupervisionPolicy,
    run_supervised,
)


# -- shard workers (module-level: payloads pickle by reference) --------------

def _moments_shard(start: int, count: int):
    """A deterministic, mergeable shard value: moments of a range."""
    from repro.stats import MomentAccumulator

    acc = MomentAccumulator()
    acc.add_many([float(v) for v in range(start, start + count)])
    return acc


def _boom_shard(start: int, count: int):
    raise RuntimeError(f"boom at {start}")


def _sleepy_shard(start: int, count: int):
    """Keeps its lane busy until the lane is stopped."""
    time.sleep(30)
    return _moments_shard(start, count)


def _slow_shard(start: int, count: int):
    """Holds its lease across several coordinator polls."""
    time.sleep(0.3)
    return _moments_shard(start, count)


def _crash_once_shard(start: int, count: int, marker: str):
    """Kills its process on the first attempt, succeeds on the next."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(137)
    return _moments_shard(start, count)


def _lease_probe(payload):
    """A supervised unit that outlives the lease TTL, then reports the
    leases as any other worker would see them."""
    root, seconds = payload
    time.sleep(seconds)
    return [(lease.worker, lease.age_s, lease.renewals)
            for lease in FileShardQueue(root).leases()]


def _make_shards(n: int, units: int = 5, campaign: str = "dist-test",
                 fn=_moments_shard):
    """``(shards, keys)`` for an ``n``-shard synthetic campaign."""
    shards = [
        (ShardSpec(campaign=campaign, scale="small", seed=0, index=i,
                   of=n, units=units), (i * units, units))
        for i in range(n)
    ]
    keys = [shard_fingerprint(spec, fn, args) for spec, args in shards]
    return shards, keys


def _publish_all(queue, shards, keys, fn=_moments_shard):
    for (spec, args), key in zip(shards, keys):
        queue.publish(key, pickle.dumps((fn, spec, tuple(args)),
                                        protocol=pickle.HIGHEST_PROTOCOL))


def _age_lease(queue: FileShardQueue, key: str, seconds: float) -> None:
    """Back-date one lease's mtime: the deterministic TTL clock."""
    past = time.time() - seconds
    os.utime(queue._lease_path(key), (past, past))


def _moments_equal(a, b) -> bool:
    return (a.count, a.total, a.min, a.max) == \
        (b.count, b.total, b.min, b.max) and a.mean == b.mean \
        and a.m2 == b.m2


# -- the lease protocol ------------------------------------------------------

class TestFileShardQueue:
    def test_publish_is_idempotent_and_claims_follow_publish_order(
            self, tmp_path):
        queue = FileShardQueue(tmp_path, ttl=30)
        assert queue.publish("aaa", b"first")
        assert not queue.publish("aaa", b"changed")  # write-once
        queue.publish("bbb", b"second")
        assert queue.payload("aaa") == b"first"
        assert sorted(queue.pending()) == ["aaa", "bbb"]

        first = queue.claim("w0")
        second = queue.claim("w1")
        assert (first.key, first.payload) == ("aaa", b"first")
        assert second.key == "bbb"
        assert first.previous is None and second.previous is None

    def test_claim_is_mutually_exclusive(self, tmp_path):
        queue = FileShardQueue(tmp_path, ttl=30)
        queue.publish("aaa", b"x")
        assert queue.claim("w0") is not None
        # the only shard is leased to a live holder: nothing to claim
        assert queue.claim("w1") is None
        [lease] = queue.leases()
        assert lease.worker == "w0" and lease.key == "aaa"
        assert lease.pid == os.getpid()

    def test_expired_lease_is_stolen_with_attribution(self, tmp_path):
        queue = FileShardQueue(tmp_path, ttl=5)
        queue.publish("aaa", b"x")
        assert queue.claim("dead-worker") is not None
        _age_lease(queue, "aaa", seconds=6)  # past the 5s TTL

        stolen = queue.claim("rescuer")
        assert stolen is not None
        assert stolen.key == "aaa"
        assert stolen.previous == "dead-worker"
        [lease] = queue.leases()
        assert lease.worker == "rescuer"

        # completing a stolen shard durably attributes the dead holder,
        # so the coordinator can ledger the re-lease even if it never
        # observed the lease change between polls
        assert queue.complete("aaa", "rescuer", wall_s=0.25,
                              previous=stolen.previous)
        record = queue.done_record("aaa")
        assert record["worker"] == "rescuer"
        assert record["previous"] == "dead-worker"

    def test_renew_extends_the_ttl_and_rejects_non_holders(self, tmp_path):
        queue = FileShardQueue(tmp_path, ttl=5)
        queue.publish("aaa", b"x")
        queue.claim("w0")
        _age_lease(queue, "aaa", seconds=4)  # old, but not expired
        assert queue.renew("aaa", "w0")
        [lease] = queue.leases()
        assert lease.age_s < 1.0  # mtime touched: TTL restarted
        assert lease.renewals == 1
        assert not queue.renew("aaa", "somebody-else")

    def test_duplicate_completion_is_idempotent(self, tmp_path):
        queue = FileShardQueue(tmp_path, ttl=30)
        queue.publish("aaa", b"x")
        queue.claim("w0")
        assert queue.complete("aaa", "w0", wall_s=1.5)
        # the presumed-dead-but-slow holder finishing late loses the race
        assert not queue.complete("aaa", "w1", wall_s=9.9)
        assert queue.done_keys() == {"aaa"}
        # the marker is linked into place; neither writer leaves its
        # temporary record behind
        assert os.listdir(tmp_path / "done") == ["aaa.done"]
        assert queue.done_record("aaa")["worker"] == "w0"
        assert queue.pending() == [] and queue.settled()
        assert queue.claim("w2") is None  # done shards are never re-leased

    def test_abandon_releases_only_the_holders_lease(self, tmp_path):
        queue = FileShardQueue(tmp_path, ttl=30)
        queue.publish("aaa", b"x")
        queue.claim("w0")
        queue.abandon("aaa", "intruder")  # not the holder: no-op
        assert queue.claim("w1") is None
        queue.abandon("aaa", "w0")
        # a clean abandon is not a steal: no previous-holder attribution
        reclaimed = queue.claim("w1")
        assert reclaimed is not None and reclaimed.previous is None

    def test_failure_markers_settle_the_shard(self, tmp_path):
        queue = FileShardQueue(tmp_path, ttl=30)
        queue.publish("aaa", b"x")
        queue.claim("w0")
        queue.fail("aaa", "w0", "division by zero", attempts=2)
        assert queue.pending() == [] and queue.settled()
        assert queue.claim("w1") is None
        record = queue.failures()["aaa"]
        assert record["error"] == "division by zero"
        assert record["attempts"] == 2
        assert queue.failure_record("aaa")["worker"] == "w0"

    def test_ttl_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            FileShardQueue(tmp_path, ttl=0)

    def test_make_queue_routes_paths_and_rejects_urls(
            self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        queue = make_queue(tmp_path / "q", ttl=7)
        assert isinstance(queue, FileShardQueue)
        assert queue.ttl == 7
        # the shared directory is the only transport: a URL is refused
        # loudly instead of becoming a directory called "redis:"
        monkeypatch.chdir(tmp_path)
        url = "redis://localhost:6379/0"
        with pytest.raises(ValueError, match="redis://"):
            make_queue(url)
        with pytest.raises(ValueError, match="redis://"):
            DistPolicy(queue=url)
        assert main(["worker", "--queue-dir", url,
                     "--cache-dir", str(tmp_path / "cache")]) == 2
        assert main(["experiment", "model_validation", "--sessions", "8",
                     "--distributed", "--queue-dir", url,
                     "--cache-dir", str(tmp_path / "cache")]) == 2
        assert capsys.readouterr().err.count("redis://") == 2
        assert not (tmp_path / "redis:").exists()

    def test_heartbeat_renews_while_running(self, tmp_path):
        queue = FileShardQueue(tmp_path, ttl=0.4)
        queue.publish("aaa", b"x")
        queue.claim("w0")
        renewer = LeaseRenewer(queue, "w0")
        renewer.hold("aaa")
        # the supervisor's loop renews while the unit runs longer than
        # the TTL in its child; only renewal keeps the lease alive
        [leases], _, _ = run_supervised(
            _lease_probe, [(str(tmp_path), 0.6)], jobs=1,
            tick=(0.06, renewer))
        [(worker, age_s, renewals)] = leases
        assert worker == "w0"
        assert age_s <= 0.4
        assert renewals >= 2
        assert renewer.lost == 0
        assert queue.claim("w1") is None  # never expired while beating

    def test_renew_that_loses_a_steal_resurrects_nothing(
            self, tmp_path, monkeypatch):
        queue = FileShardQueue(tmp_path, ttl=5)
        queue.publish("aaa", b"x")
        queue.claim("w0")
        thief = FileShardQueue(tmp_path, ttl=5)
        lease = queue._lease_path("aaa")
        real = FileShardQueue._read_json

        def read_then_steal(path):
            record = real(path)
            if path == lease:
                # the steal lands between renew's read and its write
                assert thief._steal("aaa") == "w0"
            return record

        monkeypatch.setattr(FileShardQueue, "_read_json",
                            staticmethod(read_then_steal))
        assert not queue.renew("aaa", "w0")
        assert not lease.exists()
        assert queue.leases() == []

    def test_a_drain_costs_linear_filesystem_calls(self, tmp_path,
                                                   monkeypatch):
        n = 64
        queue = FileShardQueue(tmp_path, ttl=30)
        keys = [f"k{i:03d}" for i in range(n)]
        for key in keys:
            queue.publish(key, key.encode())
        calls = {"stat": 0, "listing": 0}
        real_stat, real_glob = os.stat, Path.glob

        def stat(*args, **kwargs):
            calls["stat"] += 1
            return real_stat(*args, **kwargs)

        def glob(self, pattern):
            calls["listing"] += 1
            return real_glob(self, pattern)

        monkeypatch.setattr(os, "stat", stat)
        monkeypatch.setattr(Path, "glob", glob)
        drained = []
        while (claimed := queue.claim("w0")) is not None:
            drained.append(claimed.key)
            queue.complete(claimed.key, "w0")
        monkeypatch.undo()
        assert drained == keys  # publish order
        # a claim is O(1) amortized: the whole drain stays linear, not
        # a scan of every task file per claim
        assert calls["stat"] <= 4 * n
        assert calls["listing"] <= 8

    def test_a_lease_expiring_behind_the_cursor_is_stolen_within_a_ttl(
            self, tmp_path):
        now = [time.time()]
        queue = FileShardQueue(tmp_path, ttl=5, clock=lambda: now[0])
        keys = ["aaa", "bbb", "ccc", "ddd"]
        for age, key in zip(range(len(keys), 0, -1), keys):
            queue.publish(key, key.encode())
            published = now[0] - age  # publish order, whatever the fs clock
            os.utime(queue._task_path(key), (published, published))
        assert FileShardQueue(tmp_path, ttl=5).claim("doomed").key == "aaa"
        assert queue.claim("w0").key == "bbb"  # past aaa's live lease

        now[0] += 6  # one TTL on, aaa's holder has not renewed
        stolen = queue.claim("w0")
        # the cursor rewound: the oldest open shard, not the next one
        assert (stolen.key, stolen.previous) == ("aaa", "doomed")
        assert queue.complete("aaa", "w0", previous=stolen.previous)
        assert queue.done_record("aaa")["previous"] == "doomed"


# -- the worker loop ---------------------------------------------------------

class TestWorker:
    def test_drain_executes_every_shard_into_the_store(self, tmp_path):
        shards, keys = _make_shards(4)
        queue = FileShardQueue(tmp_path / "q", ttl=30)
        _publish_all(queue, shards, keys)

        stats = run_worker(WorkerOptions(
            queue=str(tmp_path / "q"), cache_dir=str(tmp_path / "cache"),
            worker_id="w0", ttl=30, poll=0.01, drain=True, supervised=False))

        assert stats.claimed == 4 and stats.completed == 4
        assert stats.failed == 0 and stats.stolen == 0
        assert queue.settled()
        store = ShardStore(tmp_path / "cache")
        for (spec, args), key in zip(shards, keys):
            artifact = store.get(key)
            assert isinstance(artifact, ShardResult)
            assert artifact.shard == spec
            assert _moments_equal(artifact.value, _moments_shard(*args))
        assert "4 shards" in stats.summary()

    def test_max_shards_bounds_one_worker(self, tmp_path):
        shards, keys = _make_shards(3)
        queue = FileShardQueue(tmp_path / "q", ttl=30)
        _publish_all(queue, shards, keys)
        stats = run_worker(WorkerOptions(
            queue=str(tmp_path / "q"), cache_dir=str(tmp_path / "cache"),
            ttl=30, max_shards=2, supervised=False))
        assert stats.claimed == 2 and stats.completed == 2
        assert len(queue.pending()) == 1

    def test_worker_steals_an_expired_lease(self, tmp_path):
        shards, keys = _make_shards(1)
        queue = FileShardQueue(tmp_path / "q", ttl=5)
        _publish_all(queue, shards, keys)
        assert queue.claim("dead-worker") is not None  # dies mid-shard
        _age_lease(queue, keys[0], seconds=6)

        stats = run_worker(WorkerOptions(
            queue=str(tmp_path / "q"), cache_dir=str(tmp_path / "cache"),
            worker_id="rescuer", ttl=5, poll=0.01, drain=True,
            supervised=False))
        assert stats.completed == 1 and stats.stolen == 1
        assert queue.done_record(keys[0])["worker"] == "rescuer"

    def test_supervised_worker_quarantines_a_crashing_shard(self, tmp_path):
        shards, keys = _make_shards(1, fn=_boom_shard)
        queue = FileShardQueue(tmp_path / "q", ttl=30)
        _publish_all(queue, shards, keys, fn=_boom_shard)

        stats = run_worker(WorkerOptions(
            queue=str(tmp_path / "q"), cache_dir=str(tmp_path / "cache"),
            worker_id="w0", ttl=30, poll=0.01, drain=True, max_attempts=2))

        # the worker never aborts: the failure becomes a queue marker
        # for the coordinator to judge
        assert stats.failed == 1 and stats.completed == 0
        assert queue.settled()
        record = queue.failures()[keys[0]]
        assert "boom" in record["error"]
        assert record["attempts"] == 2

    def test_one_drain_starts_one_child(self, tmp_path, monkeypatch):
        real = supervise._process_context
        starts = []

        class Counting:
            def __init__(self, context):
                self.context = context

            def Pipe(self, *args, **kwargs):
                return self.context.Pipe(*args, **kwargs)

            def Process(self, *args, **kwargs):
                starts.append(kwargs.get("target"))
                return self.context.Process(*args, **kwargs)

        monkeypatch.setattr(supervise, "_process_context",
                            lambda: Counting(real()))

        def drain(name, max_attempts=1):
            return run_worker(WorkerOptions(
                queue=str(tmp_path / name), cache_dir=str(tmp_path / "cache"),
                worker_id="w0", ttl=30, poll=0.01, drain=True,
                max_attempts=max_attempts))

        shards, keys = _make_shards(6)
        _publish_all(FileShardQueue(tmp_path / "q"), shards, keys)
        stats = drain("q")
        assert stats.completed == 6 and stats.failed == 0
        assert len(starts) == 1  # one child for the drain, not per shard

        # a shard that kills its child: the child is respawned, the shard
        # succeeds on its second attempt, and the drain goes on
        starts.clear()
        marker = str(tmp_path / "crashed")
        queue = FileShardQueue(tmp_path / "q2")
        shards, keys = _make_shards(4, campaign="crashy")
        for i, ((spec, args), key) in enumerate(zip(shards, keys)):
            fn, args = ((_crash_once_shard, args + (marker,)) if i == 1
                        else (_moments_shard, args))
            queue.publish(key, pickle.dumps((fn, spec, args)))
        stats = drain("q2", max_attempts=2)
        assert stats.completed == 4 and stats.failed == 0
        assert stats.retries == 1
        assert len(starts) == 2
        assert os.path.exists(marker) and queue.settled()
        store = ShardStore(tmp_path / "cache")
        assert all(isinstance(store.get(key), ShardResult) for key in keys)


# -- the coordinator ---------------------------------------------------------

def _fleet_thread(queue_dir, cache_dir, *, worker_id, max_shards,
                  results=None):
    """An in-process 'remote' worker: polls until it has drained
    ``max_shards`` claims, like a worker on another host would."""
    def drain():
        stats = run_worker(WorkerOptions(
            queue=str(queue_dir), cache_dir=str(cache_dir),
            worker_id=worker_id, ttl=10, poll=0.01,
            max_shards=max_shards, supervised=False))
        if results is not None:
            results.append(stats)
    thread = threading.Thread(target=drain, daemon=True)
    thread.start()
    return thread


class TestCoordinator:
    def test_distributed_batch_matches_the_local_shard_path(self, tmp_path):
        shards, keys = _make_shards(6)

        local_stream = []
        with engine_options(cache=ResultCache(tmp_path / "local")):
            local = run_shards(_moments_shard, shards,
                               on_result=local_stream.append)

        dist_stream = []
        worker = _fleet_thread(tmp_path / "q", tmp_path / "dist",
                               worker_id="ext-w0", max_shards=6)
        with engine_options(
                cache=ResultCache(tmp_path / "dist"),
                dist=DistPolicy(queue=str(tmp_path / "q"), workers=0,
                                ttl=10, poll=0.02)):
            dist = run_shards(_moments_shard, shards,
                              on_result=dist_stream.append)
        worker.join(timeout=30)

        # same results, and the same *streaming order*: on_result sees
        # the plan-order prefix, never completion order
        assert [r.shard for r in dist] == [r.shard for r in local]
        assert [r.shard.index for r in dist_stream] == list(range(6))
        for mine, theirs in zip(dist, local):
            assert _moments_equal(mine.value, theirs.value)
        store = ShardStore(tmp_path / "dist")
        assert all(store.get(key) is not None for key in keys)

    def test_resumed_run_re_simulates_nothing_and_publishes_nothing(
            self, tmp_path):
        shards, keys = _make_shards(5)
        worker = _fleet_thread(tmp_path / "q", tmp_path / "cache",
                               worker_id="ext-w0", max_shards=5)
        with engine_options(
                cache=ResultCache(tmp_path / "cache"),
                dist=DistPolicy(queue=str(tmp_path / "q"), workers=0,
                                ttl=10, poll=0.02)):
            run_shards(_moments_shard, shards)
        worker.join(timeout=30)

        # second coordinator, fresh queue, *no workers anywhere*: every
        # artifact prefills from the store
        ledger, counts = RunLedger(), UnitCounts()
        ledger.subscribe(counts)
        with engine_options(
                cache=ResultCache(tmp_path / "cache"), ledger=ledger,
                dist=DistPolicy(queue=str(tmp_path / "q2"), workers=0,
                                ttl=10, poll=0.02)):
            again = run_shards(_moments_shard, shards)
        assert counts.cache_hits == 5 and counts.misses == 0
        assert [r.shard.index for r in again] == list(range(5))
        assert list((tmp_path / "q2" / "tasks").glob("*.task")) == []

    def test_dead_workers_shard_re_leases_with_ledger_attribution(
            self, tmp_path):
        """The crash-recovery story end to end: one artifact already
        landed (never re-simulated), one shard held by a dead worker
        (re-leased past the TTL, attributed), one ordinary shard."""
        shards, keys = _make_shards(3)
        store = ShardStore(tmp_path / "cache")
        queue = FileShardQueue(tmp_path / "q", ttl=1.0)

        # shard 0 landed before the crash; shards 1..2 are still queued
        store.put(keys[0], _shard_call((_moments_shard, *shards[0])))
        _publish_all(queue, shards[1:], keys[1:])
        claimed = queue.claim("doomed")   # the worker that will "die"
        assert claimed.key == keys[1]
        _age_lease(queue, keys[1], seconds=5)  # silent past the TTL

        def rescue():
            # let the coordinator observe the doomed lease first, and
            # keep the stolen lease visible for a few poll cycles so
            # the re-lease is witnessed, not inferred
            time.sleep(0.5)
            stolen = queue.claim("rescuer")
            assert stolen is not None and stolen.previous == "doomed"
            time.sleep(0.3)
            for key in (stolen.key, keys[2]):
                spec, args = shards[keys.index(key)]
                store.put(key, _shard_call((_moments_shard, spec, args)))
                queue.complete(key, "rescuer", wall_s=0.01)
                queue.claim("rescuer")

        thread = threading.Thread(target=rescue, daemon=True)
        thread.start()

        counts = UnitCounts()
        ledger = RunLedger(tmp_path / "run.jsonl",
                           meta={"experiment": "dist-test"})
        ledger.subscribe(counts)
        with ledger, engine_options(
                cache=ResultCache(tmp_path / "cache"), ledger=ledger,
                dist=DistPolicy(queue=str(tmp_path / "q"), workers=0,
                                ttl=1.0, poll=0.05)):
            results = run_shards(_moments_shard, shards)
        thread.join(timeout=10)

        # zero re-simulation of the landed artifact, and full results
        assert counts.cache_hits == 1 and counts.misses == 2
        assert [r.shard.index for r in results] == [0, 1, 2]

        view = load_ledger(tmp_path / "run.jsonl")
        [release] = view.releases()
        assert release["previous"] == "doomed"
        assert release["worker"] == "rescuer"
        assert release["unit"] == 1
        dist = view.distribution()
        assert dist["shards"] == 2 and dist["cache_hits"] == 1
        assert dist["re_leases"] == 1
        done = [e for e in view.events if e.get("event") == "done"]
        assert {e.get("worker") for e in done
                if not e.get("cached")} == {"rescuer"}
        # the prefilled artifact is replayed once, keyed, as a cache hit
        assert [e["key"] for e in done if e.get("cached")] == [keys[0]]
        assert view.units() == {key: "done" for key in keys}

    def test_failed_shard_aborts_the_campaign_unless_degraded(
            self, tmp_path):
        shards, keys = _make_shards(2)
        queue = FileShardQueue(tmp_path / "q", ttl=30)
        # a worker already judged shard 1 unrunnable
        _publish_all(queue, shards, keys)
        queue.claim("w0")  # shard 0 — completed below
        store = ShardStore(tmp_path / "cache")
        store.put(keys[0], _shard_call((_moments_shard, *shards[0])))
        queue.complete(keys[0], "w0")
        queue.claim("w0")
        queue.fail(keys[1], "w0", "boom", attempts=1)

        policy = DistPolicy(queue=str(tmp_path / "q"), workers=0,
                            ttl=30, poll=0.02)
        with engine_options(cache=ResultCache(tmp_path / "cache"),
                            dist=policy):
            with pytest.raises(CampaignAborted) as excinfo:
                run_shards(_moments_shard, shards)
        [failure] = excinfo.value.failures
        assert failure.kind == "shard-failed" and "boom" in failure.error

        degrade = SupervisionPolicy(retry=RetryBudget(max_attempts=1),
                                    degrade=True)
        with engine_options(cache=ResultCache(tmp_path / "cache"),
                            dist=policy, supervision=degrade):
            results = run_shards(_moments_shard, shards)
        assert isinstance(results[0], ShardResult)
        assert isinstance(results[1], FailedUnit)

    def test_distributed_requires_a_shared_store(self, tmp_path):
        shards, _ = _make_shards(1)
        with engine_options(dist=DistPolicy(queue=str(tmp_path / "q"))):
            with pytest.raises(RuntimeError, match="shared artifact store"):
                run_shards(_moments_shard, shards)

    def test_policy_validates(self, tmp_path):
        with pytest.raises(ValueError):
            DistPolicy(queue=str(tmp_path), workers=-1)
        with pytest.raises(ValueError):
            DistPolicy(queue=str(tmp_path), ttl=0)


class TestLocalLanes:
    """The coordinator's local workers are lanes forked from it."""

    def test_forked_lanes_write_nothing_into_the_coordinators_ledger(
            self, tmp_path):
        shards, keys = _make_shards(6)
        path = tmp_path / "run.jsonl"
        ledger = RunLedger(path, meta={"experiment": "dist-test"})
        emitted = []
        ledger.subscribe(lambda record, value: emitted.append(record))
        with ledger, engine_options(
                cache=ResultCache(tmp_path / "cache"), ledger=ledger,
                dist=DistPolicy(queue=str(tmp_path / "q"), workers=2,
                                ttl=20, poll=0.02)):
            results = run_shards(_moments_shard, shards)
        assert [r.shard.index for r in results] == list(range(6))

        def sequence(records):
            return [(r["seq"], r["event"], r.get("unit"), r.get("key"))
                    for r in records if "seq" in r]

        persisted = load_ledger(path).events
        assert sequence(persisted) == sequence(emitted)
        assert {r.get("worker") for r in persisted
                if r["event"] == "done"} <= {"local-w0", "local-w1"}

    def test_sigterm_to_a_busy_lane_abandons_its_lease_at_once(
            self, tmp_path):
        shards, keys = _make_shards(1, fn=_sleepy_shard)
        queue = FileShardQueue(tmp_path / "q", ttl=60)
        _publish_all(queue, shards, keys, fn=_sleepy_shard)
        fleet = _LocalFleet(DistPolicy(queue=str(tmp_path / "q"),
                                       workers=1, ttl=60),
                            tmp_path / "cache")
        lease = queue._lease_path(keys[0])
        fleet.start()
        try:
            deadline = time.monotonic() + 20
            while not lease.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert [held.worker for held in queue.leases()] == ["local-w0"]
            time.sleep(0.3)  # well inside the shard
            lane = fleet.procs[0]
            lane.terminate()
            lane.join(10)
            assert lane.exitcode == 143
            # abandoned by the lane's own teardown, not by TTL expiry
            assert not lease.exists()
            assert queue.pending() == keys
        finally:
            fleet.stop()

    def test_a_lane_that_exits_nonzero_is_respawned(
            self, tmp_path, monkeypatch):
        crashed = tmp_path / "crashed"
        real = coordinator.worker_main

        def crash_once(options, queue=None):
            # runs in the forked lane: the first lane exits 3 at once
            if not crashed.exists():
                crashed.touch()
                return 3, None
            return real(options, queue)

        monkeypatch.setattr(coordinator, "worker_main", crash_once)
        shards, keys = _make_shards(4)
        path = tmp_path / "run.jsonl"
        ledger = RunLedger(path, meta={"experiment": "dist-test"})
        with ledger, engine_options(
                cache=ResultCache(tmp_path / "cache"), ledger=ledger,
                dist=DistPolicy(queue=str(tmp_path / "q"), workers=1,
                                ttl=20, poll=0.02)):
            results = run_shards(_moments_shard, shards)

        assert [r.shard.index for r in results] == list(range(4))
        events = load_ledger(path).events
        [exit_] = [e for e in events if e["event"] == "worker-exit"]
        assert exit_["worker"] == "local-w0" and exit_["code"] == 3
        assert exit_["pid"] > 0
        assert {e.get("worker") for e in events
                if e["event"] == "done"} == {"local-w0"}

    def test_a_prefilled_run_starts_no_process(
            self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        cache = tmp_path / "cache"
        base = ["experiment", "model_validation", "--scale", "small",
                "--sessions", "24", "--shard-size", "8", "--seed", "3",
                "--cache-dir", str(cache), "--distributed",
                "--workers", "2", "--lease-ttl", "20"]
        assert main(base + ["--queue-dir", str(tmp_path / "q")]) == 0

        def no_process():
            raise AssertionError("a prefilled run started a process")

        monkeypatch.setattr(coordinator, "_process_context", no_process)
        capsys.readouterr()
        assert main(base + ["--queue-dir", str(tmp_path / "q2")]) == 0
        assert "re-simulated 0" in capsys.readouterr().out
        events = load_ledger(
            ledger_path(cache, "model_validation", "small", 3)).events
        assert not [e for e in events if e["event"] == "worker-exit"]

    def test_fabric_lanes_reach_the_board(self, tmp_path):
        """The coordinator's lease-derived lanes are the pool's own
        WorkerLane, and the live board draws them."""
        import io

        from repro.obs import ProgressReporter
        from repro.runner.supervise import WorkerLane

        class FakeTty(io.StringIO):
            def isatty(self):
                return True

        shards, keys = _make_shards(3, fn=_slow_shard)
        stream = FakeTty()
        board = ProgressReporter(stream=stream, min_interval=0.0,
                                 label="units")
        beats = []
        ledger = RunLedger()
        ledger.subscribe(board)
        ledger.subscribe(lambda record, value: beats.append(value)
                         if record["event"] == "beat" else None)
        with board, engine_options(
                cache=ResultCache(tmp_path / "cache"), ledger=ledger,
                dist=DistPolicy(queue=str(tmp_path / "q"), workers=1,
                                ttl=20, poll=0.02)):
            results = run_shards(_slow_shard, shards)

        assert [r.shard.index for r in results] == [0, 1, 2]
        assert beats and all(isinstance(lane, WorkerLane)
                             for lane in beats)
        assert {lane.worker for lane in beats} == {"local-w0"}
        out = stream.getvalue()
        assert "\x1b[2K  local-w0 pid " in out   # a drawn lane line

    def test_every_landed_shard_names_its_worker(self, tmp_path):
        """An artifact can land in the store well before its worker
        writes the done marker; the ledger's ``done`` record must still
        name that worker and its latency."""
        shards, keys = _make_shards(4)
        queue = FileShardQueue(tmp_path / "q", ttl=30)
        store = ShardStore(tmp_path / "cache")

        def slow_marker():
            landed = 0
            while landed < len(keys):
                claimed = queue.claim("slow-w")
                if claimed is None:
                    time.sleep(0.01)
                    continue
                store.put(claimed.key,
                          _shard_call(pickle.loads(claimed.payload)))
                time.sleep(0.2)  # ten coordinator polls
                queue.complete(claimed.key, "slow-w", wall_s=0.2)
                landed += 1

        thread = threading.Thread(target=slow_marker, daemon=True)
        thread.start()
        path = tmp_path / "run.jsonl"
        ledger = RunLedger(path, meta={"experiment": "dist-test"})
        with ledger, engine_options(
                cache=ResultCache(tmp_path / "cache"), ledger=ledger,
                dist=DistPolicy(queue=str(tmp_path / "q"), workers=0,
                                ttl=30, poll=0.02)):
            run_shards(_moments_shard, shards)
        thread.join(timeout=10)
        assert not thread.is_alive()

        done = [e for e in load_ledger(path).events
                if e["event"] == "done" and not e.get("cached")]
        assert [e["unit"] for e in done] == [0, 1, 2, 3]
        assert all(e.get("worker") == "slow-w" for e in done)
        assert all(e.get("latency_s") == 0.2 for e in done)


# -- concurrent store writers ------------------------------------------------

def _hammer_store(args):
    """One hammer process: racing put/get cycles over shared keys."""
    root, rounds = args
    cache = ResultCache(root)
    for i in range(rounds):
        key = f"{i % 16:02x}hammer{i % 16}"
        value = {"key": key, "payload": list(range(i % 16)), "pi": 3.14159}
        cache.put(key, value)
        seen = cache.get(key)
        # every writer writes the same value per key, so any complete
        # read equals it; a torn read would surface as a mismatch (or
        # as a quarantined-corrupt entry, checked by the parent)
        if seen != value:
            return f"torn read for {key}: {seen!r}"
    return None


class TestConcurrentStore:
    def test_eight_processes_hammering_one_store(self, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        root = tmp_path / "cache"
        context = multiprocessing.get_context("fork")
        with context.Pool(processes=8) as pool:
            errors = pool.map(_hammer_store, [(str(root), 64)] * 8)
        assert [e for e in errors if e] == []

        cache = ResultCache(root)
        for i in range(16):
            key = f"{i:02x}hammer{i}"
            assert cache.get(key) == {"key": key,
                                      "payload": list(range(i)),
                                      "pi": 3.14159}
        stats = cache.stats()
        assert stats["entries"] == 16
        assert stats["corrupt"] == 0
        # no scratch files left behind either
        assert list(root.glob("**/.w*")) == []


# -- the CLI surface ---------------------------------------------------------

class TestDistCli:
    def test_shards_and_shard_size_are_exclusive(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["experiment", "model_validation", "--sessions", "8",
                     "--shards", "2", "--shard-size", "4",
                     "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "exclusive" in capsys.readouterr().err

    def test_distributed_requires_a_cache_dir(self, tmp_path, capsys,
                                              monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        code = main(["experiment", "model_validation", "--sessions", "8",
                     "--distributed"])
        assert code == 2
        assert "cache" in capsys.readouterr().err

    def test_worker_requires_a_cache_dir(self, tmp_path, capsys,
                                         monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        code = main(["worker", "--queue-dir", str(tmp_path / "q")])
        assert code == 2
        assert "cache" in capsys.readouterr().err

    def test_worker_cli_drains_a_queue(self, tmp_path, capsys):
        from repro.cli import main

        shards, keys = _make_shards(2)
        queue = FileShardQueue(tmp_path / "q", ttl=30)
        _publish_all(queue, shards, keys)
        before = signal.getsignal(signal.SIGTERM)
        code = main(["worker", "--queue-dir", str(tmp_path / "q"),
                     "--cache-dir", str(tmp_path / "cache"),
                     "--worker-id", "cli-w0", "--drain"])
        assert code == 0
        # the worker's SIGTERM handler must not outlive an in-process call
        assert signal.getsignal(signal.SIGTERM) is before
        out = capsys.readouterr().out
        assert "worker cli-w0: 2 shards" in out
        assert queue.settled()
        store = ShardStore(tmp_path / "cache")
        assert all(store.get(key) is not None for key in keys)

    def test_distributed_report_counts_units_like_the_local_pool(
            self, tmp_path, capsys):
        """`repro report` of a `--distributed` campaign shows the same
        unit and merge counts as the same campaign on `--jobs 2`: the
        coordinator writes its batch's `scheduled` event, and the shard
        reduction writes one `merged` event per shard with no export
        flag asked for."""
        from repro.cli import main

        base = ["experiment", "model_validation", "--scale", "small",
                "--sessions", "24", "--shard-size", "8", "--seed", "3"]
        dist_cache = str(tmp_path / "dist-cache")
        local_cache = str(tmp_path / "local-cache")
        assert main(base + ["--cache-dir", dist_cache,
                            "--queue-dir", str(tmp_path / "q"),
                            "--distributed", "--workers", "2",
                            "--lease-ttl", "20"]) == 0
        assert main(base + ["--cache-dir", local_cache, "--jobs", "2"]) == 0
        capsys.readouterr()

        def counts(cache: str) -> list:
            assert main(["report", "model_validation", "--seed", "3",
                         "--cache-dir", cache]) == 0
            return [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith(("- Units:", "- Shards merged:"))]

        local = counts(local_cache)
        # 3 strategy campaigns × 3 shards, plus the one waste sample
        assert local == [
            "- Units: 10 scheduled (0 cache hits), 10 done, 0 retried, "
            "0 quarantined",
            "- Shards merged: 9"]
        assert counts(dist_cache) == local

    def test_distributed_retries_reach_the_coordinator(
            self, tmp_path, capsys, monkeypatch):
        """A shard a fabric lane had to retry is a retry of the
        campaign: crashing every shard once, `--distributed` reports the
        same `retries` and ledgers the same `retried` events as the
        same campaign on `--jobs 2`, each shard still settles `done`
        for `--resume`, and the report attributes every retry."""
        from repro.cli import main
        from repro.obs import render_report

        monkeypatch.setenv("REPRO_CHAOS", "crash:1.0")
        base = ["experiment", "model_validation", "--scale", "small",
                "--sessions", "24", "--shard-size", "8", "--seed", "3",
                "--max-attempts", "2"]

        def run(tag: str, *extra: str):
            monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path / tag))
            cache = tmp_path / f"{tag}-cache"
            assert main(base + ["--cache-dir", str(cache), *extra]) == 0
            engine = [line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("engine ")]
            view = load_ledger(ledger_path(cache, "model_validation",
                                           "small", 3))
            return engine, view.counts().get("retried", 0), \
                view.unit_counts()

        local = run("local", "--jobs", "2")
        dist = run("dist", "--queue-dir", str(tmp_path / "q"),
                   "--distributed", "--workers", "2", "--lease-ttl", "20")
        # 3 strategy campaigns x 3 shards, each crashed once
        assert local[1] == 9
        assert "retries 9" in local[0][0]
        assert dist == local
        assert dist[2]["failed"] == 0
        report = render_report(load_ledger(ledger_path(
            tmp_path / "dist-cache", "model_validation", "small", 3)))
        failures = report.split("## Failures")[1].split("\n## ")[0]
        rows = [line for line in failures.splitlines()
                if line.startswith("| retried |")]
        assert len(rows) == 9
        assert all(row.split("|")[4].strip() == "shard-retried"
                   for row in rows)

    def test_distributed_campaign_is_byte_identical_to_single_host(
            self, tmp_path, capsys):
        """Acceptance: `--distributed --workers 2` (real subprocess
        workers over a shared queue dir) exports the same bytes as the
        plain single-host sharded run."""
        from repro.cli import main

        dist_agg = tmp_path / "dist.jsonl"
        local_agg = tmp_path / "local.jsonl"
        base = ["experiment", "model_validation", "--scale", "small",
                "--sessions", "24", "--shard-size", "8", "--seed", "3"]
        code = main(base + ["--cache-dir", str(tmp_path / "dist-cache"),
                            "--queue-dir", str(tmp_path / "q"),
                            "--distributed", "--workers", "2",
                            "--lease-ttl", "20",
                            "--aggregate", str(dist_agg)])
        assert code == 0
        dist_out = capsys.readouterr().out
        code = main(base + ["--cache-dir", str(tmp_path / "local-cache"),
                            "--aggregate", str(local_agg)])
        assert code == 0
        local_out = capsys.readouterr().out

        assert dist_agg.read_bytes() == local_agg.read_bytes()

        def report(text: str) -> str:
            # identical experiment reports; only the export-path line
            # (dist.jsonl vs local.jsonl) may differ
            return "\n".join(line for line in text.splitlines()
                             if ".jsonl" not in line)

        assert report(dist_out) == report(local_out)
        # both paths exercised real shards: 24 sessions / 8 per shard
        # = 3 shards per strategy campaign
        for line in dist_agg.read_text().splitlines():
            json.loads(line)  # every export line is whole
