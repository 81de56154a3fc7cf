"""Worker supervision: deadlines, retries with backoff, and quarantine.

:func:`run_supervised` runs every batch the engine does not run inline.
Long campaigns break the perfect-world assumption — a single stuck
session or a worker OOM-killed by the OS used to stall or abort the
whole run.  This module is the engine's fault boundary:

* every unit runs in a *supervised worker process* with a wall-clock
  deadline; a worker that exceeds it is killed and respawned;
* a unit whose worker crashed, hung, or raised is retried with
  exponential backoff under a :class:`RetryBudget`;
* a unit that keeps failing (``max_attempts`` exhausted, or the
  campaign-wide retry budget drained) is **quarantined** — recorded as a
  :class:`UnitFailure` and replaced by a :class:`FailedUnit` placeholder
  instead of aborting the campaign;
* every failed attempt is reported as a :class:`UnitFailure` (unit
  key, exception traceback, attempts), which the engine writes to the
  run ledger, so partial results degrade *loudly*, never silently.

Supervision is opt-in (``EngineOptions.supervision``); without a policy
the same loop keeps the engine's fail-fast semantics (first exception
propagates; a dead worker raises :class:`CampaignAborted`).

The module also hosts the chaos hooks (``$REPRO_CHAOS``) used by the
chaos-smoke CI job and the durability tests to inject worker crashes,
poison units, and campaign kills deterministically.
"""

from __future__ import annotations

import hashlib
import heapq
import multiprocessing
import os
import pickle
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

__all__ = [
    "CampaignAborted",
    "ChaosError",
    "FailedUnit",
    "RetryBudget",
    "SupervisionPolicy",
    "UnitFailure",
    "WorkerLane",
    "format_failures",
    "run_supervised",
]


@dataclass(frozen=True)
class RetryBudget:
    """How hard to try before declaring a unit poisoned.

    ``max_attempts`` bounds per-unit attempts (1 = no retry); ``total``
    optionally bounds *retries across the whole campaign* so a sweep of
    correlated failures cannot multiply the runtime unboundedly.  The
    delay before attempt ``n+1`` is ``min(cap, base * 2**(n-1))``
    seconds — exponential backoff, deterministic (no jitter), and
    ``base=0`` disables waiting entirely (the test default).
    """

    max_attempts: int = 3
    total: Optional[int] = None
    backoff_base: float = 0.5
    backoff_cap: float = 30.0

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retrying after failed attempt ``attempt``."""
        if self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))


@dataclass(frozen=True)
class SupervisionPolicy:
    """Ambient fault-tolerance configuration for the engine.

    ``unit_timeout`` is the per-unit wall-clock deadline in seconds
    (``None`` = no deadline); ``retry`` governs attempts and backoff;
    ``degrade`` chooses what happens when quarantined units remain at
    the end of a batch: ``True`` returns :class:`FailedUnit`
    placeholders in their result slots, ``False`` (the default) raises
    :class:`CampaignAborted` *after* the batch finishes — completed
    units are already persisted, so a resumed campaign never repeats
    them.
    """

    unit_timeout: Optional[float] = None
    retry: RetryBudget = field(default_factory=RetryBudget)
    degrade: bool = False


@dataclass
class UnitFailure:
    """One unit's terminal (or transient) failure, fully attributed."""

    index: int                 # the unit's index in its batch's plan
    label: str                 # human-readable unit description
    key: Optional[str]         # cache fingerprint, when the batch has one
    kind: str                  # "exception" | "crash" | "timeout"
    error: str                 # repr of the exception / crash description
    traceback: str = ""        # worker-side traceback, when one exists
    attempts: int = 1          # attempts consumed so far
    final: bool = False        # True once the unit is quarantined
    worker: Optional[str] = None  # supervised worker lane ("w0", ...)

    def record(self) -> dict:
        """The failure as a flat export record (see ``FAILURE_FIELDS``)."""
        return {
            "unit": self.index,
            "label": self.label,
            "key": self.key,
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
            "final": self.final,
            "worker": self.worker,
            "traceback": self.traceback,
        }


@dataclass(frozen=True)
class FailedUnit:
    """Placeholder occupying a quarantined unit's result slot.

    Only appears under ``SupervisionPolicy(degrade=True)``; consumers
    that tolerate partial campaigns filter these out (the campaign
    collector does), consumers that cannot will fail loudly on the
    placeholder instead of silently computing over missing sessions.
    """

    failure: UnitFailure


@dataclass
class WorkerLane:
    """Live state of one worker slot (``w0``, ``w1``, ... or a fabric worker).

    The health monitor and the distributed coordinator both stream it as
    the value of ``beat`` events.  A lane outlives worker processes: a
    respawn updates ``pid`` and resets liveness, while cumulative
    counters (units done, busy time, retries, RSS watermark) keep
    accumulating for the slot.
    """

    worker: str
    pid: int = 0
    alive: bool = True
    spawned_at: float = 0.0
    last_beat: Optional[float] = None
    beats: int = 0
    units_done: int = 0
    busy_s: float = 0.0
    retries: int = 0
    rate: float = 0.0            # units/s EWMA over completed units
    rss_kb: int = 0              # worker-reported RSS watermark
    unit: Optional[int] = None   # plan index currently running
    label: str = ""
    unit_started_at: Optional[float] = None
    missing: bool = False        # currently under missed-beat suspicion
    straggling: bool = False     # current unit flagged as a straggler

    def beat_age(self, now: float) -> float:
        """Seconds since the last heartbeat (or spawn, before the first)."""
        anchor = self.last_beat if self.last_beat is not None else self.spawned_at
        return max(0.0, now - anchor)

    def snapshot(self, now: float) -> dict:
        """The lane as a flat dict (ledger heartbeat-summary rendering)."""
        return {
            "worker": self.worker, "pid": self.pid,
            "beat_age_s": round(self.beat_age(now), 3),
            "beats": self.beats, "units_done": self.units_done,
            "rate": round(self.rate, 4), "rss_kb": self.rss_kb,
            "unit": self.unit, "missing": self.missing,
            "straggling": self.straggling,
        }


def format_failures(records: Sequence[dict], retries: int) -> str:
    """The failure block the CLI prints: one row per quarantined unit.

    ``records`` are flat failure records — :meth:`UnitFailure.record`
    or the run ledger's ``quarantined`` events, which carry the same
    fields — and ``retries`` the retries spent beside them.
    """
    if not records:
        return "no failures"
    lines = [f"{len(records)} unit(s) quarantined "
             f"({retries} retries spent):"]
    for record in records:
        key = record.get("key")
        key = f" key={key[:12]}" if key else ""
        lines.append(f"  [{record['kind']}] {record['label']}{key} "
                     f"after {record['attempts']} attempt(s): "
                     f"{record['error']}")
    return "\n".join(lines)


class CampaignAborted(RuntimeError):
    """A batch finished with quarantined units and ``degrade`` is off.

    Raised *after* the batch completes, with every completed unit
    already persisted to the cache and ledger — ``repro experiment
    --resume`` (or simply rerunning against the same cache) re-simulates
    only what is missing.  ``failures`` holds the batch's quarantined
    :class:`UnitFailure`\\ s; the message renders them with the
    ``retries`` the batch spent.
    """

    def __init__(self, failures: Sequence[UnitFailure],
                 retries: int = 0) -> None:
        super().__init__(format_failures([f.record() for f in failures],
                                         retries))
        self.failures = list(failures)


# -- chaos hooks --------------------------------------------------------------
# Deterministic fault injection for the chaos-smoke CI job and the
# durability tests.  $REPRO_CHAOS selects a mode:
#
#   crash[:rate]      selected units hard-kill their worker (os._exit)
#                     on the first attempt; a marker file in
#                     $REPRO_CHAOS_DIR makes the retry succeed
#   poison[:rate]     selected units raise ChaosError on every attempt,
#                     driving the quarantine path
#   kill-after:<n>    the whole process exits (code 130, like SIGINT)
#                     once n units have completed — simulates a campaign
#                     killed mid-run, for resume testing
#
# Units are selected by hashing their cache key, so the same units
# misbehave on every run and under any --jobs value.

CHAOS_ENV = "REPRO_CHAOS"
CHAOS_DIR_ENV = "REPRO_CHAOS_DIR"

#: Process exit code used by crash-mode chaos (mimics SIGKILL's 128+9).
CHAOS_CRASH_EXIT = 137
#: Process exit code used by kill-after chaos (mimics SIGINT's 128+2).
CHAOS_KILL_EXIT = 130


class ChaosError(RuntimeError):
    """The failure injected by poison-mode chaos."""


def _chaos_selected(key: str, rate: float) -> bool:
    digest = hashlib.sha256(f"chaos:{key}".encode()).digest()
    return digest[0] / 256.0 < rate


def _chaos_dir() -> Optional[str]:
    root = os.environ.get(CHAOS_DIR_ENV)
    if root:
        os.makedirs(root, exist_ok=True)
    return root


def _chaos_marker(root: str, key: str, suffix: str) -> str:
    # shard chaos keys contain "/" ("...:1/4"): flatten so the marker
    # stays a single file directly under $REPRO_CHAOS_DIR
    safe = key.replace(os.sep, "_").replace("/", "_")
    return os.path.join(root, f"{safe}.{suffix}")


def chaos_hook(key: str) -> None:
    """Entry-side chaos: maybe crash or poison the unit ``key``.

    Called by the engine's worker functions before simulating, only when
    ``$REPRO_CHAOS`` is set (the env check lives at the call site so the
    common path costs one dict lookup).
    """
    spec = os.environ.get(CHAOS_ENV, "")
    mode, _, arg = spec.partition(":")
    if mode == "crash":
        rate = float(arg) if arg else 0.5
        root = _chaos_dir()
        if root is None or not _chaos_selected(key, rate):
            return
        marker = _chaos_marker(root, key, "crashed")
        if not os.path.exists(marker):
            with open(marker, "w"):
                pass
            os._exit(CHAOS_CRASH_EXIT)
    elif mode == "poison":
        rate = float(arg) if arg else 0.5
        if _chaos_selected(key, rate):
            # session keys are digests, named by their prefix; a shard
            # key ("shard:<campaign>:<i>/<n>") only differs at its tail
            shown = key if key.startswith("shard:") else key[:12]
            raise ChaosError(f"poison unit {shown}")
    elif mode == "kill-after":
        threshold = int(arg)
        root = _chaos_dir()
        if root is not None:
            done = sum(1 for name in os.listdir(root)
                       if name.endswith(".done"))
            if done >= threshold:
                os._exit(CHAOS_KILL_EXIT)


def chaos_mark_done(key: str) -> None:
    """Exit-side chaos bookkeeping: count a completed unit for kill-after."""
    if not os.environ.get(CHAOS_ENV, "").startswith("kill-after"):
        return
    root = _chaos_dir()
    if root is not None:
        with open(_chaos_marker(root, key, "done"), "w"):
            pass


# -- the supervisor -----------------------------------------------------------

def _process_context():
    # fork starts in milliseconds and inherits sys.path; spawn is the
    # portable fallback (macOS/Windows default)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _worker_rss_kb() -> int:
    """Peak RSS of the calling process, in kB (0 where unsupported):
    a worker's heartbeat payload, and the parent's own watermark."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS
    return peak // 1024 if sys.platform == "darwin" else peak


def _beat_emitter(beats, interval: float, counter) -> None:
    """Daemon loop inside a supervised worker: one heartbeat per period.

    Each beat is ``(units_done, rss_kb)`` — liveness plus progress plus
    memory, the whole wire format.  Runs on a daemon thread so a wedged
    unit on the main thread is exactly what *stops* the beats: silence
    is the signal.  (A wedge that holds the GIL stops them too — either
    way the parent sees missed beats.)
    """
    while True:
        time.sleep(interval)
        try:
            beats.send((counter[0], _worker_rss_kb()))
        except Exception:  # parent gone / pipe closed: nothing to tell
            return


def _portable(exc: BaseException) -> Optional[BaseException]:
    """``exc`` if it survives a pickle round trip to the parent, else ``None``."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return None
    return exc


def _supervised_worker_main(worker: Callable[[Any], Any], inbox, outbox,
                            beats=None, beat_interval: float = 1.0) -> None:
    """Loop of one supervised worker process: run units until told to stop.

    Results and exceptions both travel back through ``outbox``; an
    abrupt death (crash, kill, chaos) is detected by the supervisor
    through the process sentinel instead.  When health monitoring is
    on, ``beats`` is a dedicated pipe fed by a daemon heartbeat thread
    — separate from ``outbox`` so a torn result pickle can never corrupt
    the liveness channel (or vice versa).
    """
    # A forked worker inherits whatever SIGTERM handler the parent
    # installed (``repro worker`` installs one); a Python-level handler
    # turns the signal into an exception that can race the worker's own
    # shutdown.  Workers always take the default action, whatever the
    # parent process does with the signal.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    counter = [0]  # units completed, shared with the heartbeat thread
    if beats is not None:
        try:  # birth beat, sent before the emitter thread shares the pipe
            beats.send((0, _worker_rss_kb()))
        except Exception:
            pass
        threading.Thread(target=_beat_emitter,
                         args=(beats, beat_interval, counter),
                         daemon=True).start()
    while True:
        try:
            message = inbox.recv()
        except EOFError:
            return  # the supervisor is gone
        if message is None:
            return
        index, item = message
        try:
            value = worker(item)
        except BaseException as exc:  # noqa: BLE001 — attribute, don't die
            outbox.send((index, "err", f"{type(exc).__name__}: {exc}",
                         traceback.format_exc(), _portable(exc)))
        else:
            try:
                outbox.send((index, "ok", value))
                counter[0] += 1
            except Exception as exc:  # unpicklable result
                outbox.send((index, "err",
                             f"result not picklable: {exc!r}",
                             traceback.format_exc(), None))


class _RemoteTraceback(Exception):
    """A worker's traceback, the cause of an exception re-raised here."""

    def __str__(self) -> str:
        return self.args[0]


class _Worker:
    """Supervisor-side handle for one worker process.

    Each worker owns private pipes: a process killed mid-write can only
    corrupt *its own* result pipe, which the supervisor discards when it
    respawns the worker — a shared queue would poison the whole batch.
    The parent closes the worker's ends once it has started.
    """

    def __init__(self, context, target,
                 beat_interval: Optional[float] = None) -> None:
        inbox, self.inbox = context.Pipe(duplex=False)
        self.outbox, outbox = context.Pipe(duplex=False)
        child_ends = [inbox, outbox]
        args: tuple = (target, inbox, outbox)
        # the heartbeat channel is as private as the result pipe, and
        # only exists when health monitoring asked for it
        self.beats = None
        if beat_interval is not None:
            self.beats, beats = context.Pipe(duplex=False)
            child_ends.append(beats)
            args = args + (beats, beat_interval)
        self.process = context.Process(
            target=_supervised_worker_main, args=args, daemon=True)
        self.process.start()
        for end in child_ends:
            end.close()
        self.waitables = [self.outbox, self.process.sentinel]
        if self.beats is not None:
            self.waitables.append(self.beats)
        self.unit: Optional[int] = None      # batch index being run
        self.started_at: float = 0.0

    @property
    def idle(self) -> bool:
        return self.unit is None

    def assign(self, index: int, item: Any) -> None:
        self.unit = index
        self.started_at = time.monotonic()
        try:
            self.inbox.send((index, item))
        except OSError:
            pass  # died since the liveness check: settled as a crash

    def dead(self) -> bool:
        return self.process.exitcode is not None

    def kill(self) -> None:
        """Terminate the process (SIGKILL if it lingers), close its pipes."""
        self.process.terminate()
        self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=1.0)
        for conn in (self.inbox, self.outbox, self.beats):
            if conn is not None:
                conn.close()

    def stop(self) -> None:
        """Ask an idle process to exit; kill a busy or lingering one."""
        if self.idle:
            try:
                self.inbox.send(None)
            except OSError:
                pass
            self.process.join(timeout=1.0)
        self.kill()


def run_supervised(
    worker: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    jobs: int,
    policy: Optional[SupervisionPolicy] = None,
    describe: Optional[Callable[[int], str]] = None,
    keys: Optional[Sequence[Optional[str]]] = None,
    on_done: Optional[Callable[[int, Any, str, float], None]] = None,
    on_failure: Optional[Callable[[UnitFailure], None]] = None,
    health: Optional[Any] = None,
    plan_index: Optional[Sequence[int]] = None,
    tick: Optional[Tuple[float, Callable[[], None]]] = None,
) -> Tuple[List[Any], List[UnitFailure], int]:
    """Run ``worker`` over ``items`` in ``jobs`` worker processes.

    Returns ``(results, quarantined, retries)``: results in input order
    with :class:`FailedUnit` placeholders for quarantined units, the
    final :class:`UnitFailure` list (empty on a clean run), and the
    number of retries spent.  ``on_done(index, value, worker,
    latency_s)`` fires in *completion order* as units finish (the
    persistence hook), naming the worker lane and the unit's wall time;
    ``on_failure(failure)`` fires on every failed attempt, with
    ``failure.final`` set on the quarantining one.  ``plan_index[i]``
    is item ``i``'s position in the caller's plan (default: ``i``);
    every index reported outward — ``on_done``, ``UnitFailure.index``
    and the health notifications — is that plan index, so one batch's
    events share one index space with the caller's.

    ``items`` is either a sequence, known up front, or an iterator that
    is pulled lazily: one item only when a worker is idle and no unit
    waits out a retry backoff, so a source that blocks until work
    appears (a shard-queue claim) is never asked for more while a
    retry is pending.  Pulled items are numbered 0, 1, ... in pull
    order.
    An iterator's values reach the caller only through ``on_done`` —
    ``results`` comes back empty, so a long drain retains nothing per
    unit — and its children are started only once it yields a first
    item.

    ``tick=(interval, fn)`` calls ``fn()`` from the supervisor's loop at
    least every ``interval`` seconds while the batch runs — work that
    must keep pace with running units (a lease renewal) without a
    thread of its own.

    ``policy=None`` is the unsupervised contract: one attempt, no
    deadline, and the first failing unit ends the batch.  Its exception
    is re-raised here, type intact (the worker's traceback chained as
    the cause); a dead worker comes back as one ``crash`` quarantine.

    ``health`` (a :class:`~repro.obs.health.HealthMonitor`, duck-typed
    because the runner never imports ``repro.obs``) turns on the
    heartbeat channel: each worker gains a dedicated beat pipe and a
    daemon emitter thread, and the supervisor drains beats and notifies
    the monitor of every assign / completion / failure / death.  Every
    monitor call is report-only — retry and quarantine decisions are
    identical with ``health=None``.

    The supervisor blocks in :func:`multiprocessing.connection.wait` on
    every worker's pipes and process sentinel, until the next timed
    event at the latest: a backoff ending while some worker is idle, a
    unit deadline, the heartbeat period, or the next ``tick``.  Every
    unit — even under ``jobs=1`` — runs in a child process, which is
    what makes crash containment and deadline kills possible at all.
    """
    eager = isinstance(items, Sequence)
    source: Optional[Iterator[Any]] = None if eager else iter(items)
    results: List[Any] = [None] * len(items) if eager else []
    # the unsettled units by index; an iterator's are pulled into it
    units: Dict[int, Any] = dict(enumerate(items)) if eager else {}
    pulled = len(units)

    def _pull() -> Optional[int]:
        nonlocal source, pulled
        if source is None:
            return None
        try:
            item = next(source)
        except StopIteration:
            source = None
            return None
        units[pulled] = item
        pulled += 1
        return pulled - 1

    # heap of (eligible_at, index): units waiting for a free worker / backoff
    ready: List[Tuple[float, int]] = [(0.0, i) for i in units]
    if not eager and _pull() is not None:
        ready.append((0.0, 0))
    if not units:
        return results, [], 0
    describe = describe or (lambda i: f"unit {i}")
    fail_fast = policy is None
    if policy is None:
        policy = SupervisionPolicy(retry=RetryBudget(max_attempts=1))
    context = _process_context()
    budget = policy.retry
    retries_left = budget.total

    def where(index: int) -> int:
        return plan_index[index] if plan_index is not None else index

    attempts: Dict[int, int] = {}
    quarantined: List[UnitFailure] = []
    retries_spent = 0
    fatal: Optional[Tuple[BaseException, str]] = None  # ends a fail-fast batch
    beat_interval = (getattr(health, "beat_interval", 1.0)
                     if health is not None else None)
    workers = [_Worker(context, worker, beat_interval)
               for _ in range(max(1, min(jobs, len(units)) if eager
                                  else jobs))]
    lanes = [f"w{slot}" for slot in range(len(workers))]
    if health is not None:
        for slot, handle in enumerate(workers):
            health.worker_started(lanes[slot], handle.process.pid)
    next_tick = time.monotonic() + tick[0] if tick is not None else None

    def _settled(index: int, value: Any) -> None:
        del units[index]
        attempts.pop(index, None)
        if eager:
            results[index] = value

    def _quarantine(index: int, failure: UnitFailure) -> None:
        quarantined.append(failure)
        _settled(index, FailedUnit(failure))
        if on_failure is not None:
            on_failure(failure)

    def _failed_attempt(index: int, kind: str, error: str, tb: str,
                        lane: str, exc: Optional[BaseException] = None) -> None:
        nonlocal retries_spent, retries_left, fatal
        attempts[index] = attempts.get(index, 0) + 1
        out_of_budget = retries_left is not None and retries_left <= 0
        terminal = attempts[index] >= budget.max_attempts or out_of_budget
        failure = UnitFailure(
            index=where(index), label=describe(index),
            key=keys[index] if keys is not None else None,
            kind=kind, error=error, traceback=tb,
            attempts=attempts[index], final=terminal, worker=lane)
        if health is not None:
            health.unit_failed(failure)
        if terminal:
            if fail_fast and not quarantined and exc is not None:
                fatal = (exc, tb)
            _quarantine(index, failure)
            return
        if on_failure is not None:
            on_failure(failure)
        retries_spent += 1
        if retries_left is not None:
            retries_left -= 1
        eligible = time.monotonic() + budget.delay(attempts[index])
        heapq.heappush(ready, (eligible, index))

    def _settle(slot: int, kind: str, error: str) -> None:
        """A worker died or blew its deadline: respawn, charge its unit."""
        handle = workers[slot]
        if health is not None:
            health.worker_lost(
                lanes[slot], handle.process.pid, kind, error,
                where(handle.unit) if handle.unit is not None else None)
        handle.kill()
        workers[slot] = _Worker(context, worker, beat_interval)
        if health is not None:
            health.worker_started(lanes[slot], workers[slot].process.pid)
        if handle.unit in units:
            _failed_attempt(handle.unit, kind, error, "", lanes[slot])

    def _deliver(slot: int, index: int, status: str, *payload: Any) -> None:
        handle = workers[slot]
        if handle.unit == index:
            handle.unit = None
        if index not in units:
            return  # stale duplicate
        if status == "ok":
            _settled(index, payload[0])
            if health is not None:
                health.unit_finished(lanes[slot], where(index))
            if on_done is not None:
                on_done(where(index), payload[0], lanes[slot],
                        round(time.monotonic() - handle.started_at, 6))
        else:
            error, tb, exc = payload
            _failed_attempt(index, "exception", error, tb, lanes[slot], exc)

    def _drain(slot: int) -> Optional[str]:
        """Take in a worker's beats and results; why its pipe broke, if so."""
        handle = workers[slot]
        if handle.beats is not None:
            try:
                while handle.beats.poll():
                    units_done, rss_kb = handle.beats.recv()
                    health.beat(lanes[slot], handle.process.pid,
                                units_done, rss_kb)
            except Exception:
                pass  # torn beat from a dying worker: drop it
        while True:
            try:
                if not handle.outbox.poll():
                    return None
                message = handle.outbox.recv()
            except EOFError:
                handle.kill()  # the worker closed its end: it has exited
                return None
            except Exception as exc:
                # partial pickle from a dying writer: the pipe is
                # unusable — treat as a crash of the running unit
                handle.kill()
                return f"result pipe corrupted: {exc!r}"
            _deliver(slot, *message)

    def _next(now: float) -> Optional[int]:
        """The unit an idle worker runs next: the head of ``ready`` once
        eligible, else — with no unit waiting — a freshly pulled one."""
        while ready and ready[0][1] not in units:
            heapq.heappop(ready)  # settled while waiting
        if ready:
            return heapq.heappop(ready)[1] if ready[0][0] <= now else None
        return _pull()

    def _timeout(now: float) -> Optional[float]:
        """Seconds until the next timed event; ``None``: only I/O wakes."""
        wake = []
        if ready and any(handle.idle for handle in workers):
            wake.append(ready[0][0])  # a backoff ends for an idle worker
        if policy.unit_timeout is not None:
            wake.extend(handle.started_at + policy.unit_timeout
                        for handle in workers if not handle.idle)
        if beat_interval is not None:
            wake.append(now + beat_interval)
        if next_tick is not None:
            wake.append(next_tick)
        return max(0.0, min(wake) - now) if wake else None

    try:
        while not (fail_fast and quarantined):
            # hand eligible units to idle, living workers
            now = time.monotonic()
            for slot, handle in enumerate(workers):
                if not handle.idle or handle.dead():
                    continue
                index = _next(now)
                if index is None:
                    break
                handle.assign(index, units[index])
                if health is not None:
                    health.unit_started(
                        lanes[slot], where(index), describe(index),
                        keys[index] if keys is not None else None)
            if not units and source is None:
                break
            connection.wait([w for handle in workers
                             for w in handle.waitables], _timeout(now))
            # settle completions, deaths and blown deadlines
            now = time.monotonic()
            for slot in range(len(workers)):
                broken = _drain(slot)
                handle = workers[slot]
                if handle.dead():
                    code = handle.process.exitcode
                    _settle(slot, "crash", broken or (
                        "worker died idle" if handle.idle
                        else f"worker died with exit code {code}"))
                elif (not handle.idle and policy.unit_timeout is not None
                      and now - handle.started_at > policy.unit_timeout):
                    _settle(slot, "timeout",
                            f"deadline exceeded ({policy.unit_timeout:.1f}s)")
                if fail_fast and quarantined:
                    break
            if next_tick is not None and now >= next_tick:
                tick[1]()
                next_tick = now + tick[0]
            if health is not None:
                health.poll()
    finally:
        for handle in workers:
            handle.stop()
        if health is not None:
            health.finish()
    if fatal is not None:
        exc, tb = fatal
        raise exc from _RemoteTraceback(tb)
    return results, quarantined, retries_spent
