"""Tests for the session-execution engine and the experiment registry.

Covers the three engine guarantees — plan-order results, ``jobs=N``
output identical to ``jobs=1``, and cache correctness (hit, miss,
invalidation on code change) — plus the :class:`ExperimentSpec` registry
that fronts it.
"""

import enum
import importlib
import os
import pathlib
import signal
import subprocess
import sys
from dataclasses import dataclass

import pytest

import repro.experiments as experiments_pkg

# the package re-exports the fingerprint *function*, which shadows the
# submodule on ``import repro.runner.fingerprint as ...``
fingerprint_module = importlib.import_module("repro.runner.fingerprint")
from repro.experiments import (
    REGISTRY,
    Scale,
    fig2,
    get_experiment,
    iter_experiments,
    model_validation,
)
from repro.runner import (
    ResultCache,
    RunLedger,
    SessionPlan,
    UnitCounts,
    canonical,
    code_version,
    current_options,
    engine_options,
    fingerprint,
    plan_fingerprint,
    run_tasks,
    task_fingerprint,
)

#: An even smaller scale for test-suite latency (mirrors test_experiments).
TINY = Scale(name="tiny", sessions_per_cell=3, capture_duration=90.0,
             catalog_scale=0.02, mc_horizon=4000.0)


def _tally():
    """An in-memory ledger with the unit tally subscribed to it."""
    ledger, counts = RunLedger(), UnitCounts()
    ledger.subscribe(counts)
    return ledger, counts


# Module-level workers: picklable by reference, as the pool requires.
def _square(x):
    return x * x


def _swap(a, b):
    return (b, a)


def _sigterm_is_default(_):
    return signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


class _UnitBroke(Exception):
    pass


def _raise_on_one(x):
    if x == 1:
        raise _UnitBroke(f"unit {x} broke")
    return x


#: Runs one unsupervised ``jobs=2`` batch whose third unit kills its
#: worker; prints the failures the engine reports.
_CRASH_PROBE = """
import os
import sys

from repro.runner import CampaignAborted, run_tasks


def _die_on_two(x):
    if x == 2:
        os._exit(137)
    return x


if __name__ == "__main__":
    try:
        run_tasks(_die_on_two, [(x,) for x in range(4)], jobs=2)
    except CampaignAborted as exc:
        for failure in exc.failures:
            print(failure.kind, failure.index)
        sys.exit(0)
    sys.exit(1)
"""


class _Color(enum.Enum):
    RED = 1
    BLUE = 2


@dataclass(frozen=True)
class _Cfg:
    rate: float
    name: str


class TestCanonical:
    def test_scalars_round_trip_distinctly(self):
        # 1 and 1.0 compare equal in Python but configure nothing alike
        assert canonical(1) != canonical(1.0)
        assert canonical(True) != canonical(1.0)
        assert canonical("1") == "1"

    def test_dict_key_order_is_irrelevant(self):
        assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})

    def test_set_order_is_irrelevant(self):
        assert canonical({3, 1, 2}) == canonical({2, 3, 1})

    def test_enum_and_dataclass_encode_by_identity_and_value(self):
        assert canonical(_Color.RED) != canonical(_Color.BLUE)
        assert canonical(_Cfg(1.0, "x")) == canonical(_Cfg(1.0, "x"))
        assert canonical(_Cfg(1.0, "x")) != canonical(_Cfg(2.0, "x"))

    def test_callables_are_rejected(self):
        with pytest.raises(TypeError):
            canonical(lambda: None)


class TestFingerprint:
    def test_stable_and_sensitive(self):
        a = fingerprint("x", _Cfg(1.0, "v"))
        assert a == fingerprint("x", _Cfg(1.0, "v"))
        assert a != fingerprint("x", _Cfg(1.5, "v"))

    def test_code_version_shape(self):
        v = code_version()
        assert len(v) == 16
        int(v, 16)  # hex

    def test_task_fingerprint_separates_functions_and_args(self):
        assert task_fingerprint(_square, (3,)) != task_fingerprint(_swap, (3,))
        assert task_fingerprint(_square, (3,)) != task_fingerprint(_square, (4,))


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ab" + "0" * 38) is None
        cache.put("ab" + "0" * 38, {"x": 1})
        assert cache.get("ab" + "0" * 38) == {"x": 1}
        assert ("ab" + "0" * 38) in cache
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "0" * 38
        cache.put(key, [1, 2, 3])
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert not path.exists()

    def test_corrupt_entry_is_quarantined_and_counted(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" + "0" * 38
        cache.put(key, {"x": 1})
        cache._path(key).write_bytes(b"\x80truncated garbage")
        assert cache.get(key) is None
        # moved to <root>/corrupt/<key>.bad for post-mortem, out of the
        # live-entry globs, and surfaced through stats()
        quarantined = tmp_path / "corrupt" / f"{key}.bad"
        assert quarantined.exists()
        assert quarantined.read_bytes() == b"\x80truncated garbage"
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["corrupt"] == 1
        assert stats["entries"] == 0
        # a fresh put makes the key live again; the quarantine stays
        cache.put(key, {"x": 2})
        assert cache.get(key) == {"x": 2}
        assert cache.stats() == {"entries": 1,
                                 "bytes": cache._path(key).stat().st_size,
                                 "corrupt": 1}

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(f"{i:02d}" + "0" * 38, i)
        assert cache.clear() == 3
        assert len(cache) == 0


class TestRunTasks:
    def test_order_preserved_under_parallelism(self):
        args = [(x,) for x in (5, 3, 8, 1, 9, 2, 7)]
        assert run_tasks(_square, args, jobs=3) == [25, 9, 64, 1, 81, 4, 49]

    def test_cache_hit_miss_and_invalidation(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fingerprint_module, "code_version",
                            lambda: "deadbeefdeadbeef")
        cache = ResultCache(tmp_path)
        args = [(x,) for x in range(4)]

        def run():
            ledger, counts = _tally()
            with engine_options(ledger=ledger):
                result = run_tasks(_square, args, cache=cache)
            return result, (counts.cache_hits, counts.misses)

        assert run()[1] == (0, 4)
        assert run()[1] == (4, 0)

        # a code change moves every key: the warm cache no longer applies
        monkeypatch.setattr(fingerprint_module, "code_version",
                            lambda: "cafebabecafebabe")
        result, hits_misses = run()
        assert hits_misses == (0, 4)
        assert result == [0, 1, 4, 9]


class TestFailFast:
    """Without a supervision policy the first failing unit ends the
    batch, whatever the worker count."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_task_raises_its_own_exception(self, jobs):
        with pytest.raises(_UnitBroke, match="unit 1 broke"):
            run_tasks(_raise_on_one, [(x,) for x in range(4)], jobs=jobs)

    def test_dead_worker_aborts_instead_of_hanging(self, tmp_path):
        script = tmp_path / "crash_probe.py"
        script.write_text(_CRASH_PROBE, encoding="utf-8")
        src = pathlib.Path(experiments_pkg.__file__).parents[2]
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("REPRO_CHAOS", None)
        try:
            done = subprocess.run([sys.executable, str(script)], env=env,
                                  capture_output=True, text=True,
                                  timeout=30)
        except subprocess.TimeoutExpired:
            pytest.fail("a dead worker hung the batch")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n") == ["crash 2", ""]


class TestPoolShutdown:
    def test_workers_take_the_default_sigterm_action(self):
        # Pool.terminate() ends workers with SIGTERM; a Python handler
        # inherited from the parent (``repro worker`` installs one) could
        # leave a worker blocked on the task queue's lock and the pool
        # waiting for it forever
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            assert run_tasks(_sigterm_is_default,
                             [(i,) for i in range(4)], jobs=2) == [True] * 4
        finally:
            signal.signal(signal.SIGTERM, previous)


class TestEngineOptions:
    def test_defaults(self):
        options = current_options()
        assert options.jobs == 1
        assert options.cache is None

    def test_nesting_inherits_and_restores(self, tmp_path):
        with engine_options(jobs=4, cache=tmp_path):
            outer = current_options()
            assert outer.jobs == 4
            assert isinstance(outer.cache, ResultCache)
            with engine_options(jobs=1):
                inner = current_options()
                assert inner.jobs == 1
                assert inner.cache is outer.cache  # None inherits
        assert current_options().jobs == 1
        assert current_options().cache is None

    def test_explicit_arguments_beat_ambient(self):
        with engine_options(jobs=3):
            # run_tasks(jobs=1) must stay serial despite the ambient pool
            assert run_tasks(_square, [(2,)], jobs=1) == [4]


class TestDeterminism:
    """jobs=N must be byte-identical to jobs=1 — the engine's contract."""

    def test_fig2_parallel_identical(self):
        serial = fig2.run(TINY, seed=0).report()
        with engine_options(jobs=3):
            parallel = fig2.run(TINY, seed=0).report()
        assert parallel == serial

    def test_model_validation_parallel_identical(self):
        serial = model_validation.run(TINY, seed=0).report()
        with engine_options(jobs=3):
            parallel = model_validation.run(TINY, seed=0).report()
        assert parallel == serial


class TestSpecRun:
    def test_spec_run_threads_jobs_cache_stats(self, tmp_path):
        spec = get_experiment("model_validation")
        ledger, cold = _tally()
        first = spec.run(TINY, seed=0, jobs=2, cache=tmp_path, ledger=ledger)
        assert cold.misses == cold.total > 0

        ledger, warm = _tally()
        second = spec.run(TINY, seed=0, jobs=2, cache=tmp_path, ledger=ledger)
        assert warm.cache_hits == warm.total == cold.total
        assert second.report() == first.report()


class TestRegistry:
    def test_every_experiment_module_is_registered(self):
        root = pathlib.Path(experiments_pkg.__file__).parent
        modules = {p.stem for p in root.glob("*.py")} - {"__init__", "common"}
        assert modules == set(REGISTRY)

    def test_specs_are_complete_and_consistent(self):
        for name, spec in REGISTRY.items():
            assert spec.name == name
            assert spec.title
            assert spec.paper
            assert callable(spec.module.run)

    def test_iteration_order_and_lookup(self):
        assert [s.name for s in iter_experiments()] == list(REGISTRY)
        assert get_experiment("table1") is REGISTRY["table1"]
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("fig99")

    def test_all_derives_from_registry(self):
        assert set(REGISTRY) <= set(experiments_pkg.__all__)

    def test_all_experiments_alias_removed(self):
        # the PR-2 deprecation cycle is complete: the module-dict alias
        # is gone, REGISTRY/get_experiment are the only lookup paths
        assert not hasattr(experiments_pkg, "ALL_EXPERIMENTS")
        assert "ALL_EXPERIMENTS" not in experiments_pkg.__all__


class TestSessionPlanKeys:
    def test_plan_key_matches_fingerprint(self):
        plan = SessionPlan("video", _Cfg(1.0, "cfg"))
        assert plan.key == plan_fingerprint("video", _Cfg(1.0, "cfg"))
        assert plan.key != plan_fingerprint("video", _Cfg(2.0, "cfg"))
