"""Batch keys are the per-unit fingerprints, computed once per object.

:func:`~repro.runner.fingerprint.fingerprint_batch` encodes each
distinct argument object once per call and joins the memoized texts the
way :func:`json.dumps` lays out a list.  These tests hold it to its one
promise — every batch key is byte-identical to ``fingerprint(*row)`` —
for rows that share, repeat and nest objects, then check that the three
engine entry points (``run_shards``, ``run_tasks``, ``run_sessions``)
key their batches exactly as the single-unit ``shard_fingerprint``,
``task_fingerprint`` and ``plan_fingerprint`` do, and that the memo
never outlives a call: a catalog mutated between two batches is keyed
afresh.
"""

import collections
import enum
import gc
import weakref
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import (
    ResultCache,
    RunLedger,
    ShardSpec,
    ShardStore,
    engine_options,
    fingerprint,
    fingerprint_batch,
    plan_fingerprint,
    run_sessions,
    run_shards,
    run_tasks,
    shard_fingerprint,
    task_fingerprint,
)
from repro.simnet import RESEARCH
from repro.streaming import Application, Service, SessionConfig
from repro.workloads import MBPS, Video


class _Tone(enum.Enum):
    LOW = 1
    HIGH = 2


@dataclass(frozen=True)
class _Point:
    rate: float
    name: str


_Pair = collections.namedtuple("_Pair", "a b")

_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    st.floats(allow_nan=False), st.binary(max_size=4),
    st.sampled_from(_Tone),
    st.builds(_Point, st.floats(allow_nan=False), st.text(max_size=4)),
)

_OBJECTS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
        st.frozensets(st.integers(), max_size=3),
        st.builds(_Pair, children, children),
    ),
    max_leaves=12,
)


@st.composite
def _rows(draw):
    """Rows whose parts are shared pool objects, repeated in and across
    rows, fresh ``list(args)`` lists of them, and lists nesting both."""
    pool = draw(st.lists(_OBJECTS, min_size=1, max_size=5))
    pick = st.integers(0, len(pool) - 1).map(pool.__getitem__)
    part = st.one_of(
        pick,
        st.lists(pick, max_size=4),                 # list(args)
        st.tuples(pick, st.lists(pick, max_size=3)),
        st.lists(st.lists(pick, max_size=2), max_size=2),
    )
    return draw(st.lists(st.lists(part, max_size=6), max_size=6))


class TestFingerprintBatch:
    @settings(max_examples=200, deadline=None)
    @given(_rows())
    def test_equals_fingerprint_of_every_row(self, rows):
        assert fingerprint_batch(rows) == [fingerprint(*row) for row in rows]

    def test_accepts_a_generator_and_an_empty_batch(self):
        shared = {"catalog": [1.0, 2.0]}
        rows = [("x", shared, i) for i in range(3)]
        assert fingerprint_batch(iter(rows)) == [fingerprint(*r)
                                                 for r in rows]
        assert fingerprint_batch([]) == []

    def test_the_memo_dies_with_the_call(self):
        # no reference cycle may keep the memo, and every object it
        # pins, alive until the next full garbage collection
        catalog = _Point(1.0, "catalog")
        ref = weakref.ref(catalog)
        gc.disable()
        try:
            fingerprint_batch([("a", catalog), ("b", [catalog, [catalog]])])
            del catalog
            assert ref() is None
        finally:
            gc.enable()

    def test_rejects_callables_like_fingerprint(self):
        with pytest.raises(TypeError):
            fingerprint_batch([("x", lambda: None)])


# -- engine entry points ------------------------------------------------------

def _count(catalog, offset):
    return len(catalog) + offset


def _keyed_ledger():
    """An in-memory ledger and the plan-ordered keys of its ``done``
    records."""
    ledger, done = RunLedger(), {}

    def watch(record, _value):
        if record["event"] == "done":
            done[record["unit"]] = record["key"]

    ledger.subscribe(watch)
    return ledger, done


def _catalog():
    return [Video(video_id=f"v{i}", duration=60.0 + i,
                  encoding_rate_bps=MBPS, resolution="360p",
                  container="flv") for i in range(5)]


def _shard_units(catalog, n=4):
    return [(ShardSpec(campaign="keys", scale="tiny", seed=0, index=i,
                       of=n, units=1), (catalog, i)) for i in range(n)]


class TestEngineKeys:
    def test_run_shards_keys_are_shard_fingerprints(self, tmp_path):
        units = _shard_units(_catalog())
        ledger, done = _keyed_ledger()
        with engine_options(cache=ResultCache(tmp_path), ledger=ledger):
            run_shards(_count, units)
        assert [done[i] for i in range(len(units))] == [
            shard_fingerprint(spec, _count, args) for spec, args in units]

    def test_run_tasks_keys_are_task_fingerprints(self, tmp_path):
        catalog = _catalog()
        argslist = [(catalog, i) for i in range(4)] + [(catalog, 0)]
        ledger, done = _keyed_ledger()
        with engine_options(cache=ResultCache(tmp_path), ledger=ledger):
            run_tasks(_count, argslist)
        assert [done[i] for i in range(len(argslist))] == [
            task_fingerprint(_count, args) for args in argslist]

    def test_run_sessions_keys_are_plan_fingerprints(self, tmp_path):
        # every plan is pre-filled under its single-unit key, so the batch
        # can only return the sentinels (and simulate nothing) when its
        # keys are the same bytes
        video = _catalog()[0]
        plans = [(video, SessionConfig(profile=RESEARCH,
                                       service=Service.YOUTUBE,
                                       application=Application.FIREFOX,
                                       capture_duration=1.0, seed=seed))
                 for seed in range(3)]
        cache = ResultCache(tmp_path)
        for i, (v, config) in enumerate(plans):
            cache.put(plan_fingerprint(v, config), f"sentinel-{i}")
        ledger, done = _keyed_ledger()
        with engine_options(cache=cache, ledger=ledger):
            results = run_sessions(plans)
        assert results == [f"sentinel-{i}" for i in range(len(plans))]
        assert [done[i] for i in range(len(plans))] == [
            plan_fingerprint(v, config) for v, config in plans]

    def test_a_catalog_mutated_between_batches_is_keyed_afresh(
            self, tmp_path):
        catalog = _catalog()
        units = _shard_units(catalog)
        cache = ResultCache(tmp_path)
        first_ledger, first = _keyed_ledger()
        with engine_options(cache=cache, ledger=first_ledger):
            run_shards(_count, units)
        catalog.append(Video(video_id="late", duration=30.0,
                             encoding_rate_bps=MBPS, resolution="360p",
                             container="flv"))
        second_ledger, second = _keyed_ledger()
        with engine_options(cache=cache, ledger=second_ledger):
            results = run_shards(_count, units)
        assert all(second[i] != first[i] for i in range(len(units)))
        assert [second[i] for i in range(len(units))] == [
            shard_fingerprint(spec, _count, args) for spec, args in units]
        # no stale artifact: every shard saw the grown catalog
        assert [r.value for r in results] == [6, 7, 8, 9]
        assert ShardStore(cache).stats()["entries"] == 2 * len(units)
