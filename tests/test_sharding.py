"""Tests for the sharded campaign engine and streaming reduction.

The load-bearing guarantees, in dependency order:

* the :mod:`repro.stats` primitives merge exactly (integer state
  bit-for-bit, float moments to documented rounding tolerance);
* ``merge_options`` gives ``engine_options`` the same nested-scope
  composition semantics the 7-way copy used to, plus the ``sharding``
  field and a loud failure on unknown options;
* shard fingerprints are stable under re-dimensioning and distinct
  under anything that changes the shard's value;
* ``run_shards`` rides the pool: plan order, cache hits on re-run,
  artifacts in the shard store;
* a merged per-shard reduction equals the unsharded collector on the
  same plan — across ``--jobs`` values — and ``model_validation``
  validates Eqs (3)-(4) at 10k+ sessions through the sharded path
  (the Tier-1 campaign gate).
"""

import math
import random

import pytest

from repro.model import (
    PopulationMoments,
    aggregate_mean_exact,
    aggregate_variance,
    constant_strategy,
    simulate_aggregate,
    simulate_aggregate_moments,
)
from repro.obs import CampaignCollector, ProgressReporter
from repro.runner import (
    EngineOptions,
    ResultCache,
    RunLedger,
    SessionPlan,
    ShardResult,
    ShardSpec,
    ShardStore,
    Sharding,
    UnitCounts,
    current_options,
    engine_options,
    merge_options,
    run_shards,
    shard_fingerprint,
)
from repro.simnet import RESEARCH
from repro.simnet.rng import derive_seed
from repro.stats import HistogramSketch, MomentAccumulator
from repro.streaming import (
    Application,
    Container,
    Service,
    SessionConfig,
)
from repro.workloads import MBPS, Video, make_youflash


# -- streaming statistics primitives ----------------------------------------


class TestMomentAccumulator:
    def test_matches_closed_forms(self):
        values = [1.5, -2.0, 7.25, 0.0, 3.5]
        acc = MomentAccumulator()
        for v in values:
            acc.add(v)
        n = len(values)
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / n
        assert acc.count == n
        assert acc.total == sum(values)
        assert acc.min == min(values)
        assert acc.max == max(values)
        assert acc.mean == pytest.approx(mean, rel=1e-12)
        assert acc.variance == pytest.approx(var, rel=1e-12)
        assert acc.std == pytest.approx(math.sqrt(var), rel=1e-12)

    def test_merge_equals_unsharded(self):
        rng = random.Random(7)
        values = [rng.gauss(5.0, 2.0) for _ in range(1000)]
        whole = MomentAccumulator()
        for v in values:
            whole.add(v)
        # any sharding of the same observations merges back to the whole
        parts = [MomentAccumulator() for _ in range(7)]
        for i, v in enumerate(values):
            parts[i % 7].add(v)
        merged = MomentAccumulator()
        for part in parts:
            merged.merge(part)
        assert merged.count == whole.count          # bit-identical
        assert merged.min == whole.min
        assert merged.max == whole.max
        assert merged.mean == pytest.approx(whole.mean, rel=1e-12)
        assert merged.variance == pytest.approx(whole.variance, rel=1e-12)

    def test_merge_empty_is_identity(self):
        acc = MomentAccumulator()
        acc.add(3.0)
        before = (acc.count, acc.mean, acc.m2, acc.min, acc.max)
        acc.merge(MomentAccumulator())
        assert (acc.count, acc.mean, acc.m2, acc.min, acc.max) == before
        empty = MomentAccumulator()
        empty.merge(acc)
        assert empty.count == 1 and empty.mean == 3.0

    def test_add_many_matches_sequential(self):
        rng = random.Random(11)
        values = [rng.expovariate(0.5) for _ in range(500)]
        seq = MomentAccumulator()
        for v in values:
            seq.add(v)
        batch = MomentAccumulator()
        batch.add_many(values)
        assert batch.count == seq.count
        assert batch.min == seq.min and batch.max == seq.max
        assert batch.mean == pytest.approx(seq.mean, rel=1e-12)
        assert batch.variance == pytest.approx(seq.variance, rel=1e-12)

    def test_empty_properties(self):
        acc = MomentAccumulator()
        assert acc.variance == 0.0 and acc.std == 0.0


class TestHistogramSketch:
    def test_merged_percentiles_bit_identical(self):
        rng = random.Random(3)
        values = [rng.lognormvariate(10.0, 2.0) for _ in range(2000)]
        whole = HistogramSketch()
        whole.observe_many(values)
        parts = [HistogramSketch() for _ in range(5)]
        for i, v in enumerate(values):
            parts[i % 5].observe(v)
        merged = HistogramSketch()
        for part in parts:
            merged.merge(part)
        # fixed binning: counts and ranks are exact integers, so the
        # sharded percentile is *bit*-identical, not just close
        assert merged.counts == whole.counts
        assert merged.count == whole.count == len(values)
        for q in (0, 10, 50, 90, 99, 100):
            assert merged.percentile(q) == whole.percentile(q)

    def test_percentile_value_within_bin_width(self):
        values = sorted(random.Random(5).uniform(1.0, 1000.0)
                        for _ in range(999))
        sketch = HistogramSketch()
        sketch.observe_many(values)
        width = 10.0 ** (1.0 / sketch.bins_per_decade)
        for q in (5, 50, 95):
            exact = values[round((q / 100) * (len(values) - 1))]
            assert exact / width <= sketch.percentile(q) <= exact * width

    def test_underflow_and_bounds(self):
        sketch = HistogramSketch()
        sketch.observe_many([0.0, -1.0, 5.0])
        assert sketch.underflow == 2
        assert sketch.count == 3
        assert sketch.percentile(0) == 0.0      # underflow reports as 0
        assert sketch.percentile(100) > 0.0
        assert HistogramSketch().percentile(50) is None
        with pytest.raises(ValueError, match="percentile"):
            sketch.percentile(101)

    def test_binning_mismatch_refuses_merge(self):
        with pytest.raises(ValueError, match="binnings"):
            HistogramSketch(bins_per_decade=12).merge(
                HistogramSketch(bins_per_decade=6))


# -- EngineOptions / merge_options ------------------------------------------


class TestMergeOptions:
    def test_none_inherits_base(self):
        base = EngineOptions(jobs=4)
        merged = merge_options(base, {"jobs": None, "cache": None})
        assert merged.jobs == 4 and merged.cache is None

    def test_normalizers_apply(self, tmp_path):
        base = EngineOptions()
        merged = merge_options(base, {"jobs": 0, "cache": str(tmp_path)})
        assert merged.jobs == 1                    # clamped to >= 1
        assert isinstance(merged.cache, ResultCache)

    def test_unknown_option_is_loud(self):
        with pytest.raises(TypeError, match="unknown engine option"):
            merge_options(EngineOptions(), {"job": 2})

    def test_nested_scopes_compose(self, tmp_path):
        ledger = RunLedger()
        with engine_options(jobs=3, sharding=Sharding(shards=2)):
            with engine_options(cache=str(tmp_path), ledger=ledger):
                options = current_options()
                # inner scope inherits what it did not override
                assert options.jobs == 3
                assert options.sharding == Sharding(shards=2)
                assert isinstance(options.cache, ResultCache)
                assert options.ledger is ledger
            assert current_options().cache is None
        assert current_options().sharding is None

    def test_sharding_validation(self):
        with pytest.raises(ValueError, match="shards"):
            Sharding(shards=0)
        with pytest.raises(ValueError, match="sessions"):
            Sharding(shards=2, sessions=0)
        with pytest.raises(ValueError, match="shard_size"):
            Sharding(shard_size=0)

    def test_shard_count_by_count_and_by_size(self):
        assert Sharding(shards=4).shard_count(100) == 4
        assert Sharding(shard_size=30).shard_count(100) == 4  # ceil
        assert Sharding(shard_size=30).shard_count(90) == 3
        assert Sharding(shard_size=200).shard_count(100) == 1


# -- shard identity ----------------------------------------------------------


def _double(x):
    return x * 2


def _tally():
    """An in-memory ledger with the unit tally subscribed to it."""
    ledger, counts = RunLedger(), UnitCounts()
    ledger.subscribe(counts)
    return ledger, counts


def _spec(index=0, of=4, units=10, campaign="camp", seed=0):
    return ShardSpec(campaign=campaign, scale="tiny", seed=seed,
                     index=index, of=of, units=units)


class TestShardFingerprint:
    def test_redimension_keeps_fingerprints(self):
        # growing the campaign (more shards, same per-shard size) must
        # not invalidate existing shard artifacts: `of` is display-only
        a = shard_fingerprint(_spec(index=1, of=4), _double, (3,))
        b = shard_fingerprint(_spec(index=1, of=16), _double, (3,))
        assert a == b

    def test_identity_fields_are_load_bearing(self):
        base = shard_fingerprint(_spec(), _double, (3,))
        assert shard_fingerprint(_spec(index=1), _double, (3,)) != base
        assert shard_fingerprint(_spec(seed=1), _double, (3,)) != base
        assert shard_fingerprint(_spec(units=11), _double, (3,)) != base
        assert shard_fingerprint(_spec(campaign="x"), _double, (3,)) != base
        assert shard_fingerprint(_spec(), _double, (4,)) != base
        assert shard_fingerprint(_spec(), _square, (3,)) != base


def _square(x):
    return x * x


# -- run_shards through the pool ---------------------------------------------


class TestRunShards:
    def _units(self, n=4):
        return [(_spec(index=i, of=n, units=1), (i,)) for i in range(n)]

    def test_plan_order_and_values(self):
        results = run_shards(_double, self._units())
        assert [r.value for r in results] == [0, 2, 4, 6]
        assert [r.shard.index for r in results] == [0, 1, 2, 3]
        assert all(isinstance(r, ShardResult) for r in results)

    def test_jobs_equivalence(self):
        serial = run_shards(_double, self._units())
        with engine_options(jobs=2):
            parallel = run_shards(_double, self._units())
        assert [r.value for r in serial] == [r.value for r in parallel]

    def test_rerun_hits_shard_store(self, tmp_path):
        cache = ResultCache(tmp_path)
        (cold_ledger, cold), (warm_ledger, warm) = _tally(), _tally()
        with engine_options(cache=cache, ledger=cold_ledger):
            run_shards(_double, self._units())
        with engine_options(cache=cache, ledger=warm_ledger):
            results = run_shards(_double, self._units())
        assert cold.misses == 4 and cold.cache_hits == 0
        assert warm.cache_hits == 4 and warm.misses == 0
        assert [r.value for r in results] == [0, 2, 4, 6]
        # artifacts live in the shard namespace, not the session cache
        store = ShardStore(cache)
        assert store.stats()["entries"] == 4
        assert cache.stats()["entries"] == 0

    def test_redimensioned_campaign_reuses_prefix(self, tmp_path):
        cache = ResultCache(tmp_path)
        ledger, grown = _tally()
        with engine_options(cache=cache):
            run_shards(_double, self._units(4))
            with engine_options(ledger=ledger):
                run_shards(_double, self._units(8))
        # the first 4 shards of the grown campaign are cache hits even
        # though the shard *count* changed
        assert grown.cache_hits == 4 and grown.misses == 4


# -- streaming reduction -------------------------------------------------------


def _plan(i, seed=3):
    video = Video(video_id=f"v{i}", duration=240.0,
                  encoding_rate_bps=(0.6 + 0.05 * i) * MBPS,
                  resolution="360p", container="flv")
    config = SessionConfig(profile=RESEARCH, service=Service.YOUTUBE,
                           application=Application.FIREFOX,
                           container=Container.FLASH,
                           capture_duration=30.0,
                           seed=derive_seed(seed, str(i)))
    return SessionPlan(video, config)


class TestStreamingReduction:
    def test_snapshot_is_idempotent(self):
        from repro.streaming import run_session

        collector = CampaignCollector()
        plan = _plan(0)
        collector.collect(run_session(plan.video, plan.config))
        first = collector.snapshot()
        second = collector.snapshot()
        assert first.sessions == second.sessions == 1
        assert first.moments["bytes"].count \
            == second.moments["bytes"].count

    def test_progress_reporter_counts_shards(self):
        import io

        units = [(_spec(index=i, of=2, units=2, campaign="prog"), (i,))
                 for i in range(2)]
        reporter = ProgressReporter(stream=io.StringIO())
        ledger = RunLedger()
        ledger.subscribe(reporter)
        with engine_options(ledger=ledger):
            run_shards(_double, units)
        assert reporter.shards_done == 2
        assert reporter.shards_total == 2
        # one merged event per shard handed to the reduction, plan order
        merged = [r for r in ledger.records if r["event"] == "merged"]
        assert [(r["campaign"], r["shard"]) for r in merged] == [
            ("prog", 0), ("prog", 1)]


# -- mergeable Monte-Carlo moments -------------------------------------------


class TestAggregateMoments:
    def setup_method(self):
        self.catalog = make_youflash(seed=0, scale=0.02)

    def test_sample_view_matches_simulate_aggregate(self):
        kwargs = dict(lam=0.3, horizon=3000.0, strategy=constant_strategy,
                      peak_bps=8e6, seed=5)
        sample = simulate_aggregate(self.catalog, **kwargs)
        moments = simulate_aggregate_moments(self.catalog, **kwargs)
        assert moments.sessions == sample.sessions
        assert moments.warmup == sample.warmup
        assert moments.mean_bps == pytest.approx(sample.mean_bps,
                                                 rel=1e-9)
        assert moments.variance_bps2 == pytest.approx(
            sample.variance_bps2, rel=1e-9)

    def test_merged_shards_match_analytic_model(self):
        lam, peak = 0.3, 8e6
        merged = None
        for index in range(4):
            shard = simulate_aggregate_moments(
                self.catalog, lam, horizon=2500.0,
                strategy=constant_strategy, peak_bps=peak, seed=10 + index)
            merged = shard if merged is None else merged.merge(shard)
        pop = PopulationMoments.from_catalog(self.catalog,
                                             download_rate_bps=peak)
        assert merged.sessions > 1000
        assert merged.mean_bps == pytest.approx(
            aggregate_mean_exact(lam, pop), rel=0.1)
        assert merged.variance_bps2 == pytest.approx(
            aggregate_variance(lam, pop), rel=0.25)
        assert merged.sketch.count == merged.moments.count


# -- the Tier-1 campaign gate ------------------------------------------------


class TestModelValidationCampaignGate:
    """`model_validation` through the sharded engine at 10k+ sessions:
    the simulated aggregate mean/variance must match Eqs (3)-(4)."""

    def test_10k_sessions_validate_model(self, tmp_path):
        from repro.experiments import Scale, get_experiment

        tiny = Scale(name="tiny", sessions_per_cell=3,
                     capture_duration=90.0, catalog_scale=0.02,
                     mc_horizon=4000.0)
        result = get_experiment("model_validation").run(
            tiny, seed=0, jobs=2, cache=ResultCache(tmp_path),
            sharding=Sharding(shards=4, sessions=10_000))
        assert result.shards == 4
        # lam * horizon = 10k expected arrivals per strategy; Poisson
        # fluctuation is ~1%, so the three-strategy campaign clears 27k
        assert result.campaign_sessions >= 27_000
        for row in result.moment_rows:
            assert row.sessions >= 9_000
            assert row.mean_error < 0.05, row
            assert row.var_error < 0.15, row
        # strategy invariance (the paper's punchline) holds at scale
        variances = [row.empirical_var for row in result.moment_rows]
        assert max(variances) / min(variances) < 1.1
        # every shard artifact landed in the store: a re-run is free
        ledger, warm = _tally()
        rerun = get_experiment("model_validation").run(
            tiny, seed=0, jobs=2, cache=ResultCache(tmp_path),
            ledger=ledger, sharding=Sharding(shards=4, sessions=10_000))
        assert warm.misses == 0
        assert rerun.campaign_sessions == result.campaign_sessions
        assert [r.empirical_mean for r in rerun.moment_rows] \
            == [r.empirical_mean for r in result.moment_rows]
