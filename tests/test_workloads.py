"""Tests for videos, catalogs, datasets, interruptions and arrivals."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    DATASET_NAMES,
    FULL_SIZES,
    MBPS,
    EmpiricalInterruptionModel,
    FixedBetaModel,
    NoInterruption,
    PoissonProcess,
    Video,
    make_dataset,
    make_netmob,
    make_netpc,
    sample_netflix_duration,
    sample_youtube_duration,
)


class TestVideo:
    def make(self, **kw):
        defaults = dict(video_id="v", duration=200.0,
                        encoding_rate_bps=1 * MBPS, resolution="360p",
                        container="flv")
        defaults.update(kw)
        return Video(**defaults)

    def test_size_is_rate_times_duration(self):
        v = self.make(duration=100.0, encoding_rate_bps=8 * MBPS)
        assert v.size_bytes == 100 * 1_000_000  # 8 Mbps * 100 s / 8

    def test_size_at_other_rate(self):
        v = self.make(duration=10.0)
        assert v.size_bytes_at(4 * MBPS) == 5_000_000

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(duration=0)
        with pytest.raises(ValueError):
            self.make(encoding_rate_bps=-1)
        with pytest.raises(ValueError):
            self.make(container="avi")

    def test_all_rates_dedups_default(self):
        v = self.make(variants=(("240p", 0.5 * MBPS), ("360p", 1 * MBPS)))
        assert v.all_rates == (1 * MBPS, 0.5 * MBPS)

    def test_variant_at_most_picks_best_fitting(self):
        v = self.make(
            encoding_rate_bps=2 * MBPS,
            variants=(("240p", 0.5 * MBPS), ("720p", 4 * MBPS)),
        )
        assert v.variant_at_most(3 * MBPS)[1] == 2 * MBPS
        assert v.variant_at_most(10 * MBPS)[1] == 4 * MBPS

    def test_variant_at_most_falls_back_to_lowest(self):
        v = self.make(encoding_rate_bps=2 * MBPS,
                      variants=(("240p", 0.5 * MBPS),))
        assert v.variant_at_most(0.1 * MBPS)[1] == 0.5 * MBPS


class TestDurations:
    def test_youtube_durations_clipped(self):
        rng = random.Random(1)
        durations = [sample_youtube_duration(rng) for _ in range(2000)]
        assert all(30.0 <= d <= 3600.0 for d in durations)

    def test_youtube_median_a_few_minutes(self):
        rng = random.Random(2)
        durations = sorted(sample_youtube_duration(rng) for _ in range(4001))
        median = durations[2000]
        assert 120.0 <= median <= 330.0

    def test_netflix_durations_are_long(self):
        rng = random.Random(3)
        durations = [sample_netflix_duration(rng) for _ in range(1000)]
        assert min(durations) >= 600.0
        assert sum(durations) / len(durations) > 30 * 60.0


class TestDatasets:
    def test_all_six_datasets_exist(self):
        for name in DATASET_NAMES:
            assert make_dataset(name, seed=1, scale=0.02).name == name

    def test_full_sizes_match_paper(self):
        assert FULL_SIZES == {
            "YouFlash": 5000, "YouHD": 2000, "YouHtml": 3000,
            "YouMob": 1000, "NetPC": 200, "NetMob": 50,
        }

    def test_scaled_sizes_proportional(self):
        catalog = make_dataset("YouFlash", seed=1, scale=0.01)
        assert len(catalog) == 50

    def test_youflash_rate_range(self):
        catalog = make_dataset("YouFlash", seed=1, scale=0.05)
        lo, hi = catalog.rate_range()
        assert lo >= 0.2 * MBPS
        assert hi <= 1.5 * MBPS
        assert all(v.container == "flv" for v in catalog)
        assert {v.resolution for v in catalog} <= {"240p", "360p"}

    def test_youhd_rate_range_and_resolution(self):
        catalog = make_dataset("YouHD", seed=1, scale=0.05)
        lo, hi = catalog.rate_range()
        assert lo >= 0.2 * MBPS
        assert hi <= 4.8 * MBPS
        assert all(v.resolution == "720p" for v in catalog)

    def test_youhtml_is_webm_at_360p(self):
        catalog = make_dataset("YouHtml", seed=1, scale=0.05)
        assert all(v.container == "webm" for v in catalog)
        assert all(v.resolution == "360p" for v in catalog)
        _lo, hi = catalog.rate_range()
        assert hi <= 2.5 * MBPS

    def test_youmob_rate_range(self):
        catalog = make_dataset("YouMob", seed=1, scale=0.05)
        _lo, hi = catalog.rate_range()
        assert hi <= 2.7 * MBPS
        assert all(v.variants for v in catalog)  # renditions available

    def test_netflix_ladder(self):
        catalog = make_netpc(seed=1, scale=0.25)
        for video in catalog:
            assert video.container == "silverlight"
            assert len(video.all_rates) == 5

    def test_netmob_is_subset_of_netpc(self):
        netpc = make_netpc(seed=1, scale=1.0)
        netmob = make_netmob(seed=1, scale=1.0, netpc=netpc)
        assert len(netmob) == 50
        netpc_ids = {v.video_id for v in netpc}
        assert all(v.video_id in netpc_ids for v in netmob)

    def test_generation_is_deterministic(self):
        a = make_dataset("YouFlash", seed=7, scale=0.02)
        b = make_dataset("YouFlash", seed=7, scale=0.02)
        assert [v.video_id for v in a] == [v.video_id for v in b]
        assert [v.encoding_rate_bps for v in a] == [v.encoding_rate_bps for v in b]

    def test_different_seeds_differ(self):
        a = make_dataset("YouFlash", seed=7, scale=0.02)
        b = make_dataset("YouFlash", seed=8, scale=0.02)
        assert [v.encoding_rate_bps for v in a] != [v.encoding_rate_bps for v in b]

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError):
            make_dataset("Vimeo")

    def test_catalog_sampling(self):
        catalog = make_dataset("YouFlash", seed=1, scale=0.02)
        rng = random.Random(1)
        picked = catalog.sample(10, rng)
        assert len(picked) == 10
        assert len({v.video_id for v in picked}) == 10  # without replacement


class TestInterruptions:
    def test_no_interruption_always_completes(self):
        model = NoInterruption()
        out = model.sample(random.Random(1), 100.0)
        assert out.completed and out.beta == 1.0

    def test_fixed_beta(self):
        model = FixedBetaModel(0.2)
        out = model.sample(random.Random(1), 100.0)
        assert out.beta == 0.2 and out.interrupted

    def test_fixed_beta_validation(self):
        with pytest.raises(ValueError):
            FixedBetaModel(0.0)
        with pytest.raises(ValueError):
            FixedBetaModel(1.5)

    def test_finamore_sixty_percent_below_twenty_percent(self):
        """Calibration target: ~60 % of videos watched < 20 % of duration."""
        model = EmpiricalInterruptionModel()
        rng, n = random.Random(11), 8000
        frac = sum(model.sample(rng, 200.0).beta < 0.2 for _ in range(n)) / n
        assert 0.5 <= frac <= 0.7

    def test_gill_interest_share(self):
        model = EmpiricalInterruptionModel()
        rng = random.Random(5)
        reasons = [model.sample(rng, 200.0) for _ in range(4000)]
        interrupted = [r for r in reasons if r.interrupted]
        interest = sum(1 for r in interrupted if r.reason == "lack-of-interest")
        assert 0.72 <= interest / len(interrupted) <= 0.88

    def test_huang_longer_videos_less_completed(self):
        model = EmpiricalInterruptionModel()
        assert (model.completion_probability(3600.0)
                < model.completion_probability(120.0))

    def test_betas_always_valid(self):
        model = EmpiricalInterruptionModel()
        rng = random.Random(9)
        for _ in range(2000):
            out = model.sample(rng, 500.0)
            assert 0.0 < out.beta <= 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EmpiricalInterruptionModel(p_complete=1.0)
        with pytest.raises(ValueError):
            EmpiricalInterruptionModel(p_interest=2.0)


class TestArrivals:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            PoissonProcess(0.0, random.Random(1))

    def test_mean_rate_matches_lambda(self):
        process = PoissonProcess(5.0, random.Random(3))
        times = process.times_until(2000.0)
        assert len(times) / 2000.0 == pytest.approx(5.0, rel=0.05)

    def test_times_sorted_and_in_range(self):
        times = PoissonProcess(2.0, random.Random(4)).times_until(100.0)
        assert times == sorted(times)
        assert all(0 < t < 100.0 for t in times)

    def test_interarrivals_exponential(self):
        """Mean and CV of inter-arrival gaps match an exponential."""
        times = PoissonProcess(1.0, random.Random(8)).times_until(20000.0)
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        assert mean == pytest.approx(1.0, rel=0.05)
        assert math.sqrt(var) / mean == pytest.approx(1.0, rel=0.1)
