"""Tests for the Section-6 analytical model."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import (
    ConstantRate,
    OnOffRate,
    PopulationMoments,
    aggregate_mean_exact,
    aggregate_mean_factored,
    aggregate_variance,
    coefficient_of_variation,
    constant_strategy,
    critical_duration,
    encoding_rate_migration,
    invariance_gap,
    long_onoff_strategy,
    plan_for,
    required_capacity,
    short_onoff_strategy,
    simulate_aggregate,
    simulate_aggregate_moments,
    simulate_wasted_bandwidth,
    unused_bytes,
    unused_playback_seconds,
    waste_sweep,
    wasted_bandwidth_exact,
    wasted_bandwidth_factored,
)
from repro.model import montecarlo
from repro.workloads import Catalog, MBPS, Video, make_youflash
from repro.workloads.arrivals import PoissonProcess


def uniform_catalog(n=20, rate=1 * MBPS, duration=200.0):
    videos = [
        Video(video_id=f"u{i}", duration=duration, encoding_rate_bps=rate,
              resolution="360p", container="flv")
        for i in range(n)
    ]
    return Catalog("uniform", videos)


def _one_video(rate_bps, duration_s, peak_bps):
    """The moments of a population of one video, downloaded at ``peak``."""
    size = rate_bps * duration_s
    return PopulationMoments(mean_rate_bps=rate_bps, mean_duration_s=duration_s,
                             mean_size_bits=size, mean_e_l_g=size * peak_bps)


class TestMoments:
    def test_from_catalog(self):
        catalog = uniform_catalog(rate=1 * MBPS, duration=100.0)
        m = PopulationMoments.from_catalog(catalog, download_rate_bps=4e6)
        assert m.mean_size_bits == pytest.approx(1e6 * 100, rel=0.01)


class TestAggregateEquations:
    def test_eq1_and_eq3_agree_for_independent_population(self):
        m = _one_video(1e6, 100.0, 4e6)
        assert aggregate_mean_exact(0.5, m) == pytest.approx(
            aggregate_mean_factored(0.5, m.mean_rate_bps, m.mean_duration_s))

    def test_eq3_scaling_in_lambda(self):
        m = _one_video(1e6, 100.0, 4e6)
        assert aggregate_mean_exact(2.0, m) == 2 * aggregate_mean_exact(1.0, m)

    def test_eq4_variance(self):
        m = _one_video(1e6, 100.0, 4e6)
        assert aggregate_variance(0.1, m) == pytest.approx(0.1 * 1e6 * 100 * 4e6)

    def test_lambda_validation(self):
        m = _one_video(1e6, 100.0, 4e6)
        with pytest.raises(ValueError):
            aggregate_mean_exact(0.0, m)

    def test_cv_shrinks_with_encoding_rate(self):
        """Section 6.1 conclusion 3: higher rates, smoother traffic.

        With the path bandwidth G fixed, scaling every encoding rate by s
        scales both E[R] and Var[R] linearly, so CV falls by 1/sqrt(s).
        """
        def cv(rate, peak=8e6):
            m = _one_video(rate, 100.0, peak)
            return coefficient_of_variation(
                aggregate_mean_exact(0.5, m), aggregate_variance(0.5, m))
        assert cv(2e6) == pytest.approx(cv(1e6) / math.sqrt(2))


class TestRateProcesses:
    def test_constant_rate_duration(self):
        p = ConstantRate(size_bits=8e6, peak_bps=4e6)
        assert p.duration == 2.0

    def test_constant_rate_integrals(self):
        p = ConstantRate(size_bits=8e6, peak_bps=4e6)
        assert p.integral_rate_squared() == 8e6 * 4e6

    def test_onoff_block_and_duration(self):
        p = OnOffRate(size_bits=8e6, peak_bps=4e6, period_s=1.0, duty=0.25)
        assert p.block_bits == 1e6
        assert p.duration == pytest.approx(8.0)

    def test_onoff_rate_shape(self):
        p = OnOffRate(size_bits=8e6, peak_bps=4e6, period_s=1.0, duty=0.25)
        shape = p.grid_shape()
        assert shape.buffering_time == 0.0
        # ON for the first quarter of every 1 s cycle, at the peak
        assert (shape.period_s, shape.full_on_s, shape.peak_bps) == \
            (1.0, 0.25, 4e6)

    def test_onoff_with_buffering(self):
        p = OnOffRate(size_bits=8e6, peak_bps=4e6, period_s=1.0, duty=0.25,
                      buffering_bits=4e6)
        assert p.buffering_time == 1.0
        assert p.grid_shape().buffering_time == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OnOffRate(8e6, 4e6, period_s=1.0, duty=0.0)
        with pytest.raises(ValueError):
            OnOffRate(8e6, 4e6, period_s=0.0, duty=0.5)
        with pytest.raises(ValueError):
            OnOffRate(8e6, 4e6, period_s=1.0, duty=0.5, buffering_bits=9e6)
        with pytest.raises(ValueError):
            ConstantRate(0, 4e6)

    def test_invariance_same_bytes_same_peak(self):
        """The Section 6.1 invariance: arrangement of ON/OFF is irrelevant."""
        bulk = ConstantRate(size_bits=80e6, peak_bps=10e6)
        short = OnOffRate(80e6, 10e6, period_s=0.5, duty=0.3)
        long_ = OnOffRate(80e6, 10e6, period_s=30.0, duty=0.3,
                          buffering_bits=20e6)
        assert invariance_gap(bulk, short) < 1e-12
        assert invariance_gap(bulk, long_) < 1e-12

    @given(
        st.floats(min_value=1e6, max_value=1e9),
        st.floats(min_value=1e6, max_value=1e8),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.1, max_value=100.0),
    )
    def test_invariance_property(self, size, peak, duty, period):
        bulk = ConstantRate(size, peak)
        onoff = OnOffRate(size, peak, period, duty)
        assert invariance_gap(bulk, onoff) < 1e-9


class TestMonteCarloAggregate:
    @pytest.mark.parametrize("factory_name", ["constant", "short", "long"])
    def test_empirical_moments_match_equations(self, factory_name):
        catalog = uniform_catalog(rate=1 * MBPS, duration=120.0)
        lam, peak = 0.4, 8e6
        factory = {
            "constant": constant_strategy,
            "short": short_onoff_strategy(),
            "long": short_onoff_strategy(block_bytes=5 * 1024 * 1024,
                                         buffering_playback_s=60.0),
        }[factory_name]
        sample = simulate_aggregate(
            catalog, lam, horizon=8000.0, strategy=factory,
            peak_bps=peak, dt=0.5, seed=7,
        )
        m = PopulationMoments.from_catalog(catalog, download_rate_bps=peak)
        expected_mean = aggregate_mean_exact(lam, m)
        expected_var = aggregate_variance(lam, m)
        assert sample.mean_bps == pytest.approx(expected_mean, rel=0.1)
        assert sample.variance_bps2 == pytest.approx(expected_var, rel=0.2)

    def test_strategies_give_same_moments_empirically(self):
        """Eq (3)/(4) independence of strategy, now as a simulation."""
        catalog = uniform_catalog(rate=1 * MBPS, duration=120.0)
        results = {}
        for name, factory in (
            ("constant", constant_strategy),
            ("short", short_onoff_strategy()),
        ):
            results[name] = simulate_aggregate(
                catalog, 0.4, horizon=8000.0, strategy=factory,
                peak_bps=8e6, seed=11)
        assert results["constant"].mean_bps == pytest.approx(
            results["short"].mean_bps, rel=0.1)
        assert results["constant"].variance_bps2 == pytest.approx(
            results["short"].variance_bps2, rel=0.25)


def _reference_grid(catalog, lam, horizon, strategy, peak_bps, dt, rng):
    """The session-by-session grid loop the batched kernel replaced, kept
    verbatim as the oracle of :func:`montecarlo._simulate_grid`."""
    arrivals = PoissonProcess(lam, rng).times_until(horizon)
    grid = np.zeros(int(horizon / dt) + 1)
    times = np.arange(len(grid)) * dt

    max_duration = 0.0
    for t0 in arrivals:
        video = rng.choice(catalog.videos)
        size_bits = video.size_bytes * 8.0
        process = strategy(size_bits, video.encoding_rate_bps, peak_bps)
        duration = process.duration
        max_duration = max(max_duration, duration)
        lo = int(math.ceil((t0) / dt))
        hi = min(len(grid) - 1, int((t0 + duration) / dt))
        if hi < lo:
            continue
        local = times[lo:hi + 1] - t0
        if isinstance(process, ConstantRate):
            grid[lo:hi + 1] += process.peak_bps
        elif isinstance(process, OnOffRate):
            rates = np.zeros(local.shape)
            in_buffering = local < process.buffering_time
            rates[in_buffering] = process.peak_bps
            steady = (~in_buffering) & (local < duration)
            steady_t = local[steady] - process.buffering_time
            cycle = np.floor(steady_t / process.period_s)
            phase = steady_t - cycle * process.period_s
            on_span = np.where(
                cycle < process._full_cycles,
                process.duty * process.period_s,
                process._remainder_bits / process.peak_bps,
            )
            rates[steady] = np.where(phase < on_span, process.peak_bps, 0.0)
            grid[lo:hi + 1] += rates

    return times, grid, len(arrivals), max_duration


def _duty_one(size_bits, e, peak):
    """Average rate capped at the peak: every cycle is all ON."""
    return short_onoff_strategy(accumulation_ratio=1e9)(size_bits, e, peak)


def _zero_remainder(size_bits, e, peak):
    """The steady phase is a whole number of blocks: no partial block."""
    block = 0.5 * 1.0 * peak
    cycles = int(size_bits // block)
    return OnOffRate(size_bits, peak, period_s=1.0, duty=0.5,
                     buffering_bits=size_bits - cycles * block)


def _quarter_second_blocks(size_bits, e, peak):
    """Half a second of buffering, then 1 s cycles half ON: at 8 Mbps and
    whole-Mbit sizes every boundary lies on a quarter second."""
    return OnOffRate(size_bits, peak, period_s=1.0, duty=0.5,
                     buffering_bits=min(size_bits, 0.5 * peak))


#: Strategy factories of the oracle: the three of the paper, then edge
#: shapes of the ON/OFF layout.
GRID_STRATEGIES = {
    "constant": constant_strategy,
    "short": short_onoff_strategy(),
    "long": long_onoff_strategy(),
    "duty-one": _duty_one,
    "zero-remainder": _zero_remainder,
    "all-buffering": short_onoff_strategy(buffering_playback_s=1e9),
    "quarter-second": _quarter_second_blocks,
}


class _AlignedArrivals:
    """Arrivals on a quarter-second lattice: with a quarter-second grid,
    sample offsets land exactly on every ON/OFF boundary."""

    def __init__(self, lam, rng):
        self.rng = rng

    def times_until(self, horizon):
        return [0.25 * k for k in range(0, int(horizon / 0.25), 3)]


def _grid_catalog(durations, rates):
    return Catalog("oracle", [
        Video(video_id=f"o{i}", duration=d, encoding_rate_bps=r,
              resolution="360p", container="flv")
        for i, (d, r) in enumerate(zip(durations, rates))
    ])


class TestGridKernelOracle:
    """The batched grid kernel against the per-session loop, bit for bit."""

    def _assert_same_grid(self, catalog, lam, horizon, strategy, peak, dt,
                          seed, chunk, arrivals=None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "_CHUNK_SAMPLES", chunk)
            if arrivals is not None:
                mp.setattr(montecarlo, "PoissonProcess", arrivals)
                mp.setitem(globals(), "PoissonProcess", arrivals)
            times, grid, sessions, longest = montecarlo._simulate_grid(
                catalog, lam, horizon, strategy, peak, dt,
                random.Random(seed))
            ref_times, ref_grid, ref_sessions, ref_longest = _reference_grid(
                catalog, lam, horizon, strategy, peak, dt,
                random.Random(seed))
        assert times.tobytes() == ref_times.tobytes()
        assert grid.tobytes() == ref_grid.tobytes()
        assert sessions == ref_sessions
        assert longest.hex() == ref_longest.hex()
        return grid, sessions

    @settings(max_examples=120, deadline=None)
    @given(
        name=st.sampled_from(sorted(GRID_STRATEGIES)),
        videos=st.lists(
            st.tuples(st.floats(min_value=0.05, max_value=300.0),
                      st.floats(min_value=1e5, max_value=4e6)),
            min_size=1, max_size=5),
        lam=st.floats(min_value=0.01, max_value=0.5),
        horizon=st.floats(min_value=1.0, max_value=600.0),
        peak=st.sampled_from([1e6, 8e6, 1.7e7 / 3]),
        dt=st.sampled_from([0.1, 0.3, 0.5, 1.0]),
        seed=st.integers(min_value=0, max_value=2**16),
        chunk=st.integers(min_value=1, max_value=64),
    )
    def test_matches_per_session_loop(self, name, videos, lam, horizon, peak,
                                      dt, seed, chunk):
        durations, rates = zip(*videos)
        self._assert_same_grid(_grid_catalog(durations, rates), lam, horizon,
                               GRID_STRATEGIES[name], peak, dt, seed, chunk)

    @pytest.mark.parametrize("name", sorted(GRID_STRATEGIES))
    def test_edge_shapes_cross_chunks(self, name):
        """Every shape, over sessions cut by the horizon (``hi`` clipped),
        sessions shorter than a grid step (``hi < lo``) and sessions many
        chunks long."""
        catalog = _grid_catalog([0.02, 40.0, 250.0], [1e6, 2e6, 3e6])
        peak, dt, chunk = 8e6, 0.5, 7
        grid, sessions = self._assert_same_grid(
            catalog, 0.2, 300.0, GRID_STRATEGIES[name], peak, dt, 3, chunk)
        assert sessions > 0 and grid[-1] > 0      # clipped at the horizon
        shapes = [GRID_STRATEGIES[name](v.size_bytes * 8.0,
                                        v.encoding_rate_bps, peak).grid_shape()
                  for v in catalog.videos]
        assert shapes[0].duration < dt            # can fall between samples
        assert shapes[2].duration / dt > chunk    # spans many chunks
        if name == "duty-one":
            assert all(s.full_on_s == s.period_s for s in shapes)
        if name == "zero-remainder":
            assert all(s.last_on_s == 0.0 for s in shapes)
        if name == "all-buffering":
            assert all(s.buffering_time == s.duration for s in shapes)

    @pytest.mark.parametrize("name", sorted(GRID_STRATEGIES))
    def test_samples_on_the_boundaries(self, name):
        """Lattice arrivals put samples exactly on the buffering end, on
        each block's ON/OFF edge and on the download's end, where every
        strict ``<`` of the ON test decides."""
        # 18 and 16 Mbit: 0.5 s buffering + 3 or 2 cycles (+ a 0.25 s or
        # no partial block) with the quarter-second factory
        catalog = _grid_catalog([18.0, 16.0, 0.5], [1e6, 1e6, 1e6])
        self._assert_same_grid(catalog, 0.3, 40.0, GRID_STRATEGIES[name],
                               8e6, 0.25, 5, 5, arrivals=_AlignedArrivals)


#: Outputs of ``simulate_aggregate_moments`` on one small seeded shard per
#: strategy, recorded from the session-by-session grid loop: any float
#: drift of the grid kernel shows up here.
GOLDEN_SHARDS = {
    "constant": (1231, "0x1.e4a18b9a2913ep+25", "0x1.000f9704651cdp+49", 0,
                 {82: 2, 86: 136, 88: 348, 90: 461, 91: 756, 92: 1698,
                  93: 1028, 94: 1629, 95: 950, 96: 401, 97: 82}),
    "short": (1231, "0x1.e755da54e47c1p+25", "0x1.c4f8483332e7dp+48", 2,
              {82: 17, 86: 73, 88: 156, 90: 344, 91: 547, 92: 1595,
               93: 819, 94: 1360, 95: 717, 96: 336, 97: 34, 98: 1}),
    "long": (1231, "0x1.e750a5387047bp+25", "0x1.d3f20d8d93cc2p+48", 0,
             {82: 18, 86: 81, 88: 163, 90: 328, 91: 542, 92: 1627,
              93: 809, 94: 1354, 95: 674, 96: 354, 97: 49, 98: 2}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHARDS))
def test_golden_shard_moments(name):
    sessions, mean, var, underflow, counts = GOLDEN_SHARDS[name]
    strategy = {"constant": constant_strategy,
                "short": short_onoff_strategy(),
                "long": short_onoff_strategy(block_bytes=5 * 1024 * 1024,
                                             buffering_playback_s=60.0)}[name]
    shard = simulate_aggregate_moments(
        make_youflash(seed=0, scale=0.02), 0.3, horizon=4000.0,
        strategy=strategy, peak_bps=8e6, seed=7)
    assert shard.sessions == sessions
    assert shard.mean_bps.hex() == mean
    assert shard.variance_bps2.hex() == var
    assert shard.sketch.underflow == underflow
    assert shard.sketch.counts == counts


class TestInterruption:
    def test_papers_53_3s_example(self):
        """B' = 40 s, k = 1.25, beta = 0.2 -> L = 53.3 s."""
        assert critical_duration(40.0, 1.25, 0.2) == pytest.approx(53.333, rel=1e-3)

    def test_critical_duration_infinite_when_k_beta_ge_1(self):
        assert critical_duration(40.0, 1.25, 0.9) == math.inf

    def test_unused_bytes_clamps_at_video_size(self):
        # huge download rate: everything fetched, waste = unwatched part
        waste = unused_bytes(1e6, 100.0, buffering_bytes=1e12,
                             download_rate_bps=1e12, watch_time_s=20.0)
        assert waste == pytest.approx((100.0 - 20.0) * 1e6 / 8)

    def test_unused_playback_seconds_kernel(self):
        # L=100, B'=40, k=1.25, beta=0.2: min(40+25, 100) - 20 = 45
        assert unused_playback_seconds(100.0, 40.0, 1.25, 0.2) == pytest.approx(45.0)

    def test_zero_waste_for_full_watch(self):
        assert unused_playback_seconds(100.0, 40.0, 1.25, 1.0) == 0.0

    def test_wasted_bandwidth_exact_vs_factored_for_uniform_rates(self):
        sessions = [(1e6, 100.0, 0.2), (1e6, 200.0, 0.5), (1e6, 50.0, 1.0)]
        exact = wasted_bandwidth_exact(0.5, sessions, 40.0, 1.25)
        factored = wasted_bandwidth_factored(
            0.5, 1e6, [s[1] for s in sessions], [s[2] for s in sessions],
            40.0, 1.25)
        assert exact == pytest.approx(factored)

    def test_waste_decreases_with_smaller_buffering(self):
        sessions = [(1e6, 300.0, 0.2)] * 10
        big = wasted_bandwidth_exact(0.5, sessions, 40.0, 1.25)
        small = wasted_bandwidth_exact(0.5, sessions, 10.0, 1.25)
        assert small < big

    def test_waste_decreases_with_smaller_accumulation(self):
        sessions = [(1e6, 300.0, 0.2)] * 10
        assert (wasted_bandwidth_exact(0.5, sessions, 40.0, 1.0)
                < wasted_bandwidth_exact(0.5, sessions, 40.0, 1.5))

    def test_waste_sweep_is_monotone(self):
        sessions = [(1e6, 300.0, 0.2)] * 5
        points = waste_sweep(0.5, sessions, [10.0, 40.0], [1.0, 1.25])
        by_key = {(p.buffering_playback_s, p.accumulation_ratio): p.wasted_bps
                  for p in points}
        assert by_key[(10.0, 1.0)] <= by_key[(40.0, 1.25)]

    def test_monte_carlo_matches_closed_form(self):
        catalog = uniform_catalog(rate=1 * MBPS, duration=300.0)
        lam = 0.5
        beta = 0.2
        empirical = simulate_wasted_bandwidth(
            catalog, lam, horizon=30000.0,
            buffering_playback_s=40.0, accumulation_ratio=1.25,
            beta_sampler=lambda rng, L: beta, seed=3)
        closed = wasted_bandwidth_exact(
            lam, [(1e6, 300.0, beta)], 40.0, 1.25)
        assert empirical == pytest.approx(closed, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            critical_duration(40.0, 0.9, 0.2)
        with pytest.raises(ValueError):
            unused_playback_seconds(0.0, 40.0, 1.25, 0.2)
        with pytest.raises(ValueError):
            wasted_bandwidth_exact(0.0, [(1e6, 100.0, 0.2)], 40.0, 1.25)
        with pytest.raises(ValueError):
            wasted_bandwidth_exact(1.0, [], 40.0, 1.25)


class TestDimensioning:
    def moments(self):
        return _one_video(1e6, 200.0, 8e6)

    def test_required_capacity_rule(self):
        assert required_capacity(100.0, 400.0, alpha=2.0) == pytest.approx(140.0)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            required_capacity(100.0, 400.0, alpha=0.5)

    def test_plan_headroom(self):
        plan = plan_for(0.5, self.moments(), alpha=2.0)
        assert 0.0 < plan.headroom_share < 1.0
        assert plan.capacity_bps > plan.mean_bps

    def test_encoding_rate_migration_scales_mean_linearly(self):
        effect = encoding_rate_migration(0.5, self.moments(), rate_scale=2.0)
        assert effect.mean_ratio == pytest.approx(2.0)
        # smoother: CV falls by 1/sqrt(2)
        assert effect.smoothness_ratio == pytest.approx(1 / math.sqrt(2))

    def test_rate_scale_validation(self):
        with pytest.raises(ValueError):
            encoding_rate_migration(0.5, self.moments(), rate_scale=0.0)


class TestConcurrentSessions:
    """M/G/inf view: server load *does* depend on the strategy via E[D]."""

    def test_mean_is_lambda_times_duration(self):
        from repro.model import mean_concurrent_sessions

        assert mean_concurrent_sessions(2.0, 30.0) == 60.0

    def test_quantile_above_mean_and_tight(self):
        from repro.model import (concurrent_sessions_quantile,
                                 mean_concurrent_sessions)

        mean = mean_concurrent_sessions(2.0, 50.0)
        q99 = concurrent_sessions_quantile(2.0, 50.0, q=0.99)
        assert mean < q99 < mean + 5 * mean ** 0.5

    def test_quantile_monotone_in_q(self):
        from repro.model import concurrent_sessions_quantile

        assert (concurrent_sessions_quantile(1.0, 100.0, q=0.5)
                <= concurrent_sessions_quantile(1.0, 100.0, q=0.999))

    def test_throttling_raises_server_load(self):
        """A paced download takes D' = S/(k e) > S/G = D: same bandwidth,
        more concurrent connections."""
        from repro.model import ConstantRate, OnOffRate, mean_concurrent_sessions

        size, peak = 80e6, 10e6
        bulk = ConstantRate(size, peak)
        paced = OnOffRate(size, peak, period_s=0.5, duty=0.125)  # k*e = 1.25M
        assert paced.duration > bulk.duration
        lam = 1.0
        assert (mean_concurrent_sessions(lam, paced.duration)
                > mean_concurrent_sessions(lam, bulk.duration))

    def test_validation(self):
        from repro.model import (concurrent_sessions_quantile,
                                 mean_concurrent_sessions)

        with pytest.raises(ValueError):
            mean_concurrent_sessions(0.0, 10.0)
        with pytest.raises(ValueError):
            mean_concurrent_sessions(1.0, 0.0)
        with pytest.raises(ValueError):
            concurrent_sessions_quantile(1.0, 10.0, q=1.0)
