"""Unit tests for the analysis pipeline pieces (synthetic inputs)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    Cdf,
    classify_onoff,
    correlation,
    detect_onoff,
    dominant_value,
    fraction_within,
    mean,
    median,
    split_phases,
    split_phases_rate_knee,
    variance,
)
from repro.analysis.flowtable import EventLog
from repro.streaming import StreamingStrategy

KB = 1024
MB = 1024 * 1024


def burst(t0, nbytes, rate_bps=40e6, mtu=1460):
    """Synthesize arrival events for one back-to-back block."""
    events = []
    t = t0
    remaining = nbytes
    while remaining > 0:
        take = min(mtu, remaining)
        events.append((t, take))
        t += take * 8 / rate_bps
        remaining -= take
    return events


def onoff_trace(block, period, count, t0=0.0, buffering=5 * MB, rate_bps=40e6):
    """Buffering burst followed by `count` paced blocks."""
    events = burst(t0, buffering, rate_bps)
    buffering_time = buffering * 8 / rate_bps
    t = t0 + buffering_time + period
    for _ in range(count):
        events.extend(burst(t, block, rate_bps))
        t += period
    return events


class TestDetectOnOff:
    def test_empty_events(self):
        profile = detect_onoff([])
        assert profile.on_periods == []
        assert not profile.has_off_periods

    def test_single_burst_no_off(self):
        profile = detect_onoff(burst(0.0, 1 * MB))
        assert len(profile.on_periods) == 1
        assert not profile.has_off_periods

    def test_short_cycles_detected(self):
        events = onoff_trace(64 * KB, 0.5, count=10)
        profile = detect_onoff(events)
        assert len(profile.on_periods) == 11  # buffering + 10 blocks
        assert len(profile.off_periods) == 10
        blocks = profile.block_sizes()
        assert all(b == 64 * KB for b in blocks)

    def test_gap_below_threshold_merges(self):
        events = burst(0.0, 64 * KB) + burst(0.1, 64 * KB)
        profile = detect_onoff(events, gap_threshold=0.15)
        assert len(profile.on_periods) == 1
        assert profile.on_periods[0].bytes == 128 * KB

    def test_noise_bursts_absorbed_into_off(self):
        """1-byte window probes must not split an OFF period."""
        events = burst(0.0, 5 * MB)
        events.append((3.0, 1))    # probe
        events.append((4.5, 1))    # probe
        events.extend(burst(6.0, 5 * MB))
        profile = detect_onoff(events)
        assert len(profile.on_periods) == 2
        assert len(profile.off_periods) == 1
        # 5 MB at 40 Mbps ends at ~1.05 s; the OFF spans from there to 6 s
        assert profile.off_periods[0].duration == pytest.approx(4.95, abs=0.1)

    def test_retransmission_bridges_gap(self):
        """Activity with zero new bytes still merges two cycles."""
        events = burst(0.0, 64 * KB)
        events.append((0.3, 0))  # retransmission in the gap
        events.extend(burst(0.6, 64 * KB))
        profile = detect_onoff(events, gap_threshold=0.4)
        assert len(profile.on_periods) == 1
        assert profile.on_periods[0].bytes == 128 * KB

    def test_block_sizes_skip_first_by_default(self):
        events = onoff_trace(64 * KB, 0.5, count=3, buffering=5 * MB)
        profile = detect_onoff(events)
        assert len(profile.block_sizes()) == 3
        assert len(profile.block_sizes(skip_first=False)) == 4

    def test_off_durations(self):
        events = onoff_trace(64 * KB, 0.5, count=4)
        profile = detect_onoff(events)
        for duration in profile.off_durations():
            assert 0.3 < duration <= 0.51

    def test_trailing_idle_within_stream(self):
        events = burst(0.0, 1 * MB)
        profile = detect_onoff(events, stream_end=10.0)
        assert profile.has_off_periods
        assert profile.off_periods[-1].end == 10.0

    def test_mean_cycle_duration(self):
        events = onoff_trace(64 * KB, 0.5, count=10)
        profile = detect_onoff(events)
        assert profile.mean_cycle_duration() == pytest.approx(0.5, rel=0.1)


def reference_onoff(events, gap_threshold, min_on_bytes, stream_end):
    """ON/OFF detection as one loop over the ``(time, advance)`` pairs:
    a gap above the threshold closes the current group."""
    if not events:
        return [], []
    groups = []
    start, end, moved = events[0][0], events[0][0], events[0][1]
    for t, advance in events[1:]:
        if t - end > gap_threshold:
            groups.append((start, end, moved))
            start, moved = t, 0
        end = t
        moved += advance
    groups.append((start, end, moved))
    significant = [g for g in groups if g[2] >= min_on_bytes]
    if not significant:
        significant = [max(groups, key=lambda g: g[2])]
    offs = [(a[1], b[0]) for a, b in zip(significant, significant[1:])]
    if stream_end is not None and stream_end - significant[-1][1] \
            > gap_threshold:
        offs.append((significant[-1][1], stream_end))
    return significant, offs


# Times on a 1/1024 s grid: a step can equal the gap threshold exactly.
onoff_steps = st.lists(
    st.tuples(st.sampled_from([0, 0, 1, 3, 153, 154, 155, 400]),
              st.sampled_from([0, 0, 1, 1460, 4095, 4096, 65536])),
    max_size=80)


class TestDetectOnOffOracle:
    @settings(max_examples=200, deadline=None)
    @given(steps=onoff_steps,
           gap_ticks=st.sampled_from([154, 0, 400]),
           min_on_bytes=st.sampled_from([0, 4096, 10**9]),
           tail_ticks=st.sampled_from([None, 0, 154, 155, 2000]))
    def test_matches_group_loop(self, steps, gap_ticks, min_on_bytes,
                                tail_ticks):
        tick, t, events = 1 / 1024, 1.0, []
        for dt, advance in steps:
            t += dt * tick
            events.append((t, advance))
        gap = gap_ticks * tick
        stream_end = None if tail_ticks is None else t + tail_ticks * tick
        log = EventLog()
        log.activity.extend(t for t, _ in events)
        log.advances.extend(a for _, a in events)
        ons, offs = reference_onoff(events, gap, min_on_bytes, stream_end)
        for source in (events, log):
            profile = detect_onoff(source, gap_threshold=gap,
                                   min_on_bytes=min_on_bytes,
                                   stream_end=stream_end)
            got = [(p.start, p.end, p.bytes) for p in profile.on_periods]
            assert got == ons
            assert [(p.start, p.end) for p in profile.off_periods] == offs
            assert all(type(p.start) is float and type(p.end) is float
                       and type(p.bytes) is int
                       for p in profile.on_periods)
            assert all(type(p.start) is float and type(p.end) is float
                       for p in profile.off_periods)


class TestSplitPhases:
    def test_no_off_means_no_steady_state(self):
        profile = detect_onoff(burst(0.0, 10 * MB))
        phases = split_phases(profile)
        assert not phases.has_steady_state
        assert phases.buffering_bytes == 10 * MB
        assert phases.steady_rate_bps == 0.0

    def test_buffering_ends_at_first_off(self):
        events = onoff_trace(64 * KB, 0.5, count=20, buffering=5 * MB)
        profile = detect_onoff(events)
        phases = split_phases(profile, stream_end=events[-1][0])
        assert phases.has_steady_state
        assert phases.buffering_bytes == 5 * MB
        assert phases.steady_bytes == 20 * 64 * KB

    def test_steady_rate_and_accumulation(self):
        # 64 kB every 0.5 s = 1.048 Mbps steady rate
        events = onoff_trace(64 * KB, 0.5, count=40, buffering=5 * MB)
        profile = detect_onoff(events)
        phases = split_phases(profile, stream_end=events[-1][0])
        assert phases.steady_rate_bps == pytest.approx(64 * KB * 8 / 0.5, rel=0.1)
        k = phases.accumulation_ratio(64 * KB * 8 / 0.5 / 1.25)
        assert k == pytest.approx(1.25, rel=0.1)

    def test_accumulation_none_without_steady_state(self):
        profile = detect_onoff(burst(0.0, 1 * MB))
        phases = split_phases(profile)
        assert phases.accumulation_ratio(1e6) is None

    def test_buffering_playback_seconds(self):
        events = onoff_trace(64 * KB, 0.5, count=5, buffering=5 * MB)
        profile = detect_onoff(events)
        phases = split_phases(profile, stream_end=events[-1][0])
        assert phases.buffering_playback_seconds(1e6) == pytest.approx(
            5 * MB * 8 / 1e6)

    def test_rate_knee_detector_finds_slowdown(self):
        events = onoff_trace(64 * KB, 1.0, count=30, buffering=20 * MB)
        knee = split_phases_rate_knee(events)
        assert knee is not None
        # buffering at 40 Mbps takes ~4.2 s; the knee should be close
        assert 2.0 < knee < 10.0

    def test_rate_knee_none_for_constant_rate(self):
        events = burst(0.0, 40 * MB)  # constant full-rate transfer
        assert split_phases_rate_knee(events) is None


class TestClassify:
    def test_bulk_is_no_onoff(self):
        profile = detect_onoff(burst(0.0, 30 * MB))
        assert classify_onoff(profile).strategy is StreamingStrategy.NO_ONOFF

    def test_small_blocks_are_short(self):
        events = onoff_trace(64 * KB, 0.5, count=10)
        got = classify_onoff(detect_onoff(events))
        assert got.strategy is StreamingStrategy.SHORT_ONOFF
        assert got.long_byte_share == 0.0

    def test_large_blocks_are_long(self):
        events = onoff_trace(5 * MB, 20.0, count=5)
        got = classify_onoff(detect_onoff(events))
        assert got.strategy is StreamingStrategy.LONG_ONOFF
        assert got.long_byte_share == 1.0

    def test_boundary_at_2_5_mb(self):
        just_below = onoff_trace(int(2.4 * MB), 10.0, count=5)
        just_above = onoff_trace(int(2.6 * MB), 10.0, count=5)
        assert (classify_onoff(detect_onoff(just_below)).strategy
                is StreamingStrategy.SHORT_ONOFF)
        assert (classify_onoff(detect_onoff(just_above)).strategy
                is StreamingStrategy.LONG_ONOFF)

    def test_mixed_blocks_are_multiple(self):
        # steady state: 3 long blocks (12 MB) + 5 short (10 MB): both
        # regimes carry a substantial byte share
        events = burst(0.0, 5 * MB)
        t = 10.0
        for i in range(8):
            size = 4 * MB if i < 3 else 2 * MB
            events.extend(burst(t, size))
            t += 10.0
        got = classify_onoff(detect_onoff(events))
        assert 0.2 < got.long_byte_share < 0.8
        assert got.strategy is StreamingStrategy.MIXED


class TestStats:
    def test_cdf_basics(self):
        cdf = Cdf.from_samples([1, 2, 3, 4])
        assert cdf.at(0) == 0.0
        assert cdf.at(2) == 0.5
        assert cdf.at(10) == 1.0
        assert cdf.median == 2
        assert cdf.quantile(1.0) == 4

    def test_cdf_rejects_empty(self):
        with pytest.raises(ValueError):
            Cdf.from_samples([])

    def test_cdf_quantile_validation(self):
        cdf = Cdf.from_samples([1])
        with pytest.raises(ValueError):
            cdf.quantile(0.0)

    def test_mean_median_variance(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert mean(samples) == 2.5
        assert median(samples) == 2.5
        assert median([1.0, 2.0, 9.0]) == 2.0
        assert variance(samples) == pytest.approx(1.25)

    def test_correlation_perfect(self):
        xs = [1.0, 2.0, 3.0]
        assert correlation(xs, [2.0, 4.0, 6.0]) == pytest.approx(1.0)
        assert correlation(xs, [6.0, 4.0, 2.0]) == pytest.approx(-1.0)

    def test_correlation_zero_variance(self):
        assert correlation([1.0, 2.0], [5.0, 5.0]) == 0.0

    def test_correlation_validation(self):
        with pytest.raises(ValueError):
            correlation([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            correlation([1.0], [2.0])

    def test_dominant_value_finds_mode(self):
        samples = [63.9, 64.0, 64.1, 64.2, 128.0, 10.0]
        assert dominant_value(samples, bin_width=8.0) == pytest.approx(68.0)

    def test_fraction_within(self):
        assert fraction_within([1, 2, 3, 4], 2, 3) == 0.5

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                    max_size=100))
    def test_cdf_is_monotone_and_complete(self, samples):
        cdf = Cdf.from_samples(samples)
        assert cdf.fractions[-1] == pytest.approx(1.0)
        assert all(a <= b for a, b in zip(cdf.values, cdf.values[1:]))
        assert all(a <= b for a, b in zip(cdf.fractions, cdf.fractions[1:]))

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2,
                    max_size=50), st.floats(min_value=0.01, max_value=1.0))
    def test_quantile_consistent_with_at(self, samples, q):
        cdf = Cdf.from_samples(samples)
        value = cdf.quantile(q)
        assert cdf.at(value) >= q
