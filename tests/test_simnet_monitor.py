"""Tests for time series and periodic probes."""

import pytest

from repro.simnet import EventScheduler, PeriodicProbe, TimeSeries


class TestTimeSeries:
    def test_append_and_iterate(self):
        ts = TimeSeries("x")
        ts.append(0.0, 1.0)
        ts.append(1.0, 2.0)
        assert list(ts) == [(0.0, 1.0), (1.0, 2.0)]
        assert len(ts) == 2

    def test_rejects_out_of_order(self):
        ts = TimeSeries("x")
        ts.append(1.0, 1.0)
        with pytest.raises(ValueError):
            ts.append(0.5, 2.0)

    def test_allows_equal_times(self):
        ts = TimeSeries("x")
        ts.append(1.0, 1.0)
        ts.append(1.0, 2.0)
        assert len(ts) == 2

    def test_last(self):
        ts = TimeSeries("x")
        ts.append(0.0, 5.0)
        ts.append(2.0, 7.0)
        assert ts.last() == (2.0, 7.0)

    def test_last_empty_raises(self):
        with pytest.raises(IndexError):
            TimeSeries().last()

    def test_value_at_step_function(self):
        ts = TimeSeries("x")
        ts.append(0.0, 10.0)
        ts.append(1.0, 20.0)
        ts.append(2.0, 30.0)
        assert ts.value_at(0.0) == 10.0
        assert ts.value_at(0.99) == 10.0
        assert ts.value_at(1.0) == 20.0
        assert ts.value_at(5.0) == 30.0

    def test_value_at_before_first_sample_raises(self):
        ts = TimeSeries("x")
        ts.append(1.0, 10.0)
        with pytest.raises(ValueError):
            ts.value_at(0.5)

    def test_window_selects_inclusive_range(self):
        ts = TimeSeries("x")
        for t in range(5):
            ts.append(float(t), float(t))
        w = ts.window(1.0, 3.0)
        assert w.times == [1.0, 2.0, 3.0]

    def test_mean_min_max(self):
        ts = TimeSeries("x")
        for t, v in [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]:
            ts.append(t, v)
        assert ts.mean() == pytest.approx(3.0)
        assert ts.min() == 1.0
        assert ts.max() == 5.0

    def test_binned_rate_of_cumulative_series(self):
        ts = TimeSeries("bytes")
        ts.append(0.0, 0.0)
        ts.append(1.0, 100.0)
        ts.append(2.0, 100.0)   # idle second: no progress
        ts.append(3.0, 250.0)
        rate = ts.binned_rate(1.0)
        assert rate.times == [1.0, 2.0, 3.0]
        assert rate.values == pytest.approx([100.0, 0.0, 150.0])

    def test_binned_rate_covers_partial_last_bin(self):
        ts = TimeSeries("bytes")
        ts.append(0.0, 0.0)
        ts.append(2.5, 50.0)
        rate = ts.binned_rate(1.0)
        # three bins cover the 2.5 s span; the last is timestamped at
        # its nominal end even though data stops earlier
        assert rate.times == [1.0, 2.0, 3.0]
        assert sum(rate.values) * 1.0 == pytest.approx(50.0)

    def test_binned_rate_short_series_is_empty(self):
        assert len(TimeSeries().binned_rate(1.0)) == 0
        ts = TimeSeries("x")
        ts.append(0.0, 5.0)
        assert len(ts.binned_rate(1.0)) == 0

    def test_binned_rate_rejects_nonpositive_width(self):
        ts = TimeSeries("x")
        with pytest.raises(ValueError):
            ts.binned_rate(0.0)


class TestPeriodicProbe:
    def test_samples_on_schedule(self):
        sched = EventScheduler()
        value = {"v": 0.0}
        probe = PeriodicProbe(sched, 1.0, lambda: value["v"], name="v")
        probe.start()
        sched.at(0.5, lambda: value.__setitem__("v", 5.0))
        sched.run_until(3.0)
        probe.stop()
        assert probe.series.times == [0.0, 1.0, 2.0, 3.0]
        assert probe.series.values == [0.0, 5.0, 5.0, 5.0]

    def test_stop_halts_sampling(self):
        sched = EventScheduler()
        probe = PeriodicProbe(sched, 1.0, lambda: 1.0)
        probe.start()
        sched.run_until(2.0)
        probe.stop()
        sched.run_until(5.0)
        assert probe.series.times[-1] <= 2.0

    def test_start_is_idempotent(self):
        sched = EventScheduler()
        probe = PeriodicProbe(sched, 1.0, lambda: 1.0)
        probe.start()
        probe.start()
        sched.run_until(1.0)
        assert probe.series.times == [0.0, 1.0]

    def test_rejects_nonpositive_period(self):
        sched = EventScheduler()
        with pytest.raises(ValueError):
            PeriodicProbe(sched, 0.0, lambda: 1.0)
