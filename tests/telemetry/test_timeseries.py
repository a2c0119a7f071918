"""Tests for scraped-sample storage and windowed lookups."""

from bisect import bisect_left
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TelemetryError
from repro.telemetry import timeseries
from repro.telemetry.timeseries import SampleSeries, TimeSeriesStore


class TestSampleSeries:
    def test_append_and_len(self):
        series = SampleSeries()
        series.append(1.0, 10.0)
        series.append(2.0, 20.0)
        assert len(series) == 2

    def test_out_of_order_rejected(self):
        series = SampleSeries()
        series.append(5.0, 1.0)
        with pytest.raises(TelemetryError):
            series.append(4.0, 1.0)

    def test_equal_timestamps_allowed(self):
        series = SampleSeries()
        series.append(5.0, 1.0)
        series.append(5.0, 2.0)
        assert len(series) == 2

    def test_window_inclusive_bounds(self):
        series = SampleSeries()
        for t in (1.0, 2.0, 3.0, 4.0):
            series.append(t, t * 10)
        window = series.window(2.0, 3.0)
        assert [t for t, _v in window] == [2.0, 3.0]

    def test_first_last_requires_two_samples(self):
        series = SampleSeries()
        series.append(1.0, 10.0)
        assert series.first_last_in_window(0.0, 5.0) is None
        series.append(2.0, 20.0)
        (t0, v0), (t1, v1) = series.first_last_in_window(0.0, 5.0)
        assert (t0, v0) == (1.0, 10.0)
        assert (t1, v1) == (2.0, 20.0)

    def test_latest_in_window(self):
        series = SampleSeries()
        for t in (1.0, 2.0, 3.0):
            series.append(t, t)
        assert series.latest_in_window(0.0, 2.5) == (2.0, 2.0)
        assert series.latest_in_window(5.0, 9.0) is None

    def test_retention_trims_old_samples(self):
        series = SampleSeries(max_age_s=10.0)
        series.append(0.0, 1.0)
        series.append(100.0, 2.0)
        assert len(series) == 1
        assert series.latest_in_window(0.0, 100.0) == (100.0, 2.0)

    def test_invalid_retention_rejected(self):
        with pytest.raises(TelemetryError):
            SampleSeries(max_age_s=0.0)

    def test_stores_arbitrary_values(self):
        series = SampleSeries()
        series.append(1.0, (1, 2, 3))
        assert series.latest_in_window(0.0, 2.0)[1] == (1, 2, 3)


class TestTimeSeriesStore:
    def test_series_created_on_first_use(self):
        store = TimeSeriesStore()
        series = store.series("backend", "metric")
        assert series is store.series("backend", "metric")

    def test_backends_enumeration(self):
        store = TimeSeriesStore()
        store.series("a", "m1")
        store.series("b", "m2")
        assert store.backends() == {"a", "b"}

    def test_retention_propagates(self):
        store = TimeSeriesStore(max_age_s=42.0)
        assert store.series("a", "m").max_age_s == 42.0


class _KeepEverything:
    """Naive model: every sample kept, retention applied at query time."""

    def __init__(self, max_age_s):
        self.max_age_s = max_age_s
        self.samples = []

    def live(self):
        if not self.samples:
            return []
        horizon = self.samples[-1][0] - self.max_age_s
        return [s for s in self.samples if s[0] >= horizon]

    def window(self, start, end):
        return [s for s in self.live() if start <= s[0] <= end]


def _bisect_trim_lengths(times, max_age_s, threshold):
    """Physical lengths after each append under the bisect trim rule."""
    kept, lengths = [], []
    for when in times:
        kept.append(when)
        cutoff = when - max_age_s
        if kept[0] < cutoff:
            expired = bisect_left(kept, cutoff)
            if expired >= threshold:
                del kept[:expired]
        lengths.append(len(kept))
    return lengths


gaps = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5, 7.0]),
                max_size=150)
ages = st.floats(min_value=0.1, max_value=40.0)
spans = st.lists(st.tuples(st.floats(min_value=-10.0, max_value=600.0),
                           st.floats(min_value=0.0, max_value=60.0)),
                 min_size=1, max_size=4)


class TestRetentionTrimProperties:
    """The O(1) trim test against a keep-everything model."""

    @settings(max_examples=150, deadline=None)
    @given(threshold=st.sampled_from([1, 2, 3, 8, timeseries._TRIM_THRESHOLD]),
           max_age_s=ages, gaps=gaps, spans=spans)
    def test_matches_keep_everything_model(self, threshold, max_age_s,
                                           gaps, spans):
        times = list(accumulate(gaps, initial=0.0))
        series = SampleSeries(max_age_s=max_age_s)
        model = _KeepEverything(max_age_s)
        reference = _bisect_trim_lengths(times, max_age_s, threshold)
        with mock.patch.object(timeseries, "_TRIM_THRESHOLD", threshold):
            for index, when in enumerate(times):
                series.append(when, index)
                model.samples.append((when, index))
                physical = len(series._times)
                assert physical == len(series._values)
                assert physical <= len(series) + threshold
                # Trims land on exactly the appends the bisect rule picks.
                assert physical == reference[index]
        assert len(series) == len(model.live())
        for start, width in spans:
            end = start + width
            expected = model.window(start, end)
            assert series.window(start, end) == expected
            assert series.first_last_in_window(start, end) == (
                (expected[0], expected[-1]) if len(expected) >= 2 else None)
            assert series.latest_in_window(start, end) == (
                expected[-1] if expected else None)

    @settings(max_examples=50, deadline=None)
    @given(max_age_s=ages, gaps=gaps.filter(bool),
           back=st.floats(min_value=1e-3, max_value=10.0))
    def test_out_of_order_append_still_raises(self, max_age_s, gaps, back):
        series = SampleSeries(max_age_s=max_age_s)
        times = list(accumulate(gaps, initial=0.0))
        with mock.patch.object(timeseries, "_TRIM_THRESHOLD", 2):
            for when in times:
                series.append(when, when)
            held = len(series._times)
            with pytest.raises(TelemetryError):
                series.append(times[-1] - back, 0.0)
        assert len(series._times) == held

    def test_real_threshold_trims_at_the_threshold(self):
        threshold = timeseries._TRIM_THRESHOLD
        series = SampleSeries(max_age_s=10.0)
        # One sample per second: sample k expires once t > k + 10, so the
        # append at t holds t - 10 expired samples.
        for t in range(threshold + 10):
            series.append(float(t), t)
        assert len(series._times) == threshold + 10  # threshold - 1 expired
        assert len(series) == 11
        series.append(float(threshold + 10), 0)  # the threshold-th expiry
        assert len(series._times) == 11
        assert len(series) == 11
