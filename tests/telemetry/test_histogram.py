"""Tests for the bucketed latency histogram and quantile estimation."""

import math
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TelemetryError
from repro.telemetry.histogram import (
    DEFAULT_BUCKET_BOUNDS_S,
    LatencyHistogram,
    quantile_from_cumulative,
    quantile_from_delta,
)


class TestBucketLadder:
    def test_default_ladder_is_sorted_and_unique(self):
        bounds = DEFAULT_BUCKET_BOUNDS_S
        assert list(bounds) == sorted(bounds)
        assert len(set(bounds)) == len(bounds)

    def test_ladder_spans_1ms_to_60s(self):
        assert DEFAULT_BUCKET_BOUNDS_S[0] == 0.001
        assert DEFAULT_BUCKET_BOUNDS_S[-1] == 60.0

    def test_custom_bounds_validation(self):
        with pytest.raises(TelemetryError):
            LatencyHistogram(bounds=(0.2, 0.1))
        with pytest.raises(TelemetryError):
            LatencyHistogram(bounds=())
        with pytest.raises(TelemetryError):
            LatencyHistogram(bounds=(0.1, 0.1))


class TestObserve:
    def test_count_and_sum(self):
        histogram = LatencyHistogram()
        histogram.observe(0.010)
        histogram.observe(0.020)
        assert histogram.count == 2
        assert math.isclose(histogram.sum, 0.030)

    def test_negative_rejected(self):
        with pytest.raises(TelemetryError):
            LatencyHistogram().observe(-0.1)

    def test_nan_rejected(self):
        with pytest.raises(TelemetryError):
            LatencyHistogram().observe(float("nan"))

    def test_cumulative_counts_are_monotone(self):
        histogram = LatencyHistogram()
        for value in (0.0005, 0.003, 0.05, 0.2, 3.0, 100.0):
            histogram.observe(value)
        cumulative = histogram.cumulative_counts()
        assert list(cumulative) == sorted(cumulative)
        assert cumulative[-1] == histogram.count

    def test_overflow_goes_to_inf_bucket(self):
        histogram = LatencyHistogram(bounds=(0.1, 1.0))
        histogram.observe(99.0)
        cumulative = histogram.cumulative_counts()
        assert cumulative == (0, 0, 1)

    def test_boundary_value_lands_in_le_bucket(self):
        histogram = LatencyHistogram(bounds=(0.1, 1.0))
        histogram.observe(0.1)
        assert histogram.cumulative_counts() == (1, 1, 1)


class TestQuantile:
    def test_empty_histogram_returns_zero(self):
        assert LatencyHistogram().quantile(0.99) == 0.0

    def test_invalid_quantile_rejected(self):
        with pytest.raises(TelemetryError):
            LatencyHistogram().quantile(1.5)

    def test_interpolates_within_bucket(self):
        histogram = LatencyHistogram(bounds=(0.1, 0.2, 0.4))
        for _ in range(100):
            histogram.observe(0.15)  # all samples in (0.1, 0.2]
        q50 = histogram.quantile(0.5)
        assert 0.1 < q50 <= 0.2

    def test_rank_in_overflow_clamps_to_top_bound(self):
        histogram = LatencyHistogram(bounds=(0.1, 1.0))
        for _ in range(100):
            histogram.observe(50.0)
        assert histogram.quantile(0.99) == 1.0

    def test_accuracy_within_bucket_resolution(self):
        import random

        rng = random.Random(3)
        histogram = LatencyHistogram()
        samples = [rng.lognormvariate(math.log(0.05), 0.5)
                   for _ in range(50_000)]
        for sample in samples:
            histogram.observe(sample)
        samples.sort()
        exact = samples[int(0.99 * len(samples))]
        estimate = histogram.quantile(0.99)
        # Prometheus-style estimation is exact only up to the bucket width.
        assert 0.5 * exact <= estimate <= 2.0 * exact

    def test_q0_and_q1(self):
        histogram = LatencyHistogram(bounds=(0.1, 0.2))
        histogram.observe(0.05)
        histogram.observe(0.15)
        assert histogram.quantile(0.0) == 0.0
        assert histogram.quantile(1.0) <= 0.2


class TestDeltaQuantile:
    def test_window_distribution(self):
        bounds = (0.1, 0.2, 0.4)
        start = (5, 5, 5, 5)   # everything so far was <= 0.1
        end = (5, 105, 105, 105)  # the window added 100 samples in (0.1, .2]
        q50 = quantile_from_delta(bounds, start, end, 0.5)
        assert 0.1 < q50 <= 0.2

    def test_counter_reset_detected(self):
        bounds = (0.1,)
        with pytest.raises(TelemetryError):
            quantile_from_delta(bounds, (10, 10), (5, 5), 0.5)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(TelemetryError):
            quantile_from_delta((0.1,), (0, 0), (0, 0, 0), 0.5)

    def test_empty_snapshots_raise_telemetry_error(self):
        # Equal (empty) lengths reach the ladder check, never min([]).
        with pytest.raises(TelemetryError):
            quantile_from_delta((0.1,), (), (), 0.5)
        with pytest.raises(TelemetryError):
            quantile_from_delta((0.1,), (), (0, 0), 0.5)

    @given(start_counts=st.lists(st.integers(0, 50), min_size=27,
                                 max_size=27),
           window_counts=st.lists(st.integers(0, 50), min_size=27,
                                  max_size=27),
           q=st.floats(min_value=0.0, max_value=1.0))
    def test_matches_quantile_over_explicit_delta(self, start_counts,
                                                  window_counts, q):
        start = tuple(accumulate(start_counts))
        end = tuple(a + b for a, b in zip(start, accumulate(window_counts)))
        delta = [b - a for a, b in zip(start, end)]
        assert quantile_from_delta(DEFAULT_BUCKET_BOUNDS_S, start, end, q) == (
            quantile_from_cumulative(DEFAULT_BUCKET_BOUNDS_S, delta, q))

    def test_cumulative_length_validation(self):
        with pytest.raises(TelemetryError):
            quantile_from_cumulative((0.1, 0.2), (1, 2), 0.5)
