"""Windowed queries over scraped series — the controller's metrics source.

Implements the :class:`repro.core.controller.MetricsSource` protocol with
PromQL-equivalent semantics: counter rates from window edge samples,
percentiles from histogram-bucket deltas, gauges from the latest sample.
A backend without traffic in the window yields ``None`` (the paper: L3
"cannot retrieve metrics … after at least 10 seconds without any traffic"),
which triggers the controller's decay-toward-default path.
"""

from __future__ import annotations

from repro.core.controller import MetricSample
from repro.telemetry import names as metric_names
from repro.telemetry.histogram import DEFAULT_BUCKET_BOUNDS_S, quantile_from_delta
from repro.telemetry.timeseries import TimeSeriesStore


class PromMetricsSource:
    """Aggregated windowed metrics over a :class:`TimeSeriesStore`."""

    def __init__(self, store: TimeSeriesStore,
                 bucket_bounds=DEFAULT_BUCKET_BOUNDS_S,
                 scope: str | None = None):
        """Args:
            store: the scraped series.
            bucket_bounds: histogram ladder used by the scraped proxies.
            scope: when set, backend series are looked up under
                ``"{scope}|{backend}"`` — the per-source-cluster vantage
                point a cluster-local L3 instance queries.
        """
        self.store = store
        self.bucket_bounds = tuple(bucket_bounds)
        self.scope = scope
        # Scoped-name memo: the controller queries the same handful of
        # backends every reconcile interval; building the "scope|backend"
        # string (and the server|name key below) once per backend instead
        # of once per query keeps the scrape pipeline allocation-free.
        self._scoped_names: dict[str, str] = {}
        self._server_names: dict[str, str] = {}
        # Series handles per backend, keyed by the unscoped name: a
        # reconcile then reads each backend's series with one dict hit
        # instead of a scoped-name build plus six store lookups. The store
        # never replaces a series, so a handle stays valid for good.
        self._handles: dict[str, tuple] = {}

    def _scoped(self, name: str) -> str:
        if not self.scope:
            return name
        scoped = self._scoped_names.get(name)
        if scoped is None:
            scoped = self._scoped_names[name] = metric_names.scoped_series_name(
                self.scope, name)
        return scoped

    def _series(self, name: str) -> tuple:
        """The backend's series handles, resolved on first use.

        In :meth:`_collect_backend` order, then the failure-latency
        buckets last.
        """
        handles = self._handles.get(name)
        if handles is None:
            scoped = self._scoped(name)
            series = self.store.series
            handles = self._handles[name] = (
                series(scoped, metric_names.REQUESTS_TOTAL),
                series(scoped, metric_names.FAILURES_TOTAL),
                series(scoped, metric_names.SUCCESS_LATENCY_BUCKETS),
                series(scoped, metric_names.SUCCESS_LATENCY_SUM),
                series(scoped, metric_names.SUCCESS_LATENCY_COUNT),
                series(scoped, metric_names.INFLIGHT),
                series(scoped, metric_names.FAILURE_LATENCY_BUCKETS),
            )
        return handles

    def collect(self, backend_names, now: float, window_s: float,
                percentile: float) -> dict:
        """One :class:`MetricSample` (or None) per backend over the window."""
        return {
            name: self._collect_backend(name, now, window_s, percentile)
            for name in backend_names
        }

    def _collect_backend(self, name: str, now: float, window_s: float,
                         percentile: float):
        (requests, failures, success_buckets, success_sum, success_count,
         inflight_gauge, _failure_buckets) = self._series(name)
        start = now - window_s
        edges = requests.first_last_in_window(start, now)
        if edges is None:
            return None
        (t0, req0), (t1, req1) = edges
        elapsed = t1 - t0
        delta_requests = req1 - req0
        if elapsed <= 0 or delta_requests <= 0:
            return None

        rps = delta_requests / elapsed

        failure_edges = failures.first_last_in_window(start, now)
        delta_failures = (
            failure_edges[1][1] - failure_edges[0][1] if failure_edges else 0.0)
        success_rate = 1.0 - delta_failures / delta_requests
        success_rate = min(max(success_rate, 0.0), 1.0)

        latency_s = self._latency_quantile(
            success_buckets, start, now, percentile)

        # Windowed mean of successful latency from sum/count deltas.
        mean_latency_s = None
        sums = success_sum.first_last_in_window(start, now)
        counts = success_count.first_last_in_window(start, now)
        if sums is not None and counts is not None:
            delta_count = counts[1][1] - counts[0][1]
            if delta_count > 0:
                mean_latency_s = (sums[1][1] - sums[0][1]) / delta_count

        inflight_sample = inflight_gauge.latest_in_window(start, now)
        inflight = max(inflight_sample[1], 0.0) if inflight_sample else 0.0

        return MetricSample(
            latency_s=latency_s, success_rate=success_rate,
            rps=rps, inflight=inflight, mean_latency_s=mean_latency_s)

    def _latency_quantile(self, series, start: float, end: float,
                          percentile: float):
        """Windowed percentile from histogram deltas; None without data."""
        edges = series.first_last_in_window(start, end)
        if edges is None:
            return None
        (_t0, buckets0), (_t1, buckets1) = edges
        if buckets1[-1] - buckets0[-1] <= 0:
            return None
        return quantile_from_delta(
            self.bucket_bounds, buckets0, buckets1, percentile)

    def server_gauge(self, name: str, metric: str, now: float,
                     window_s: float) -> float | None:
        """Latest server-side gauge of a backend, or None without a sample.

        Server-reported metrics (queue occupancy, replica count) are
        properties of the backend itself, so their series are shared by
        all vantage points (never scope-prefixed). ``None`` — as opposed
        to the zero :meth:`server_queue` substitutes — lets a consumer
        that must distinguish "no data yet" from "idle" (the autoscaler's
        hold-state path) do so.
        """
        series_name = self._server_names.get(name)
        if series_name is None:
            series_name = self._server_names[name] = (
                metric_names.server_series_name(name))
        sample = self.store.series(
            series_name, metric).latest_in_window(now - window_s, now)
        return max(sample[1], 0.0) if sample else None

    def server_queue(self, name: str, now: float, window_s: float) -> float:
        """Latest server-side queue occupancy of a backend (unscoped).

        Server-reported queue size is the feedback channel the original C3
        relies on; a backend without a sample in the window reads as 0.
        """
        value = self.server_gauge(
            name, metric_names.SERVER_QUEUE, now, window_s)
        return 0.0 if value is None else value

    def failure_latency_quantile(self, name: str, now: float,
                                 window_s: float, percentile: float):
        """Windowed percentile of *failed*-request latency (extension).

        Used by the dynamic-penalty-factor extension (paper §7 future
        work): continuous feedback about the response time of unsuccessful
        requests. Returns None without failure data in the window.
        """
        return self._latency_quantile(
            self._series(name)[-1], now - window_s, now, percentile)
