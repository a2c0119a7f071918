"""Tests for the windowed metrics queries (the controller's data source)."""

import math

from repro.telemetry.metrics import BackendTelemetry
from repro.telemetry.query import PromMetricsSource
from repro.telemetry.scraper import Scraper
from repro.telemetry.timeseries import TimeSeriesStore


def scraped_traffic(latencies_and_outcomes, scrape_times, name="b",
                    scrape_name=None, inflight_at_end=0):
    """Build a store by replaying completed requests then scraping."""
    store = TimeSeriesStore()
    scraper = Scraper(store)
    telemetry = BackendTelemetry(name, scrape_name=scrape_name)
    scraper.register(telemetry)
    # First scrape with no traffic, then traffic, then the closing scrape.
    scraper.scrape_once(scrape_times[0])
    for latency, success in latencies_and_outcomes:
        telemetry.on_request_sent()
        telemetry.on_response(latency, success)
    for _ in range(inflight_at_end):
        telemetry.on_request_sent()
    for when in scrape_times[1:]:
        scraper.scrape_once(when)
    return store


class TestCollect:
    def test_rps_is_delta_over_elapsed(self):
        store = scraped_traffic(
            [(0.01, True)] * 50, scrape_times=(0.0, 5.0, 10.0))
        source = PromMetricsSource(store)
        sample = source.collect(["b"], 10.0, 10.0, 0.99)["b"]
        assert math.isclose(sample.rps, 5.0)  # 50 requests over 10 s

    def test_success_rate_from_failure_delta(self):
        store = scraped_traffic(
            [(0.01, True)] * 90 + [(0.01, False)] * 10,
            scrape_times=(0.0, 10.0))
        source = PromMetricsSource(store)
        sample = source.collect(["b"], 10.0, 10.0, 0.99)["b"]
        assert math.isclose(sample.success_rate, 0.9)

    def test_no_traffic_yields_none(self):
        store = scraped_traffic([], scrape_times=(0.0, 5.0, 10.0))
        source = PromMetricsSource(store)
        assert source.collect(["b"], 10.0, 10.0, 0.99)["b"] is None

    def test_single_scrape_in_window_yields_none(self):
        store = scraped_traffic([(0.01, True)], scrape_times=(0.0, 10.0))
        source = PromMetricsSource(store)
        # Window covers only the last scrape: rate() needs two samples.
        assert source.collect(["b"], 10.0, 5.0, 0.99)["b"] is None

    def test_all_failures_gives_none_latency(self):
        store = scraped_traffic(
            [(0.01, False)] * 10, scrape_times=(0.0, 10.0))
        source = PromMetricsSource(store)
        sample = source.collect(["b"], 10.0, 10.0, 0.99)["b"]
        assert sample is not None
        assert sample.latency_s is None
        assert sample.success_rate == 0.0

    def test_percentile_reflects_distribution(self):
        store = scraped_traffic(
            [(0.010, True)] * 99 + [(1.0, True)], scrape_times=(0.0, 10.0))
        source = PromMetricsSource(store)
        p50 = source.collect(["b"], 10.0, 10.0, 0.50)["b"].latency_s
        p999 = source.collect(["b"], 10.0, 10.0, 0.999)["b"].latency_s
        assert p50 < 0.05
        assert p999 > 0.5

    def test_mean_latency(self):
        store = scraped_traffic(
            [(0.010, True)] * 50 + [(0.030, True)] * 50,
            scrape_times=(0.0, 10.0))
        source = PromMetricsSource(store)
        sample = source.collect(["b"], 10.0, 10.0, 0.99)["b"]
        assert math.isclose(sample.mean_latency_s, 0.020, rel_tol=1e-9)

    def test_inflight_from_latest_gauge(self):
        store = scraped_traffic(
            [(0.01, True)] * 10, scrape_times=(0.0, 10.0),
            inflight_at_end=4)
        source = PromMetricsSource(store)
        sample = source.collect(["b"], 10.0, 10.0, 0.99)["b"]
        assert sample.inflight == 4.0

    def test_unknown_backend_is_none(self):
        source = PromMetricsSource(TimeSeriesStore())
        assert source.collect(["ghost"], 10.0, 10.0, 0.99)["ghost"] is None


class TestScoping:
    def test_scoped_source_reads_prefixed_series(self):
        store = scraped_traffic(
            [(0.01, True)] * 20, scrape_times=(0.0, 10.0),
            scrape_name="cluster-1|b")
        scoped = PromMetricsSource(store, scope="cluster-1")
        unscoped = PromMetricsSource(store)
        assert scoped.collect(["b"], 10.0, 10.0, 0.99)["b"] is not None
        assert unscoped.collect(["b"], 10.0, 10.0, 0.99)["b"] is None


class TestServerQueue:
    def test_reads_latest_server_gauge(self):
        store = TimeSeriesStore()
        scraper = Scraper(store)
        scraper.register_gauge("server|b", "server_queue", lambda: 6.0)
        scraper.scrape_once(5.0)
        source = PromMetricsSource(store)
        assert source.server_queue("b", 10.0, 10.0) == 6.0

    def test_missing_series_returns_zero(self):
        source = PromMetricsSource(TimeSeriesStore())
        assert source.server_queue("b", 10.0, 10.0) == 0.0


class TestFailureLatency:
    def test_failure_latency_quantile(self):
        store = scraped_traffic(
            [(0.5, False)] * 20 + [(0.01, True)] * 20,
            scrape_times=(0.0, 10.0))
        source = PromMetricsSource(store)
        q = source.failure_latency_quantile("b", 10.0, 10.0, 0.5)
        assert q is not None and q > 0.3

    def test_no_failures_returns_none(self):
        store = scraped_traffic(
            [(0.01, True)] * 20, scrape_times=(0.0, 10.0))
        source = PromMetricsSource(store)
        assert source.failure_latency_quantile("b", 10.0, 10.0, 0.5) is None


class TestScopedNameMemoization:
    def test_scoped_names_built_once_and_reused(self):
        source = PromMetricsSource(TimeSeriesStore(), scope="cluster-1")
        first = source._scoped("b")
        second = source._scoped("b")
        assert first == "cluster-1|b"
        assert first is second  # memoized: the exact same string object
        assert source._scoped_names == {"b": "cluster-1|b"}

    def test_unscoped_source_skips_the_memo(self):
        source = PromMetricsSource(TimeSeriesStore())
        assert source._scoped("b") == "b"
        assert source._scoped_names == {}

    def test_server_names_memoized(self):
        source = PromMetricsSource(TimeSeriesStore())
        source.server_queue("b", 10.0, 10.0)
        first = source._server_names["b"]
        source.server_queue("b", 20.0, 10.0)
        assert source._server_names["b"] is first
        assert first == "server|b"

    def test_collect_uses_memoized_names(self):
        store = scraped_traffic(
            [(0.01, True)] * 10, scrape_times=(0.0, 10.0),
            scrape_name="cluster-1|b")
        source = PromMetricsSource(store, scope="cluster-1")
        source.collect(["b"], 10.0, 10.0, 0.99)
        cached = source._scoped_names["b"]
        sample = source.collect(["b"], 10.0, 10.0, 0.99)["b"]
        assert sample is not None
        assert source._scoped_names["b"] is cached


class TestNoTrafficDecayPath:
    """No traffic in the window -> None -> controller decay-toward-default."""

    def test_traffic_outside_window_yields_none(self):
        store = scraped_traffic(
            [(0.01, True)] * 20, scrape_times=(0.0, 5.0, 10.0))
        source = PromMetricsSource(store)
        # Plenty of traffic before t=10, none in the (40, 50] window.
        assert source.collect(["b"], 50.0, 10.0, 0.99)["b"] is None

    def test_controller_decays_toward_defaults_on_none(self):
        from repro.core.config import L3Config
        from repro.core.controller import L3Controller

        store = scraped_traffic(
            [(0.2, True)] * 200, scrape_times=(0.0, 5.0, 10.0))
        source = PromMetricsSource(store)

        class Sink:
            def set_weights(self, weights, now):
                pass

        config = L3Config(staleness_s=10.0, decay_fraction=0.5)
        controller = L3Controller(["b"], source, Sink(), config=config)
        controller.reconcile(10.0)
        state = controller.backends["b"]
        observed = state.latency.value
        # The EWMA was pulled down from the 5 s default toward ~0.2 s.
        assert observed < config.default_latency_s / 2.0

        # The backend goes quiet: every later window is empty, so collect
        # returns None and (past staleness) the filters decay back toward
        # default_latency_s in increments.
        values = [observed]
        for now in (25.0, 30.0, 35.0, 40.0):
            assert source.collect(["b"], now, 10.0, 0.99)["b"] is None
            controller.reconcile(now)
            values.append(state.latency.value)
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] > observed
        assert values[-1] <= config.default_latency_s


class TestLookupCost:
    """A backend's series are looked up once, on its first query."""

    def _counting(self, monkeypatch, store):
        counts = {"series": 0}
        lookup = store.series

        def counting_series(*args):
            counts["series"] += 1
            return lookup(*args)

        monkeypatch.setattr(store, "series", counting_series)
        return counts

    def test_collect_makes_no_lookups_for_a_seen_backend(self, monkeypatch):
        store = scraped_traffic(
            [(0.01, True)] * 10, scrape_times=(0.0, 10.0),
            scrape_name="cluster-1|b")
        source = PromMetricsSource(store, scope="cluster-1")
        counts = self._counting(monkeypatch, store)
        first = source.collect(["b", "ghost"], 10.0, 10.0, 0.99)
        assert counts["series"] > 0
        counts["series"] = 0
        second = source.collect(["b", "ghost"], 10.0, 10.0, 0.99)
        source.failure_latency_quantile("b", 10.0, 10.0, 0.5)
        assert counts["series"] == 0
        assert first == second
        assert second["b"] is not None and second["ghost"] is None

    def test_cached_handles_see_later_scrapes(self):
        store = TimeSeriesStore()
        scraper = Scraper(store)
        telemetry = BackendTelemetry("b")
        source = PromMetricsSource(store)
        # Queried before it is ever scraped: the handles bind to the same
        # series the scraper then fills.
        assert source.collect(["b"], 0.0, 10.0, 0.99)["b"] is None
        scraper.register(telemetry)
        scraper.scrape_once(5.0)
        for _ in range(10):
            telemetry.on_request_sent()
            telemetry.on_response(0.5, success=False)
        scraper.scrape_once(10.0)
        sample = source.collect(["b"], 10.0, 10.0, 0.99)["b"]
        assert math.isclose(sample.rps, 2.0)
        assert sample.success_rate == 0.0
        assert source.failure_latency_quantile("b", 10.0, 10.0, 0.5) > 0.3
