"""Tests for the periodic scraper."""

import pytest

from repro.errors import TelemetryError
from repro.telemetry import scraper as metric_names
from repro.telemetry.metrics import BackendTelemetry
from repro.telemetry.scraper import Scraper
from repro.telemetry.timeseries import SampleSeries, TimeSeriesStore


@pytest.fixture
def store():
    return TimeSeriesStore()


@pytest.fixture
def scraper(store):
    return Scraper(store, interval_s=5.0)


class TestRegistration:
    def test_duplicate_target_rejected(self, scraper):
        scraper.register(BackendTelemetry("b"))
        with pytest.raises(TelemetryError):
            scraper.register(BackendTelemetry("b"))

    def test_scoped_names_coexist(self, scraper):
        scraper.register(BackendTelemetry("b", scrape_name="c1|b"))
        scraper.register(BackendTelemetry("b", scrape_name="c2|b"))

    def test_invalid_interval_rejected(self, store):
        with pytest.raises(TelemetryError):
            Scraper(store, interval_s=0.0)


class TestScraping:
    def test_scrape_once_writes_all_series(self, store, scraper):
        telemetry = BackendTelemetry("b")
        telemetry.on_request_sent()
        telemetry.on_response(0.05, success=True)
        scraper.register(telemetry)
        scraper.scrape_once(5.0)
        assert store.series("b", metric_names.REQUESTS_TOTAL).latest_in_window(
            0, 10)[1] == 1.0
        assert store.series("b", metric_names.FAILURES_TOTAL).latest_in_window(
            0, 10)[1] == 0.0
        buckets = store.series(
            "b", metric_names.SUCCESS_LATENCY_BUCKETS).latest_in_window(0, 10)[1]
        assert buckets[-1] == 1
        assert store.series(
            "b", metric_names.SUCCESS_LATENCY_COUNT).latest_in_window(0, 10)[1] == 1

    def test_custom_gauge_scraped(self, store, scraper):
        values = iter([3.0, 7.0])
        scraper.register_gauge("server|b", "queue", lambda: next(values))
        scraper.scrape_once(5.0)
        scraper.scrape_once(10.0)
        window = store.series("server|b", "queue").window(0.0, 20.0)
        assert [v for _t, v in window] == [3.0, 7.0]

    def test_run_loop_scrapes_on_interval(self, sim, store, scraper):
        telemetry = BackendTelemetry("b")
        scraper.register(telemetry)
        process = sim.spawn(scraper.run(sim))
        sim.run(until=16.0)
        samples = store.series("b", metric_names.REQUESTS_TOTAL).window(0, 16)
        assert [t for t, _v in samples] == [5.0, 10.0, 15.0]
        process.interrupt()
        sim.run()
        assert not process.is_alive

    def test_counters_scraped_are_monotone(self, sim, store, scraper):
        telemetry = BackendTelemetry("b")
        scraper.register(telemetry)

        def traffic(sim):
            while sim.now < 20.0:
                telemetry.on_request_sent()
                telemetry.on_response(0.01, success=True)
                yield sim.timeout(0.5)

        sim.spawn(traffic(sim))
        loop = sim.spawn(scraper.run(sim))
        sim.run(until=20.0)
        loop.interrupt()
        sim.run()
        values = [v for _t, v in
                  store.series("b", metric_names.REQUESTS_TOTAL).window(0, 99)]
        assert values == sorted(values)


@pytest.fixture
def counted(monkeypatch, store):
    """Count store lookups and appends from the moment it is requested."""
    counts = {"series": 0, "append": 0}
    lookup = store.series
    append = SampleSeries.append

    def counting_series(*args):
        counts["series"] += 1
        return lookup(*args)

    def counting_append(self, *args):
        counts["append"] += 1
        return append(self, *args)

    monkeypatch.setattr(store, "series", counting_series)
    monkeypatch.setattr(SampleSeries, "append", counting_append)
    return counts


class TestScrapeCost:
    """Exact per-round costs: lookups happen at registration, not scrape."""

    def test_scrape_makes_no_lookups_and_one_append_per_sample(
            self, request, store, scraper):
        for name in ("a", "b", "c"):
            scraper.register(BackendTelemetry(name))
        scraper.register_gauge("server|a", "queue", lambda: 1.0)
        scraper.register_gauge("server|b", "queue", lambda: 2.0)
        counts = request.getfixturevalue("counted")
        scraper.scrape_once(5.0)
        scraper.scrape_once(10.0)
        assert counts["series"] == 0
        assert counts["append"] == 2 * (7 * 3 + 2)


class TestRegistrationOrder:
    def test_target_registered_after_first_scrape_is_scraped(
            self, store, scraper):
        scraper.register(BackendTelemetry("a"))
        scraper.scrape_once(5.0)
        late = BackendTelemetry("b")
        late.on_request_sent()
        scraper.register(late)
        scraper.scrape_once(10.0)
        for metric in (metric_names.REQUESTS_TOTAL, metric_names.INFLIGHT,
                       metric_names.FAILURE_LATENCY_BUCKETS):
            assert [t for t, _v in store.series("b", metric).window(0, 20)] \
                == [10.0]
        assert store.series("b", metric_names.INFLIGHT).latest_in_window(
            0, 20)[1] == 1.0
        assert len(store.series("a", metric_names.REQUESTS_TOTAL)) == 2

    def test_gauge_registered_after_first_scrape_is_scraped(
            self, store, scraper):
        scraper.scrape_once(5.0)
        scraper.register_gauge("server|b", "queue", lambda: 4.0)
        scraper.scrape_once(10.0)
        assert store.series("server|b", "queue").window(0, 20) == [
            (10.0, 4.0)]

    def test_raising_gauge_propagates(self, scraper):
        def broken():
            raise RuntimeError("gauge read failed")

        scraper.register_gauge("server|b", "queue", broken)
        with pytest.raises(RuntimeError, match="gauge read failed"):
            scraper.scrape_once(5.0)

    def test_pre_scrape_fires_once_per_unpaused_scrape(self, sim, scraper):
        calls = []
        scraper.pre_scrape = lambda: calls.append(sim.now)
        sim.spawn(scraper.run(sim))
        sim.run(until=11.0)
        scraper.pause()
        sim.run(until=21.0)
        scraper.resume()
        sim.run(until=26.0)
        assert calls == [5.0, 10.0, 25.0]
        assert scraper.skipped_scrapes == 2

    def test_paused_scraper_appends_nothing(self, sim, request, scraper):
        scraper.register(BackendTelemetry("b"))
        scraper.register_gauge("server|b", "queue", lambda: 1.0)
        counts = request.getfixturevalue("counted")
        scraper.pause()
        sim.spawn(scraper.run(sim))
        sim.run(until=16.0)
        assert scraper.skipped_scrapes == 3
        assert counts["append"] == 0
