"""The Prometheus-like scrape loop (paper §4: default every 5 seconds)."""

from __future__ import annotations

from repro.errors import Interrupted, TelemetryError
from repro.telemetry.metrics import BackendTelemetry
from repro.telemetry.timeseries import SampleSeries, TimeSeriesStore

# Metric names under which a backend's telemetry is scraped. The
# canonical definitions live in repro.telemetry.names (shared with the
# live testbed's text-exposition endpoint); the aliases below are kept
# because this module historically defined them.
from repro.telemetry.names import (  # noqa: F401 - re-exported aliases
    FAILURE_LATENCY_BUCKETS,
    FAILURES_TOTAL,
    INFLIGHT,
    REQUESTS_TOTAL,
    SERVER_QUEUE,
    SUCCESS_LATENCY_BUCKETS,
    SUCCESS_LATENCY_COUNT,
    SUCCESS_LATENCY_SUM,
)


class Scraper:
    """Periodically snapshots proxy telemetry into a time-series store.

    The scrape interval bounds the control loop's data freshness: rates are
    per-second averages extrapolated from counter deltas between scrapes,
    which the paper calls out as a limitation for spiky workloads (§4).
    """

    def __init__(self, store: TimeSeriesStore, interval_s: float = 5.0):
        if interval_s <= 0:
            raise TelemetryError(f"scrape interval must be positive: {interval_s}")
        self.store = store
        self.interval_s = interval_s
        self._target_names: set[str] = set()
        # Each target with its series handles, resolved once at
        # registration: targets are never removed and the store never
        # replaces a series, so a scrape round appends straight to the
        # handles with no key lookups.
        self._targets: list[tuple] = []
        self._gauges: list[tuple[SampleSeries, object]] = []
        # Fault injection: a paused scraper skips its ticks entirely, so
        # the store receives no new samples and windowed queries go empty —
        # the controller's decay-toward-default path.
        self.paused = False
        self.skipped_scrapes = 0
        # Optional chunk-boundary hook: called at the top of every actual
        # scrape, before any target is read. The vector engine registers
        # its telemetry flush here so buffered per-request chunks are
        # folded in exactly when the control plane looks.
        self.pre_scrape = None

    def register(self, telemetry: BackendTelemetry) -> None:
        """Add a proxy's per-backend telemetry bundle as a scrape target."""
        name = getattr(telemetry, "scrape_name", telemetry.backend_name)
        if name in self._target_names:
            raise TelemetryError(f"duplicate scrape target: {name}")
        self._target_names.add(name)
        series = self.store.series
        self._targets.append((
            telemetry,
            series(name, REQUESTS_TOTAL),
            series(name, FAILURES_TOTAL),
            series(name, SUCCESS_LATENCY_BUCKETS),
            series(name, SUCCESS_LATENCY_SUM),
            series(name, SUCCESS_LATENCY_COUNT),
            series(name, FAILURE_LATENCY_BUCKETS),
            series(name, INFLIGHT),
        ))

    def register_gauge(self, series_name: str, metric: str, read) -> None:
        """Add a custom gauge scrape target.

        Used for server-side signals that are not part of a client proxy's
        bundle — e.g. a backend's replica queue occupancy, the feedback
        channel the original C3 relies on.

        Args:
            series_name: time-series key (e.g. ``"server|svc/cluster-1"``).
            metric: metric name within the series.
            read: zero-argument callable returning the current value.
        """
        self._gauges.append((self.store.series(series_name, metric), read))

    def scrape_once(self, now: float) -> None:
        """Snapshot every registered target at time ``now``."""
        hook = self.pre_scrape
        if hook is not None:
            hook()
        for (telemetry, requests, failures, success_buckets, success_sum,
             success_count, failure_buckets, inflight) in self._targets:
            requests.append(now, telemetry.requests_total.value)
            failures.append(now, telemetry.failures_total.value)
            success_latency = telemetry.success_latency
            success_buckets.append(now, success_latency.cumulative_counts())
            success_sum.append(now, success_latency.sum)
            success_count.append(now, success_latency.count)
            failure_buckets.append(
                now, telemetry.failure_latency.cumulative_counts())
            inflight.append(now, telemetry.inflight.value)
        for series, read in self._gauges:
            series.append(now, float(read()))

    def pause(self, mode: str = "error") -> None:
        """Suspend scraping (fault injection: Prometheus outage).

        ``mode`` exists for signature parity with the live substrate's
        scrape-outage adapter (500s vs. stalls); in the simulator an
        outage is the absence of samples either way, so it is ignored.
        """
        del mode
        self.paused = True

    def resume(self) -> None:
        """Resume a paused scrape loop."""
        self.paused = False

    def run(self, sim):
        """Generator process: scrape every ``interval_s`` until interrupted.

        While :attr:`paused`, ticks pass without scraping (counted in
        :attr:`skipped_scrapes`).
        """
        try:
            while True:
                yield sim.timeout(self.interval_s)
                if self.paused:
                    self.skipped_scrapes += 1
                else:
                    self.scrape_once(sim.now)
        except Interrupted:
            return
