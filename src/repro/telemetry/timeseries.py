"""Scraped-sample storage with windowed lookups.

The scraper appends ``(time, value)`` samples; queries read trailing
windows. Values are floats for counters/gauges and cumulative-count tuples
for histograms — the store is agnostic.

Storage is a pair of parallel lists rather than deques: ``bisect`` then
runs directly on the time list, and the window queries the controller
issues every reconcile interval touch only the two edge samples — no
whole-series copy per query. Retention trimming is amortized: the expired
prefix is sliced off only once it holds ``_TRIM_THRESHOLD`` samples, which
(times being sorted) is exactly when the sample at index
``_TRIM_THRESHOLD - 1`` lies before ``when - max_age_s``. An append that
does not trim is therefore one index and one compare, with no bisect, and
fewer than ``_TRIM_THRESHOLD`` expired samples are ever held.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.errors import TelemetryError

# Expired samples are physically removed only once this many accumulate;
# until then they merely sit below the live window (bisect skips them).
_TRIM_THRESHOLD = 256


class SampleSeries:
    """An append-only, time-ordered series with bounded retention."""

    __slots__ = ("max_age_s", "_times", "_values")

    def __init__(self, max_age_s: float = 300.0):
        if max_age_s <= 0:
            raise TelemetryError(f"retention must be positive: {max_age_s}")
        self.max_age_s = max_age_s
        self._times: list[float] = []
        self._values: list = []

    def __len__(self) -> int:
        # Live samples only: the lazily-trimmed expired prefix is not
        # part of the series' logical contents.
        times = self._times
        if not times:
            return 0
        return len(times) - bisect_left(times, times[-1] - self.max_age_s)

    def append(self, when: float, value) -> None:
        """Append a sample; samples must arrive in time order."""
        times = self._times
        if times and when < times[-1]:
            raise TelemetryError(
                f"out-of-order sample: {when} < {times[-1]}")
        times.append(when)
        self._values.append(value)
        # At least _TRIM_THRESHOLD samples have expired exactly when the
        # one at index _TRIM_THRESHOLD - 1 has (times are sorted), so the
        # common no-trim append is one index and one compare. The new
        # sample itself is never expired, hence the strict length test.
        if (len(times) > _TRIM_THRESHOLD
                and times[_TRIM_THRESHOLD - 1] < when - self.max_age_s):
            expired = bisect_left(times, when - self.max_age_s)
            del times[:expired]
            del self._values[:expired]

    def _window_bounds(self, start: float, end: float) -> tuple[int, int]:
        """Index range ``[lo, hi)`` of samples with start <= time <= end."""
        times = self._times
        # Clamp the left edge to the retention horizon: samples older than
        # max_age_s are logically expired even if not yet trimmed.
        if times:
            horizon = times[-1] - self.max_age_s
            if start < horizon:
                start = horizon
        return bisect_left(times, start), bisect_right(times, end)

    def window(self, start: float, end: float) -> list:
        """All ``(time, value)`` samples with ``start <= time <= end``."""
        lo, hi = self._window_bounds(start, end)
        return list(zip(self._times[lo:hi], self._values[lo:hi]))

    def first_last_in_window(self, start: float, end: float):
        """``((t0, v0), (t1, v1))`` of the window edge samples, else None.

        Returns None when fewer than two samples fall inside the window —
        mirroring Prometheus ``rate()``, which needs at least two points.
        Touches exactly two samples; nothing is copied.
        """
        lo, hi = self._window_bounds(start, end)
        if hi - lo < 2:
            return None
        last = hi - 1
        return ((self._times[lo], self._values[lo]),
                (self._times[last], self._values[last]))

    def latest_in_window(self, start: float, end: float):
        """The most recent ``(time, value)`` in the window, or None."""
        lo, hi = self._window_bounds(start, end)
        if hi <= lo:
            return None
        return self._times[hi - 1], self._values[hi - 1]


class TimeSeriesStore:
    """All scraped series, keyed by ``(backend_name, metric_name)``."""

    def __init__(self, max_age_s: float = 300.0):
        self.max_age_s = max_age_s
        self._series: dict[tuple[str, str], SampleSeries] = {}

    def series(self, backend: str, metric: str) -> SampleSeries:
        """Return (creating on first use) the series for a backend metric."""
        key = (backend, metric)
        found = self._series.get(key)
        if found is None:
            found = SampleSeries(self.max_age_s)
            self._series[key] = found
        return found

    def backends(self) -> set[str]:
        """All backend names that have at least one series."""
        return {backend for backend, _metric in self._series}
