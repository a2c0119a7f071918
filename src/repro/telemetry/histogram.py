"""Bucketed latency histograms with Prometheus quantile semantics.

Linkerd proxies export latency as a cumulative histogram over a fixed
bucket ladder; percentiles are *estimated* by linear interpolation inside
the bucket containing the target rank (exactly what PromQL's
``histogram_quantile`` does). The estimation error this introduces is part
of the system the paper measures, so we reproduce it rather than using
exact percentiles on the control path. (Exact percentiles over raw samples
live in :mod:`repro.analysis.percentiles` and are used only for *reporting*
benchmark results, mirroring the paper's benchmark coordinator.)
"""

from __future__ import annotations

import bisect
import math
import operator
from itertools import accumulate, pairwise

from repro.errors import TelemetryError

# Linkerd's proxy bucket ladder (seconds): 1 ms resolution at the bottom,
# decade steps of {1,2,3,4,5} up to 60 s, +Inf implicit.
DEFAULT_BUCKET_BOUNDS_S: tuple[float, ...] = tuple(
    ms / 1000.0 for ms in (
        1, 2, 3, 4, 5,
        10, 20, 30, 40, 50,
        100, 200, 300, 400, 500,
        1_000, 2_000, 3_000, 4_000, 5_000,
        10_000, 20_000, 30_000, 40_000, 50_000, 60_000,
    )
)


class LatencyHistogram:
    """A cumulative histogram (each bucket counts observations <= bound)."""

    __slots__ = ("bounds", "_buckets", "_count", "_sum", "_cumulative")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKET_BOUNDS_S):
        if not bounds:
            raise TelemetryError("at least one bucket bound is required")
        # Single adjacent-pair pass: strictly-increasing implies sorted and
        # duplicate-free, with no sorted()/set() copies of the ladder (one
        # histogram is constructed per backend per run).
        for lower, upper in pairwise(bounds):
            if not lower < upper:
                raise TelemetryError(
                    "bucket bounds must be strictly increasing")
        self.bounds = tuple(float(b) for b in bounds)
        # Per-bucket (non-cumulative) counts; the final slot is +Inf.
        # Observation is the hot path (per request); the cumulative view is
        # only materialised at scrape time — and cached until the next
        # observation, since back-to-back scrapes/quantile queries of an
        # idle backend are common.
        self._buckets = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._cumulative: tuple[int, ...] | None = None

    @property
    def count(self) -> int:
        """Total number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def observe(self, value: float) -> None:
        """Record one observation (negative latencies are invalid)."""
        if value < 0 or math.isnan(value):
            raise TelemetryError(f"invalid latency observation: {value}")
        self._buckets[bisect.bisect_left(self.bounds, value)] += 1
        self._count += 1
        self._sum += value
        self._cumulative = None

    def cumulative_counts(self) -> tuple[int, ...]:
        """Cumulative counts per bucket (monotone, last entry == count).

        The view is materialised with :func:`itertools.accumulate` and
        cached until the next observation; a scrape of an idle backend
        costs one attribute read instead of a 27-bucket rebuild.
        """
        cumulative = self._cumulative
        if cumulative is None:
            cumulative = self._cumulative = tuple(accumulate(self._buckets))
        return cumulative

    def quantile(self, q: float) -> float:
        """Estimate quantile ``q`` over all observations ever recorded."""
        return quantile_from_cumulative(
            self.bounds, self.cumulative_counts(), q)


def quantile_from_cumulative(bounds, cumulative, q: float) -> float:
    """PromQL ``histogram_quantile`` over one cumulative snapshot.

    Args:
        bounds: finite upper bucket bounds (ascending).
        cumulative: cumulative counts per bucket, one longer than ``bounds``
            (the final entry is the +Inf bucket == total count).
        q: quantile in ``[0, 1]``.

    Returns:
        The interpolated quantile; 0.0 when the histogram is empty. Ranks
        falling in the +Inf bucket return the largest finite bound (the
        same clamping Prometheus applies).
    """
    if not 0.0 <= q <= 1.0:
        raise TelemetryError(f"quantile must be in [0, 1]: {q}")
    if len(cumulative) != len(bounds) + 1:
        raise TelemetryError(
            f"cumulative length {len(cumulative)} != bounds+1 {len(bounds) + 1}")
    total = cumulative[-1]
    if total <= 0:
        return 0.0
    rank = q * total
    index = bisect.bisect_left(cumulative, rank)
    if index >= len(bounds):
        return bounds[-1]
    upper = bounds[index]
    lower = bounds[index - 1] if index > 0 else 0.0
    below = cumulative[index - 1] if index > 0 else 0
    in_bucket = cumulative[index] - below
    if in_bucket <= 0:
        return upper
    fraction = (rank - below) / in_bucket
    return lower + (upper - lower) * fraction


def quantile_from_delta(bounds, cumulative_start, cumulative_end,
                        q: float) -> float:
    """Quantile of the observations falling *between* two scrape snapshots.

    This is the control-path percentile: the distribution over a trailing
    window, computed from the difference of two cumulative scrapes (how the
    paper's Prometheus queries derive the windowed P99).
    """
    if len(cumulative_start) != len(cumulative_end):
        raise TelemetryError("snapshot lengths differ")
    # Per-bucket delta built at C level (this runs once per backend per
    # reconcile interval); a negative bucket means a counter reset.
    delta = list(map(operator.sub, cumulative_end, cumulative_start))
    if delta and min(delta) < 0:
        raise TelemetryError("counter reset detected in histogram snapshots")
    return quantile_from_cumulative(bounds, delta, q)
