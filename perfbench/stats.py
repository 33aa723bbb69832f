"""Summary statistics the benchmark reports.

Timings are reported as a median plus the highest percentile that still has
at least ``MIN_BEYOND`` samples above it, so a tail figure is never read off
one or two outliers; the sample count is reported beside it.
"""

import math
import statistics

#: A tail percentile is reported only when at least this many samples lie
#: strictly beyond it.
MIN_BEYOND = 10

#: Tail percentiles tried, highest first.
TAIL_CANDIDATES = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least ``pct`` % of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * pct / 100 - 1e-9))
    return ordered[rank - 1]


def tail_percentile(values):
    """The highest percentile, p99 at most, with at least ``MIN_BEYOND``
    samples strictly above it.

    Returns ``(pct, value, count)``; ``pct`` is ``None`` (and ``value`` the
    median) when even the median has fewer than ``MIN_BEYOND`` samples above
    it.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail percentile of no values")
    for pct in TAIL_CANDIDATES:
        value = percentile(values, pct)
        beyond = sum(1 for v in values if v > value)
        if beyond >= MIN_BEYOND:
            return pct, value, n
    return None, median(values), n


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, with quartiles as ``statistics.quantiles(values, n=4)`` gives
    them."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    if mid == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(mid)
