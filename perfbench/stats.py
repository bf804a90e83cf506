"""Order statistics for the benchmark report."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def nearest_rank(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` by the nearest-rank method."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def percentile(values, q: float) -> float | None:
    """The ``q``-th percentile (nearest rank), or None without support.

    Support means at least :data:`MIN_BEYOND` samples lie strictly
    above the reported rank, so the tail estimate rests on more than a
    handful of observations.
    """
    rank = math.ceil(q / 100.0 * len(values))
    if len(values) - rank < MIN_BEYOND:
        return None
    return nearest_rank(values, q)


def interquartile_mean(values) -> float:
    """Mean of the middle half: a quarter of the samples, rounded down,
    is dropped from each end before averaging."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
