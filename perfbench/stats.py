"""Summary statistics shared by run.py and its tests."""

import math
import statistics


def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them;
    a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values):
    """Distance between the first and third quartile as a share of the
    median (0 when the median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def percentile(values, p):
    """Linear-interpolated percentile, p in [0, 100] (the C++ side's
    Percentile uses the same rule)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = min(max(p, 0.0), 100.0) / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def midrange(values, p):
    """Mean of the p-th and (100 - p)-th percentiles."""
    return (percentile(values, p) + percentile(values, 100 - p)) / 2


def summarize(values):
    """Median, quartiles, spread, count and the raw samples."""
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "spread": spread(values),
            "n": len(values), "samples": list(values)}
