"""Order statistics used by the benchmark.

Percentiles are Harrell-Davis estimates: a weighted mean of all order
statistics, with weights from the Beta((n+1)q, (n+1)(1-q)) distribution,
which peak at the nearest rank.  Where the latencies of a mixed workload
thin out, as they do between op kinds, the nearest-rank percentile jumps
from one side of the gap to the other with a single sample; this estimate
moves smoothly instead.
"""

from __future__ import annotations

import math
from typing import Sequence


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta did not converge at a={a}, b={b}, x={x}")


def beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, 1.0 - x) / b


def percentile(values: Sequence[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile (0 < p < 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {p}")
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * p / 100, (n + 1) * (1 - p / 100)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def samples_beyond(count: int, p: float) -> int:
    """How many of `count` samples lie above rank ceil(p * count / 100)."""
    return count - max(math.ceil(p * count / 100), 1)


def median(values: Sequence[float]) -> float:
    """Midpoint median (the mean of the two middle values for even counts)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2
