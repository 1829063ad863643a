"""The Kolmogorov-Smirnov statistic evaluated at every point, as a test oracle.

It sorts the sample, evaluates the CDF at each sorted point and takes
the largest deviation from either limit of the empirical step
function.  :func:`repro.stats.gof.ks_statistic` must return the same
float, bit for bit, for every sample and distribution the tests try.
"""

from __future__ import annotations

import numpy as np


def ks_statistic(data, distribution) -> float:
    """sup |ECDF(x) - CDF(x)| over every sample point."""
    values = np.sort(np.asarray(data, dtype=float))
    n = values.size
    if n == 0:
        raise ValueError("ks_statistic requires at least one observation")
    cdf = np.asarray(distribution.cdf(values), dtype=float)
    upper = np.arange(1, n + 1, dtype=float) / n
    lower = np.arange(0, n, dtype=float) / n
    return float(np.max(np.maximum(np.abs(upper - cdf), np.abs(cdf - lower))))
