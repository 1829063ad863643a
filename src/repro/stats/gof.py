"""Goodness-of-fit measures.

The paper evaluates fits by visual inspection and the negative
log-likelihood; we add AIC/BIC (to penalize the exponential's single
parameter fairly) and the Kolmogorov-Smirnov statistic (a quantitative
stand-in for "visual inspection" of CDF plots).
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

__all__ = ["aic", "bic", "ks_statistic"]

ArrayLike = Union[Sequence[float], np.ndarray]


def aic(nll: float, n_params: int) -> float:
    """Akaike information criterion, 2k + 2 * NLL."""
    return 2.0 * n_params + 2.0 * nll


def bic(nll: float, n_params: int, n: int) -> float:
    """Bayesian information criterion, k ln(n) + 2 * NLL."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    return n_params * math.log(n) + 2.0 * nll


def ks_statistic(data: ArrayLike, distribution) -> float:
    """Kolmogorov-Smirnov statistic: sup |ECDF(x) - CDF(x)|.

    Computed at the sample points using both the left and right limits
    of the empirical step function.
    """
    values = np.sort(np.asarray(data, dtype=float))
    n = values.size
    if n == 0:
        raise ValueError("ks_statistic requires at least one observation")
    cdf = np.asarray(distribution.cdf(values), dtype=float)
    upper = np.arange(1, n + 1, dtype=float) / n
    lower = np.arange(0, n, dtype=float) / n
    return float(np.max(np.maximum(np.abs(upper - cdf), np.abs(cdf - lower))))
