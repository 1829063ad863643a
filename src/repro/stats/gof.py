"""Goodness-of-fit measures.

The paper evaluates fits by visual inspection and the negative
log-likelihood; we add AIC/BIC (to penalize the exponential's single
parameter fairly) and the Kolmogorov-Smirnov statistic (a quantitative
stand-in for "visual inspection" of CDF plots).

The KS statistic evaluates the CDF only where its supremum can lie.
With sorted x_i, F_i = CDF(x_i) and d_i = max(|(i+1)/n - F_i|, |F_i - i/n|),
it probes F every :data:`KS_BLOCK` points and at the last point.  The
ECDF and the CDF are non-decreasing, so in a block [s, e) whose probes
read F_s and F_next, every d_i <= max(e/n - F_s, F_next - s/n).  Only a
block whose bound exceeds the best probe deviation, less a 1e-9 slack
for ulp-level noise in a numerical CDF, is evaluated in full, so the
maximum is taken over a set holding the argmax: the float a full
evaluation returns.  The contract: ``distribution.cdf`` is elementwise
and non-decreasing where it is finite.  A NaN probe yields NaN, as a
full evaluation does; NaN data sort last, onto the last probe.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

__all__ = ["aic", "bic", "ks_statistic"]

ArrayLike = Union[Sequence[float], np.ndarray]

#: Sorted sample points from one CDF probe to the next.
KS_BLOCK = 64

#: How far a numerical CDF may step backwards without hiding the
#: supremum from the block bound.
_MONOTONE_SLACK = 1e-9


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
    of the empirical step function, evaluating the CDF only in the
    blocks where the supremum can lie (see the module docstring).
    """
    return _sorted_ks(np.sort(np.asarray(data, dtype=float)), distribution)


def _sorted_ks(values: np.ndarray, distribution) -> float:
    """:func:`ks_statistic` of an already sorted float sample."""
    n = values.size
    if n == 0:
        raise ValueError("ks_statistic requires at least one observation")
    starts = np.arange(0, n, KS_BLOCK)
    probes = np.append(starts, n - 1)
    at = np.asarray(distribution.cdf(values[probes]), dtype=float)
    best = np.max(_deviations(probes, at, n))
    ends = np.minimum(starts + KS_BLOCK, n)
    bound = np.maximum(ends / n - at[:-1], at[1:] - starts / n)
    live = starts[bound > best - _MONOTONE_SLACK]
    points = (live[:, None] + np.arange(KS_BLOCK)).ravel()
    points = points[points < n]
    cdf = np.asarray(distribution.cdf(values[points]), dtype=float)
    return float(np.max(np.append(_deviations(points, cdf, n), best)))


def _deviations(index: np.ndarray, cdf: np.ndarray, n: int) -> np.ndarray:
    """d_i at sorted positions ``index``: |ECDF - CDF| at the larger of
    the step's two limits."""
    return np.maximum(np.abs((index + 1) / n - cdf), np.abs(cdf - index / n))
