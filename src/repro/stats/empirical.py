"""Empirical distribution summaries.

Implements the three metrics of the paper's methodology section: the
mean, the median, and the squared coefficient of variation C² (variance
divided by squared mean — normalized so variability can be compared
across distributions with different means).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.stats.errors import DegenerateStatisticError

__all__ = ["EmpiricalDistribution"]

ArrayLike = Union[Sequence[float], np.ndarray]


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Summary statistics of an observed sample.

    Use :meth:`from_data`; the constructor takes precomputed values so
    summaries can be built from streamed moments as well.

    Attributes
    ----------
    count, mean, median, std:
        Sample size and the standard location/scale statistics
        (standard deviation is the population form, ddof=0, matching
        the maximum-likelihood convention used by the fitters).
    minimum, maximum:
        Sample range.
    """

    count: int
    mean: float
    median: float
    std: float
    minimum: float
    maximum: float

    @classmethod
    def from_data(cls, data: ArrayLike) -> "EmpiricalDistribution":
        """Build a summary from raw observations.  The median is
        ``np.median``'s mean of the middle values of a sorted copy."""
        values = np.asarray(data, dtype=float)
        ordered = np.sort(values.ravel())
        n = ordered.size
        if n == 0:
            raise ValueError("cannot summarize an empty sample")
        # Sorting puts -inf first, and +inf then NaN last.
        if not (np.isfinite(ordered[0]) and np.isfinite(ordered[-1])):
            raise ValueError("sample contains non-finite values")
        return cls(
            count=int(n),
            mean=float(np.mean(values)),
            median=float(np.mean(ordered[(n - 1) // 2:n // 2 + 1])),
            std=float(np.std(values)),
            minimum=float(np.min(values)),
            maximum=float(np.max(values)),
        )

    @property
    def variance(self) -> float:
        """Population variance (ddof=0)."""
        return self.std**2

    @property
    def squared_cv(self) -> float:
        """The squared coefficient of variation, C² = variance / mean².

        The paper's preferred variability measure: an exponential
        distribution has C² = 1, so C² >> 1 signals heavy tails.
        Undefined for zero-mean samples: raises
        :class:`~repro.stats.errors.DegenerateStatisticError` (both a
        :class:`DegenerateSampleError` and a :class:`ZeroDivisionError`).
        """
        if self.mean == 0:
            raise DegenerateStatisticError("C^2 undefined for zero-mean sample")
        return self.variance / self.mean**2

    @property
    def mean_to_median(self) -> float:
        """Mean / median ratio — the paper's quick skew indicator.

        Table 2 highlights e.g. software repairs where the mean is ~10x
        the median.  Undefined for zero-median samples: raises
        :class:`~repro.stats.errors.DegenerateStatisticError` (both a
        :class:`DegenerateSampleError` and a :class:`ZeroDivisionError`),
        so report sections classify the condition as thin data
        (DEGRADED), not a crash.
        """
        if self.median == 0:
            raise DegenerateStatisticError(
                "mean/median undefined for zero median"
            )
        return self.mean / self.median

    def describe(self, unit: str = "") -> str:
        """One-line human-readable summary."""
        suffix = f" {unit}" if unit else ""
        return (
            f"n={self.count}  mean={self.mean:.4g}{suffix}  "
            f"median={self.median:.4g}{suffix}  std={self.std:.4g}{suffix}  "
            f"C2={self.squared_cv:.3g}"
        )
