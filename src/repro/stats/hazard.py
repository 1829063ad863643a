"""Hazard-rate analysis.

A central question of the paper (Section 5.3): does the time since the
last failure predict the time to the next one?  An increasing hazard
says "long quiet spell => failure imminent", a decreasing hazard says
the reverse.  The paper finds *decreasing* hazard (Weibull shape
0.7-0.8) for time between failures.

This module classifies a fitted distribution's hazard direction.
"""

from __future__ import annotations

import enum

from repro.stats.distributions import Distribution, Exponential, Gamma, LogNormal, Weibull

__all__ = ["HazardDirection", "hazard_direction"]


class HazardDirection(enum.Enum):
    """Qualitative direction of a hazard-rate function."""

    DECREASING = "decreasing"
    CONSTANT = "constant"
    INCREASING = "increasing"
    NON_MONOTONE = "non-monotone"

    def __str__(self) -> str:
        return self.value


def hazard_direction(distribution: Distribution, shape_tolerance: float = 0.02) -> HazardDirection:
    """Classify the hazard direction of a fitted distribution.

    * Exponential: constant, by definition.
    * Weibull / gamma: decreasing iff shape < 1, increasing iff > 1
      (constant within ``shape_tolerance`` of 1).
    * Lognormal: non-monotone (rises then falls) — which is why a good
      lognormal fit does not imply a simple hazard story.
    """
    if isinstance(distribution, Exponential):
        return HazardDirection.CONSTANT
    if isinstance(distribution, (Weibull, Gamma)):
        shape = distribution.shape
        if abs(shape - 1.0) <= shape_tolerance:
            return HazardDirection.CONSTANT
        return HazardDirection.DECREASING if shape < 1.0 else HazardDirection.INCREASING
    if isinstance(distribution, LogNormal):
        return HazardDirection.NON_MONOTONE
    raise TypeError(f"no hazard classification for {type(distribution).__name__}")
