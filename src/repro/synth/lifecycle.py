"""Lifecycle rate shapes (Figure 4).

The paper finds that the failure rate over a system's lifetime follows
one of two shapes:

* **Infant-mortality decay** (Figure 4(a), types E and F): rates start
  high and drop within the first months as initial hardware/software
  bugs are fixed and administrators gain experience.
* **Ramp to a peak** (Figure 4(b), types D and G): rates *grow* for
  ~20 months before declining, because these first-of-their-kind
  systems were brought to full production slowly, so the workload
  variety that exposes bugs arrived late.

Both are implemented as dimensionless multipliers on the base failure
rate as a function of system age.  The multipliers are smooth, so the
time-warped renewal process inherits the shape.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from repro.records.system import HardwareType
from repro.records.timeutils import SECONDS_PER_MONTH

__all__ = [
    "LifecycleShape",
    "lifecycle_shape_for",
    "infant_decay",
    "ramp_peak",
    "lifecycle_multiplier",
    "lifecycle_levels",
]


class LifecycleShape(enum.Enum):
    """The two lifecycle shapes of Figure 4."""

    INFANT_DECAY = "infant-decay"
    RAMP_PEAK = "ramp-peak"

    def __str__(self) -> str:
        return self.value


# Infant-mortality decay parameters: initial rate (1 + EXCESS) times the
# steady-state rate, decaying with time constant DECAY_MONTHS.
INFANT_EXCESS = 2.5
INFANT_DECAY_MONTHS = 3.0

# Ramp-peak parameters: rate starts at RAMP_FLOOR, peaks at RAMP_PEAK_LEVEL
# at RAMP_PEAK_MONTHS, then declines toward the floor+decay tail.
RAMP_FLOOR = 0.25
RAMP_PEAK_LEVEL = 2.0
RAMP_PEAK_MONTHS = 20.0


def infant_decay(
    age_seconds: float,
    excess: float = INFANT_EXCESS,
    decay_months: float = INFANT_DECAY_MONTHS,
) -> float:
    """Figure 4(a) multiplier: ``1 + excess * exp(-age / tau)``.

    Equals ``1 + excess`` at age 0 and decays to 1 with time constant
    ``decay_months``.
    """
    if age_seconds < 0:
        raise ValueError(f"age must be >= 0, got {age_seconds}")
    tau = decay_months * SECONDS_PER_MONTH
    return 1.0 + excess * math.exp(-age_seconds / tau)


def ramp_peak(
    age_seconds: float,
    floor: float = RAMP_FLOOR,
    peak_level: float = RAMP_PEAK_LEVEL,
    peak_months: float = RAMP_PEAK_MONTHS,
) -> float:
    """Figure 4(b) multiplier: a gamma-shaped ramp peaking at ``peak_months``.

    ``floor + (peak - floor) * (age/T)^2 * exp(2 * (1 - age/T))`` — equal
    to ``floor`` at age 0, to ``peak_level`` exactly at ``T``, and
    declining slowly afterwards (about 40% above floor at ``3T``).
    """
    if age_seconds < 0:
        raise ValueError(f"age must be >= 0, got {age_seconds}")
    t = age_seconds / (peak_months * SECONDS_PER_MONTH)
    return floor + (peak_level - floor) * t**2 * math.exp(2.0 * (1.0 - t))


def lifecycle_shape_for(
    hardware_type: HardwareType,
    system_id: int,
    ramp_types=(HardwareType.D, HardwareType.G),
    ramp_exempt_systems=(21,),
) -> LifecycleShape:
    """The lifecycle shape of a system.

    Types D and G ramp (Figure 4(b)); everything else decays
    (Figure 4(a)).  System 21 is type G but was introduced two years
    into the NUMA era and behaves like Figure 4(a) (Section 5.2).
    """
    if hardware_type in ramp_types and system_id not in ramp_exempt_systems:
        return LifecycleShape.RAMP_PEAK
    return LifecycleShape.INFANT_DECAY


def lifecycle_multiplier(shape: LifecycleShape, age_seconds: float) -> float:
    """Evaluate a lifecycle shape at the given system age."""
    if shape is LifecycleShape.INFANT_DECAY:
        return infant_decay(age_seconds)
    if shape is LifecycleShape.RAMP_PEAK:
        return ramp_peak(age_seconds)
    raise ValueError(f"unknown lifecycle shape {shape!r}")


def lifecycle_levels(shape: LifecycleShape, age_seconds: np.ndarray) -> np.ndarray:
    """Evaluate a lifecycle shape on an array of system ages.

    The generator and the reference engine of the equivalence suite
    build their weekly rate grids from this function, so the grids —
    and therefore the traces — agree bit-for-bit.
    """
    ages = np.asarray(age_seconds, dtype=float)
    if ages.size and ages.min() < 0:
        raise ValueError(f"age must be >= 0, got {ages.min()}")
    if shape is LifecycleShape.INFANT_DECAY:
        tau = INFANT_DECAY_MONTHS * SECONDS_PER_MONTH
        return 1.0 + INFANT_EXCESS * np.exp(-ages / tau)
    if shape is LifecycleShape.RAMP_PEAK:
        t = ages / (RAMP_PEAK_MONTHS * SECONDS_PER_MONTH)
        return RAMP_FLOOR + (RAMP_PEAK_LEVEL - RAMP_FLOOR) * t**2 * np.exp(
            2.0 * (1.0 - t)
        )
    raise ValueError(f"unknown lifecycle shape {shape!r}")
