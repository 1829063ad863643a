"""Root-cause breakdowns (Figure 1, Section 4).

Figure 1(a) breaks the *number* of failures into the six high-level
root-cause categories per hardware type; Figure 1(b) does the same for
*downtime*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.analysis.errors import DegenerateSampleError
from repro.records.record import HIGH_LEVEL_CAUSES, RootCause
from repro.records.system import HardwareType
from repro.records.trace import FailureTrace

__all__ = [
    "CauseBreakdown",
    "breakdown_by_hardware_type",
    "downtime_breakdown_by_hardware_type",
]

#: The hardware types Figure 1 plots (A-C are single-node systems and
#: are shown only in the all-systems aggregate).
FIGURE1_TYPES: Tuple[HardwareType, ...] = (
    HardwareType.D,
    HardwareType.E,
    HardwareType.F,
    HardwareType.G,
    HardwareType.H,
)


@dataclass(frozen=True)
class CauseBreakdown:
    """Percentages per root cause for one group of systems.

    Attributes
    ----------
    label:
        Group label ("D" ... "H" or "All systems").
    total:
        Denominator: number of failures (Figure 1(a)) or total downtime
        in seconds (Figure 1(b)).
    percentages:
        Root cause -> percentage of the total (sums to 100).
    """

    label: str
    total: float
    percentages: Dict[RootCause, float]

    def percent(self, cause: RootCause) -> float:
        """The percentage for one cause (0 if absent)."""
        return self.percentages.get(cause, 0.0)


def _breakdown(label: str, weights: Dict[RootCause, float]) -> CauseBreakdown:
    total = sum(weights.values())
    if total <= 0:
        raise DegenerateSampleError(f"group {label!r} has no failures")
    percentages = {
        cause: 100.0 * weights.get(cause, 0.0) / total for cause in HIGH_LEVEL_CAUSES
    }
    return CauseBreakdown(label=label, total=total, percentages=percentages)


def breakdown_by_hardware_type(
    trace: FailureTrace,
    hardware_types: Sequence[HardwareType] = FIGURE1_TYPES,
) -> Dict[str, CauseBreakdown]:
    """Figure 1(a): failure-count breakdown per hardware type + overall.

    Returns a dict keyed by the type letter plus ``"All systems"``,
    each value holding percentages per root cause.
    """
    result: Dict[str, CauseBreakdown] = {}
    for hardware_type in hardware_types:
        sub = trace.filter_hardware(hardware_type)
        if len(sub) == 0:
            continue
        counts = {cause: float(n) for cause, n in sub.counts_by_cause().items()}
        result[hardware_type.value] = _breakdown(hardware_type.value, counts)
    overall = {cause: float(n) for cause, n in trace.counts_by_cause().items()}
    result["All systems"] = _breakdown("All systems", overall)
    return result


def downtime_breakdown_by_hardware_type(
    trace: FailureTrace,
    hardware_types: Sequence[HardwareType] = FIGURE1_TYPES,
) -> Dict[str, CauseBreakdown]:
    """Figure 1(b): downtime breakdown per hardware type + overall."""
    result: Dict[str, CauseBreakdown] = {}
    for hardware_type in hardware_types:
        sub = trace.filter_hardware(hardware_type)
        if len(sub) == 0:
            continue
        result[hardware_type.value] = _breakdown(
            hardware_type.value, sub.downtime_by_cause()
        )
    result["All systems"] = _breakdown("All systems", trace.downtime_by_cause())
    return result
