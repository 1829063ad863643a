"""The paper's analyses (Sections 4-6).

One module per study, each consuming a
:class:`~repro.records.trace.FailureTrace` (synthetic or loaded from
the real CFDR CSV) and returning plain data structures:

* :mod:`~repro.analysis.rootcause` — root-cause breakdowns (Figure 1,
  Section 4 details).
* :mod:`~repro.analysis.rates` — failure rates across systems
  (Figure 2).
* :mod:`~repro.analysis.pernode` — failures per node and count-CDF
  fits (Figure 3).
* :mod:`~repro.analysis.lifecycle` — failure rate vs system age
  (Figure 4).
* :mod:`~repro.analysis.periodicity` — hour-of-day / day-of-week
  (Figure 5).
* :mod:`~repro.analysis.interarrival` — time-between-failures studies
  (Figure 6, Section 5.3).
* :mod:`~repro.analysis.repair` — time-to-repair studies (Table 2,
  Figure 7).
* :mod:`~repro.analysis.correlation` — simultaneous failures and
  workload correlation.
* :mod:`~repro.analysis.related` — Table 3 (related studies) and where
  our measurements fall in the literature's ranges.
* :mod:`~repro.analysis.summary` — everything at once.
"""

from repro.analysis.rootcause import (
    CauseBreakdown,
    breakdown_by_hardware_type,
    downtime_breakdown_by_hardware_type,
    low_level_shares,
    memory_share,
    top_software_cause,
)
from repro.analysis.rates import (
    SystemRate,
    failure_rates,
    normalized_variability,
    rate_size_correlation,
)
from repro.analysis.pernode import (
    NodeCountStudy,
    failures_per_node,
    node_count_study,
    node_share,
)
from repro.analysis.lifecycle import (
    LifecycleCurve,
    classify_lifecycle,
    monthly_failures,
)
from repro.analysis.periodicity import (
    PeriodicityStudy,
    failures_by_hour,
    failures_by_weekday,
    periodicity_study,
)
from repro.analysis.interarrival import (
    InterarrivalStudy,
    interarrival_study,
    node_interarrivals,
    split_eras,
    system_interarrivals,
)
from repro.analysis.repair import (
    RepairByCauseRow,
    repair_by_system,
    repair_fit_study,
    repair_statistics_by_cause,
)
from repro.analysis.correlation import (
    simultaneous_fraction,
    workload_rates,
)
from repro.analysis.availability import (
    SystemAvailability,
    availability_report,
    merge_intervals,
    system_availability,
)
from repro.analysis.burstiness import (
    Burst,
    burst_size_distribution,
    co_failure_ratio,
    extract_bursts,
    index_of_dispersion,
)
from repro.analysis.comparison import MetricComparison, compare_traces, two_sample_ks
from repro.analysis.errors import DegenerateSampleError
from repro.analysis.hazard_study import HazardStudy, hazard_study
from repro.analysis.outliers import NodeOutlier, find_node_outliers
from repro.analysis.outofcore import FoldCore, PaperAccumulator, scan_store
from repro.analysis.related import RELATED_STUDIES, RelatedStudy, literature_ranges
from repro.analysis.summary import PaperSummary, summarize

__all__ = [
    "DegenerateSampleError",
    "CauseBreakdown",
    "breakdown_by_hardware_type",
    "downtime_breakdown_by_hardware_type",
    "low_level_shares",
    "memory_share",
    "top_software_cause",
    "SystemRate",
    "failure_rates",
    "normalized_variability",
    "rate_size_correlation",
    "NodeCountStudy",
    "failures_per_node",
    "node_count_study",
    "node_share",
    "LifecycleCurve",
    "classify_lifecycle",
    "monthly_failures",
    "PeriodicityStudy",
    "failures_by_hour",
    "failures_by_weekday",
    "periodicity_study",
    "InterarrivalStudy",
    "interarrival_study",
    "node_interarrivals",
    "system_interarrivals",
    "split_eras",
    "RepairByCauseRow",
    "repair_statistics_by_cause",
    "repair_fit_study",
    "repair_by_system",
    "simultaneous_fraction",
    "workload_rates",
    "SystemAvailability",
    "system_availability",
    "availability_report",
    "merge_intervals",
    "RELATED_STUDIES",
    "RelatedStudy",
    "literature_ranges",
    "HazardStudy",
    "hazard_study",
    "NodeOutlier",
    "find_node_outliers",
    "FoldCore",
    "PaperAccumulator",
    "scan_store",
    "MetricComparison",
    "compare_traces",
    "two_sample_ks",
    "Burst",
    "extract_bursts",
    "burst_size_distribution",
    "index_of_dispersion",
    "co_failure_ratio",
    "PaperSummary",
    "summarize",
]
