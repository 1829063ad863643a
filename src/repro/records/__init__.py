"""Failure-record data model.

The vocabulary of the whole toolkit lives here:

* :class:`~repro.records.record.FailureRecord` — one failure, as entered
  in LANL's remedy database: system, node, start/end time, workload and
  root cause.
* :class:`~repro.records.record.RootCause` /
  :class:`~repro.records.record.Workload` — the paper's categorical
  fields.
* :class:`~repro.records.system.SystemConfig` and
  :class:`~repro.records.node.NodeCategory` — the Table 1 inventory
  schema; :data:`~repro.records.inventory.LANL_SYSTEMS` is Table 1
  encoded as data.
* :class:`~repro.records.trace.FailureTrace` — an immutable, sorted
  trace with the filtering/slicing operations every analysis uses,
  held in the column layout of :mod:`repro.records.columns` (shared
  with the columnar store) and decoded to records only on demand.
"""

from repro.records.node import NodeCategory, NodeConfig
from repro.records.record import (
    HIGH_LEVEL_CAUSES,
    FailureRecord,
    LowLevelCause,
    RootCause,
    Workload,
)
from repro.records.system import HardwareArchitecture, HardwareType, SystemConfig
from repro.records.inventory import (
    DATA_END,
    DATA_START,
    LANL_SYSTEMS,
    total_nodes,
    total_processors,
)
from repro.records.trace import FailureTrace
from repro.records.timeutils import (
    EPOCH,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_YEAR,
    day_of_week,
    from_datetime,
    hour_of_day,
    month_index,
    parse_month_year,
    to_datetime,
)
from repro.records.validation import (
    TraceValidationError,
    ValidationSummary,
    validate_record,
    validate_trace,
)

__all__ = [
    "FailureRecord",
    "RootCause",
    "LowLevelCause",
    "Workload",
    "HIGH_LEVEL_CAUSES",
    "NodeCategory",
    "NodeConfig",
    "HardwareType",
    "HardwareArchitecture",
    "SystemConfig",
    "LANL_SYSTEMS",
    "total_nodes",
    "total_processors",
    "DATA_START",
    "DATA_END",
    "FailureTrace",
    "EPOCH",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_DAY",
    "SECONDS_PER_YEAR",
    "hour_of_day",
    "day_of_week",
    "month_index",
    "to_datetime",
    "from_datetime",
    "parse_month_year",
    "TraceValidationError",
    "validate_record",
    "validate_trace",
    "ValidationSummary",
]
