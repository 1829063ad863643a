"""A record-loop reference implementation of the trace operations.

:class:`ReferenceTrace` keeps a sorted tuple of
:class:`~repro.records.record.FailureRecord` objects and answers every
question with a Python loop over it, the way
:class:`~repro.records.trace.FailureTrace` did before it kept its rows
as columns.  The module functions are the record loops of the Figure 3,
4 and 5 analyses.  ``test_trace_oracle.py`` checks the column-backed
trace against this oracle: same records, same dict key order, same
float bits.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.lifecycle import LifecycleCurve
from repro.analysis.pernode import NodeCountStudy, node_count_study_from_counts
from repro.records.inventory import DATA_END, DATA_START, LANL_SYSTEMS
from repro.records.record import HIGH_LEVEL_CAUSES, FailureRecord, RootCause, Workload
from repro.records.system import HardwareType, SystemConfig
from repro.records.timeutils import SECONDS_PER_MONTH, day_of_week, hour_of_day, month_index


class ReferenceTrace:
    """A sorted tuple of records with loop-based trace operations."""

    def __init__(
        self,
        records: Iterable[FailureRecord],
        systems: Optional[Mapping[int, SystemConfig]] = None,
        data_start: float = DATA_START,
        data_end: float = DATA_END,
    ) -> None:
        self._records: Tuple[FailureRecord, ...] = tuple(
            sorted(records, key=lambda record: (record.start_time, record.system_id, record.node_id))
        )
        self._systems: Dict[int, SystemConfig] = dict(systems if systems is not None else LANL_SYSTEMS)
        self._data_start = float(data_start)
        self._data_end = float(data_end)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[FailureRecord]:
        return iter(self._records)

    @property
    def records(self) -> Tuple[FailureRecord, ...]:
        return self._records

    @property
    def systems(self) -> Dict[int, SystemConfig]:
        return self._systems

    @property
    def data_start(self) -> float:
        return self._data_start

    @property
    def data_end(self) -> float:
        return self._data_end

    def start_times(self) -> np.ndarray:
        return np.array([record.start_time for record in self._records], dtype=float)

    def repair_times(self) -> np.ndarray:
        return np.array([record.repair_time for record in self._records], dtype=float)

    def repair_minutes(self) -> np.ndarray:
        return self.repair_times() / 60.0

    def interarrival_times(self) -> np.ndarray:
        starts = self.start_times()
        if len(starts) < 2:
            return np.empty(0, dtype=float)
        return np.diff(starts)

    def _derive(self, records: Iterable[FailureRecord]) -> "ReferenceTrace":
        return ReferenceTrace(
            records, systems=self._systems, data_start=self._data_start, data_end=self._data_end
        )

    def filter(self, predicate: Callable[[FailureRecord], bool]) -> "ReferenceTrace":
        return self._derive(record for record in self._records if predicate(record))

    def filter_systems(self, system_ids: Sequence[int]) -> "ReferenceTrace":
        wanted = frozenset(system_ids)
        return self._derive(record for record in self._records if record.system_id in wanted)

    def filter_nodes(self, node_ids: Sequence[int]) -> "ReferenceTrace":
        wanted = frozenset(node_ids)
        return self._derive(record for record in self._records if record.node_id in wanted)

    def filter_hardware(self, hardware_type: HardwareType) -> "ReferenceTrace":
        wanted = frozenset(
            system_id
            for system_id, config in self._systems.items()
            if config.hardware_type is hardware_type
        )
        return self._derive(record for record in self._records if record.system_id in wanted)

    def filter_cause(self, root_cause: RootCause) -> "ReferenceTrace":
        return self._derive(
            record for record in self._records if record.root_cause is root_cause
        )

    def filter_workload(self, workload: Workload) -> "ReferenceTrace":
        return self._derive(
            record for record in self._records if record.workload is workload
        )

    def between(self, start: float, end: float) -> "ReferenceTrace":
        if end <= start:
            raise ValueError(f"empty window [{start}, {end})")
        return self._derive(
            record for record in self._records if start <= record.start_time < end
        )

    def merge(self, other: "ReferenceTrace") -> "ReferenceTrace":
        return self._derive(list(self._records) + list(other.records))

    def by_system(self) -> Dict[int, "ReferenceTrace"]:
        buckets: Dict[int, List[FailureRecord]] = {}
        for record in self._records:
            buckets.setdefault(record.system_id, []).append(record)
        return {system_id: self._derive(records) for system_id, records in buckets.items()}

    def by_node(self) -> Dict[Tuple[int, int], "ReferenceTrace"]:
        buckets: Dict[Tuple[int, int], List[FailureRecord]] = {}
        for record in self._records:
            buckets.setdefault((record.system_id, record.node_id), []).append(record)
        return {key: self._derive(records) for key, records in buckets.items()}

    def counts_by_cause(self) -> Dict[RootCause, int]:
        counts: Dict[RootCause, int] = {}
        for record in self._records:
            counts[record.root_cause] = counts.get(record.root_cause, 0) + 1
        return counts

    def downtime_by_cause(self) -> Dict[RootCause, float]:
        downtime: Dict[RootCause, float] = {}
        for record in self._records:
            downtime[record.root_cause] = (
                downtime.get(record.root_cause, 0.0) + record.repair_time
            )
        return downtime

    def failures_per_node(self, system_id: int) -> Dict[int, int]:
        config = self._systems.get(system_id)
        if config is None:
            raise KeyError(f"system {system_id} not in inventory")
        counts = {node_id: 0 for node_id in range(config.node_count)}
        for record in self._records:
            if record.system_id == system_id:
                counts[record.node_id] = counts.get(record.node_id, 0) + 1
        return counts


def failures_by_hour(trace) -> np.ndarray:
    """Figure 5 (left), one record at a time."""
    counts = np.zeros(24, dtype=int)
    for record in trace:
        counts[hour_of_day(record.start_time)] += 1
    return counts


def failures_by_weekday(trace) -> np.ndarray:
    """Figure 5 (right), one record at a time."""
    counts = np.zeros(7, dtype=int)
    for record in trace:
        counts[day_of_week(record.start_time)] += 1
    return counts


def monthly_failures(trace, system_id: int) -> LifecycleCurve:
    """Figure 4's curve, one record at a time."""
    config = trace.systems[system_id]
    start, end = config.production_window(trace.data_start, trace.data_end)
    n_months = int((end - start) // SECONDS_PER_MONTH) + 1
    totals = np.zeros(n_months, dtype=int)
    by_cause = {cause: np.zeros(n_months, dtype=int) for cause in HIGH_LEVEL_CAUSES}
    for record in trace.filter_systems([system_id]):
        month = month_index(record.start_time, start)
        if month >= n_months:  # end-of-window records land in the last bin
            month = n_months - 1
        totals[month] += 1
        by_cause[record.root_cause][month] += 1
    return LifecycleCurve(
        system_id=system_id,
        months=n_months,
        totals=tuple(int(v) for v in totals),
        by_cause={cause: tuple(int(v) for v in values) for cause, values in by_cause.items()},
    )


def node_count_study(trace, system_id: int) -> NodeCountStudy:
    """Figure 3(b)'s study with first-seen workloads from a record loop."""
    system_trace = trace.filter_systems([system_id])
    config = trace.systems[system_id]
    node_workloads: Dict[int, Workload] = {}
    for record in system_trace:
        node_workloads.setdefault(record.node_id, record.workload)
    return node_count_study_from_counts(
        config,
        trace.data_start,
        trace.data_end,
        system_id,
        trace.failures_per_node(system_id),
        node_workloads,
    )
