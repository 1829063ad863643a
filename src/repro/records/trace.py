"""The :class:`FailureTrace` container.

A trace is an immutable, chronologically sorted sequence of failures
plus the system inventory it refers to.  Every analysis in
:mod:`repro.analysis` consumes a trace; the synthetic generator, the
CSV loader and the columnar store all produce one.

The sorted rows live in the column layout of
:mod:`repro.records.columns` — the store's own — and
:class:`~repro.records.record.FailureRecord` objects exist only when
something iterates, indexes, or asks for :attr:`FailureTrace.records`.
A trace built from records keeps those objects and encodes its columns
the first time a column operation needs them; a trace built from
columns (:meth:`FailureTrace.from_columns`, as
:meth:`~repro.store.reader.ColumnarStore.to_trace` does) decodes
records only on demand.  Filters, grouping and vectors are column
operations either way.

Filtering methods return new traces sharing the same inventory, so
analysis code composes naturally::

    early = trace.filter_systems([20]).between(t0, t1)
    node_view = early.filter_nodes([22])
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.records.codes import CAUSE_CODE, CAUSE_VOCAB, WORKLOAD_CODE
from repro.records.columns import (
    COLUMN_NAMES,
    ColumnBatch,
    batch_from_records,
    check_rows,
    concat_batches,
    in_trace_order,
    records_from_batch,
    sort_rows,
)
from repro.records.inventory import DATA_END, DATA_START, LANL_SYSTEMS
from repro.records.record import FailureRecord, RootCause, Workload
from repro.records.system import HardwareType, SystemConfig

__all__ = ["FailureTrace"]


def _first_seen_groups(keys: np.ndarray) -> List[Tuple[int, np.ndarray]]:
    """``(key, row positions)`` per distinct key, keys in order of first
    appearance and positions ascending — what a row loop appending to a
    dict of lists builds."""
    if not len(keys):
        return []
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = np.flatnonzero(
        np.concatenate(([True], ordered[1:] != ordered[:-1]))
    )
    members = np.split(order, starts[1:])
    return [
        (ordered[starts[group]].item(), members[group])
        for group in np.argsort(order[starts])
    ]


def _running_sum(values: np.ndarray) -> float:
    """``0.0 + values[0] + values[1] + ...``, added left to right.

    ``np.cumsum`` adds sequentially (``np.sum`` would add pairwise); the
    trailing ``+ 0.0`` gives an all-``-0.0`` input the loop's ``0.0``.
    """
    if not len(values):
        return 0.0
    return float(np.cumsum(values)[-1]) + 0.0


def _readonly(batch: ColumnBatch) -> ColumnBatch:
    """Read-only views of ``batch``'s arrays (the trace's own rows)."""
    views = {}
    for name in batch.names:
        view = batch[name].view()
        view.flags.writeable = False
        views[name] = view
    return ColumnBatch(views)


class FailureTrace:
    """An immutable, sorted collection of failure records.

    Parameters
    ----------
    records:
        Failure records in any order; they are sorted by
        ``(start_time, system_id, node_id)``, ties keeping their order.
    systems:
        Inventory mapping system ID to :class:`SystemConfig`.  Defaults
        to the LANL Table 1 inventory.
    data_start / data_end:
        The observation window in toolkit seconds.  Defaults to the
        LANL data-collection window (June 1996 - November 2005).
    """

    def __init__(
        self,
        records: Iterable[FailureRecord],
        systems: Optional[Mapping[int, SystemConfig]] = None,
        data_start: float = DATA_START,
        data_end: float = DATA_END,
    ) -> None:
        self._records: Optional[Tuple[FailureRecord, ...]] = tuple(
            sorted(records, key=lambda record: (record.start_time, record.system_id, record.node_id))
        )
        self._columns: Optional[ColumnBatch] = None
        self._systems: Dict[int, SystemConfig] = dict(systems if systems is not None else LANL_SYSTEMS)
        self._data_start = float(data_start)
        self._data_end = float(data_end)

    @classmethod
    def from_columns(
        cls,
        columns: ColumnBatch,
        systems: Optional[Mapping[int, SystemConfig]] = None,
        data_start: float = DATA_START,
        data_end: float = DATA_END,
    ) -> "FailureTrace":
        """A trace over full-schema rows, without building records.

        ``columns`` must already be in trace order
        (:func:`~repro.records.columns.sort_rows` puts them there), and
        every row must decode to a valid record; either failure raises
        :class:`ValueError`.  The trace keeps read-only views of the
        arrays, so do not modify them afterwards.
        """
        if columns.names != COLUMN_NAMES:
            raise ValueError(
                f"a trace needs every column {COLUMN_NAMES}, got {columns.names}"
            )
        if not in_trace_order(columns):
            raise ValueError(
                "columns are not sorted by (start_time, system_id, node_id)"
            )
        check_rows(columns)
        return cls._view(columns, systems, data_start, data_end)

    @classmethod
    def _view(
        cls,
        columns: ColumnBatch,
        systems: Optional[Mapping[int, SystemConfig]],
        data_start: float,
        data_end: float,
    ) -> "FailureTrace":
        trace = cls.__new__(cls)
        trace._records = None
        trace._columns = _readonly(columns)
        trace._systems = dict(systems if systems is not None else LANL_SYSTEMS)
        trace._data_start = float(data_start)
        trace._data_end = float(data_end)
        return trace

    # Basic protocol -----------------------------------------------------------

    def __len__(self) -> int:
        if self._records is not None:
            return len(self._records)
        return len(self._columns)

    def __iter__(self) -> Iterator[FailureRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> FailureRecord:
        return self.records[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FailureTrace({len(self)} records, "
            f"{len(self._systems)} systems)"
        )

    @property
    def records(self) -> Tuple[FailureRecord, ...]:
        """The sorted records (decoded from the columns on first use)."""
        if self._records is None:
            self._records = tuple(records_from_batch(self._columns))
        return self._records

    @property
    def columns(self) -> ColumnBatch:
        """The sorted rows in the store's column layout (read-only arrays;
        encoded from the records on first use)."""
        if self._columns is None:
            self._columns = _readonly(batch_from_records(self._records))
        return self._columns

    @property
    def systems(self) -> Dict[int, SystemConfig]:
        """The inventory (copy-on-read is not needed; treat as read-only)."""
        return self._systems

    @property
    def data_start(self) -> float:
        """Start of the observation window."""
        return self._data_start

    @property
    def data_end(self) -> float:
        """End of the observation window."""
        return self._data_end

    # Derived vectors ----------------------------------------------------------

    def start_times(self) -> np.ndarray:
        """Start times of all records as a float array (sorted)."""
        return self.columns["start_time"].astype(float)

    def repair_times(self) -> np.ndarray:
        """Repair durations (seconds) of all records."""
        columns = self.columns
        return columns["end_time"] - columns["start_time"]

    def repair_minutes(self) -> np.ndarray:
        """Repair durations in minutes (the paper's repair-time unit)."""
        return self.repair_times() / 60.0

    def interarrival_times(self) -> np.ndarray:
        """Differences between consecutive failure start times (seconds).

        For a single-node filtered trace this is the node view of time
        between failures; for a whole-system trace it is the system-wide
        view (Section 5.3).  Zero interarrivals indicate simultaneous
        failures on different nodes.
        """
        starts = self.start_times()
        if len(starts) < 2:
            return np.empty(0, dtype=float)
        return np.diff(starts)

    # Filters ------------------------------------------------------------------

    def _take(self, rows: np.ndarray) -> "FailureTrace":
        """The rows a boolean mask or ascending positions select."""
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        return FailureTrace._view(
            self.columns.take(rows), self._systems, self._data_start, self._data_end
        )

    def _column_in(self, name: str, values: Iterable) -> "FailureTrace":
        return self._take(np.isin(self.columns[name], list(frozenset(values))))

    def filter(self, predicate: Callable[[FailureRecord], bool]) -> "FailureTrace":
        """A new trace with the records satisfying ``predicate``."""
        return FailureTrace(
            (record for record in self.records if predicate(record)),
            systems=self._systems,
            data_start=self._data_start,
            data_end=self._data_end,
        )

    def filter_systems(self, system_ids: Sequence[int]) -> "FailureTrace":
        """Restrict to the given system IDs."""
        return self._column_in("system_id", system_ids)

    def filter_nodes(self, node_ids: Sequence[int]) -> "FailureTrace":
        """Restrict to the given node IDs (across all systems present)."""
        return self._column_in("node_id", node_ids)

    def filter_hardware(self, hardware_type: HardwareType) -> "FailureTrace":
        """Restrict to systems of the given hardware type."""
        return self._column_in(
            "system_id",
            (
                system_id
                for system_id, config in self._systems.items()
                if config.hardware_type is hardware_type
            ),
        )

    def filter_cause(self, root_cause: RootCause) -> "FailureTrace":
        """Restrict to records with the given high-level root cause."""
        return self._take(self.columns["root_cause"] == CAUSE_CODE.get(root_cause, -1))

    def filter_workload(self, workload: Workload) -> "FailureTrace":
        """Restrict to records whose node ran the given workload."""
        return self._take(self.columns["workload"] == WORKLOAD_CODE.get(workload, -1))

    def between(self, start: float, end: float) -> "FailureTrace":
        """Restrict to records starting within ``[start, end)``."""
        if end <= start:
            raise ValueError(f"empty window [{start}, {end})")
        starts = self.columns["start_time"]
        return self._take((start <= starts) & (starts < end))

    def merge(self, other: "FailureTrace") -> "FailureTrace":
        """Union of two traces over the same inventory."""
        return FailureTrace._view(
            sort_rows(concat_batches([self.columns, other.columns])),
            self._systems,
            self._data_start,
            self._data_end,
        )

    # Grouping -----------------------------------------------------------------

    def by_system(self) -> Dict[int, "FailureTrace"]:
        """Split into per-system traces (only systems with records)."""
        return {
            system_id: self._take(rows)
            for system_id, rows in _first_seen_groups(self.columns["system_id"])
        }

    def by_node(self) -> Dict[Tuple[int, int], "FailureTrace"]:
        """Split into per-(system, node) traces."""
        columns = self.columns
        keys = (columns["system_id"].astype(np.int64) << 32) | columns["node_id"].astype(np.int64)
        return {
            (key >> 32, key & 0xFFFFFFFF): self._take(rows)
            for key, rows in _first_seen_groups(keys)
        }

    def counts_by_cause(self) -> Dict[RootCause, int]:
        """Number of records per high-level root cause."""
        return {
            CAUSE_VOCAB[code]: len(rows)
            for code, rows in _first_seen_groups(self.columns["root_cause"])
        }

    def downtime_by_cause(self) -> Dict[RootCause, float]:
        """Total downtime (seconds) per high-level root cause."""
        repairs = self.repair_times()
        return {
            CAUSE_VOCAB[code]: _running_sum(repairs[rows])
            for code, rows in _first_seen_groups(self.columns["root_cause"])
        }

    def failures_per_node(self, system_id: int) -> Dict[int, int]:
        """Failure count for every node of ``system_id`` (zeros included)."""
        config = self._systems.get(system_id)
        if config is None:
            raise KeyError(f"system {system_id} not in inventory")
        counts = {node_id: 0 for node_id in range(config.node_count)}
        columns = self.columns
        nodes = columns["node_id"][columns["system_id"] == system_id]
        for node_id, rows in _first_seen_groups(nodes):
            counts[node_id] = counts.get(node_id, 0) + len(rows)
        return counts
