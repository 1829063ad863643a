"""Out-of-core paper analysis: one streaming pass, bounded state.

:func:`scan_store` is the one scan loop over a store, with deadlines.
It folds the rows a predicate admits, chunk by chunk in the calling
process, into :class:`FoldCore` — the row count, failures and downtime
per (system, cause), repair-time total/min/max and the start-time
range, of which :func:`~repro.store.analytics.summarize_store` is a
projection — or into :class:`PaperAccumulator`, that core plus
everything else the paper report needs: per-node counts and earliest
workloads for system 20 (Figure 3), monthly lifecycle grids (Figure
4), hour/weekday bins (Figure 5), interarrival-gap segments for the
node/system x early/late panels (Figure 6), and repair-time sample
sketches per cause and per system (Table 2, Figure 7).  Peak memory is
one chunk plus this fixed state, independent of the trace size.

The accumulator is the only implementation of the paper report:
:func:`~repro.report.paper.run_paper_report` folds an in-memory trace
into it as one chunk.

Grouping: a store chunk holds one system, so it goes whole to that
system's repair sketch, and to Figures 3, 4 and 6 only when it is
theirs.  Causes, and the systems of a multi-system chunk (a whole
trace), are grouped by one stable sort cut where the key changes, each
group in row order: every sketch gets the chunks a mask per key gives.
The pooled sketch checks a chunk's repairs once for all of them.

Exactness: everything held as integer counts is exact.  The repair
samples and the Figure 6 start times are kept whole while each holds
at most :data:`~repro.stats.sketch.EXACT_LIMIT` values, so medians,
fits and CDF plots come from the exact sample and every section
renders byte-identical to the in-memory fold.  Float sums (downtime,
the repair total, and the means of the kept samples) follow chunk
order, agreeing with a one-chunk fold to last-ulp rounding.  Past the
limit a sample falls back to its moments and log-bucket histogram,
whose quantiles carry the pinned relative-error bound
(:data:`~repro.stats.sketch.QUANTILE_RELATIVE_ERROR`), and
:meth:`PaperAccumulator.approximate_sections` names the sections that
read one.
"""

from __future__ import annotations

import datetime as _dt
import math
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro import obs
from repro.analysis.errors import DegenerateSampleError
from repro.analysis.lifecycle import (
    LifecycleCurve,
    curve_from_counts,
    month_cause_counts,
)
from repro.analysis.pernode import (
    NodeCountStudy,
    node_count_study_from_counts,
    node_counts_and_workloads,
)
from repro.analysis.periodicity import (
    PeriodicityStudy,
    period_counts,
    periodicity_from_counts,
)
from repro.analysis.rates import SystemRate
from repro.analysis.repair import RepairByCauseRow
from repro.analysis.rootcause import FIGURE1_TYPES, CauseBreakdown, _breakdown
from repro.records.codes import CAUSE_CODE, CAUSE_VOCAB, WORKLOAD_VOCAB
from repro.records.record import HIGH_LEVEL_CAUSES, RootCause, Workload
from repro.records.timeutils import SECONDS_PER_MONTH, from_datetime
from repro.resilience.deadline import Deadline, DeadlineExceeded
from repro.stats.sketch import HeldValues, SampleSketch
from repro.stats.streamfit import sketch_empirical
from repro.store.manifest import Predicate
from repro.store.reader import DEFAULT_BATCH_ROWS, ColumnarStore

__all__ = [
    "FoldCore",
    "PaperAccumulator",
    "GapSegment",
    "scan_store",
    "DEFAULT_ERA_BOUNDARY",
]

#: The paper's era split for Figure 6 (2000-01-01, as in repro.report.paper).
DEFAULT_ERA_BOUNDARY = from_datetime(_dt.datetime(2000, 1, 1))

#: Clamp epsilons matching the materialized fits (fit_all zero_policy
#: "clamp"): 1 s for interarrival gaps, 0.1 min for repair times.
GAP_CLAMP_SECONDS = 1.0
REPAIR_CLAMP_MINUTES = 0.1

_N_CAUSES = len(CAUSE_VOCAB)

#: Figure 6's panels, in order: the node view and the system view,
#: each over the early then the late era.
_FIG6_PANELS = (
    "(a) node view, early era",
    "(b) node view, late era",
    "(c) system view, early era",
    "(d) system view, late era",
)

#: Table 2's column order (paper order, aggregate last).
_TABLE2_ORDER = (
    RootCause.UNKNOWN,
    RootCause.HUMAN,
    RootCause.ENVIRONMENT,
    RootCause.NETWORK,
    RootCause.SOFTWARE,
    RootCause.HARDWARE,
)


def _core_columns(chunk) -> Tuple[np.ndarray, ...]:
    """A chunk's start times, repair seconds, system ids and cause codes."""
    starts = np.asarray(chunk["start_time"], dtype=float)
    repairs = np.asarray(chunk["end_time"], dtype=float) - starts
    systems = np.asarray(chunk["system_id"], dtype=np.int64)
    causes = np.asarray(chunk["root_cause"], dtype=np.int64)
    return starts, repairs, systems, causes


def _grouped(keys: np.ndarray, size: int) -> List[Tuple[int, np.ndarray]]:
    """Each key present in ``keys`` (ints in ``0..size-1``), ascending,
    with its row indices in row order: one stable sort, cut at the
    running key counts.  NumPy sorts 8-bit keys by radix."""
    narrow = np.uint8 if size <= 1 << 8 else keys.dtype
    order = np.argsort(keys.astype(narrow), kind="stable")
    stops = np.cumsum(np.bincount(keys, minlength=size)).tolist()
    bounds = zip([0] + stops, stops)
    return [(key, order[a:b]) for key, (a, b) in enumerate(bounds) if b > a]


def _repair_sketch(sketches: Dict[int, SampleSketch], key: int) -> SampleSketch:
    if key not in sketches:
        sketches[key] = SampleSketch(clamp_epsilon=REPAIR_CLAMP_MINUTES)
    return sketches[key]


class FoldCore:
    """The aggregates every store endpoint reads, from four columns.

    Holds the row count; failures and downtime seconds per system,
    indexed by cause code (:attr:`counts`, :attr:`downtime`); the
    repair-seconds total, minimum and maximum; and the start-time
    range.  Build with :meth:`from_store` and feed chunks to
    :meth:`observe`.
    """

    #: Columns :meth:`observe` reads.
    COLUMNS = ("start_time", "end_time", "system_id", "root_cause")

    def __init__(self) -> None:
        self.rows = 0
        self.counts: Dict[int, np.ndarray] = {}
        self.downtime: Dict[int, np.ndarray] = {}
        self.repair_total = 0.0
        self.repair_min = math.inf
        self.repair_max = -math.inf
        self.start_min = math.inf
        self.start_max = -math.inf

    @classmethod
    def from_store(cls, store: ColumnarStore) -> "FoldCore":
        """An empty fold for a scan of ``store``."""
        return cls()

    def observe(self, chunk) -> None:
        """Fold one column chunk into the state."""
        self._observe_core(*_core_columns(chunk))

    def _observe_core(self, starts, repairs, systems, causes):
        """Fold four columns; return the chunk's system ids and each
        row's index into them (``None`` for an empty chunk)."""
        n = starts.size
        if not n:
            return
        if causes.min() < 0 or causes.max() >= _N_CAUSES:
            raise ValueError(f"root_cause codes outside 0..{_N_CAUSES - 1}")
        self.rows += n
        self.repair_total += float(repairs.sum())
        self.repair_min = min(self.repair_min, float(repairs.min()))
        self.repair_max = max(self.repair_max, float(repairs.max()))
        self.start_min = min(self.start_min, float(starts.min()))
        self.start_max = max(self.start_max, float(starts.max()))
        # One bincount per table over (system, cause) keys.  A store
        # chunk holds one system; ids spread wider than the chunk has
        # rows (damaged ones, say) are ranked, so tables stay O(n).
        low, high = int(systems.min()), int(systems.max())
        if high - low < n:
            ids, index = np.arange(low, high + 1), systems - low
        else:
            ids, index = np.unique(systems, return_inverse=True)
        keys = index * _N_CAUSES + causes
        size = ids.size * _N_CAUSES
        counts = np.bincount(keys, minlength=size).reshape(-1, _N_CAUSES)
        downtime = np.bincount(
            keys, weights=repairs, minlength=size
        ).reshape(-1, _N_CAUSES)
        for row, system_id in enumerate(ids.tolist()):
            if counts[row].any():
                self._add_system(system_id, counts[row], downtime[row])
        return ids, index

    def _add_system(self, system_id: int, counts, downtime) -> None:
        if system_id in self.counts:
            self.counts[system_id] += counts
            self.downtime[system_id] += downtime
        else:
            self.counts[system_id] = counts.copy()
            self.downtime[system_id] = downtime.copy()

    def failures_by_system(self) -> Dict[int, int]:
        """Failures per system seen, in system order."""
        return {
            system_id: int(self.counts[system_id].sum())
            for system_id in sorted(self.counts)
        }

    def cause_totals(
        self, systems: Iterable[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Failures and downtime seconds by cause code over ``systems``.

        Downtime adds up one system at a time in the order given, so
        the same systems in the same order give the same floats.
        """
        counts = np.zeros(_N_CAUSES, dtype=np.int64)
        downtime = np.zeros(_N_CAUSES)
        for system_id in systems:
            if system_id in self.counts:
                counts += self.counts[system_id]
                downtime += self.downtime[system_id]
        return counts, downtime


class GapSegment:
    """Interarrival gaps of one Figure 6 panel's stream of start times.

    While it has seen at most :data:`~repro.stats.sketch.EXACT_LIMIT`
    starts it keeps them (a :class:`~repro.stats.sketch.HeldValues`),
    and :meth:`gaps` differences them after a sort, so rows may arrive
    in any order (an appended shard can hold earlier starts).  Past the
    limit it sketches each consecutive gap as it goes, including the
    gaps that straddle chunk boundaries; that needs the starts in time
    order, and one earlier than the start before it makes :meth:`gaps`
    raise.
    """

    def __init__(self) -> None:
        self.last: Optional[float] = None
        self.ordered = True
        self._starts = HeldValues()
        self._gaps = SampleSketch(clamp_epsilon=GAP_CLAMP_SECONDS)

    @property
    def count(self) -> int:
        """Start times seen."""
        return self._starts.count

    @property
    def exact(self) -> bool:
        """True while :meth:`gaps` holds every gap it sketches."""
        return self._starts.held or self._gaps.exact

    def observe(self, starts: np.ndarray) -> None:
        """Fold one chunk's start times for this stream, in row order."""
        starts = np.asarray(starts, dtype=float)
        if starts.size:
            self._stream(self._starts.add(starts))

    def _stream(self, chunks: List[np.ndarray]) -> None:
        """Sketch the gaps of starts no longer kept, in row order."""
        for starts in chunks:
            if self.last is None:
                gaps = np.diff(starts)
            else:
                gaps = np.diff(starts, prepend=self.last)
            self.last = float(starts[-1])
            if self.ordered and not (gaps < 0).any():
                self._gaps.observe(gaps)
            else:
                self.ordered = False

    def gaps(self) -> SampleSketch:
        """The sketch of every gap between consecutive starts.

        Raises :class:`ValueError` when starts past the exact limit
        arrived out of time order.
        """
        starts = self._starts.values
        if starts is None:
            if not self.ordered:
                raise ValueError(
                    f"start times out of time order among {self.count} "
                    "starts, too many to keep and sort"
                )
            return self._gaps
        gaps = SampleSketch(clamp_epsilon=GAP_CLAMP_SECONDS)
        gaps.observe(np.diff(np.sort(starts)))
        return gaps


class _LifecycleState:
    """Monthly (window x cause) counts for one Figure 4 system."""

    def __init__(self, origin: float, end: float) -> None:
        self.origin = float(origin)
        self.months = int((end - origin) // SECONDS_PER_MONTH) + 1
        self.grid = np.zeros((self.months, _N_CAUSES), dtype=np.int64)
        #: Smallest start time seen; a value before ``origin`` makes the
        #: finisher raise exactly as month_index would mid-iteration.
        self.min_start = np.inf

    def observe(self, starts: np.ndarray, causes: np.ndarray) -> None:
        if starts.size == 0:
            return
        low = float(starts.min())
        if low < self.min_start:
            self.min_start = low
        keep = starts >= self.origin
        if not keep.all():
            starts = starts[keep]
            causes = causes[keep]
        if starts.size == 0:
            return
        self.grid += month_cause_counts(starts, causes, self.origin, self.months)


class PaperAccumulator(FoldCore):
    """Bounded-memory state for the full paper report.

    The report-only state on top of :class:`FoldCore`.  Build with
    :meth:`from_store` (or from a trace's inventory and window), feed
    chunks to :meth:`observe` — a whole trace's ``columns`` is one
    chunk — and read the analysis objects off the
    ``*_rows``/``*_study`` finishers.
    The constructor parameters pin the figure targets (system 20's
    per-node view, systems 5/19's lifecycle curves, the node-22 era
    split) to the paper's defaults.
    """

    COLUMNS = FoldCore.COLUMNS + ("node_id", "workload")

    def __init__(
        self,
        systems,
        data_start: float,
        data_end: float,
        era_boundary: float = DEFAULT_ERA_BOUNDARY,
        fig3_system: int = 20,
        fig4_systems: Tuple[int, ...] = (5, 19),
        fig6_system: int = 20,
        fig6_node: int = 22,
    ) -> None:
        super().__init__()
        self.systems = dict(systems)
        self.data_start = float(data_start)
        self.data_end = float(data_end)
        self.era_boundary = float(era_boundary)
        self.fig3_system = int(fig3_system)
        self.fig4_systems = tuple(int(s) for s in fig4_systems)
        self.fig6_system = int(fig6_system)
        self.fig6_node = int(fig6_node)

        # Figure 5: hour-of-day / day-of-week bins (exact ints).
        self.hourly = np.zeros(24, dtype=np.int64)
        self.weekday = np.zeros(7, dtype=np.int64)
        # Table 2 / Figure 7: repair-minute sketches.
        self.repairs = SampleSketch(clamp_epsilon=REPAIR_CLAMP_MINUTES)
        self.repair_by_cause: Dict[int, SampleSketch] = {}
        self.repair_by_system: Dict[int, SampleSketch] = {}
        # Figure 3: per-node counts, and each node's workload code on
        # its earliest row as (start, code) (system 20).
        self.node_counts: Counter = Counter()
        self.node_workloads: Dict[int, Tuple[float, int]] = {}
        # Figure 4: monthly grids for the systems present in inventory.
        # A production window that misses the data window is Figure 4's
        # error alone: keep its message for lifecycle_curves to raise.
        self.lifecycle: Dict[int, _LifecycleState] = {}
        self.lifecycle_errors: Dict[int, str] = {}
        for system_id in self.fig4_systems:
            config = self.systems.get(system_id)
            if config is None:
                continue
            try:
                window = config.production_window(
                    self.data_start, self.data_end
                )
            except ValueError as exc:
                self.lifecycle_errors[system_id] = str(exc)
                continue
            self.lifecycle[system_id] = _LifecycleState(*window)
        # Figure 6: one gap segment per panel.
        self.gap_segments = tuple(GapSegment() for _ in _FIG6_PANELS)

    @classmethod
    def from_store(cls, store: ColumnarStore) -> "PaperAccumulator":
        """An empty accumulator configured from a store's manifest."""
        return cls(
            store.manifest.systems,
            store.manifest.data_start,
            store.manifest.data_end,
        )

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------

    def observe(self, chunk) -> None:
        """Fold one column chunk (in row order) into the state."""
        if not len(chunk):
            return
        starts, repairs, systems, causes = _core_columns(chunk)
        # Figures 1-2 read the core.
        ids, index = self._observe_core(starts, repairs, systems, causes)
        nodes = np.asarray(chunk["node_id"], dtype=np.int64)
        workloads = np.asarray(chunk["workload"], dtype=np.int64)

        # Figure 5: the same binning as the materialized study.
        hourly, weekday = period_counts(starts)
        self.hourly += hourly
        self.weekday += weekday

        # Table 2 / Figure 7 (minutes, the paper's repair unit).
        minutes = repairs / 60.0
        self.repairs.observe(minutes)
        for code, rows in _grouped(causes, _N_CAUSES):
            _repair_sketch(self.repair_by_cause, code)._add(minutes[rows])
        # A store chunk holds one system: all its rows are that system's.
        groups = _grouped(index, ids.size) if ids.size > 1 else [(0, slice(None))]
        targets = {self.fig3_system, self.fig6_system, *self.lifecycle}
        for row, rows in groups:
            system_id = int(ids[row])
            _repair_sketch(self.repair_by_system, system_id)._add(minutes[rows])
            if system_id in targets:
                self._observe_system(
                    system_id, starts[rows], causes[rows], nodes[rows],
                    workloads[rows],
                )

    def _observe_system(self, system_id, starts, causes, nodes, workloads):
        """Figures 3, 4 and 6 from one system's rows, in row order."""
        if system_id == self.fig3_system:
            counts, earliest = node_counts_and_workloads(
                nodes, starts, workloads
            )
            self.node_counts.update(counts)
            self._keep_earliest(earliest)
        state = self.lifecycle.get(system_id)
        if state is not None:
            state.observe(starts, causes)
        if system_id == self.fig6_system:
            # Each panel's starts, in _FIG6_PANELS order.
            early = (starts >= self.data_start) & (starts < self.era_boundary)
            late = (starts >= self.era_boundary) & (starts < self.data_end)
            node = nodes == self.fig6_node
            for segment, mask in zip(
                self.gap_segments, (node & early, node & late, early, late)
            ):
                segment.observe(starts[mask])

    def _keep_earliest(self, workloads: Dict[int, Tuple[float, int]]) -> None:
        """Take each node's workload from a strictly earlier row."""
        for node_id, (start, code) in workloads.items():
            held = self.node_workloads.get(node_id)
            if held is None or start < held[0]:
                self.node_workloads[node_id] = (start, code)

    # ------------------------------------------------------------------
    # Finishers: exact analysis objects from the streamed state
    # ------------------------------------------------------------------

    def failure_rates(self) -> List[SystemRate]:
        """Figure 2 rates — same floats as the materialized path."""
        rates: List[SystemRate] = []
        by_system = self.failures_by_system()
        for system_id in sorted(self.systems.keys()):
            config = self.systems[system_id]
            years = config.production_years(self.data_start, self.data_end)
            failures = by_system.get(system_id, 0)
            per_year = failures / years
            rates.append(
                SystemRate(
                    system_id=system_id,
                    hardware_type=config.hardware_type,
                    failures=failures,
                    production_years=years,
                    per_year=per_year,
                    per_year_per_proc=per_year / config.processor_count,
                    processors=config.processor_count,
                    nodes=config.node_count,
                )
            )
        return rates

    def cause_breakdowns(
        self,
    ) -> Tuple[Dict[str, CauseBreakdown], Dict[str, CauseBreakdown]]:
        """Figure 1's (failure-count, downtime) breakdown mappings."""
        groups = [
            (
                hardware_type.value,
                sorted(
                    system_id
                    for system_id, config in self.systems.items()
                    if config.hardware_type == hardware_type
                ),
            )
            for hardware_type in FIGURE1_TYPES
        ]
        groups.append(
            ("All systems", sorted(set(self.counts) | set(self.systems)))
        )
        by_count: Dict[str, CauseBreakdown] = {}
        by_downtime: Dict[str, CauseBreakdown] = {}
        for label, group in groups:
            counts, downtime = self.cause_totals(group)
            if label != "All systems" and not counts.any():
                continue  # mirrors the study's len(sub) == 0 skip
            for result, totals in ((by_count, counts), (by_downtime, downtime)):
                result[label] = _breakdown(
                    label,
                    {
                        cause: float(totals[CAUSE_CODE[cause]])
                        for cause in HIGH_LEVEL_CAUSES
                    },
                )
        return by_count, by_downtime

    def failures_per_node(self) -> Dict[int, int]:
        """Figure 3(a) counts, zero-filled over the inventory."""
        config = self.systems.get(self.fig3_system)
        if config is None:
            raise KeyError(f"system {self.fig3_system} not in inventory")
        counts = {node_id: 0 for node_id in range(config.node_count)}
        counts.update(self.node_counts)
        return counts

    def node_share(self, node_ids: Sequence[int]) -> float:
        """Figure 3(a)'s graphics-node share of system failures."""
        counts = self.failures_per_node()
        total = sum(counts.values())
        if total == 0:
            raise DegenerateSampleError(
                f"system {self.fig3_system} has no failures"
            )
        return sum(counts.get(node_id, 0) for node_id in node_ids) / total

    def node_count_study(self) -> NodeCountStudy:
        """Figure 3(b)'s compute-node count study (bit-identical)."""
        config = self.systems.get(self.fig3_system)
        if config is None:
            raise KeyError(f"system {self.fig3_system} not in inventory")
        workloads: Dict[int, Workload] = {
            node_id: WORKLOAD_VOCAB[code]
            for node_id, (_, code) in self.node_workloads.items()
        }
        return node_count_study_from_counts(
            config,
            self.data_start,
            self.data_end,
            self.fig3_system,
            self.failures_per_node(),
            workloads,
        )

    def lifecycle_curves(self) -> List[Tuple[int, LifecycleCurve]]:
        """Figure 4's per-system monthly curves (exact ints)."""
        curves: List[Tuple[int, LifecycleCurve]] = []
        for system_id in self.fig4_systems:
            if system_id in self.lifecycle_errors:
                raise ValueError(self.lifecycle_errors[system_id])
            state = self.lifecycle.get(system_id)
            if state is None:
                raise KeyError(system_id)
            if state.min_start < state.origin:
                # The record iteration of monthly_failures would have
                # hit this record first (traces are start-sorted).
                raise ValueError(
                    f"timestamp {state.min_start} precedes origin "
                    f"{state.origin}"
                )
            curves.append((system_id, curve_from_counts(system_id, state.grid)))
        return curves

    def periodicity(self) -> PeriodicityStudy:
        """Figure 5's study from the exact hour/weekday bins."""
        return periodicity_from_counts(self.hourly, self.weekday)

    def _repair_row(
        self, cause: Optional[RootCause], sketch: SampleSketch
    ) -> RepairByCauseRow:
        summary = sketch_empirical(sketch)
        return RepairByCauseRow(
            cause=cause,
            n=summary.count,
            mean=summary.mean,
            median=summary.median,
            std=summary.std,
            squared_cv=summary.squared_cv,
        )

    def repair_rows(self) -> List[RepairByCauseRow]:
        """Table 2's rows (paper cause order, aggregate last)."""
        rows: List[RepairByCauseRow] = []
        for cause in _TABLE2_ORDER:
            sketch = self.repair_by_cause.get(CAUSE_CODE[cause])
            if sketch is not None and sketch.count >= 2:
                rows.append(self._repair_row(cause, sketch))
        if self.repairs.count < 2:
            raise DegenerateSampleError(
                "trace has too few records for repair statistics"
            )
        rows.append(self._repair_row(None, self.repairs))
        return rows

    def repairs_by_system(
        self, minimum_records: int = 5
    ) -> Dict[int, RepairByCauseRow]:
        """Figure 7(b,c)'s per-system repair rows."""
        result: Dict[int, RepairByCauseRow] = {}
        for system_id in sorted(self.repair_by_system):
            sketch = self.repair_by_system[system_id]
            if sketch.count >= minimum_records:
                result[system_id] = self._repair_row(None, sketch)
        return result

    def interarrival_segments(self) -> List[Tuple[str, str, GapSegment]]:
        """Figure 6's panels as ``(panel, label, segment)``, in order.

        Mirrors ``split_eras``'s window validation before returning.
        """
        if self.era_boundary <= self.data_start:
            raise ValueError(
                f"empty window [{self.data_start}, {self.era_boundary})"
            )
        if self.data_end <= self.era_boundary:
            raise ValueError(
                f"empty window [{self.era_boundary}, {self.data_end})"
            )
        node_label = f"system {self.fig6_system} node {self.fig6_node}"
        system_label = f"system {self.fig6_system} (system-wide)"
        labels = (node_label, node_label, system_label, system_label)
        return list(zip(_FIG6_PANELS, labels, self.gap_segments))

    def approximate_sections(self) -> Tuple[str, ...]:
        """The sections that read a sample past
        :data:`~repro.stats.sketch.EXACT_LIMIT` off its histogram."""
        reads = {
            "fig6": self.gap_segments,
            "table2": (self.repairs, *self.repair_by_cause.values()),
            "fig7": (self.repairs, *self.repair_by_system.values()),
        }
        return tuple(
            name for name, samples in reads.items()
            if not all(sample.exact for sample in samples)
        )


def scan_store(
    store: ColumnarStore,
    fold: Type[FoldCore],
    *,
    predicate: Optional[Predicate] = None,
    deadline: Optional[Deadline] = None,
    on_deadline: str = "raise",
    batch_rows: int = DEFAULT_BATCH_ROWS,
) -> Tuple[FoldCore, Optional[dict]]:
    """Fold the rows of ``store`` that ``predicate`` admits into a new
    ``fold``; returns ``(fold, partial)``.

    The one scan loop of the store's analytics: every admitted chunk is
    folded in the calling process, in manifest order.  It resets the
    handle's scan counters first, so they count exactly this pass.  A
    deadline is checked at chunk boundaries: with ``on_deadline="raise"``
    a blown budget propagates as
    :class:`~repro.resilience.deadline.DeadlineExceeded`; with
    ``"partial"`` the scan stops and the second element describes the
    truncation — a partial answer, never a hang.
    """
    if on_deadline not in ("raise", "partial"):
        raise ValueError(
            f"on_deadline must be 'raise' or 'partial', got {on_deadline!r}"
        )
    store.reset_scan_stats()
    accumulator = fold.from_store(store)
    partial: Optional[dict] = None
    with obs.span("store.scan", fold=fold.__name__):
        try:
            for chunk in store.iter_batches(
                columns=accumulator.COLUMNS,
                predicate=predicate,
                batch_rows=batch_rows,
                deadline=deadline,
            ):
                accumulator.observe(chunk)
        except DeadlineExceeded:
            if on_deadline == "raise":
                raise
            partial = {
                "reason": "deadline-exceeded",
                "rows_seen": accumulator.rows,
                "rows_total": store.manifest.row_count,
            }
            obs.metrics().counter("store.scans_deadline_partial").add(1)
    obs.metrics().counter("store.rows_folded").add(accumulator.rows)
    return accumulator, partial
