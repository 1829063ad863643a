"""Out-of-core paper analysis: one streaming pass, mergeable state.

:class:`PaperAccumulator` folds bounded column chunks from
:meth:`~repro.store.reader.ColumnarStore.iter_batches` into the
mergeable sketches of :mod:`repro.stats.sketch`, carrying *everything*
the full paper report needs — per-system/per-cause counts and downtime
(Figures 1-2), per-node counts and first-seen workloads for system 20
(Figure 3), monthly lifecycle grids (Figure 4), hour/weekday bins
(Figure 5), interarrival-gap segments for the node/system x early/late
panels (Figure 6), and repair-time sample sketches per cause and per
system (Table 2, Figure 7).  Peak memory is one chunk plus this fixed
state, independent of the trace size.

Exactness: everything held as integer counts is exact, so the sections
derived from counts alone render byte-identical to the materialized
path.  Float sums (downtime, moments) are exact in the counting sense
but follow chunk/merge order, agreeing to last-ulp rounding; sketched
quantiles carry the histogram's pinned relative-error bound
(:data:`~repro.stats.sketch.QUANTILE_RELATIVE_ERROR`).

Two accumulators over *adjacent* row ranges combine with
:meth:`PaperAccumulator.merge_ordered` — order matters only for the
order-sensitive state (first-seen workloads, boundary interarrival
gaps), which is why the parallel scan hands each worker a contiguous
slice of the manifest and folds results back in manifest order.
"""

from __future__ import annotations

import datetime as _dt
from typing import Dict, List, Optional, Sequence, Tuple

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
    first_workloads,
    node_count_study_from_counts,
)
from repro.analysis.periodicity import (
    PeriodicityStudy,
    hour_counts,
    periodicity_from_counts,
    weekday_counts,
)
from repro.analysis.rates import SystemRate, variability_from_rates
from repro.analysis.repair import RepairByCauseRow
from repro.analysis.rootcause import FIGURE1_TYPES, CauseBreakdown, _breakdown
from repro.records.codes import CAUSE_CODE, CAUSE_VOCAB, WORKLOAD_VOCAB
from repro.records.record import HIGH_LEVEL_CAUSES, RootCause, Workload
from repro.records.timeutils import SECONDS_PER_MONTH, from_datetime
from repro.resilience.deadline import Deadline, DeadlineExceeded
from repro.resilience.supervisor import supervised_map
from repro.stats.sketch import GroupedCounts, GroupedSums, SampleSketch
from repro.stats.streamfit import sketch_empirical
from repro.store.manifest import StoreError
from repro.store.reader import DEFAULT_BATCH_ROWS, ColumnarStore

__all__ = [
    "PaperAccumulator",
    "GapSegment",
    "scan_store",
    "DEFAULT_ERA_BOUNDARY",
    "REPORT_COLUMNS",
]

#: Columns one report pass needs per chunk.
REPORT_COLUMNS = (
    "start_time", "end_time", "system_id", "node_id", "root_cause",
    "workload",
)

#: The paper's era split for Figure 6 (2000-01-01, as in repro.report.paper).
DEFAULT_ERA_BOUNDARY = from_datetime(_dt.datetime(2000, 1, 1))

#: Clamp epsilons matching the materialized fits (fit_all zero_policy
#: "clamp"): 1 s for interarrival gaps, 0.1 min for repair times.
GAP_CLAMP_SECONDS = 1.0
REPAIR_CLAMP_MINUTES = 0.1

_N_CAUSES = len(CAUSE_VOCAB)

#: Table 2's column order (paper order, aggregate last).
_TABLE2_ORDER = (
    RootCause.UNKNOWN,
    RootCause.HUMAN,
    RootCause.ENVIRONMENT,
    RootCause.NETWORK,
    RootCause.SOFTWARE,
    RootCause.HARDWARE,
)


class GapSegment:
    """Streaming interarrival gaps of one ordered record stream.

    Feed it each chunk's (already sorted) start times for one Figure 6
    panel; it tracks the first/last timestamp and sketches every
    consecutive gap, including the gaps that straddle chunk — and,
    via :meth:`merge_after` — worker boundaries.
    """

    def __init__(self) -> None:
        self.count = 0
        self.first: Optional[float] = None
        self.last: Optional[float] = None
        self.gaps = SampleSketch(clamp_epsilon=GAP_CLAMP_SECONDS)

    def observe_sorted(self, starts: np.ndarray) -> None:
        """Fold one chunk's sorted start times for this stream."""
        starts = np.asarray(starts, dtype=float)
        if starts.size == 0:
            return
        if self.count:
            self.gaps.observe(np.asarray([float(starts[0]) - self.last]))
        else:
            self.first = float(starts[0])
        if starts.size > 1:
            self.gaps.observe(np.diff(starts))
        self.last = float(starts[-1])
        self.count += int(starts.size)

    def merge_after(self, other: "GapSegment") -> None:
        """Append a segment covering strictly later rows."""
        if other.count == 0:
            return
        if self.count:
            self.gaps.observe(np.asarray([other.first - self.last]))
        else:
            self.first = other.first
        self.gaps.merge(other.gaps)
        self.last = other.last
        self.count += other.count


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

    def merge(self, other: "_LifecycleState") -> None:
        self.grid += other.grid
        self.min_start = min(self.min_start, other.min_start)


class PaperAccumulator:
    """Mergeable bounded-memory state for the full paper report.

    Build with :meth:`from_store`, feed chunks to :meth:`observe`, and
    read the analysis objects off the ``*_rows``/``*_study`` finishers.
    The constructor parameters pin the figure targets (system 20's
    per-node view, systems 5/19's lifecycle curves, the node-22 era
    split) to the paper's defaults.
    """

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
        self.systems = dict(systems)
        self.data_start = float(data_start)
        self.data_end = float(data_end)
        self.era_boundary = float(era_boundary)
        self.fig3_system = int(fig3_system)
        self.fig4_systems = tuple(int(s) for s in fig4_systems)
        self.fig6_system = int(fig6_system)
        self.fig6_node = int(fig6_node)

        self.rows = 0
        # Figure 5: hour-of-day / day-of-week bins (exact ints).
        self.hourly = np.zeros(24, dtype=np.int64)
        self.weekday = np.zeros(7, dtype=np.int64)
        # Figures 1-2: counts and downtime per (system, cause).
        self.cause_counts = GroupedCounts()
        self.cause_downtime = GroupedSums()
        # Table 2 / Figure 7: repair-minute sketches.
        self.repairs = SampleSketch(clamp_epsilon=REPAIR_CLAMP_MINUTES)
        self.repair_by_cause: Dict[int, SampleSketch] = {}
        self.repair_by_system: Dict[int, SampleSketch] = {}
        # Figure 3: per-node counts + first-seen workloads (system 20).
        self.node_counts = GroupedCounts()
        self.node_workloads: Dict[int, int] = {}
        # Figure 4: monthly grids for the systems present in inventory.
        self.lifecycle: Dict[int, _LifecycleState] = {}
        for system_id in self.fig4_systems:
            config = self.systems.get(system_id)
            if config is not None:
                start, end = config.production_window(
                    self.data_start, self.data_end
                )
                self.lifecycle[system_id] = _LifecycleState(start, end)
        # Figure 6: four gap segments (node/system x early/late).
        self.gap_node_early = GapSegment()
        self.gap_node_late = GapSegment()
        self.gap_system_early = GapSegment()
        self.gap_system_late = GapSegment()

    @classmethod
    def from_store(
        cls, store: ColumnarStore, era_boundary: float = DEFAULT_ERA_BOUNDARY
    ) -> "PaperAccumulator":
        """An empty accumulator configured from a store's manifest."""
        return cls(
            store.manifest.systems,
            store.manifest.data_start,
            store.manifest.data_end,
            era_boundary=era_boundary,
        )

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------

    def observe(self, chunk) -> None:
        """Fold one column chunk (in row order) into the state."""
        n = len(chunk)
        if not n:
            return
        starts = np.asarray(chunk["start_time"], dtype=float)
        ends = np.asarray(chunk["end_time"], dtype=float)
        systems = np.asarray(chunk["system_id"], dtype=np.int64)
        nodes = np.asarray(chunk["node_id"], dtype=np.int64)
        causes = np.asarray(chunk["root_cause"], dtype=np.int64)
        workloads = np.asarray(chunk["workload"], dtype=np.int64)
        self.rows += n

        # Figure 5: the same binning as the materialized study.
        self.hourly += hour_counts(starts)
        self.weekday += weekday_counts(starts)

        # Figures 1-2.
        self.cause_counts.observe(systems, causes)
        repairs = ends - starts
        self.cause_downtime.observe(repairs, systems, causes)

        # Table 2 / Figure 7 (minutes, the paper's repair unit).
        minutes = repairs / 60.0
        self.repairs.observe(minutes)
        for code in np.unique(causes).tolist():
            sketch = self.repair_by_cause.get(int(code))
            if sketch is None:
                sketch = SampleSketch(clamp_epsilon=REPAIR_CLAMP_MINUTES)
                self.repair_by_cause[int(code)] = sketch
            sketch.observe(minutes[causes == code])
        for system_id in np.unique(systems).tolist():
            sketch = self.repair_by_system.get(int(system_id))
            if sketch is None:
                sketch = SampleSketch(clamp_epsilon=REPAIR_CLAMP_MINUTES)
                self.repair_by_system[int(system_id)] = sketch
            sketch.observe(minutes[systems == system_id])

        # Figure 3: per-node counts and first-seen workload, system 20.
        mask3 = systems == self.fig3_system
        if mask3.any():
            fig3_nodes = nodes[mask3]
            self.node_counts.observe(fig3_nodes)
            for node_id, code in first_workloads(
                fig3_nodes, workloads[mask3]
            ).items():
                self.node_workloads.setdefault(node_id, code)

        # Figure 4.
        for system_id, state in self.lifecycle.items():
            mask4 = systems == system_id
            if mask4.any():
                state.observe(starts[mask4], causes[mask4])

        # Figure 6: the four era/view segments.
        mask6 = systems == self.fig6_system
        if mask6.any():
            seg_starts = starts[mask6]
            seg_nodes = nodes[mask6]
            early = (seg_starts >= self.data_start) & (
                seg_starts < self.era_boundary
            )
            late = (seg_starts >= self.era_boundary) & (
                seg_starts < self.data_end
            )
            node_mask = seg_nodes == self.fig6_node
            self.gap_node_early.observe_sorted(seg_starts[node_mask & early])
            self.gap_node_late.observe_sorted(seg_starts[node_mask & late])
            self.gap_system_early.observe_sorted(seg_starts[early])
            self.gap_system_late.observe_sorted(seg_starts[late])

    def merge_ordered(self, other: "PaperAccumulator") -> None:
        """Fold in an accumulator covering strictly *later* rows.

        The order-sensitive state — first-seen workloads (left wins)
        and the interarrival gap that straddles the boundary — assumes
        ``other`` scanned a later contiguous slice of the manifest.
        """
        if (
            other.data_start != self.data_start
            or other.data_end != self.data_end
            or other.era_boundary != self.era_boundary
        ):
            raise ValueError(
                "cannot merge accumulators configured over different "
                "data windows or era boundaries"
            )
        self.rows += other.rows
        self.hourly += other.hourly
        self.weekday += other.weekday
        self.cause_counts.merge(other.cause_counts)
        self.cause_downtime.merge(other.cause_downtime)
        self.repairs.merge(other.repairs)
        for code, sketch in other.repair_by_cause.items():
            mine = self.repair_by_cause.get(code)
            if mine is None:
                self.repair_by_cause[code] = sketch.copy()
            else:
                mine.merge(sketch)
        for system_id, sketch in other.repair_by_system.items():
            mine = self.repair_by_system.get(system_id)
            if mine is None:
                self.repair_by_system[system_id] = sketch.copy()
            else:
                mine.merge(sketch)
        self.node_counts.merge(other.node_counts)
        for node_id, code in other.node_workloads.items():
            self.node_workloads.setdefault(node_id, code)
        for system_id, state in self.lifecycle.items():
            state.merge(other.lifecycle[system_id])
        self.gap_node_early.merge_after(other.gap_node_early)
        self.gap_node_late.merge_after(other.gap_node_late)
        self.gap_system_early.merge_after(other.gap_system_early)
        self.gap_system_late.merge_after(other.gap_system_late)

    # ------------------------------------------------------------------
    # Finishers: exact analysis objects from the streamed state
    # ------------------------------------------------------------------

    def system_failures(self, system_id: int) -> int:
        """Exact failure count for one system."""
        return sum(
            self.cause_counts.get(system_id, code)
            for code in range(_N_CAUSES)
        )

    def failure_rates(self) -> List[SystemRate]:
        """Figure 2 rates — same floats as the materialized path."""
        rates: List[SystemRate] = []
        for system_id in sorted(self.systems.keys()):
            config = self.systems[system_id]
            years = config.production_years(self.data_start, self.data_end)
            failures = self.system_failures(system_id)
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

    def variability(self) -> Dict[str, float]:
        """Figure 2's CV footer from the exact rates."""
        return variability_from_rates(self.failure_rates())

    def cause_breakdowns(
        self,
    ) -> Tuple[Dict[str, CauseBreakdown], Dict[str, CauseBreakdown]]:
        """Figure 1's (failure-count, downtime) breakdown mappings."""
        by_count: Dict[str, CauseBreakdown] = {}
        by_downtime: Dict[str, CauseBreakdown] = {}
        for hardware_type in FIGURE1_TYPES:
            group = sorted(
                system_id
                for system_id, config in self.systems.items()
                if config.hardware_type == hardware_type
            )
            counts = {
                cause: float(
                    sum(
                        self.cause_counts.get(system_id, CAUSE_CODE[cause])
                        for system_id in group
                    )
                )
                for cause in HIGH_LEVEL_CAUSES
            }
            if sum(counts.values()) == 0:  # mirrors len(sub) == 0 skip
                continue
            downtime = {
                cause: sum(
                    self.cause_downtime.get(system_id, CAUSE_CODE[cause])
                    for system_id in group
                )
                for cause in HIGH_LEVEL_CAUSES
            }
            by_count[hardware_type.value] = _breakdown(
                hardware_type.value, counts
            )
            by_downtime[hardware_type.value] = _breakdown(
                hardware_type.value, downtime
            )
        everything = sorted(
            {key[0] for key in self.cause_counts.counts}
            | set(self.systems.keys())
        )
        overall_counts = {
            cause: float(
                sum(
                    self.cause_counts.get(system_id, CAUSE_CODE[cause])
                    for system_id in everything
                )
            )
            for cause in HIGH_LEVEL_CAUSES
        }
        overall_downtime = {
            cause: sum(
                self.cause_downtime.get(system_id, CAUSE_CODE[cause])
                for system_id in everything
            )
            for cause in HIGH_LEVEL_CAUSES
        }
        by_count["All systems"] = _breakdown("All systems", overall_counts)
        by_downtime["All systems"] = _breakdown(
            "All systems", overall_downtime
        )
        return by_count, by_downtime

    def failures_per_node(self) -> Dict[int, int]:
        """Figure 3(a) counts, zero-filled over the inventory."""
        config = self.systems.get(self.fig3_system)
        if config is None:
            raise KeyError(f"system {self.fig3_system} not in inventory")
        counts = {node_id: 0 for node_id in range(config.node_count)}
        for (node_id,), count in self.node_counts.counts.items():
            counts[node_id] = counts.get(node_id, 0) + count
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
            for node_id, code in self.node_workloads.items()
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
        return [
            ("(a) node view, early era", node_label, self.gap_node_early),
            ("(b) node view, late era", node_label, self.gap_node_late),
            ("(c) system view, early era", system_label,
             self.gap_system_early),
            ("(d) system view, late era", system_label, self.gap_system_late),
        ]


def _scan_shard_group(payload) -> PaperAccumulator:
    """Worker task: fold one contiguous manifest slice (picklable)."""
    root, indices, batch_rows, era_boundary = payload
    store = ColumnarStore(root, on_damage="raise")
    accumulator = PaperAccumulator.from_store(store, era_boundary=era_boundary)
    for chunk in store.iter_batches(
        columns=REPORT_COLUMNS, batch_rows=batch_rows, shards=list(indices)
    ):
        accumulator.observe(chunk)
    return accumulator


def scan_store(
    store: ColumnarStore,
    *,
    deadline: Optional[Deadline] = None,
    on_deadline: str = "raise",
    workers: Optional[int] = None,
    batch_rows: int = DEFAULT_BATCH_ROWS,
    era_boundary: float = DEFAULT_ERA_BOUNDARY,
) -> Tuple[PaperAccumulator, Optional[dict]]:
    """One report pass over ``store``; returns ``(accumulator, partial)``.

    Serial by default.  ``workers > 1`` (without a deadline) splits the
    healthy shards into contiguous manifest slices, folds each in a
    supervised worker process via
    :func:`~repro.resilience.supervisor.supervised_map`, and merges the
    partial accumulators back in manifest order — the associative-merge
    step that keeps order-sensitive state correct.  A deadline forces
    the serial path (chunk-boundary budget checks need one scan loop);
    with ``on_deadline="partial"`` a blown budget stops the scan cleanly
    and the second element describes the truncation, mirroring
    :func:`repro.store.analytics.summarize_store`.
    """
    if on_deadline not in ("raise", "partial"):
        raise ValueError(
            f"on_deadline must be 'raise' or 'partial', got {on_deadline!r}"
        )
    store.reset_scan_stats()
    accumulator = PaperAccumulator.from_store(store, era_boundary=era_boundary)
    if workers is not None and workers > 1 and deadline is None:
        healthy = store._healthy(store._admitted(None))
        if healthy:
            position = {
                shard.name: index
                for index, shard in enumerate(store.manifest.shards)
            }
            indices = np.asarray([position[shard.name] for shard in healthy])
            groups = [
                group for group in np.array_split(
                    indices, min(int(workers), len(healthy))
                )
                if group.size
            ]
            keys = [f"group-{index}" for index in range(len(groups))]
            with obs.span("report.scan", mode="parallel", groups=len(groups)):
                results = supervised_map(
                    _scan_shard_group,
                    [
                        (
                            str(store.root),
                            tuple(int(i) for i in group),
                            batch_rows,
                            era_boundary,
                        )
                        for group in groups
                    ],
                    workers=len(groups),
                    keys=keys,
                )
            for key in keys:
                part = results.get(key)
                if part is None:
                    raise StoreError(
                        f"parallel report scan failed for shard {key}"
                    )
                accumulator.merge_ordered(part)
        obs.metrics().counter("report.rows_scanned").add(accumulator.rows)
        return accumulator, None
    partial: Optional[dict] = None
    with obs.span("report.scan", mode="serial"):
        try:
            for chunk in store.iter_batches(
                columns=REPORT_COLUMNS,
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
            obs.metrics().counter("report.scans_deadline_partial").add(1)
    obs.metrics().counter("report.rows_scanned").add(accumulator.rows)
    return accumulator, partial
