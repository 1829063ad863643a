"""The paper accumulator's fold with one mask per key, as a test oracle.

:class:`ReferenceFold` is a
:class:`~repro.analysis.outofcore.PaperAccumulator` whose ``observe``
splits every chunk by cause and by system with ``np.unique`` and one
boolean mask per key, compares every row with the figure targets, and
bins hours and weekdays with float modulo arithmetic.  Every sketch it
feeds validates its own slice.  The accumulator's fold must leave the
same state, bit for bit, and raise the same exception types and
messages, in the same order.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.outofcore import (
    REPAIR_CLAMP_MINUTES,
    PaperAccumulator,
    _core_columns,
)
from repro.records.timeutils import (
    _EPOCH_WEEKDAY,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
)
from repro.stats.sketch import SampleSketch


def hour_counts(starts: np.ndarray) -> np.ndarray:
    """Start times per hour of day, by float modulo."""
    hours = ((starts % SECONDS_PER_DAY) // SECONDS_PER_HOUR).astype(np.int64)
    return np.bincount(hours, minlength=24)


def weekday_counts(starts: np.ndarray) -> np.ndarray:
    """Start times per weekday, Monday first, by float division."""
    days = ((starts // SECONDS_PER_DAY).astype(np.int64) + _EPOCH_WEEKDAY) % 7
    return np.bincount(days, minlength=7)


def earliest_workloads(nodes, starts, workloads):
    """Each node's ``(start, workload code)`` on its earliest row."""
    order = np.lexsort((starts, nodes))
    rows = order[np.unique(nodes[order], return_index=True)[1]]
    pairs = zip(starts[rows].tolist(), workloads[rows].tolist())
    return dict(zip(nodes[rows].tolist(), pairs))


class ReferenceFold(PaperAccumulator):
    """A :class:`PaperAccumulator` folding each chunk key by key."""

    def observe(self, chunk) -> None:
        if not len(chunk):
            return
        starts, repairs, systems, causes = _core_columns(chunk)
        self._observe_core(starts, repairs, systems, causes)
        nodes = np.asarray(chunk["node_id"], dtype=np.int64)
        workloads = np.asarray(chunk["workload"], dtype=np.int64)

        self.hourly += hour_counts(starts)
        self.weekday += weekday_counts(starts)

        minutes = repairs / 60.0
        self.repairs.observe(minutes)
        for sketches, keys in (
            (self.repair_by_cause, causes),
            (self.repair_by_system, systems),
        ):
            for key in np.unique(keys).tolist():
                sketch = sketches.get(key)
                if sketch is None:
                    sketch = SampleSketch(clamp_epsilon=REPAIR_CLAMP_MINUTES)
                    sketches[key] = sketch
                sketch.observe(minutes[keys == key])

        mask3 = systems == self.fig3_system
        if mask3.any():
            fig3_nodes = nodes[mask3]
            for node_id in fig3_nodes.tolist():
                self.node_counts[node_id] = self.node_counts.get(node_id, 0) + 1
            self._keep_earliest(
                earliest_workloads(
                    fig3_nodes, starts[mask3], workloads[mask3]
                )
            )

        for system_id, state in self.lifecycle.items():
            mask4 = systems == system_id
            if mask4.any():
                state.observe(starts[mask4], causes[mask4])

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
            for segment, mask in zip(
                self.gap_segments,
                (node_mask & early, node_mask & late, early, late),
            ):
                segment.observe(seg_starts[mask])
