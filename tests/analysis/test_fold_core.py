"""The fold core: what every store endpoint reads, chunked == single pass.

:class:`~repro.analysis.outofcore.FoldCore` holds failures and downtime
per (system, cause) from one bincount per table per chunk.  Counts,
extrema and the row count must equal a per-row tally exactly, however
the rows are chunked; float sums agree to rounding.  System
ids spread wider than a chunk has rows (a damaged column, say) are
ranked rather than indexed, so the tables stay the size of the chunk.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.outofcore import FoldCore, scan_store
from repro.records.codes import CAUSE_VOCAB
from repro.records.columns import ColumnBatch
from repro.store import ColumnarStore, Predicate, store_from_trace

_N_CAUSES = len(CAUSE_VOCAB)

rows = st.lists(
    st.tuples(
        st.integers(1, 30) | st.just(2**31 - 1),
        st.integers(0, _N_CAUSES - 1),
        st.floats(0.0, 3e8, allow_nan=False),
        st.floats(0.0, 1e6, allow_nan=False),
    ),
    max_size=80,
)


def _chunk(part) -> ColumnBatch:
    systems, causes, starts, repairs = (
        np.asarray(part, dtype=np.float64).reshape(-1, 4).T
    )
    return ColumnBatch(
        {
            "start_time": starts,
            "end_time": starts + repairs,
            "system_id": systems.astype(np.int32),
            "root_cause": causes.astype(np.int8),
        }
    )


def _fold(*parts) -> FoldCore:
    core = FoldCore()
    for part in parts:
        core.observe(_chunk(part))
    return core


def _counts(core: FoldCore) -> dict:
    return {system: table.tolist() for system, table in core.counts.items()}


class TestFoldCore:
    @settings(max_examples=100, deadline=None)
    @given(rows=rows, fraction=st.floats(0.0, 1.0))
    def test_merge_equals_single_pass(self, rows, fraction):
        cut = int(len(rows) * fraction)
        whole = _fold(rows)
        chunked = _fold(rows[:cut], rows[cut:])
        assert chunked.rows == whole.rows == len(rows)
        assert _counts(chunked) == _counts(whole)
        assert (chunked.repair_min, chunked.repair_max) == (
            whole.repair_min, whole.repair_max
        )
        assert (chunked.start_min, chunked.start_max) == (
            whole.start_min, whole.start_max
        )
        assert chunked.repair_total == pytest.approx(whole.repair_total)
        for system, downtime in whole.downtime.items():
            assert chunked.downtime[system] == pytest.approx(downtime)

    @settings(max_examples=100, deadline=None)
    @given(rows=rows)
    def test_tables_match_a_row_tally(self, rows):
        core = _fold(rows)
        chunk = _chunk(rows)
        repairs = chunk["end_time"] - chunk["start_time"]
        counts, downtime = {}, {}
        for (system, cause, _, _), repair in zip(rows, repairs.tolist()):
            counts.setdefault(system, [0] * _N_CAUSES)[cause] += 1
            downtime.setdefault(system, [0.0] * _N_CAUSES)[cause] += repair
        assert _counts(core) == counts
        for system, sums in downtime.items():
            assert core.downtime[system].tolist() == pytest.approx(sums)
        assert core.failures_by_system() == {
            system: sum(table) for system, table in sorted(counts.items())
        }
        totals, _ = core.cause_totals(sorted(counts))
        assert totals.tolist() == [
            sum(table[code] for table in counts.values())
            for code in range(_N_CAUSES)
        ]

    def test_empty_fold(self):
        core = _fold([])
        assert core.rows == 0 and core.counts == {}
        assert core.failures_by_system() == {}
        counts, downtime = core.cause_totals([1, 2])
        assert not counts.any() and not downtime.any()

    def test_cause_code_outside_the_vocabulary_raises(self):
        with pytest.raises(ValueError, match="root_cause codes"):
            _fold([(1, _N_CAUSES, 0.0, 1.0)])
        with pytest.raises(ValueError, match="root_cause codes"):
            _fold([(1, -1, 0.0, 1.0)])


class TestScanStore:
    def test_parallel_scan_applies_the_predicate(self, tmp_path, small_trace):
        store_from_trace(small_trace, tmp_path / "store", shard_rows=100)
        store = ColumnarStore(tmp_path / "store")
        # A window start inside system 13's first shard, so the scan
        # must mask rows, not just prune shards.
        starts = small_trace.filter_systems([13]).columns["start_time"]
        t_min = float(starts[len(starts) // 3])
        predicate = Predicate.build(systems=[13], t_min=t_min)
        folded, partial = scan_store(store, FoldCore, predicate=predicate)
        assert partial is None
        assert store.scan.shards_pruned > 0
        assert store.scan.rows_matched < store.scan.rows_scanned
        admitted = small_trace.filter(
            lambda record: record.system_id == 13 and record.start_time >= t_min
        )
        want = FoldCore()
        want.observe(admitted.columns)
        assert folded.rows == want.rows == int((starts >= t_min).sum()) > 0
        assert _counts(folded) == _counts(want)
        assert list(folded.counts) == [13]
