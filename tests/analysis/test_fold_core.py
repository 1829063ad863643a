"""The fold core: what every store endpoint reads, merge == single pass.

:class:`~repro.analysis.outofcore.FoldCore` holds failures and downtime
per (system, cause) from one bincount per table per chunk.  Counts,
extrema and the row count must equal a per-row tally exactly, however
the rows are chunked and merged; float sums agree to rounding.  System
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
from repro.store.manifest import StoreError
from repro.synth import TraceGenerator

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


class _DiskGoneAway(Predicate):
    """A predicate whose row mask fails in the worker, as a read from a
    vanished disk would."""

    def mask(self, batch):
        raise OSError("disk went away")


class TestFoldCore:
    @settings(max_examples=100, deadline=None)
    @given(rows=rows, fraction=st.floats(0.0, 1.0))
    def test_merge_equals_single_pass(self, rows, fraction):
        cut = int(len(rows) * fraction)
        whole = _fold(rows)
        left, right = _fold(rows[:cut]), _fold(rows[cut:])
        left.merge_ordered(right)
        chunked = _fold(rows[:cut], rows[cut:])
        for core in (left, chunked):
            assert core.rows == whole.rows == len(rows)
            assert _counts(core) == _counts(whole)
            assert (core.repair_min, core.repair_max) == (
                whole.repair_min, whole.repair_max
            )
            assert (core.start_min, core.start_max) == (
                whole.start_min, whole.start_max
            )
            assert core.repair_total == pytest.approx(whole.repair_total)
            for system, downtime in whole.downtime.items():
                assert core.downtime[system] == pytest.approx(downtime)

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
        # A window start inside system 13's first shard, so the workers
        # must mask rows, not just prune shards.
        starts = small_trace.filter_systems([13]).columns["start_time"]
        t_min = float(starts[len(starts) // 3])
        predicate = Predicate.build(systems=[13], t_min=t_min)
        serial, _ = scan_store(store, FoldCore, predicate=predicate)
        parallel, partial = scan_store(
            store, FoldCore, predicate=predicate, workers=2
        )
        assert serial.rows == int((starts >= t_min).sum()) > 0
        assert partial is None
        assert parallel.rows == serial.rows
        assert _counts(parallel) == _counts(serial)
        assert list(parallel.counts) == [13]

    def test_parallel_scan_failure_names_shards_and_error(
        self, tmp_path, small_trace
    ):
        store_from_trace(small_trace, tmp_path / "store", shard_rows=100)
        store = ColumnarStore(tmp_path / "store")
        predicate = _DiskGoneAway(systems=frozenset({2, 13}))
        with pytest.raises(StoreError) as caught:
            scan_store(store, FoldCore, predicate=predicate, workers=2)
        message = str(caught.value)
        assert "group-" not in message
        assert store.manifest.shards[0].name in message
        assert "after 3 attempt(s): OSError: disk went away" in message

    def test_one_admitted_shard_scans_without_a_pool(
        self, tmp_path, monkeypatch
    ):
        trace = TraceGenerator(seed=5).generate([2, 13, 20])
        store_from_trace(trace, tmp_path / "store")
        store = ColumnarStore(tmp_path / "store")
        predicate = Predicate.build(systems=[20])
        assert len(store._admitted(predicate)) == 1
        serial, _ = scan_store(store, FoldCore, predicate=predicate)

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-group scan built a process pool")

        monkeypatch.setattr(
            "repro.resilience.supervisor.ProcessPoolExecutor", no_pool
        )
        parallel, _ = scan_store(
            store, FoldCore, predicate=predicate, workers=2
        )
        assert parallel.rows == serial.rows > 0
        assert _counts(parallel) == _counts(serial)
        assert parallel.downtime.keys() == serial.downtime.keys()
        for system, table in serial.downtime.items():
            assert parallel.downtime[system].tolist() == table.tolist()
        assert (parallel.repair_total, parallel.start_min) == (
            serial.repair_total, serial.start_min
        )
