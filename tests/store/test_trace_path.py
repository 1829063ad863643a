"""The store -> trace -> report path: checked codes, no record objects.

``ColumnarStore.to_trace`` hands the merged columns to a column-backed
trace, so the paper report over it builds no ``FailureRecord``; and the
one decoder refuses a categorical code outside its vocabulary instead
of wrapping a negative code to some other member.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.records.codes import CAUSE_VOCAB, DETAIL_VOCAB, WORKLOAD_VOCAB
from repro.records.record import LOW_LEVEL_PARENT, FailureRecord, RootCause
from repro.records.trace import FailureTrace
from repro.report.paper import run_paper_report
from repro.store import (
    ColumnarStore,
    StoreWriter,
    append_trace,
    repair_store,
    store_from_trace,
)
from repro.store.schema import ColumnBatch, batch_from_records
from repro.store.writer import column_file_name
from repro.synth import TraceGenerator


def _store_with(tmp_path, small_trace, column, code):
    """A one-system store of ``small_trace`` rows with one code replaced."""
    group = batch_from_records(small_trace.filter_systems([13]))
    codes = group[column].copy()
    codes[3] = code
    writer = StoreWriter(tmp_path / "st")
    writer.append(
        ColumnBatch(
            {
                name: codes if name == column else group[name]
                for name in group.names
            }
        )
    )
    writer.finalize()
    return ColumnarStore(tmp_path / "st")


@pytest.mark.parametrize(
    "column, code",
    [
        ("root_cause", -2),
        ("workload", -1),
        ("low_level_cause", -5),
        ("root_cause", len(CAUSE_VOCAB)),
        ("workload", len(WORKLOAD_VOCAB)),
        ("low_level_cause", len(DETAIL_VOCAB)),
    ],
)
def test_codes_outside_the_vocabulary_are_refused(
    tmp_path, small_trace, column, code
):
    store = _store_with(tmp_path, small_trace, column, code)
    assert store.verify(deep=True) == []
    message = f"{column} code {code} "
    with pytest.raises(ValueError, match=message):
        store.to_trace()
    with pytest.raises(ValueError, match=message):
        list(store.iter_records())


def test_rows_a_record_would_refuse_are_refused(tmp_path, small_trace):
    store = _store_with(tmp_path, small_trace, "node_id", -4)
    with pytest.raises(ValueError, match="node_id must be >= 0, got -4"):
        store.to_trace()


def test_from_columns_wants_trace_order(small_trace):
    columns = small_trace.columns
    backwards = columns.take(np.arange(len(columns))[::-1])
    with pytest.raises(ValueError, match="not sorted"):
        FailureTrace.from_columns(backwards)
    trace = FailureTrace.from_columns(columns, systems=small_trace.systems)
    assert [repr(r) for r in trace] == [repr(r) for r in small_trace]


@pytest.mark.parametrize(
    "field, value", [("node_id", 2**31), ("system_id", 2**40), ("record_id", 2**63)]
)
def test_encoding_refuses_ids_its_column_cannot_hold(field, value):
    fields = dict(start_time=1.0e8, end_time=1.0e8, system_id=20, node_id=1)
    fields[field] = value
    trace = FailureTrace([FailureRecord(**fields)])
    with pytest.raises(ValueError, match=f"{field} {value} does not fit"):
        trace.columns


def test_every_detail_code_and_the_absent_code_decode(tmp_path):
    details = [None] + list(DETAIL_VOCAB)
    records = [
        FailureRecord(
            start_time=1.0e8 + index,
            end_time=1.0e8 + index + 60.0,
            system_id=20,
            node_id=1,
            root_cause=(
                RootCause.UNKNOWN if detail is None
                else LOW_LEVEL_PARENT[detail]
            ),
            low_level_cause=detail,
        )
        for index, detail in enumerate(details)
    ]
    store_from_trace(FailureTrace(records), tmp_path / "st")
    trace = ColumnarStore(tmp_path / "st").to_trace()
    assert [record.low_level_cause for record in trace] == details


@pytest.fixture(scope="module")
def two_system_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("trace-path") / "st"
    store_from_trace(TraceGenerator(seed=5).generate([19, 20]), root)
    return root


def test_report_over_a_store_trace_builds_no_records(
    two_system_store, monkeypatch
):
    built = []
    post_init = FailureRecord.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(FailureRecord, "__post_init__", counting)
    trace = ColumnarStore(two_system_store).to_trace()
    report = run_paper_report(trace)
    assert len(trace) > 1000
    assert [section.name for section in report.sections if section.ok]
    assert len(built) == 0
    # The counter does see records once something iterates the trace.
    next(iter(trace))
    assert len(built) == len(trace)


def test_store_references_feed_writers_without_records(
    two_system_store, tmp_path, monkeypatch
):
    """Import, append and repair read a store reference's columns."""
    trace = ColumnarStore(two_system_store).to_trace()
    copy = tmp_path / "copy"
    store_from_trace(trace, copy, shard_rows=500)
    damaged = ColumnarStore(copy).manifest.shards[2]
    (copy / "shards" / column_file_name(damaged.name, "end_time")).unlink()
    grown = tmp_path / "grown"
    store_from_trace(trace.filter_systems([19]), grown)
    monkeypatch.setattr(
        FailureRecord, "__post_init__",
        lambda self: pytest.fail("a record was built"),
    )

    assert repair_store(copy, two_system_store).repaired == [damaged.name]
    append_trace(grown, two_system_store)
    store_from_trace(trace, tmp_path / "again")
    again = ColumnarStore(tmp_path / "again").to_trace()
    for name in trace.columns.names:
        assert np.array_equal(again.columns[name], trace.columns[name])
    assert len(ColumnarStore(grown)) == len(trace) + len(
        trace.filter_systems([19])
    )
