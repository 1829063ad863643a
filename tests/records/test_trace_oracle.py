"""The column-backed trace answers exactly as the record loops did.

Three traces over the same drawn records must agree on every public
method: the trace built from the records, the trace read back from a
columnar store holding them, and the record-loop oracle in
``reference_trace.py``.  "Agree" means the same records in the same
order, vectors equal bit for bit, dicts with the same keys in the same
order, and the same ``repr`` for every float.  The draws aim at the
edges a column rewrite can get wrong: ties on ``(start_time,
system_id, node_id)``, empty traces, systems outside the inventory,
nodes past a system's node count, and zero-length repairs.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

from repro.analysis import lifecycle, pernode, periodicity
from repro.records.inventory import DATA_END, DATA_START
from repro.records.record import (
    LOW_LEVEL_PARENT,
    FailureRecord,
    RootCause,
    Workload,
)
from repro.records.system import HardwareType
from repro.records.trace import FailureTrace
from repro.store import ColumnarStore, store_from_trace
from tests.records import reference_trace
from tests.records.reference_trace import ReferenceTrace

DETAILS_BY_CAUSE = {
    cause: [d for d, parent in LOW_LEVEL_PARENT.items() if parent is cause]
    for cause in RootCause
}
#: 2, 5, 19 and 20 are in the LANL inventory (20 has 49 nodes, 2 has
#: one); 23 and 24 are not.
SYSTEMS = (2, 5, 19, 20, 23, 24)
#: A few shared start times make (start, system, node) ties common;
#: 1e6 precedes every production window.
POOLED_STARTS = (1.0e6, DATA_START, DATA_START + 3600.0, 1.5e8, 2.6e8)

COLUMN_ANALYSES = SimpleNamespace(
    failures_by_hour=periodicity.failures_by_hour,
    failures_by_weekday=periodicity.failures_by_weekday,
    monthly_failures=lifecycle.monthly_failures,
    node_count_study=pernode.node_count_study,
)


@st.composite
def records(draw):
    start = draw(
        st.one_of(
            st.sampled_from(POOLED_STARTS),
            st.floats(min_value=DATA_START, max_value=DATA_END - 1.0),
        )
    )
    duration = draw(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6))
    )
    cause = draw(st.sampled_from(list(RootCause)))
    details = DETAILS_BY_CAUSE[cause]
    return FailureRecord(
        start_time=start,
        end_time=start + duration,
        system_id=draw(st.sampled_from(SYSTEMS)),
        node_id=draw(
            st.one_of(
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=0, max_value=60),
            )
        ),
        root_cause=cause,
        low_level_cause=draw(st.sampled_from(details + [None])),
        workload=draw(st.sampled_from(list(Workload))),
        record_id=draw(
            st.one_of(st.none(), st.integers(min_value=0, max_value=2**40))
        ),
    )


record_lists = st.lists(records(), max_size=40)

#: One long repair, then short ones of the same cause: adding left to
#: right loses every 1.0 against 1e16; pairwise or compensated
#: summation keeps them, so the sum's bits pin the addition order.
SUMMATION_ORDER = [
    FailureRecord(
        start_time=DATA_START + index,
        end_time=DATA_START + index + (1e16 if index == 0 else 1.0),
        system_id=20,
        node_id=index,
        root_cause=RootCause.HARDWARE,
    )
    for index in range(12)
]


def _outcome(call):
    """``repr`` of a call's result, or of the exception it raised."""
    try:
        return repr(call())
    except Exception as exc:  # noqa: BLE001 — the type and text are compared
        return f"{type(exc).__name__}: {exc}"


def _rows(trace):
    return [repr(record) for record in trace]


def _vector(array):
    return (array.dtype.str, array.shape, array.tobytes())


def _groups(groups):
    return [(key, _rows(sub)) for key, sub in groups.items()]


def observe(trace, other, window, analyses):
    """Everything a trace answers, as comparable values."""
    seen = {
        "rows": _rows(trace),
        "len": len(trace),
        "start_times": _vector(trace.start_times()),
        "repair_times": _vector(trace.repair_times()),
        "repair_minutes": _vector(trace.repair_minutes()),
        "interarrival_times": _vector(trace.interarrival_times()),
        "filter": _rows(trace.filter(lambda r: r.repair_time > 600.0)),
        "filter_systems": _rows(trace.filter_systems([20, 23])),
        "filter_nodes": _rows(trace.filter_nodes([0, 22, 55])),
        "between": _outcome(lambda: _rows(trace.between(*window))),
        "merge": _rows(trace.merge(other)),
        "by_system": _groups(trace.by_system()),
        "by_node": _groups(trace.by_node()),
        "counts_by_cause": list(trace.counts_by_cause().items()),
        "downtime_by_cause": [
            (cause, repr(total))
            for cause, total in trace.downtime_by_cause().items()
        ],
        "failures_by_hour": _vector(analyses.failures_by_hour(trace)),
        "failures_by_weekday": _vector(analyses.failures_by_weekday(trace)),
    }
    for hardware_type in HardwareType:
        seen[f"filter_hardware {hardware_type}"] = _rows(
            trace.filter_hardware(hardware_type)
        )
    for cause in RootCause:
        seen[f"filter_cause {cause}"] = _rows(trace.filter_cause(cause))
    for workload in Workload:
        seen[f"filter_workload {workload}"] = _rows(
            trace.filter_workload(workload)
        )
    for system_id in SYSTEMS:
        seen[f"failures_per_node {system_id}"] = _outcome(
            lambda: list(trace.failures_per_node(system_id).items())
        )
        seen[f"monthly_failures {system_id}"] = _outcome(
            lambda: analyses.monthly_failures(trace, system_id)
        )
    seen["node_count_study 20"] = _outcome(
        lambda: analyses.node_count_study(trace, 20)
    )
    return seen


def _round_trip(trace, root: Path) -> FailureTrace:
    store_from_trace(trace, root, shard_rows=7)
    return ColumnarStore(root).to_trace()


@settings(max_examples=60, deadline=None)
@given(
    record_lists,
    record_lists,
    st.tuples(
        st.sampled_from(POOLED_STARTS + (DATA_END,)),
        st.sampled_from(POOLED_STARTS + (DATA_END,)),
    ),
)
@example(SUMMATION_ORDER, SUMMATION_ORDER[:1], (DATA_START, DATA_END))
def test_column_trace_matches_the_record_loops(items, extra, window):
    built = FailureTrace(items)
    built_other = FailureTrace(extra)
    with tempfile.TemporaryDirectory() as tmp:
        stored = _round_trip(built, Path(tmp) / "a")
        stored_other = _round_trip(built_other, Path(tmp) / "b")
    oracle = ReferenceTrace(items)
    oracle_other = ReferenceTrace(extra)

    expected = observe(oracle, oracle_other, window, reference_trace)
    assert observe(built, built_other, window, COLUMN_ANALYSES) == expected
    assert observe(stored, stored_other, window, COLUMN_ANALYSES) == expected


def test_vectors_are_fresh_arrays():
    trace = FailureTrace(
        [FailureRecord(start_time=DATA_START, end_time=DATA_START + 60.0,
                       system_id=20, node_id=1)]
    )
    starts = trace.start_times()
    starts[0] = 0.0
    assert trace.start_times()[0] == DATA_START
    assert not trace.columns["start_time"].flags.writeable
