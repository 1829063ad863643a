"""The paper accumulator's fold against the key-by-key oracle, bit for bit.

:class:`~tests.analysis.reference_fold.ReferenceFold` folds every chunk
with one mask per cause, per system and per figure target.  Random
chunk sequences must leave the accumulator in the oracle's state: each
repair sketch's held values and chunk boundaries (past the exact limit,
its moments, which follow those boundaries), zero counts, the hour and
weekday bins, the lifecycle grids, per-node counts and earliest
workloads, and the Figure 6 gap segments.  Chunks hold one system or
several, with system ids spread wider than the chunk has rows, with
and without the figure targets, zero repairs, and starts on hour and
day boundaries.  A chunk with a negative repair, a non-finite time or
a cause code out of range must raise what the oracle raises.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.stats.sketch as sketch_module
from repro.analysis.outofcore import PaperAccumulator
from repro.records.codes import CAUSE_VOCAB, WORKLOAD_VOCAB
from repro.records.columns import ColumnBatch
from repro.records.inventory import DATA_END, DATA_START, LANL_SYSTEMS
from tests.analysis.reference_fold import ReferenceFold

#: Figure targets (3 and 6: system 20; 4: systems 5 and 19), a system
#: that is none, and an id far from all of them.
SYSTEMS = (5, 19, 20, 7)
WIDE = 2**31 - 1

_HOURS = st.integers(int(DATA_START // 3600) - 200, int(DATA_END // 3600) + 200)
_DAYS = st.integers(int(DATA_START // 86400) - 10, int(DATA_END // 86400) + 10)
_SIDE = st.sampled_from((-1, 0, 1))


def _near(boundary: float, side: int) -> float:
    """``boundary``, or the float one ulp below or above it."""
    return float(np.nextafter(boundary, side * np.inf)) if side else boundary


starts = st.one_of(
    st.floats(DATA_START - 1e7, DATA_END + 1e7),
    st.tuples(_HOURS, _SIDE).map(lambda p: _near(p[0] * 3600.0, p[1])),
    st.tuples(_DAYS, _SIDE).map(lambda p: _near(p[0] * 86400.0, p[1])),
)
repairs = st.one_of(
    st.just(0.0), st.floats(0.0, 12.0), st.floats(0.0, 1e6)
)


@st.composite
def chunks(draw, size=st.integers(1, 40)):
    n = draw(size)
    shape = draw(st.sampled_from(("one", "several", "wide")))
    if shape == "one":
        systems = [draw(st.sampled_from(SYSTEMS + (WIDE,)))] * n
    else:
        pool = SYSTEMS + (WIDE, 1) if shape == "wide" else SYSTEMS
        systems = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    column = lambda strategy: draw(  # noqa: E731
        st.lists(strategy, min_size=n, max_size=n)
    )
    start = np.asarray(column(starts), dtype=float)
    return {
        "start_time": start,
        "end_time": start + np.asarray(column(repairs)),
        "system_id": np.asarray(systems),
        "node_id": np.asarray(column(st.sampled_from((0, 1, 21, 22, 48)))),
        "root_cause": np.asarray(
            column(st.integers(0, len(CAUSE_VOCAB) - 1))
        ),
        "workload": np.asarray(
            column(st.integers(0, len(WORKLOAD_VOCAB) - 1))
        ),
    }


def _array(values: np.ndarray) -> tuple:
    return values.dtype.str, values.shape, values.tobytes()


def _floats(*values) -> tuple:
    return tuple(float(value).hex() for value in values)


def _moments(sketch) -> tuple:
    return (sketch.count,) + _floats(
        sketch.total, sketch.mean, sketch.m2, sketch.minimum, sketch.maximum
    )


def _held(held) -> tuple:
    chunks = held._chunks
    return held.count, None if chunks is None else [_array(c) for c in chunks]


def _sketch(sketch) -> tuple:
    # Private state on purpose: the public readers summarize pending
    # chunks, which would make both sides equal by construction.
    return (
        sketch.clamp_epsilon,
        sketch.nonpositive,
        _held(sketch._held),
        list(sketch._pending),
        _moments(sketch._raw),
        _moments(sketch._clamped),
        _moments(sketch._log_clamped),
        _array(sketch._histogram.counts),
        _floats(sketch._histogram.minimum, sketch._histogram.maximum),
    )


def _state(fold: PaperAccumulator) -> dict:
    return {
        "rows": fold.rows,
        "counts": {k: _array(v) for k, v in fold.counts.items()},
        "downtime": {k: _array(v) for k, v in fold.downtime.items()},
        "repair": _floats(fold.repair_total, fold.repair_min, fold.repair_max),
        "start": _floats(fold.start_min, fold.start_max),
        "hourly": _array(fold.hourly),
        "weekday": _array(fold.weekday),
        "repairs": _sketch(fold.repairs),
        "by_cause": {k: _sketch(v) for k, v in fold.repair_by_cause.items()},
        "by_system": {k: _sketch(v) for k, v in fold.repair_by_system.items()},
        "node_counts": dict(fold.node_counts),
        "node_workloads": dict(fold.node_workloads),
        "lifecycle": {
            k: (_array(v.grid), v.min_start)
            for k, v in fold.lifecycle.items()
        },
        "lifecycle_errors": dict(fold.lifecycle_errors),
        "gaps": [
            (
                segment.last,
                segment.ordered,
                _held(segment._starts),
                _sketch(segment._gaps),
            )
            for segment in fold.gap_segments
        ],
    }


def _fold(kind, parts) -> PaperAccumulator:
    fold = kind(LANL_SYSTEMS, DATA_START, DATA_END)
    for part in parts:
        fold.observe(ColumnBatch(part))
    return fold


@contextlib.contextmanager
def _limit(limit):
    """``EXACT_LIMIT`` patched to ``limit`` (``None``: the default)."""
    with pytest.MonkeyPatch.context() as patch:
        if limit is not None:
            patch.setattr(sketch_module, "EXACT_LIMIT", limit)
        yield


#: Exact limits: the default, and two that chunks pass mid-sequence.
LIMITS = st.sampled_from((None, 12, 60))


@settings(max_examples=150, deadline=None)
@given(parts=st.lists(chunks(), min_size=1, max_size=5), limit=LIMITS)
def test_fold_leaves_the_oracle_state(parts, limit):
    with _limit(limit):
        assert _state(_fold(PaperAccumulator, parts)) == _state(
            _fold(ReferenceFold, parts)
        )


def test_a_chunk_of_more_systems_than_a_byte_leaves_the_oracle_state():
    rng = np.random.default_rng(5)
    systems = rng.permutation(np.repeat(np.arange(1, 301), 3))
    starts = rng.uniform(DATA_START, DATA_END, systems.size)
    part = {
        "start_time": starts,
        "end_time": starts + rng.exponential(3e3, systems.size),
        "system_id": systems,
        "node_id": rng.integers(0, 50, systems.size),
        "root_cause": rng.integers(0, len(CAUSE_VOCAB), systems.size),
        "workload": rng.integers(0, len(WORKLOAD_VOCAB), systems.size),
    }
    assert _state(_fold(PaperAccumulator, [part])) == _state(
        _fold(ReferenceFold, [part])
    )


#: One bad field per case: (column, value).
BAD_ROWS = (
    ("end_time", -1.0),  # a repair that ends before it starts
    ("end_time", np.nan),
    ("end_time", np.inf),
    ("end_time", -np.inf),
    ("start_time", np.nan),
    ("start_time", np.inf),
    ("start_time", -np.inf),
    ("root_cause", len(CAUSE_VOCAB)),
    ("root_cause", -1),
)


def _outcome(kind, parts):
    try:
        _fold(kind, parts)
    except Exception as exc:  # noqa: BLE001 — the outcome is the point
        return type(exc), str(exc)
    return None


@settings(max_examples=120, deadline=None)
@given(
    parts=st.lists(chunks(), min_size=1, max_size=3),
    bad=st.sampled_from(BAD_ROWS),
    where=st.tuples(st.integers(0, 2), st.integers(0, 39)),
)
def test_bad_rows_raise_what_the_oracle_raises(parts, bad, where):
    index = min(where[0], len(parts) - 1)
    part = dict(parts[index])
    row = min(where[1], len(part["start_time"]) - 1)
    name, value = bad
    if name == "end_time" and value == -1.0:
        value = part["start_time"][row] - 1.0
    part[name] = part[name].astype(float if "time" in name else np.int64)
    part[name][row] = value
    parts = parts[:index] + [part] + parts[index + 1:]
    with np.errstate(invalid="ignore", over="ignore"):
        want = _outcome(ReferenceFold, parts)
        assert want is not None
        assert _outcome(PaperAccumulator, parts) == want
