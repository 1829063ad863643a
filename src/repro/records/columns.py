"""The column layout a trace and the columnar store share.

A trace row is eight fixed-width fields, 36 bytes: two float64 times,
two int32 IDs, three int8 codes (:mod:`repro.records.codes`) and an
int64 record ID.  :class:`ColumnBatch` holds equally long arrays in
this layout; :class:`~repro.records.trace.FailureTrace` keeps its
sorted rows in one, and the store (:mod:`repro.store`) writes and
reads the same arrays, so a store-built trace never becomes
:class:`~repro.records.record.FailureRecord` objects unless something
iterates it.

The helpers here are the only way between rows and records:
:func:`batch_from_records` encodes, :func:`records_from_batch` decodes,
:func:`check_rows` applies :class:`FailureRecord`'s rules to whole
columns, and :func:`trace_order` / :func:`sort_rows` put rows in trace
order.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.records.codes import (
    CAUSE_CODE,
    CAUSE_VOCAB,
    DETAIL_CODE,
    DETAIL_VOCAB,
    NO_DETAIL,
    WORKLOAD_CODE,
    WORKLOAD_VOCAB,
)
from repro.records.record import LOW_LEVEL_PARENT, FailureRecord

__all__ = [
    "COLUMNS",
    "COLUMN_NAMES",
    "COLUMN_DTYPES",
    "NO_RECORD_ID",
    "ColumnBatch",
    "empty_batch",
    "concat_batches",
    "batch_from_records",
    "records_from_batch",
    "check_rows",
    "in_trace_order",
    "trace_order",
    "sort_rows",
]

#: Column layout: (name, little-endian dtype string), in file order.
COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("start_time", "<f8"),
    ("end_time", "<f8"),
    ("system_id", "<i4"),
    ("node_id", "<i4"),
    ("root_cause", "|i1"),
    ("low_level_cause", "|i1"),
    ("workload", "|i1"),
    ("record_id", "<i8"),
)

COLUMN_NAMES: Tuple[str, ...] = tuple(name for name, _ in COLUMNS)
COLUMN_DTYPES: Dict[str, np.dtype] = {
    name: np.dtype(dtype) for name, dtype in COLUMNS
}

#: Sentinel in the record_id column for "no explicit id".
NO_RECORD_ID = -1

#: Code of each low-level cause's high-level parent, by detail code.
_PARENT_CODE = np.array(
    [CAUSE_CODE[LOW_LEVEL_PARENT[detail]] for detail in DETAIL_VOCAB],
    dtype=np.int64,
)

#: Categorical columns with their vocabularies and lowest valid code.
_CODED = (
    ("root_cause", CAUSE_VOCAB, 0),
    ("low_level_cause", DETAIL_VOCAB, NO_DETAIL),
    ("workload", WORKLOAD_VOCAB, 0),
)


class ColumnBatch:
    """A set of equally-long, schema-typed column arrays.

    The unit of transfer between the generator, the store writer, the
    reader's chunk iterator and a trace.  Construction validates
    lengths and coerces each array to its schema dtype, so a batch that
    exists is well-formed.  A batch may carry any *subset* of the
    schema's columns (readers project).
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        if not columns:
            raise ValueError("a ColumnBatch needs at least one column")
        coerced: Dict[str, np.ndarray] = {}
        length: Optional[int] = None
        for name, array in columns.items():
            dtype = COLUMN_DTYPES.get(name)
            if dtype is None:
                raise KeyError(
                    f"unknown column {name!r}; schema has {COLUMN_NAMES}"
                )
            array = np.asarray(array)
            if array.ndim != 1:
                raise ValueError(
                    f"column {name!r} must be 1-D, got shape {array.shape}"
                )
            if length is None:
                length = len(array)
            elif len(array) != length:
                raise ValueError(
                    f"column {name!r} has {len(array)} rows, expected {length}"
                )
            coerced[name] = np.ascontiguousarray(array, dtype=dtype)
        self._columns = coerced

    def __len__(self) -> int:
        return len(next(iter(self._columns.values())))

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> np.ndarray:
        return self._columns[name]

    @property
    def names(self) -> Tuple[str, ...]:
        """The batch's columns, in schema order."""
        return tuple(n for n in COLUMN_NAMES if n in self._columns)

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        """A view-backed sub-batch of rows ``[start, stop)``."""
        return ColumnBatch(
            {name: array[start:stop] for name, array in self._columns.items()}
        )

    def take(self, rows: np.ndarray) -> "ColumnBatch":
        """Rows where boolean ``rows`` is true, or at integer positions
        ``rows`` (a compressed copy)."""
        return ColumnBatch(
            {name: array[rows] for name, array in self._columns.items()}
        )


def empty_batch(names: Iterable[str] = COLUMN_NAMES) -> ColumnBatch:
    """A zero-row batch with the given columns."""
    return ColumnBatch(
        {name: np.empty(0, dtype=COLUMN_DTYPES[name]) for name in names}
    )


def concat_batches(batches: List[ColumnBatch]) -> ColumnBatch:
    """Concatenate batches (all must share the same column set)."""
    if not batches:
        return empty_batch()
    names = batches[0].names
    for batch in batches[1:]:
        if batch.names != names:
            raise ValueError(
                f"cannot concatenate batches with columns {batch.names} "
                f"and {names}"
            )
    return ColumnBatch(
        {
            name: np.concatenate([batch[name] for batch in batches])
            for name in names
        }
    )


def _id_column(values: Sequence[int], name: str) -> np.ndarray:
    """Integer IDs in ``name``'s dtype; refuses what the dtype cannot hold."""
    dtype = COLUMN_DTYPES[name]
    bounds = np.iinfo(dtype)
    if values and not (bounds.min <= min(values) and max(values) <= bounds.max):
        value = next(v for v in values if not bounds.min <= v <= bounds.max)
        raise ValueError(
            f"{name} {value} does not fit its {dtype} column"
        )
    return np.array(values, dtype=dtype)


def batch_from_records(records: Iterable[FailureRecord]) -> ColumnBatch:
    """Encode records into a full-schema batch (order preserved).

    Raises :class:`ValueError` for an ID its column's dtype cannot hold.
    """
    records = list(records)
    record_ids = [
        NO_RECORD_ID if r.record_id is None else r.record_id for r in records
    ]
    return ColumnBatch(
        {
            "start_time": np.array(
                [r.start_time for r in records], dtype="<f8"
            ),
            "end_time": np.array([r.end_time for r in records], dtype="<f8"),
            "system_id": _id_column([r.system_id for r in records], "system_id"),
            "node_id": _id_column([r.node_id for r in records], "node_id"),
            "root_cause": np.array(
                [CAUSE_CODE[r.root_cause] for r in records], dtype="|i1"
            ),
            "low_level_cause": np.array(
                [
                    NO_DETAIL if r.low_level_cause is None
                    else DETAIL_CODE[r.low_level_cause]
                    for r in records
                ],
                dtype="|i1",
            ),
            "workload": np.array(
                [WORKLOAD_CODE[r.workload] for r in records], dtype="|i1"
            ),
            "record_id": _id_column(record_ids, "record_id"),
        }
    )


def check_rows(batch: ColumnBatch) -> None:
    """Refuse the first row that cannot decode to a valid record.

    Checks whole columns for what decoding a row and constructing its
    :class:`FailureRecord` would check one row at a time.  The first
    failing row in batch order raises :class:`ValueError`: for a code
    outside its vocabulary (``low_level_cause`` may also be
    :data:`~repro.records.codes.NO_DETAIL`), naming the column and the
    code; otherwise with the error that row's record raises.
    """
    if not len(batch):
        return
    details = batch["low_level_cause"]
    known = (details >= 0) & (details < len(DETAIL_VOCAB))
    bad = (
        (batch["end_time"] < batch["start_time"])
        | (batch["system_id"] < 1)
        | (batch["node_id"] < 0)
        | (known & (_PARENT_CODE[np.where(known, details, 0)] != batch["root_cause"]))
    )
    for name, vocab, low in _CODED:
        bad |= (batch[name] < low) | (batch[name] >= len(vocab))
    if not bad.any():
        return
    row = int(np.argmax(bad))
    for name, vocab, low in _CODED:
        code = int(batch[name][row])
        if not low <= code < len(vocab):
            raise ValueError(
                f"{name} code {code} is outside its vocabulary "
                f"(valid codes {low}..{len(vocab) - 1})"
            )
    next(_decode(batch.slice(row, row + 1)))


def records_from_batch(batch: ColumnBatch) -> Iterator[FailureRecord]:
    """Decode a full-schema batch back into records (order preserved).

    The exact inverse of :func:`batch_from_records`: timestamps are
    IEEE-754 doubles end to end, so every decoded float is
    ``repr``-identical to the encoded one.  The batch is checked with
    :func:`check_rows` first, so a code outside its vocabulary raises
    :class:`ValueError` instead of decoding as some other member.
    """
    check_rows(batch)
    return _decode(batch)


def _decode(batch: ColumnBatch) -> Iterator[FailureRecord]:
    columns = (batch[name].tolist() for name in COLUMN_NAMES)
    for start, end, system_id, node_id, cause, detail, workload, record_id in zip(
        *columns
    ):
        yield FailureRecord(
            start_time=start,
            end_time=end,
            system_id=system_id,
            node_id=node_id,
            root_cause=CAUSE_VOCAB[cause],
            low_level_cause=None if detail == NO_DETAIL else DETAIL_VOCAB[detail],
            workload=WORKLOAD_VOCAB[workload],
            record_id=None if record_id == NO_RECORD_ID else record_id,
        )


def in_trace_order(batch: ColumnBatch) -> bool:
    """True when rows never decrease in ``(start_time, system_id, node_id)``."""
    if len(batch) < 2:
        return True
    starts = batch["start_time"]
    systems = batch["system_id"]
    nodes = batch["node_id"]
    same_start = starts[1:] == starts[:-1]
    same_system = systems[1:] == systems[:-1]
    ordered = (starts[1:] > starts[:-1]) | (
        same_start
        & (
            (systems[1:] > systems[:-1])
            | (same_system & (nodes[1:] >= nodes[:-1]))
        )
    )
    return bool(ordered.all())


def trace_order(columns) -> np.ndarray:
    """Row positions in trace order: a stable sort on ``(start_time,
    system_id, node_id)``, so tied rows keep their relative order."""
    return np.lexsort(
        (columns["node_id"], columns["system_id"], columns["start_time"])
    )


def sort_rows(batch: ColumnBatch) -> ColumnBatch:
    """The batch's rows in trace order (see :func:`trace_order`)."""
    return batch.take(trace_order(batch))
