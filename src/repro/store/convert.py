"""Converters between columnar stores, traces, and CSV/JSONL files.

Imports (:func:`store_from_trace`, :func:`store_from_file`) write an
``explicit``-id store — the source's record IDs are data and must
survive the round trip.  Exports stream
:meth:`~repro.store.reader.ColumnarStore.iter_records` straight into
the atomic CSV/JSONL writers, so a million-record store exports in
bounded memory.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional

from repro import obs
from repro.io.csv_format import write_lanl_csv
from repro.io.ingest import read_trace_file
from repro.io.jsonl_format import write_jsonl
from repro.records.trace import FailureTrace
from repro.store.manifest import Manifest, Predicate, StoreError
from repro.store.reader import ColumnarStore
from repro.store.writer import DEFAULT_SHARD_ROWS, StoreWriter

__all__ = ["store_from_trace", "store_from_file", "export_store"]


def store_from_trace(
    trace: FailureTrace,
    root,
    *,
    shard_rows: int = DEFAULT_SHARD_ROWS,
    meta: Optional[Dict[str, object]] = None,
) -> Manifest:
    """Write a trace into a columnar store directory.

    Record IDs are stored explicitly (``None`` becomes the sentinel and
    reads back as ``None``), so an imported trace round-trips
    ``repr``-identically — including IDs that are sparse, duplicated,
    or absent.
    """
    writer = StoreWriter(
        root,
        systems=trace.systems,
        data_start=trace.data_start,
        data_end=trace.data_end,
        record_ids="explicit",
        shard_rows=shard_rows,
        meta=meta,
    )
    with obs.span("store.import", rows=len(trace)):
        writer.append(trace.columns)
        manifest = writer.finalize()
    registry = obs.metrics()
    registry.counter("store.records_written").add(manifest.row_count)
    registry.counter("store.shards_written").add(len(manifest.shards))
    return manifest


def store_from_file(
    path,
    root,
    *,
    shard_rows: int = DEFAULT_SHARD_ROWS,
) -> Manifest:
    """Import a CSV/JSONL trace file into a store directory."""
    path = Path(path)
    return store_from_trace(
        read_trace_file(path),
        root,
        shard_rows=shard_rows,
        meta={"source": path.name},
    )


def export_store(
    store: ColumnarStore,
    path,
    *,
    fmt: Optional[str] = None,
    predicate: Optional[Predicate] = None,
) -> int:
    """Stream a store to a CSV or JSONL file; returns rows written.

    ``fmt`` is ``"csv"`` or ``"jsonl"``; by default it is inferred from
    the file suffix (``.gz``-compressed variants included).
    """
    path = Path(path)
    if fmt is None:
        suffixes = [s.lower() for s in path.suffixes if s.lower() != ".gz"]
        if suffixes and suffixes[-1] == ".csv":
            fmt = "csv"
        elif suffixes and suffixes[-1] == ".jsonl":
            fmt = "jsonl"
        else:
            raise StoreError(
                f"cannot infer export format from {path.name!r}; "
                "pass fmt='csv' or fmt='jsonl'"
            )
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"fmt must be 'csv' or 'jsonl', got {fmt!r}")
    records = store.iter_records(predicate)
    with obs.span("store.export", format=fmt):
        if fmt == "csv":
            return write_lanl_csv(records, path)
        return write_jsonl(records, path)
