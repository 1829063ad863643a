"""Federating columnar stores: append and merge, one write protocol.

Both hand :mod:`repro.store.writer`'s one cut each system's rows from
every source at once, one system at a time (merge's memory bound), so
every store the tool writes holds, shard by shard in manifest order,
the bytes a one-pass import of its rows at its ``shard_rows`` holds.

:func:`merge_stores` writes a *new* directory, which is not a store
until its trailing manifest lands.  :func:`append_trace` writes the
systems it re-cuts into ``shards/`` under names the live manifest does
not use, commits them with one atomic
:func:`~repro.store.manifest.publish_manifest` (keeping the previous
generation as ``manifest.prev.json``), and only then
:func:`~repro.store.writer.sweep_shards` the files the new manifest
does not list: a crash leaves the old store or the new one, plus
unlisted files the next write's sweep removes.  Both publish at the
``store.merge.manifest`` fault site, which the chaos campaign tears.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.store.manifest import (
    MANIFEST_NAME,
    SHARDS_DIR,
    Manifest,
    Predicate,
    ShardInfo,
    StoreError,
    load_ledger,
    publish_manifest,
)
from repro.store.reader import ColumnarStore
from repro.store.schema import (
    COLUMN_NAMES,
    FORMAT_VERSION,
    ColumnBatch,
    concat_batches,
    schema_digest,
)
from repro.store.scrub import _resolve_reference
from repro.store.writer import (
    DEFAULT_SHARD_ROWS,
    StoreWriter,
    column_file_name,
    strip_record_ids,
    sweep_shards,
    write_shards,
)

__all__ = ["append_trace", "merge_stores"]


class _TraceSource:
    """A trace quacking like a store handle for merge and append.

    Trace files merge as ``explicit``-id sources — the same decision
    :func:`repro.store.convert.store_from_trace` makes on import — so
    merging trace files and merging the stores imported from them
    produce identical output.  Rows appended to an ``implicit``-id
    store lose their ids, as the store's own are read positions.
    """

    def __init__(self, trace, record_ids: str = "explicit") -> None:
        self._batch = trace.columns
        if record_ids == "implicit":
            self._batch = strip_record_ids(self._batch)
        self.manifest = Manifest(
            schema_sha256=schema_digest(),
            format_version=FORMAT_VERSION,
            columns=COLUMN_NAMES,
            record_ids=record_ids,
            row_count=len(self._batch),
            shards=(),
            data_start=trace.data_start,
            data_end=trace.data_end,
            systems=dict(trace.systems or {}),
        )

    def iter_batches(self, predicate: Optional[Predicate] = None):
        batch = self._batch
        if predicate is not None:
            batch = batch.take(predicate.mask(batch))
        if len(batch):
            yield batch


def _handle_systems(handle) -> List[int]:
    """The distinct system IDs a merge source holds rows for."""
    if isinstance(handle, _TraceSource):
        return np.unique(handle._batch["system_id"]).tolist()
    return sorted({shard.system_id for shard in handle.manifest.shards})


def _merged_systems(existing: Dict, incoming) -> Dict:
    """Union two inventories, refusing conflicting definitions."""
    merged = dict(existing)
    for system_id, config in (incoming or {}).items():
        known = merged.get(system_id)
        if known is not None and known != config:
            raise StoreError(
                f"system {system_id} is defined differently by the two "
                "federation sources; refusing to merge inventories"
            )
        merged[system_id] = config
    return merged


def _system_rows(handles: Iterable, system_id: int) -> Optional[ColumnBatch]:
    """One system's rows from every source, in source order."""
    predicate = Predicate.build(systems=[system_id])
    parts = [
        batch
        for handle in handles
        for batch in handle.iter_batches(predicate=predicate)
    ]
    return concat_batches(parts) if parts else None


def append_trace(root, source, *, shard_rows: Optional[int] = None) -> Manifest:
    """Append a trace (or store, or CSV/JSONL file) to an existing store.

    A merge: each system the rows touch is cut again from its stored
    and new rows, so the store keeps one sorted run per system.
    ``shard_rows`` defaults to the store's own.  A conflicting
    inventory, or a damaged or quarantined shard in a touched system,
    raises :class:`StoreError` before any file is written.
    """
    store = ColumnarStore(root)
    root = store.root
    manifest = store.manifest
    trace = _resolve_reference(source)
    if not len(trace):
        return manifest
    if shard_rows is None:
        # The store's own: its largest shard is full when some system
        # spans two shards, else any value fitting each system in one.
        sizes = [shard.rows for shard in manifest.shards]
        spans = len(sizes) > len({s.system_id for s in manifest.shards})
        shard_rows = max(sizes) if spans else max([DEFAULT_SHARD_ROWS, *sizes])
    if shard_rows < 1:
        raise ValueError(f"shard_rows must be >= 1, got {shard_rows}")

    incoming = _TraceSource(trace, manifest.record_ids)
    systems = _merged_systems(manifest.systems, trace.systems)
    touched = _handle_systems(incoming)
    # The strict read's probe names a damaged or quarantined shard; the
    # checksums, bit rot a re-cut would publish under fresh ones.
    rewritten = [s for s in manifest.shards if s.system_id in touched]
    store._healthy(rewritten)
    for shard in rewritten:
        for column, digest in shard.checksums.items():
            path = root / SHARDS_DIR / column_file_name(shard.name, column)
            if hashlib.sha256(path.read_bytes()).hexdigest() != digest:
                raise StoreError(
                    f"{root}: shard {shard.name} is damaged ({path.name} "
                    "sha256 mismatch); scrub and repair it first"
                )
    # Above every name the manifest or the ledger uses: none is reused.
    names = [s.name for s in manifest.shards] + list(load_ledger(root))
    first = max((int(n) for n in names if n.isdigit()), default=-1) + 1

    new: List[ShardInfo] = []
    with obs.span("store.append", rows=len(trace)):
        for system_id in touched:
            new += write_shards(
                root / SHARDS_DIR,
                _system_rows((store, incoming), system_id),
                shard_rows,
                first=first + len(new),
            )
        kept = [s for s in manifest.shards if s.system_id not in touched]
        meta = dict(manifest.meta)
        meta["appends"] = int(meta.get("appends", 0)) + 1
        new_manifest = dataclasses.replace(
            manifest,
            row_count=manifest.row_count + len(trace),
            # Stable: each system keeps its shards' order.
            shards=tuple(sorted(kept + new, key=lambda s: s.system_id)),
            data_start=min(manifest.data_start, trace.data_start),
            data_end=max(manifest.data_end, trace.data_end),
            systems=systems,
            meta=meta,
        )
        publish_manifest(root, new_manifest, site="store.merge.manifest")
        sweep_shards(root, new_manifest)

    registry = obs.metrics()
    registry.counter("store.records_appended").add(len(trace))
    registry.counter("store.shards_appended").add(len(new))
    return new_manifest


def merge_stores(
    out_root,
    sources: Sequence[Union[str, Path, ColumnarStore]],
    *,
    shard_rows: int = DEFAULT_SHARD_ROWS,
    on_damage: str = "raise",
) -> Manifest:
    """Build a new store from several sources.

    Sources may be store directories, open :class:`ColumnarStore`
    handles (pass handles to inspect their ``degraded`` reports
    afterwards when merging with ``on_damage="skip"``), or CSV/JSONL
    trace files (merged as ``explicit``-id sources, exactly as if
    imported first).  Record-id modes must agree; inventories must not
    conflict.  The output must not already be a store — growing one in
    place is :func:`append_trace`'s job.
    """
    out_root = Path(out_root)
    if (out_root / MANIFEST_NAME).exists():
        raise StoreError(
            f"{out_root} is already a columnar store; use `store append` "
            "to grow it in place"
        )
    handles = []
    for source in sources:
        if isinstance(source, ColumnarStore):
            handles.append(source)
        elif Path(source).is_dir():
            handles.append(ColumnarStore(source, on_damage=on_damage))
        else:
            handles.append(_TraceSource(_resolve_reference(source)))
    if not handles:
        raise StoreError("merge needs at least one source store")
    modes = {handle.manifest.record_ids for handle in handles}
    if len(modes) > 1:
        raise StoreError(
            "cannot merge stores with mixed record-id modes "
            f"({', '.join(sorted(modes))}): implicit IDs are positions in "
            "their own store's order and would collide with explicit ones"
        )
    systems: Dict = {}
    for handle in handles:
        systems = _merged_systems(systems, handle.manifest.systems)

    writer = StoreWriter(
        out_root,
        systems=systems,
        data_start=min(handle.manifest.data_start for handle in handles),
        data_end=max(handle.manifest.data_end for handle in handles),
        record_ids=modes.pop(),
        shard_rows=shard_rows,
        meta={"merged_sources": len(handles)},
        manifest_site="store.merge.manifest",
    )
    merged_systems = sorted(set().union(*map(_handle_systems, handles)))
    with obs.span("store.merge", sources=len(handles)):
        for system_id in merged_systems:
            rows = _system_rows(handles, system_id)
            if rows is not None:
                writer.append(rows)
        manifest = writer.finalize()

    registry = obs.metrics()
    registry.counter("store.records_merged").add(manifest.row_count)
    registry.counter("store.stores_merged").add(len(handles))
    return manifest
