"""Federating columnar stores: crash-safe append and merge.

Two operations grow a store from more than one trace:

:func:`append_trace` adds a trace's rows to an *existing* store.  New
shards are fully written into a ``staging/`` directory first, moved
into ``shards/`` under names the live manifest does not reference, and
made visible by a single atomic manifest replace
(:func:`~repro.store.manifest.publish_manifest`, fault site
``store.merge.manifest``) that keeps the previous generation as
``manifest.prev.json``.  A crash at any point leaves either the old
store or the new one — stray staged or renamed files answer to no
manifest entry, and the next scrub sweeps them.

:func:`merge_stores` builds a *new* store from several sources.  The
output directory is not a store until the trailing manifest lands, so
the ordinary write-last discipline already makes it crash-safe; the
manifest is still published through the ``store.merge.manifest`` site
so the chaos campaign can tear it.  Merging sources with disjoint
systems at the same ``shard_rows`` is byte-identical to a single-pass
import of the concatenated trace: merge hands the writer one system's
rows from every source at a time, and the writer's stable cut of that
concatenation reproduces the single-pass order exactly.

Both lay rows out through :mod:`repro.store.writer`'s one cut.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.store.manifest import (
    MANIFEST_NAME,
    SHARDS_DIR,
    STAGING_DIR,
    Manifest,
    Predicate,
    StoreError,
    publish_manifest,
)
from repro.store.reader import ColumnarStore
from repro.store.schema import (
    COLUMN_NAMES,
    FORMAT_VERSION,
    concat_batches,
    schema_digest,
)
from repro.store.scrub import _resolve_reference
from repro.store.writer import (
    DEFAULT_SHARD_ROWS,
    StoreWriter,
    column_file_name,
    strip_record_ids,
    write_shards,
)

__all__ = ["append_trace", "merge_stores"]


class _TraceSource:
    """A CSV/JSONL trace file quacking like a store handle for merge.

    Trace files merge as ``explicit``-id sources — the same decision
    :func:`repro.store.convert.store_from_trace` makes on import — so
    merging trace files and merging the stores imported from them
    produce identical output.
    """

    def __init__(self, trace) -> None:
        self._batch = trace.columns
        self.manifest = Manifest(
            schema_sha256=schema_digest(),
            format_version=FORMAT_VERSION,
            columns=COLUMN_NAMES,
            record_ids="explicit",
            row_count=len(self._batch),
            shards=(),
            data_start=trace.data_start,
            data_end=trace.data_end,
            systems=dict(trace.systems or {}),
        )

    def system_ids(self) -> List[int]:
        return np.unique(self._batch["system_id"]).tolist()

    def iter_batches(self, predicate: Optional[Predicate] = None):
        batch = self._batch
        if predicate is not None:
            batch = batch.take(predicate.mask(batch))
        if len(batch):
            yield batch


def _handle_systems(handle) -> List[int]:
    """The distinct system IDs a merge source holds rows for."""
    if isinstance(handle, _TraceSource):
        return handle.system_ids()
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


def append_trace(root, source, *, shard_rows: Optional[int] = None) -> Manifest:
    """Append a trace (or store, or CSV/JSONL file) to an existing store.

    New rows become new shards — existing shard files are never
    rewritten — published by one atomic manifest replace.  ``shard_rows``
    defaults to the store's largest existing shard so federated stores
    keep a uniform shard geometry.
    """
    store = ColumnarStore(root)
    root = store.root
    manifest = store.manifest
    trace = _resolve_reference(source)
    if not len(trace):
        return manifest
    if shard_rows is None:
        shard_rows = max(
            (shard.rows for shard in manifest.shards),
            default=DEFAULT_SHARD_ROWS,
        )
    if shard_rows < 1:
        raise ValueError(f"shard_rows must be >= 1, got {shard_rows}")

    batch = trace.columns
    if manifest.record_ids == "implicit":
        batch = strip_record_ids(batch)
    systems = _merged_systems(manifest.systems, trace.systems)

    staging = root / STAGING_DIR
    if staging.is_dir():
        shutil.rmtree(staging)
    staging.mkdir(parents=True)

    with obs.span("store.append", rows=len(batch)):
        new_shards = write_shards(
            staging, batch, shard_rows, first=len(manifest.shards)
        )

        # Stage -> live: these names are unreferenced by the current
        # manifest, so a crash mid-move leaves harmless orphans the
        # next scrub sweeps; the publish below is the commit point.
        shards_dir = root / SHARDS_DIR
        for shard in new_shards:
            for column in COLUMN_NAMES:
                name = column_file_name(shard.name, column)
                os.replace(staging / name, shards_dir / name)

        meta = dict(manifest.meta)
        meta["appends"] = int(meta.get("appends", 0)) + 1
        new_manifest = dataclasses.replace(
            manifest,
            row_count=manifest.row_count + len(batch),
            shards=manifest.shards + tuple(new_shards),
            data_start=min(manifest.data_start, trace.data_start),
            data_end=max(manifest.data_end, trace.data_end),
            systems=systems,
            meta=meta,
        )
        publish_manifest(root, new_manifest, site="store.merge.manifest")
        shutil.rmtree(staging)

    registry = obs.metrics()
    registry.counter("store.records_appended").add(len(batch))
    registry.counter("store.shards_appended").add(len(new_shards))
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
    merged_systems = sorted(
        {
            system_id
            for handle in handles
            for system_id in _handle_systems(handle)
        }
    )
    with obs.span("store.merge", sources=len(handles)):
        # One system at a time, ascending, bounds memory to one
        # system's rows; each call holds all of that system's rows, so
        # the writer lays them out as a single-pass import would.
        for system_id in merged_systems:
            predicate = Predicate.build(systems=[system_id])
            parts = [
                batch
                for handle in handles
                for batch in handle.iter_batches(predicate=predicate)
            ]
            if parts:
                writer.append(concat_batches(parts))
        manifest = writer.finalize()

    registry = obs.metrics()
    registry.counter("store.records_merged").add(manifest.row_count)
    registry.counter("store.stores_merged").add(len(handles))
    return manifest
