"""Writing a sharded columnar store.

:class:`StoreWriter` turns column batches into per-shard ``.npy``
column files plus a trailing :class:`~repro.store.manifest.Manifest`.
Every file goes through the repo's atomic-write machinery (tmp + fsync
+ rename) behind the ``store.column`` / ``store.manifest`` fault
sites, and the manifest is written *last*: a crash mid-store leaves
orphan column files but never a manifest describing shards that don't
fully exist.  Re-running the writer over the same directory atomically
replaces every file, which is what makes a journaled
``generate --resume`` into a store byte-identical to an unfaulted run.
Once the manifest is saved, :func:`sweep_shards` removes every column
file it does not list, so a finalized store holds exactly its
manifest's files.

Shard layout — the one contract every write path shares, and what
keeps tied rows in trace order through the reader's stable sort.  The
writer cuts the rows it is handed itself, whatever their systems and
order: systems ascending, one system per shard; each system's rows
stably sorted on ``(start_time, node_id)``, so tied rows keep the
order they came in; then consecutive shards of at most ``shard_rows``
rows.  One :meth:`StoreWriter.append` call is cut as a whole, so every
row handed in one call — or whole systems handed one call each in
ascending order, as merge and append hand them — gives the single-pass
layout, while a system whose rows come in two calls gets two sorted
runs of shards.  :func:`write_shards` is the cut and the write for the
writer and for :func:`~repro.store.federate.append_trace` alike;
:func:`layout_runs` is the cut without the split, from which repair
rebuilds a shard's bytes.
"""

from __future__ import annotations

import hashlib
import io
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.records.system import SystemConfig
from repro.resilience.atomic import atomic_write_bytes, fs_fault_hook
from repro.store.manifest import (
    MANIFEST_NAME,
    SHARDS_DIR,
    Manifest,
    ShardInfo,
    shard_stats_from_batch,
)
from repro.store.schema import (
    COLUMN_NAMES,
    FORMAT_VERSION,
    NO_RECORD_ID,
    ColumnBatch,
    schema_digest,
)

__all__ = [
    "StoreWriter",
    "DEFAULT_SHARD_ROWS",
    "column_file_name",
    "layout_runs",
    "strip_record_ids",
    "sweep_shards",
    "write_shards",
]

#: Default rows per shard (~3.6 MB across the 31-byte row footprint).
DEFAULT_SHARD_ROWS = 131072


def column_file_name(shard: str, column: str) -> str:
    """File name of one shard's column inside ``shards/``."""
    return f"{shard}-{column}.npy"


def _npy_bytes(array: np.ndarray) -> bytes:
    """Serialize an array to ``.npy`` bytes (written atomically later)."""
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return buffer.getvalue()


def strip_record_ids(batch: ColumnBatch) -> ColumnBatch:
    """Force the record_id column to the sentinel (implicit stores)."""
    return ColumnBatch(
        {
            name: (
                np.full(len(batch), NO_RECORD_ID, dtype="<i8")
                if name == "record_id"
                else batch[name]
            )
            for name in batch.names
        }
    )


def layout_runs(batch: ColumnBatch) -> Iterator[Tuple[int, np.ndarray]]:
    """Each system's row positions in layout order, systems ascending."""
    system_ids = batch["system_id"]
    order = np.lexsort((batch["node_id"], batch["start_time"], system_ids))
    ordered = system_ids[order]
    edges = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    for rows in np.split(order, edges):
        if len(rows):
            yield int(system_ids[rows[0]]), rows


def _write_shard(directory: Path, name: str, batch: ColumnBatch) -> ShardInfo:
    checksums: Dict[str, str] = {}
    for column in COLUMN_NAMES:
        payload = _npy_bytes(batch[column])
        path = directory / column_file_name(name, column)
        fs_fault_hook("store.column", path)
        atomic_write_bytes(path, payload)
        checksums[column] = hashlib.sha256(payload).hexdigest()
    return ShardInfo(
        name=name,
        rows=len(batch),
        stats=shard_stats_from_batch(batch),
        checksums=checksums,
    )


def write_shards(
    directory: Path, batch: ColumnBatch, shard_rows: int, first: int
) -> List[ShardInfo]:
    """Cut ``batch`` into shards and write them into ``directory``.

    Shards are numbered from ``first``; each column file is written
    atomically behind the ``store.column`` fault site.
    """
    shards: List[ShardInfo] = []
    for _, rows in layout_runs(batch):
        for offset in range(0, len(rows), shard_rows):
            name = f"{first + len(shards):05d}"
            chunk = batch.take(rows[offset:offset + shard_rows])
            shards.append(_write_shard(directory, name, chunk))
    return shards


def sweep_shards(root, manifest: Manifest) -> None:
    """Remove every column file under ``shards/`` that ``manifest``
    does not list.

    Runs after the manifest is published: until then the previous
    generation may still list the files, and a crash between the two
    leaves only unlisted files, which the next sweep removes.
    """
    listed = {
        column_file_name(shard.name, column)
        for shard in manifest.shards
        for column in COLUMN_NAMES
    }
    for path in (Path(root) / SHARDS_DIR).glob("*.npy"):
        if path.name not in listed:
            path.unlink(missing_ok=True)


class StoreWriter:
    """Stream column batches into a store directory.

    Parameters
    ----------
    root:
        Store directory (created if missing; existing files replaced).
    systems:
        Inventory recorded into the manifest (analysis needs node
        counts and production windows for rates).
    data_start / data_end:
        Observation window recorded into the manifest.
    record_ids:
        ``"implicit"`` — the record_id column is all ``-1`` and IDs are
        assigned by global read position (generated stores);
        ``"explicit"`` — IDs are stored per row (imported traces).
    shard_rows:
        Maximum rows per shard.
    meta:
        Free-form provenance merged into the manifest's ``meta``.
    manifest_site:
        Fault-injection site fired when the manifest is written
        (``store.manifest`` by default; ``store.merge.manifest`` when
        the writer is publishing a federated merge).
    """

    def __init__(
        self,
        root,
        *,
        systems: Optional[Mapping[int, SystemConfig]] = None,
        data_start: float = 0.0,
        data_end: float = 0.0,
        record_ids: str = "implicit",
        shard_rows: int = DEFAULT_SHARD_ROWS,
        meta: Optional[Dict[str, object]] = None,
        manifest_site: str = "store.manifest",
    ) -> None:
        if shard_rows < 1:
            raise ValueError(f"shard_rows must be >= 1, got {shard_rows}")
        if record_ids not in ("implicit", "explicit"):
            raise ValueError(
                f"record_ids must be 'implicit' or 'explicit', "
                f"got {record_ids!r}"
            )
        self.root = Path(root)
        self.shards_dir = self.root / SHARDS_DIR
        self.shards_dir.mkdir(parents=True, exist_ok=True)
        self.shard_rows = int(shard_rows)
        self.record_ids = record_ids
        self._systems = dict(systems) if systems is not None else {}
        self._data_start = float(data_start)
        self._data_end = float(data_end)
        self._meta = dict(meta) if meta is not None else {}
        self._manifest_site = manifest_site
        self._shards: List[ShardInfo] = []
        self._finalized = False

    def append(self, batch: ColumnBatch) -> None:
        """Cut rows of any systems, in any order, into shards and write
        them after the shards already written (see the module's shard
        layout)."""
        if self._finalized:
            raise RuntimeError("StoreWriter already finalized")
        if batch.names != COLUMN_NAMES:
            missing = set(COLUMN_NAMES) - set(batch.names)
            raise ValueError(f"batch is missing columns {sorted(missing)}")
        self._shards += write_shards(
            self.shards_dir, batch, self.shard_rows, first=len(self._shards)
        )

    def finalize(self) -> Manifest:
        """Write the manifest and return it (call exactly once)."""
        if self._finalized:
            raise RuntimeError("StoreWriter already finalized")
        manifest = Manifest(
            schema_sha256=schema_digest(),
            format_version=FORMAT_VERSION,
            columns=COLUMN_NAMES,
            record_ids=self.record_ids,
            row_count=sum(shard.rows for shard in self._shards),
            shards=tuple(self._shards),
            data_start=self._data_start,
            data_end=self._data_end,
            systems=self._systems,
            meta=self._meta,
        )
        manifest.save(self.root / MANIFEST_NAME, site=self._manifest_site)
        self._finalized = True
        # Files of an earlier, differently-sharded write of this directory.
        sweep_shards(self.root, manifest)
        return manifest
