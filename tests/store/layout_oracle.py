"""The shard layout written out the plain way, as a test oracle.

A store holds its rows one system per shard, systems ascending; each
system's rows are stably sorted on ``(start_time, node_id)`` and split
into consecutive shards of at most ``shard_rows`` rows.  This module
cuts a batch that way one system after another and gives the bytes
each of the store's column files must then hold, so every write path
can be checked against the same expectation.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.store.schema import COLUMN_NAMES, NO_RECORD_ID, ColumnBatch


def oracle_shards(columns: ColumnBatch, shard_rows: int) -> List[Dict]:
    """The batch's rows cut into shards, each a ``{column: array}``."""
    shards = []
    system_ids = columns["system_id"]
    for system_id in np.unique(system_ids).tolist():
        mask = system_ids == system_id
        group = {name: columns[name][mask] for name in COLUMN_NAMES}
        order = np.lexsort((group["node_id"], group["start_time"]))
        group = {name: array[order] for name, array in group.items()}
        for offset in range(0, len(order), shard_rows):
            shards.append(
                {
                    name: array[offset:offset + shard_rows]
                    for name, array in group.items()
                }
            )
    return shards


def implicit_ids(columns: ColumnBatch) -> ColumnBatch:
    """The batch with every record id replaced by the implicit sentinel."""
    return ColumnBatch(
        {
            name: (
                np.full(len(columns), NO_RECORD_ID, dtype="<i8")
                if name == "record_id"
                else columns[name]
            )
            for name in COLUMN_NAMES
        }
    )


def _npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
    return buffer.getvalue()


def oracle_files(shards: List[Dict], first: int = 0) -> Dict[str, bytes]:
    """``{file name under shards/: bytes}`` for shards numbered from
    ``first``."""
    return {
        f"{first + index:05d}-{name}.npy": _npy_bytes(array)
        for index, shard in enumerate(shards)
        for name, array in shard.items()
    }


def shard_files(root) -> Dict[str, bytes]:
    """``{file name: bytes}`` of every column file a store holds."""
    return {
        path.name: path.read_bytes()
        for path in sorted((Path(root) / "shards").glob("*.npy"))
    }


def manifest_order_files(root) -> Dict[str, bytes]:
    """``{file name: bytes}`` of the shards the manifest lists, each
    file named by its shard's manifest position rather than its shard's
    name (an append gives new shards names that are not positions)."""
    root = Path(root)
    shards = json.loads((root / "manifest.json").read_text())["shards"]
    return {
        f"{index:05d}-{name}.npy": (
            root / "shards" / f"{shard['name']}-{name}.npy"
        ).read_bytes()
        for index, shard in enumerate(shards)
        for name in COLUMN_NAMES
    }
