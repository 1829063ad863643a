"""The columnar store's on-disk schema.

One trace column maps to one little-endian NumPy dtype; categorical
columns are the int8 codes of :mod:`repro.records.codes`.  The layout
and the batch type live in :mod:`repro.records.columns`, shared with
the in-memory :class:`~repro.records.trace.FailureTrace`, and are
re-exported here.  The schema digest — a sha256 over the format
version, the column layout and the categorical vocabularies — is
pinned into every manifest, so a reader can refuse a store whose bytes
mean something else before touching a single column file.
"""

from __future__ import annotations

import hashlib
import json
from typing import Tuple

from repro.records.codes import CAUSE_VOCAB, DETAIL_VOCAB, WORKLOAD_VOCAB
from repro.records.columns import (
    COLUMN_DTYPES,
    COLUMN_NAMES,
    COLUMNS,
    NO_RECORD_ID,
    ColumnBatch,
    batch_from_records,
    concat_batches,
    empty_batch,
    records_from_batch,
)

__all__ = [
    "FORMAT_VERSION",
    "COLUMNS",
    "COLUMN_NAMES",
    "COLUMN_DTYPES",
    "STAT_COLUMNS",
    "NO_RECORD_ID",
    "schema_digest",
    "ColumnBatch",
    "empty_batch",
    "concat_batches",
    "batch_from_records",
    "records_from_batch",
]

#: On-disk format version; bump on any layout change.
FORMAT_VERSION = 1

#: Columns whose per-shard min/max go into the manifest for pushdown.
STAT_COLUMNS: Tuple[str, ...] = (
    "start_time", "end_time", "system_id", "node_id",
)


def schema_digest() -> str:
    """sha256 pinning the byte-level meaning of every column.

    Covers the format version, the column names and dtypes, and the
    categorical vocabularies in code order — anything that would change
    how stored bytes decode changes the digest.
    """
    payload = {
        "format_version": FORMAT_VERSION,
        "columns": [[name, dtype] for name, dtype in COLUMNS],
        "vocab": {
            "root_cause": [cause.value for cause in CAUSE_VOCAB],
            "low_level_cause": [detail.value for detail in DETAIL_VOCAB],
            "workload": [workload.value for workload in WORKLOAD_VOCAB],
        },
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
