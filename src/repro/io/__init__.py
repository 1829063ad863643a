"""Trace I/O: LANL/CFDR-style CSV and JSONL formats.

The Computer Failure Data Repository (CFDR) released the LANL data as a
CSV of per-failure rows.  :func:`read_lanl_csv` accepts that layout (a
documented subset of its columns) so the toolkit's analyses run
unchanged on the real data when available; :func:`write_lanl_csv`
round-trips synthetic traces through the same schema.

Dirty real-world exports are handled by the policy layer
(:mod:`repro.io.policy`): every reader accepts an
:class:`IngestPolicy` selecting strict, lenient (quarantine) or repair
behavior, and :func:`ingest_trace` returns the loaded trace together
with a structured :class:`IngestReport`.
"""

from repro.io.common import open_text
from repro.io.csv_format import read_lanl_csv, write_lanl_csv
from repro.io.ingest import (
    IngestResult,
    detect_format,
    ingest_trace,
    read_trace_file,
)
from repro.io.jsonl_format import read_jsonl, write_jsonl
from repro.io.mapped import ColumnMapping, read_mapped_csv
from repro.io.policy import (
    IngestPolicy,
    IngestReport,
    QuarantineWriter,
    RowPipeline,
)
from repro.io.schema import CSV_COLUMNS, SchemaError, describe_schema

__all__ = [
    "read_lanl_csv",
    "write_lanl_csv",
    "read_jsonl",
    "write_jsonl",
    "ColumnMapping",
    "read_mapped_csv",
    "CSV_COLUMNS",
    "SchemaError",
    "describe_schema",
    "open_text",
    "IngestPolicy",
    "IngestReport",
    "IngestResult",
    "QuarantineWriter",
    "RowPipeline",
    "detect_format",
    "ingest_trace",
    "read_trace_file",
]
