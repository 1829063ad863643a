"""High-level, policy-aware trace ingestion.

:func:`ingest_trace` is the one-call entry the CLI and services use:
it picks the reader from the file name (or an explicit format /
column mapping), runs it under an :class:`~repro.io.policy.IngestPolicy`
and returns both the trace and the :class:`~repro.io.policy.IngestReport`
describing what was kept, repaired and quarantined.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

from repro.io.common import PathLike
from repro.io.policy import IngestPolicy, IngestReport
from repro.records.system import SystemConfig
from repro.records.trace import FailureTrace

__all__ = ["IngestResult", "detect_format", "ingest_trace", "read_trace_file"]


@dataclass(frozen=True)
class IngestResult:
    """A loaded trace plus the row accounting that produced it."""

    trace: FailureTrace
    report: IngestReport

    @property
    def ok(self) -> bool:
        """True when no rows were quarantined."""
        return self.report.ok


def detect_format(path: PathLike) -> str:
    """``"jsonl"`` or ``"csv"`` from the file name (``.gz`` stripped)."""
    name = Path(path).name
    if name.endswith(".gz"):
        name = name[: -len(".gz")]
    return "jsonl" if name.endswith(".jsonl") else "csv"


def read_trace_file(path: PathLike) -> FailureTrace:
    """Read a CSV or JSONL trace with the bare reader its name picks
    (:func:`detect_format`, so ``.gz`` variants included)."""
    if detect_format(path) == "jsonl":
        from repro.io.jsonl_format import read_jsonl

        return read_jsonl(path)
    from repro.io.csv_format import read_lanl_csv

    return read_lanl_csv(path)


def ingest_trace(
    path: PathLike,
    policy: Optional[IngestPolicy] = None,
    format: str = "auto",
    mapping=None,
    systems: Optional[Mapping[int, SystemConfig]] = None,
    data_start: Optional[float] = None,
    data_end: Optional[float] = None,
) -> IngestResult:
    """Load a trace under a policy and return trace + report.

    Parameters
    ----------
    path:
        CSV or JSONL trace, optionally gzipped.
    policy:
        Defaults to a full-checking strict :class:`IngestPolicy` (note:
        stricter than the bare readers, which skip inventory/window/
        duplicate checks when called without a policy).
    format:
        ``"auto"`` (from the file name), ``"csv"`` or ``"jsonl"``.
    mapping:
        Optional :class:`~repro.io.mapped.ColumnMapping`; when given,
        the file is read through the foreign-log importer regardless of
        ``format``.
    systems / data_start / data_end:
        Forwarded to the underlying reader.
    """
    from repro import obs

    if policy is None:
        policy = IngestPolicy()
    if format not in ("auto", "csv", "jsonl"):
        raise ValueError(f"unknown format {format!r}")
    report = IngestReport()
    kwargs = dict(
        systems=systems,
        data_start=data_start,
        data_end=data_end,
        policy=policy,
        report=report,
    )
    with obs.span(
        "ingest", source=str(path), mode=policy.mode, format=format
    ) as span:
        if mapping is not None:
            from repro.io.mapped import read_mapped_csv

            trace = read_mapped_csv(path, mapping, **kwargs)
        elif (format if format != "auto" else detect_format(path)) == "jsonl":
            from repro.io.jsonl_format import read_jsonl

            trace = read_jsonl(path, **kwargs)
        else:
            from repro.io.csv_format import read_lanl_csv

            trace = read_lanl_csv(path, **kwargs)
        span.add("rows_read", report.rows_read)
        span.add("rows_kept", report.rows_kept)
        span.add("rows_quarantined", report.rows_quarantined)
    return IngestResult(trace=trace, report=report)
