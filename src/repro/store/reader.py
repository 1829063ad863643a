"""Reading a sharded columnar store out-of-core.

:class:`ColumnarStore` memory-maps per-shard column files and yields
bounded-size :class:`~repro.store.schema.ColumnBatch` chunks, pruning
whole shards whose manifest statistics cannot satisfy the predicate
(*pushdown*).  Peak memory is one chunk's worth of columns, never the
trace — the out-of-core contract the RSS-capped tests enforce.

Record order: every shard is cut by the writer's shard layout
(:mod:`repro.store.writer`), so it holds one system's rows sorted by
``(start_time, node_id)``.  :meth:`ColumnarStore.to_trace` and
:meth:`ColumnarStore.iter_records` concatenate the admitted shards'
columns in manifest order and sort them with one stable
``lexsort((node_id, system_id, start_time))``, so rows order on
``(start_time, system_id, node_id, shard, row)``: the generator's
global order, tie-breaks included, so a store round-trip is
record-for-record ``repr``-identical to the list-backed path.  Both
hold the admitted rows' columns (36 bytes a row); ``to_trace`` wraps
them in a column-backed :class:`~repro.records.trace.FailureTrace`,
and ``iter_records`` decodes one ``batch_rows`` chunk at a time.
Iterating every record of the 1M-row (x38) store peaks at 126 MB RSS
in 5.8-7.2 s on a 2-core Xeon VM, against 220 MB and 7.7-8.8 s for the
per-row heap merge this replaced.

Opening a column: the schema pins each column's dtype and the manifest
each shard's rows, so the header the writer's ``np.save`` put in front
of the data is known before the file is opened.  A file whose first
bytes are that header and whose size is the header plus the data is
mapped with ``mmap`` past the header, without parsing it; ``np.load``
opens any other file (another NumPy's header layout, a damaged file),
and its result or error is what the damage probe, ``verify`` and scrub
classify.  A scan's probe compares the bytes of every column file and
maps nothing; the scan maps each projected column when it reaches that
shard and drops the maps when it moves on.
"""

from __future__ import annotations

import functools
import hashlib
import io
import mmap
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.records.columns import records_from_batch, trace_order
from repro.records.record import FailureRecord
from repro.records.trace import FailureTrace
from repro.resilience.atomic import fs_fault_hook
from repro.resilience.deadline import Deadline
from repro.store.manifest import (
    MANIFEST_NAME,
    PREV_MANIFEST_NAME,
    SHARDS_DIR,
    Manifest,
    Predicate,
    ShardInfo,
    StoreError,
    load_ledger,
)
from repro.store.schema import (
    COLUMN_DTYPES,
    COLUMN_NAMES,
    NO_RECORD_ID,
    ColumnBatch,
    schema_digest,
)
from repro.store.writer import column_file_name

__all__ = [
    "ColumnarStore",
    "DegradedReadReport",
    "ScanStats",
    "diagnose_shard",
    "verify_store",
]

#: Default rows per read chunk (~2 MB across the full row footprint).
DEFAULT_BATCH_ROWS = 65536

#: Columns a predicate needs to evaluate its row mask.
_PREDICATE_COLUMNS = ("start_time", "system_id")


@dataclass
class ScanStats:
    """Pushdown accounting for one scan (and the CLI's proof of it)."""

    shards_scanned: int = 0
    shards_pruned: int = 0
    rows_scanned: int = 0
    rows_matched: int = 0

    def describe(self) -> str:
        return (
            f"shards scanned={self.shards_scanned} "
            f"pruned={self.shards_pruned}; "
            f"rows scanned={self.rows_scanned} "
            f"matched={self.rows_matched}"
        )


@dataclass
class DegradedReadReport:
    """What a degraded (``on_damage="skip"``) read had to skip.

    ``system_rows_total`` is pre-populated from the manifest when the
    store opens, so :meth:`coverage` is meaningful even before any
    shard is skipped; skipped shards accumulate via :meth:`record`,
    which deduplicates by shard name across repeated scans on the same
    handle.
    """

    shards_skipped: List[str] = field(default_factory=list)
    rows_skipped: int = 0
    reasons: Dict[str, str] = field(default_factory=dict)
    system_rows_total: Dict[int, int] = field(default_factory=dict)
    system_rows_skipped: Dict[int, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.shards_skipped)

    def record(self, shard: ShardInfo, reason: str) -> bool:
        """Note a skipped shard; returns False if already recorded."""
        if shard.name in self.reasons:
            return False
        self.reasons[shard.name] = reason
        self.shards_skipped.append(shard.name)
        self.rows_skipped += shard.rows
        system_id = shard.system_id
        self.system_rows_skipped[system_id] = (
            self.system_rows_skipped.get(system_id, 0) + shard.rows
        )
        return True

    def coverage(self) -> Dict[int, float]:
        """Fraction of each system's manifest rows still readable."""
        out: Dict[int, float] = {}
        for system_id in sorted(self.system_rows_total):
            total = self.system_rows_total[system_id]
            skipped = self.system_rows_skipped.get(system_id, 0)
            out[system_id] = 1.0 if not total else (total - skipped) / total
        return out

    def to_dict(self) -> dict:
        return {
            "shards_skipped": sorted(self.shards_skipped),
            "rows_skipped": self.rows_skipped,
            "reasons": dict(sorted(self.reasons.items())),
            "coverage": {
                str(system_id): fraction
                for system_id, fraction in self.coverage().items()
            },
        }

    def describe(self) -> str:
        if not self:
            return "degraded read: nothing skipped"
        partial = [
            f"system {system_id} {fraction:.1%}"
            for system_id, fraction in self.coverage().items()
            if fraction < 1.0
        ]
        return (
            f"degraded read: skipped {len(self.shards_skipped)} shard(s), "
            f"{self.rows_skipped} row(s)"
            + (f"; coverage {', '.join(partial)}" if partial else "")
        )


#: ``np.load`` parses a ``.npy`` header with ``ast.literal_eval``, which
#: CPython 3.11 cannot run on two threads at once ("AST constructor
#: recursion depth mismatch"), and the server scans on several threads.
#: Only column files the writer did not lay out reach ``np.load``.
_OPEN_LOCK = threading.Lock()


@functools.lru_cache(maxsize=1024)
def _npy_header(dtype: np.dtype, rows: int) -> bytes:
    """The ``.npy`` header ``np.save`` writes for ``rows`` values of
    ``dtype``: format 1.0, C order, one dimension."""
    buffer = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buffer,
        {
            "descr": np.lib.format.dtype_to_descr(dtype),
            "fortran_order": False,
            "shape": (rows,),
        },
    )
    return buffer.getvalue()


def _data_offset(file: BinaryIO, dtype: np.dtype, rows: int) -> Optional[int]:
    """Where the data starts in an open column file laid out as the
    writer lays it out — the header of :func:`_npy_header`, then exactly
    ``rows`` values — or None for any other file."""
    header = _npy_header(dtype, rows)
    if file.read(len(header)) != header:
        return None
    if os.fstat(file.fileno()).st_size != len(header) + rows * dtype.itemsize:
        return None
    return len(header)


def _writer_layout(path: Path, dtype: np.dtype, rows: int) -> bool:
    """True when the column file is laid out as the writer lays it out."""
    try:
        with open(path, "rb") as file:
            return _data_offset(file, dtype, rows) is not None
    except OSError:
        return False


def _open_column(path: Path, dtype: np.dtype, rows: int) -> np.ndarray:
    """Memory-map one column file read-only.

    A file laid out as the writer lays it out is mapped past its known
    header.  Any other goes through ``np.load``, one header parse at a
    time, which returns what the file holds or raises, for the caller
    to check against ``dtype`` and ``rows``.
    """
    try:
        with open(path, "rb") as file:
            offset = _data_offset(file, dtype, rows)
            if offset is not None:
                data = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
                return np.frombuffer(data, dtype, rows, offset)
    except OSError:
        pass  # np.load raises it again, as the callers expect
    with _OPEN_LOCK:
        return np.load(path, mmap_mode="r")


@dataclass
class _ShardCursor:
    """Lazily-opened memory maps of one shard's column files."""

    shard: ShardInfo
    paths: Dict[str, Path]
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        array = self.arrays.get(name)
        if array is None:
            # Read-path fault site: lets chaos drills model slow or
            # failing disks on the *serving* path (one hook per shard
            # per column — the mmap'd reads themselves stay hook-free).
            fs_fault_hook("store.read.column", self.paths[name])
            array = _open_column(
                self.paths[name], COLUMN_DTYPES[name], self.shard.rows
            )
            self.arrays[name] = array
        return array


def diagnose_shard(root, shard: ShardInfo, deep: bool = True) -> List[Tuple[str, str]]:
    """Classify one shard's damage against its manifest entry.

    Returns ``(damage_class, message)`` pairs; an empty list means the
    shard is healthy at the requested depth.  File-level classes:
    ``missing-file``, ``unreadable``, ``truncated``, ``dtype-mismatch``,
    and (deep only) ``checksum-mismatch``.  When — and only when — the
    shard has no file-level damage, the deep pass also recomputes the
    manifest statistics and ordering invariants, adding ``stat-drift``,
    ``multi-system``, and ``sort-violation``.  The gate is per-shard:
    damage in one shard never suppresses diagnosis of another.
    """
    shards_dir = Path(root) / SHARDS_DIR
    findings: List[Tuple[str, str]] = []
    arrays: Dict[str, np.ndarray] = {}
    for column in COLUMN_NAMES:
        path = shards_dir / column_file_name(shard.name, column)
        if not path.exists():
            findings.append(
                ("missing-file", f"shard {shard.name}: missing {path.name}")
            )
            continue
        try:
            array = _open_column(path, COLUMN_DTYPES[column], shard.rows)
        except Exception as exc:
            findings.append(
                (
                    "unreadable",
                    f"shard {shard.name}: unreadable {path.name}: "
                    f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        if array.shape != (shard.rows,):
            findings.append(
                (
                    "truncated",
                    f"shard {shard.name}: {path.name} has shape "
                    f"{array.shape}, manifest says ({shard.rows},)",
                )
            )
            continue
        if array.dtype != COLUMN_DTYPES[column]:
            findings.append(
                (
                    "dtype-mismatch",
                    f"shard {shard.name}: {path.name} has dtype "
                    f"{array.dtype}, schema says {COLUMN_DTYPES[column]}",
                )
            )
            continue
        if deep:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            expected = shard.checksums.get(column)
            if expected is not None and digest != expected:
                findings.append(
                    (
                        "checksum-mismatch",
                        f"shard {shard.name}: {path.name} content "
                        "sha256 mismatch (torn or modified)",
                    )
                )
                continue
        arrays[column] = array
    if deep and not findings:
        starts = np.asarray(arrays["start_time"])
        nodes = np.asarray(arrays["node_id"])
        systems = np.asarray(arrays["system_id"])
        for column, array in (
            ("start_time", starts),
            ("end_time", np.asarray(arrays["end_time"])),
            ("system_id", systems),
            ("node_id", nodes),
        ):
            low, high = shard.stats[column]
            if len(array) and (array.min() != low or array.max() != high):
                findings.append(
                    (
                        "stat-drift",
                        f"shard {shard.name}: {column} bounds "
                        f"[{array.min()}, {array.max()}] disagree with "
                        f"manifest [{low}, {high}]",
                    )
                )
        if len(systems) and systems.min() != systems.max():
            findings.append(
                (
                    "multi-system",
                    f"shard {shard.name}: spans multiple systems "
                    f"({systems.min()}..{systems.max()})",
                )
            )
        if len(starts) > 1:
            order = np.lexsort((nodes, starts))
            if not np.array_equal(order, np.arange(len(starts))):
                findings.append(
                    (
                        "sort-violation",
                        f"shard {shard.name}: rows are not sorted by "
                        "(start_time, node_id)",
                    )
                )
    return findings


class ColumnarStore:
    """A read handle on a store directory.

    Opening validates the manifest's schema digest against the running
    code — a store whose categorical codes or dtypes mean something
    else is refused up front (:class:`StoreError`), not misdecoded.

    ``on_damage`` governs reads over a damaged store: ``"raise"`` (the
    default) raises :class:`StoreError` the moment a quarantined or
    damaged shard would be read; ``"skip"`` reads around it and
    accounts for every skipped shard in :attr:`degraded`, a
    :class:`DegradedReadReport`.  The skip-mode probe catches missing,
    unreadable, truncated, and mis-typed column files plus anything
    already quarantined; silent bit rot needs the checksummed scrub
    pass (``repro store scrub``) to be detected.
    """

    def __init__(self, root, on_damage: str = "raise") -> None:
        if on_damage not in ("raise", "skip"):
            raise ValueError(
                f"on_damage must be 'raise' or 'skip', got {on_damage!r}"
            )
        self.root = Path(root)
        self.on_damage = on_damage
        self.manifest = Manifest.load(self.root / MANIFEST_NAME)
        expected = schema_digest()
        if self.manifest.schema_sha256 != expected:
            raise StoreError(
                f"{self.root}: schema digest mismatch "
                f"(store {self.manifest.schema_sha256[:12]}…, "
                f"code {expected[:12]}…); the store was written by an "
                "incompatible version"
            )
        self._ledger = load_ledger(self.root)
        #: Cumulative pushdown counters across this handle's scans.
        self.scan = ScanStats()
        #: Skipped-shard accounting for ``on_damage="skip"`` reads.
        self.degraded = self._new_degraded()

    def __len__(self) -> int:
        return self.manifest.row_count

    def _new_degraded(self) -> DegradedReadReport:
        report = DegradedReadReport()
        for shard in self.manifest.shards:
            system_id = shard.system_id
            report.system_rows_total[system_id] = (
                report.system_rows_total.get(system_id, 0) + shard.rows
            )
        return report

    def reset_scan_stats(self) -> None:
        """Zero the pushdown counters (e.g. before a measured scan)."""
        self.scan = ScanStats()
        self.degraded = self._new_degraded()

    def _cursor(self, shard: ShardInfo) -> _ShardCursor:
        shards_dir = self.root / SHARDS_DIR
        return _ShardCursor(
            shard=shard,
            paths={
                column: shards_dir / column_file_name(shard.name, column)
                for column in COLUMN_NAMES
            },
        )

    def _admitted(self, predicate: Optional[Predicate]) -> List[ShardInfo]:
        """Shards surviving pushdown; updates counters and metrics."""
        candidates = self.manifest.shards
        admitted: List[ShardInfo] = []
        for shard in candidates:
            if predicate is not None and not predicate.admits_shard(shard):
                self.scan.shards_pruned += 1
            else:
                admitted.append(shard)
        self.scan.shards_scanned += len(admitted)
        registry = obs.metrics()
        registry.counter("store.shards_scanned").add(len(admitted))
        registry.counter("store.shards_pruned").add(
            len(candidates) - len(admitted)
        )
        return admitted

    def _shard_damage(self, shard: ShardInfo) -> Optional[str]:
        """Cheap pre-read probe: why this shard cannot be read, or None.

        Header-level only (existence, readability, shape, dtype) plus
        quarantine-ledger membership — no checksum work, so the probe
        stays O(shards) per scan.  A file laid out as the writer lays it
        out passes on its header bytes and size, unmapped; any other is
        opened to say why it cannot be read.  Bit rot that keeps a valid
        header is invisible here by design; scrub's checksums own that
        class.
        """
        if shard.name in self._ledger:
            damage = self._ledger[shard.name].get("damage") or ["unknown"]
            return f"quarantined ({', '.join(damage)})"
        shards_dir = self.root / SHARDS_DIR
        for column in COLUMN_NAMES:
            path = shards_dir / column_file_name(shard.name, column)
            dtype = COLUMN_DTYPES[column]
            if _writer_layout(path, dtype, shard.rows):
                continue
            if not path.exists():
                return f"missing {path.name}"
            try:
                array = _open_column(path, dtype, shard.rows)
            except Exception as exc:
                return f"unreadable {path.name}: {type(exc).__name__}"
            if array.shape != (shard.rows,):
                return f"{path.name} has shape {array.shape}, expected ({shard.rows},)"
            if array.dtype != dtype:
                return f"{path.name} has dtype {array.dtype}"
        return None

    def _healthy(self, shards: Sequence[ShardInfo]) -> List[ShardInfo]:
        """Filter damaged shards per ``on_damage``; skip-mode accounts."""
        healthy: List[ShardInfo] = []
        for shard in shards:
            damage = self._shard_damage(shard)
            if damage is None:
                healthy.append(shard)
                continue
            if self.on_damage == "raise":
                raise StoreError(
                    f"{self.root}: shard {shard.name} is damaged "
                    f"({damage}); run `repro store scrub` / "
                    "`repro store repair`, or open with "
                    "on_damage='skip' for a degraded read"
                )
            if self.degraded.record(shard, damage):
                registry = obs.metrics()
                registry.counter("store.shards_skipped_damaged").add(1)
                registry.counter("store.rows_skipped_damaged").add(shard.rows)
        return healthy

    # ------------------------------------------------------------------
    # Batch iteration (the analytics path)
    # ------------------------------------------------------------------

    def iter_batches(
        self,
        columns: Optional[Sequence[str]] = None,
        predicate: Optional[Predicate] = None,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        deadline: Optional[Deadline] = None,
    ) -> Iterator[ColumnBatch]:
        """Yield bounded column chunks, shard by shard.

        ``columns`` projects (default: all); the predicate's own
        columns are read regardless so the row mask can be applied.
        Chunks arrive in shard order — per-shard sorted, *not* globally
        merged (use :meth:`to_trace` or :meth:`iter_records` for global
        order).

        ``deadline`` bounds the scan's wall time: the budget is checked
        at every chunk boundary and a blown budget raises
        :class:`~repro.resilience.deadline.DeadlineExceeded` before the
        next chunk is read — a slow scan terminates promptly instead of
        hanging its caller.  The disabled path is a single ``is None``
        test per chunk.
        """
        if batch_rows < 1:
            raise ValueError(f"batch_rows must be >= 1, got {batch_rows}")
        wanted = tuple(columns) if columns is not None else COLUMN_NAMES
        unknown = set(wanted) - set(COLUMN_NAMES)
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)}")
        needed = tuple(
            dict.fromkeys(
                tuple(wanted)
                + (_PREDICATE_COLUMNS if predicate is not None else ())
            )
        )
        for shard in self._healthy(self._admitted(predicate)):
            cursor = self._cursor(shard)
            for offset in range(0, shard.rows, batch_rows):
                if deadline is not None:
                    deadline.check("store scan")
                chunk = ColumnBatch(
                    {
                        column: np.asarray(
                            cursor.column(column)[offset:offset + batch_rows]
                        )
                        for column in needed
                    }
                )
                self.scan.rows_scanned += len(chunk)
                if predicate is not None:
                    mask = predicate.mask(chunk)
                    matched = int(np.count_nonzero(mask))
                    self.scan.rows_matched += matched
                    if not matched:
                        continue
                    chunk = chunk.take(mask)
                else:
                    self.scan.rows_matched += len(chunk)
                if set(wanted) != set(needed):
                    chunk = ColumnBatch(
                        {column: chunk[column] for column in wanted}
                    )
                yield chunk

    # ------------------------------------------------------------------
    # Merged rows (the trace path)
    # ------------------------------------------------------------------

    def _merged(self, predicate: Optional[Predicate]) -> ColumnBatch:
        """The admitted rows in global trace order, record IDs resolved.

        Record IDs: an ``explicit`` store keeps the stored IDs; an
        ``implicit`` store numbers rows by global position — the
        generator's numbering — unless a predicate filters rows or a
        degraded read skips shards, in which case the IDs read as
        ``None`` (positions in the *partial* stream would silently
        disagree with the full trace's).
        """
        if predicate is not None and predicate.is_null():
            predicate = None
        admitted = self._admitted(predicate)
        healthy = self._healthy(admitted)
        implicit = self.manifest.record_ids == "implicit"
        # An implicit store's record_id column is all sentinels.
        names = tuple(
            name for name in COLUMN_NAMES
            if not (implicit and name == "record_id")
        )
        parts: List[Dict[str, np.ndarray]] = []
        for shard in healthy:
            cursor = self._cursor(shard)
            part = {name: cursor.column(name) for name in names}
            self.scan.rows_scanned += shard.rows
            if predicate is not None:
                mask = predicate.mask(ColumnBatch(part))
                part = {name: array[mask] for name, array in part.items()}
            self.scan.rows_matched += len(part["start_time"])
            parts.append(part)
        # Column by column, dropping each shard map once copied and each
        # unsorted column once sorted: peak memory stays near one copy.
        columns = {
            name: np.concatenate(
                [np.empty(0, COLUMN_DTYPES[name])]
                + [part.pop(name) for part in parts]
            )
            for name in names
        }
        order = trace_order(columns)
        for name in names:
            columns[name] = columns[name][order]
        if implicit:
            complete = predicate is None and len(healthy) == len(admitted)
            columns["record_id"] = (
                np.arange(len(order)) if complete
                else np.full(len(order), NO_RECORD_ID)
            )
        return ColumnBatch(columns)

    def iter_records(
        self,
        predicate: Optional[Predicate] = None,
        batch_rows: int = DEFAULT_BATCH_ROWS,
    ) -> Iterator[FailureRecord]:
        """Yield records in global trace order, lazily.

        Holds the admitted rows' columns (36 bytes a row) and decodes
        them ``batch_rows`` records at a time.  Record IDs as in
        :meth:`_merged`.
        """
        if batch_rows < 1:
            raise ValueError(f"batch_rows must be >= 1, got {batch_rows}")
        merged = self._merged(predicate)
        for offset in range(0, len(merged), batch_rows):
            yield from records_from_batch(
                merged.slice(offset, offset + batch_rows)
            )

    def to_trace(self, predicate: Optional[Predicate] = None) -> FailureTrace:
        """A column-backed :class:`FailureTrace` of the admitted rows.

        Every row is checked against :class:`FailureRecord`'s rules, but
        no record is built until something iterates the trace.  Record
        IDs as in :meth:`_merged`.
        """
        return FailureTrace.from_columns(
            self._merged(predicate),
            systems=self.manifest.systems or None,
            data_start=self.manifest.data_start,
            data_end=self.manifest.data_end,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def info(self) -> Dict[str, object]:
        """A JSON-able summary for ``repro store info``.

        Includes the store's *self-healing state* — quarantined-shard
        count, the systems a degraded read would undercount, and
        whether a ``manifest.prev.json`` rollback generation exists —
        so readiness probes and operators see degradation without
        paying for a full scrub.
        """
        manifest = self.manifest
        size = 0
        for shard in manifest.shards:
            for column in COLUMN_NAMES:
                path = (
                    self.root / SHARDS_DIR / column_file_name(shard.name, column)
                )
                if path.exists():
                    size += path.stat().st_size
        by_name = {shard.name: shard for shard in manifest.shards}
        quarantined = sorted(name for name in self._ledger if name in by_name)
        affected_systems = sorted(
            {by_name[name].system_id for name in quarantined}
        )
        quarantined_rows = sum(by_name[name].rows for name in quarantined)
        healing = {
            "quarantined_shards": len(quarantined),
            "quarantined_rows": quarantined_rows,
            "affected_systems": affected_systems,
            "ledger_entries": len(self._ledger),
            "manifest_prev": (self.root / PREV_MANIFEST_NAME).exists(),
        }
        return {
            "healing": healing,
            "root": str(self.root),
            "rows": manifest.row_count,
            "shards": len(manifest.shards),
            "columns": list(manifest.columns),
            "record_ids": manifest.record_ids,
            "schema_sha256": manifest.schema_sha256,
            "format_version": manifest.format_version,
            "systems": sorted(manifest.systems),
            "data_start": manifest.data_start,
            "data_end": manifest.data_end,
            "bytes": size,
            "meta": dict(sorted(manifest.meta.items())),
        }

    def verify(self, deep: bool = True) -> List[str]:
        """Check the store against its manifest; return problems.

        Shallow: every column file exists with the manifest's row count
        and the schema dtype (catches truncation — a torn ``.npy`` has
        the wrong byte length for its header, or a header shorter than
        the manifest's rows).  Deep adds content sha256 verification
        and — per shard, gated only on *that shard's* file-level
        health — min/max statistics recomputation and the sort
        invariant, so one damaged shard never suppresses deep checks
        on its neighbours.  Quarantined shards are reported as a
        single problem each, pointing at ``store repair``.
        """
        problems: List[str] = []
        total = 0
        for shard in self.manifest.shards:
            total += shard.rows
            if shard.name in self._ledger:
                damage = self._ledger[shard.name].get("damage") or ["unknown"]
                problems.append(
                    f"shard {shard.name}: quarantined "
                    f"({', '.join(damage)}); run `repro store repair` "
                    "to re-materialize it from a reference"
                )
                continue
            problems.extend(
                message
                for _, message in diagnose_shard(self.root, shard, deep=deep)
            )
        if total != self.manifest.row_count:
            problems.append(
                f"manifest row_count {self.manifest.row_count} != "
                f"sum of shard rows {total}"
            )
        return problems


def verify_store(root, deep: bool = True) -> List[str]:
    """Open-and-verify helper that also catches manifest-level damage."""
    try:
        store = ColumnarStore(root)
    except StoreError as exc:
        return [str(exc)]
    return store.verify(deep=deep)
