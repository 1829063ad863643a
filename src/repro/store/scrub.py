"""Scrub, quarantine, and repair for the columnar store.

The self-healing loop: :func:`scrub_store` walks every manifest shard,
classifies damage with :func:`~repro.store.reader.diagnose_shard`
(missing files, torn/bit-rot checksum mismatches, stat drift, sort
violations), moves damaged shards' files into ``quarantine/`` behind
an atomic JSONL ledger, and — with ``fix_stats`` — recomputes drifted
manifest statistics from checksum-verified data.  :func:`repair_store`
re-materializes quarantined shards from a reference (the source trace,
another store, or a CSV/JSONL file) and refuses to reinstate anything
it cannot prove byte-identical: each rebuilt column's ``.npy`` bytes
must hash to the manifest's recorded sha256 before it touches
``shards/``.

The manifest deliberately *keeps* quarantined shards: it is the
logical truth of what the store contains, and its per-column checksums
are exactly the oracle repair needs.  Readers opened with
``on_damage="skip"`` read around the quarantine in the meantime
(:class:`~repro.store.reader.DegradedReadReport`).

Crash ordering: files move into ``quarantine/`` *before* the ledger is
rewritten, and the ledger write is atomic (fault site
``store.scrub.ledger``).  A crash between the two leaves files
quarantined but unledgered — the next scrub re-discovers the shard as
missing and re-ledgers it, and repair sweeps quarantined copies by
shard-name glob, so no state is ever stranded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.io.ingest import read_trace_file
from repro.records.trace import FailureTrace
from repro.resilience.atomic import atomic_write_bytes, fs_fault_hook
from repro.store.manifest import (
    MANIFEST_NAME,
    QUARANTINE_DIR,
    SHARDS_DIR,
    STAGING_DIR,
    ShardInfo,
    StoreError,
    load_ledger,
    publish_manifest,
    shard_stats_from_batch,
    write_ledger,
)
from repro.store.reader import ColumnarStore, diagnose_shard
from repro.store.schema import COLUMN_NAMES, ColumnBatch
from repro.store.writer import (
    _npy_bytes,
    column_file_name,
    layout_runs,
    strip_record_ids,
)

__all__ = ["ScrubReport", "RepairReport", "scrub_store", "repair_store"]


@dataclass
class ScrubReport:
    """What one scrub pass found and did."""

    checked: int = 0
    healthy: int = 0
    quarantined: List[str] = field(default_factory=list)
    repaired_stats: List[str] = field(default_factory=list)
    stat_drift: List[str] = field(default_factory=list)
    orphans: List[str] = field(default_factory=list)
    damage: Dict[str, int] = field(default_factory=dict)
    staging_cleaned: bool = False

    @property
    def ok(self) -> bool:
        """True when the store needs no further healing."""
        return not self.quarantined and not self.stat_drift

    def to_dict(self) -> dict:
        return {
            "checked": self.checked,
            "healthy": self.healthy,
            "quarantined": sorted(self.quarantined),
            "repaired_stats": sorted(self.repaired_stats),
            "stat_drift": sorted(self.stat_drift),
            "orphans": sorted(self.orphans),
            "damage": dict(sorted(self.damage.items())),
            "staging_cleaned": self.staging_cleaned,
            "ok": self.ok,
        }

    def describe(self) -> str:
        lines = [
            f"scrubbed {self.checked} shard(s): {self.healthy} healthy, "
            f"{len(self.quarantined)} quarantined"
        ]
        if self.repaired_stats:
            lines.append(
                f"stats recomputed for {len(self.repaired_stats)} shard(s): "
                + ", ".join(sorted(self.repaired_stats))
            )
        if self.stat_drift:
            lines.append(
                f"stat drift on {len(self.stat_drift)} shard(s) "
                "(re-run with --fix-stats): "
                + ", ".join(sorted(self.stat_drift))
            )
        for name in sorted(self.quarantined):
            lines.append(f"quarantined shard {name}")
        if self.orphans:
            lines.append(
                f"quarantined {len(self.orphans)} orphan file(s): "
                + ", ".join(sorted(self.orphans))
            )
        if self.damage:
            lines.append(
                "damage classes: "
                + ", ".join(
                    f"{kind}={count}"
                    for kind, count in sorted(self.damage.items())
                )
            )
        if self.staging_cleaned:
            lines.append("removed stale staging/ directory")
        if self.ok:
            lines.append("OK: store is healthy")
        else:
            lines.append(
                "DAMAGED: run `repro store repair --from <trace|store>` "
                "to re-materialize quarantined shards"
            )
        return "\n".join(lines)


@dataclass
class RepairReport:
    """What one repair pass re-materialized (or could not)."""

    repaired: List[str] = field(default_factory=list)
    stats_fixed: List[str] = field(default_factory=list)
    failed: Dict[str, str] = field(default_factory=dict)
    orphans_removed: List[str] = field(default_factory=list)
    remaining: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed and not self.remaining

    def to_dict(self) -> dict:
        return {
            "repaired": sorted(self.repaired),
            "stats_fixed": sorted(self.stats_fixed),
            "failed": dict(sorted(self.failed.items())),
            "orphans_removed": sorted(self.orphans_removed),
            "remaining": sorted(self.remaining),
            "ok": self.ok,
        }

    def describe(self) -> str:
        lines = [
            f"repaired {len(self.repaired)} shard(s)"
            + (": " + ", ".join(sorted(self.repaired)) if self.repaired else "")
        ]
        if self.stats_fixed:
            lines.append(
                f"stats recomputed for {len(self.stats_fixed)} shard(s): "
                + ", ".join(sorted(self.stats_fixed))
            )
        if self.orphans_removed:
            lines.append(
                f"removed {len(self.orphans_removed)} orphan file(s) "
                "from quarantine"
            )
        for name, reason in sorted(self.failed.items()):
            lines.append(f"FAILED shard {name}: {reason}")
        if self.ok:
            lines.append("OK: store fully repaired")
        else:
            lines.append(
                f"INCOMPLETE: {len(self.remaining)} shard(s) still "
                "quarantined"
            )
        return "\n".join(lines)


def _quarantine_files(root: Path, prefix: str) -> List[str]:
    """Names of quarantined ``.npy`` files belonging to one shard."""
    quarantine = root / QUARANTINE_DIR
    if not quarantine.is_dir():
        return []
    return sorted(p.name for p in quarantine.glob(f"{prefix}-*.npy"))


def _move_to_quarantine(root: Path, shard_name: str) -> List[str]:
    """Move a shard's surviving column files into ``quarantine/``.

    ``os.replace`` per file: idempotent under re-runs (an earlier
    crashed scrub may have moved some files already) and never copies,
    so a half-finished move cannot duplicate data.
    """
    shards_dir = root / SHARDS_DIR
    quarantine = root / QUARANTINE_DIR
    quarantine.mkdir(parents=True, exist_ok=True)
    moved: List[str] = []
    for column in COLUMN_NAMES:
        name = column_file_name(shard_name, column)
        source = shards_dir / name
        if source.exists():
            os.replace(source, quarantine / name)
            moved.append(name)
    return moved


def _recomputed_stats(root: Path, shard: ShardInfo) -> Dict[str, Tuple[float, float]]:
    """Recompute a shard's manifest stats from its on-disk columns."""
    shards_dir = root / SHARDS_DIR
    batch = ColumnBatch(
        {
            column: np.load(shards_dir / column_file_name(shard.name, column))
            for column in COLUMN_NAMES
        }
    )
    return shard_stats_from_batch(batch)


def scrub_store(root, *, fix_stats: bool = False) -> ScrubReport:
    """Walk the store, quarantine damage, optionally repair stats.

    Safe to re-run at any time: a healthy store passes through
    untouched, already-quarantined shards are left (and any of their
    files still lingering in ``shards/`` after a crashed earlier scrub
    are swept into quarantine), and stat-drift-only shards are
    rewritten into the manifest only under ``fix_stats`` — their data
    is checksum-verified first, which is what makes the recomputation
    safe.
    """
    store = ColumnarStore(root)
    root = store.root
    manifest = store.manifest
    ledger = load_ledger(root)
    report = ScrubReport()
    new_shards: List[ShardInfo] = []
    stats_changed = False

    with obs.span("store.scrub", shards=len(manifest.shards)):
        for shard in manifest.shards:
            report.checked += 1
            new_shards.append(shard)
            if shard.name in ledger:
                # Crash recovery: finish any half-done move, refresh
                # the entry's file list, stay quarantined.
                _move_to_quarantine(root, shard.name)
                entry = dict(ledger[shard.name])
                entry["files"] = _quarantine_files(root, shard.name)
                ledger[shard.name] = entry
                report.quarantined.append(shard.name)
                for kind in entry.get("damage", []):
                    report.damage[kind] = report.damage.get(kind, 0) + 1
                continue
            findings = diagnose_shard(root, shard, deep=True)
            if not findings:
                report.healthy += 1
                continue
            classes = sorted({kind for kind, _ in findings})
            if classes == ["stat-drift"]:
                if fix_stats:
                    fixed = dataclasses.replace(
                        shard, stats=_recomputed_stats(root, shard)
                    )
                    new_shards[-1] = fixed
                    stats_changed = True
                    report.repaired_stats.append(shard.name)
                    report.healthy += 1
                else:
                    report.stat_drift.append(shard.name)
                    report.damage["stat-drift"] = (
                        report.damage.get("stat-drift", 0) + 1
                    )
                continue
            _move_to_quarantine(root, shard.name)
            missing = [
                column_file_name(shard.name, column)
                for column in COLUMN_NAMES
                if not (root / QUARANTINE_DIR / column_file_name(shard.name, column)).exists()
            ]
            ledger[shard.name] = {
                "shard": shard.name,
                "rows": shard.rows,
                "damage": classes,
                "problems": [message for _, message in findings],
                "files": _quarantine_files(root, shard.name),
                "missing": missing,
            }
            report.quarantined.append(shard.name)
            for kind in classes:
                report.damage[kind] = report.damage.get(kind, 0) + 1

        # Orphan column files in shards/ that no manifest shard claims.
        expected = {
            column_file_name(shard.name, column)
            for shard in manifest.shards
            for column in COLUMN_NAMES
        }
        quarantine = root / QUARANTINE_DIR
        for path in sorted((root / SHARDS_DIR).glob("*.npy")):
            if path.name in expected:
                continue
            quarantine.mkdir(parents=True, exist_ok=True)
            os.replace(path, quarantine / path.name)
            ledger[path.name] = {
                "shard": path.name,
                "rows": 0,
                "damage": ["orphan"],
                "problems": [f"orphan file {path.name} not in manifest"],
                "files": [path.name],
                "missing": [],
            }
            report.orphans.append(path.name)
            report.damage["orphan"] = report.damage.get("orphan", 0) + 1

        staging = root / STAGING_DIR
        if staging.is_dir():
            shutil.rmtree(staging)
            report.staging_cleaned = True

        write_ledger(root, ledger)
        if stats_changed:
            publish_manifest(
                root,
                dataclasses.replace(manifest, shards=tuple(new_shards)),
                site="store.manifest",
            )

    registry = obs.metrics()
    registry.counter("store.shards_quarantined").add(len(report.quarantined))
    registry.counter("store.shards_stats_repaired").add(
        len(report.repaired_stats)
    )
    return report


def _resolve_reference(source) -> FailureTrace:
    """Turn a repair reference — trace, store dir, CSV/JSONL — into a trace."""
    if isinstance(source, FailureTrace):
        return source
    if isinstance(source, ColumnarStore):
        return source.to_trace()
    path = Path(source)
    if path.is_dir():
        if not (path / MANIFEST_NAME).exists():
            raise StoreError(
                f"{path} is not a columnar store (no {MANIFEST_NAME})"
            )
        return ColumnarStore(path).to_trace()
    return read_trace_file(path)


def _restarted_systems(shards) -> set:
    """Systems whose shards, in manifest order, hold more than one
    sorted run: a shard starts before the system's previous shard ends,
    which no one-run layout can show."""
    restarted, ends = set(), {}
    for shard in shards:
        low, high = shard.stats["start_time"]
        if low < ends.get(shard.system_id, low):
            restarted.add(shard.system_id)
        ends[shard.system_id] = high
    return restarted


def repair_store(root, source) -> RepairReport:
    """Re-materialize damaged shards from a reference, provably.

    The reference is laid out by the store writer's own cut
    (:func:`~repro.store.writer.layout_runs`), sliced at the manifest's
    shard boundaries, and serialized with the writer's own ``.npy``
    encoder; a shard is reinstated only when **every**
    column's bytes hash to the manifest's recorded sha256.  A shard
    whose manifest carries no checksum, or whose reference bytes
    disagree, stays quarantined and is reported as failed — repair
    never guesses.  So does a shard of a system that holds more than one
    sorted run, which the one-run cut cannot rebuild.
    """
    store = ColumnarStore(root)
    root = store.root
    manifest = store.manifest
    ledger = load_ledger(root)
    report = RepairReport()
    shard_names = {shard.name for shard in manifest.shards}

    # Orphan / stale ledger entries: their files answer to no manifest
    # shard, so there is nothing to reinstate — just drop them.
    for key in sorted(set(ledger) - shard_names):
        entry = ledger.pop(key)
        for name in entry.get("files", []):
            try:
                (root / QUARANTINE_DIR / name).unlink()
            except FileNotFoundError:
                pass
        report.orphans_removed.append(key)

    # Targets: everything ledgered plus anything damaged but not yet
    # scrubbed (repair works standalone), with stat-drift-only shards
    # healed in place.
    targets: Dict[str, List[str]] = {}
    drifted: List[str] = []
    for shard in manifest.shards:
        if shard.name in ledger:
            targets[shard.name] = list(ledger[shard.name].get("damage", []))
            continue
        findings = diagnose_shard(root, shard, deep=True)
        if not findings:
            continue
        classes = sorted({kind for kind, _ in findings})
        if classes == ["stat-drift"]:
            drifted.append(shard.name)
        else:
            targets[shard.name] = classes

    new_shards: List[ShardInfo] = list(manifest.shards)
    index_of = {shard.name: i for i, shard in enumerate(manifest.shards)}
    stats_changed = False

    with obs.span("store.repair", targets=len(targets)):
        if targets:
            batch = _resolve_reference(source).columns
            if manifest.record_ids == "implicit":
                batch = strip_record_ids(batch)
            runs = dict(layout_runs(batch))
            restarted = _restarted_systems(manifest.shards)

            offsets: Dict[int, int] = {}
            for shard in manifest.shards:
                system_id = shard.system_id
                offset = offsets.get(system_id, 0)
                offsets[system_id] = offset + shard.rows
                if shard.name not in targets:
                    continue
                if system_id in restarted:
                    report.failed[shard.name] = (
                        f"system {system_id} holds more than one sorted run "
                        "of shards, a layout only an append by an older "
                        "version of this tool writes; repair cannot rebuild "
                        "it, but re-importing the reference (`repro store "
                        "import`) does"
                    )
                    continue
                rows = runs.get(system_id, ())
                if len(rows) < offset + shard.rows:
                    report.failed[shard.name] = (
                        f"reference has only {len(rows)} row(s) for system "
                        f"{system_id}, shard needs rows "
                        f"[{offset}, {offset + shard.rows})"
                    )
                    continue
                chunk = batch.take(rows[offset:offset + shard.rows])
                payloads: Dict[str, bytes] = {}
                mismatch: Optional[str] = None
                for column in COLUMN_NAMES:
                    expected = shard.checksums.get(column)
                    if expected is None:
                        mismatch = (
                            f"manifest has no checksum for {column}; "
                            "cannot prove byte identity"
                        )
                        break
                    payload = _npy_bytes(chunk[column])
                    if hashlib.sha256(payload).hexdigest() != expected:
                        mismatch = (
                            f"reference bytes for {column} do not match "
                            "the manifest sha256 (wrong reference?)"
                        )
                        break
                    payloads[column] = payload
                if mismatch is not None:
                    report.failed[shard.name] = mismatch
                    continue
                for column, payload in payloads.items():
                    path = root / SHARDS_DIR / column_file_name(
                        shard.name, column
                    )
                    fs_fault_hook("store.column", path)
                    atomic_write_bytes(path, payload)
                for name in _quarantine_files(root, shard.name):
                    (root / QUARANTINE_DIR / name).unlink()
                ledger.pop(shard.name, None)
                report.repaired.append(shard.name)
                # The reinstated bytes are proven; make sure the
                # manifest stats agree with them too.
                recomputed = _recomputed_stats(root, shard)
                if recomputed != dict(shard.stats):
                    new_shards[index_of[shard.name]] = dataclasses.replace(
                        shard, stats=recomputed
                    )
                    stats_changed = True
                    report.stats_fixed.append(shard.name)

        for name in drifted:
            shard = manifest.shards[index_of[name]]
            new_shards[index_of[name]] = dataclasses.replace(
                shard, stats=_recomputed_stats(root, shard)
            )
            stats_changed = True
            report.stats_fixed.append(name)

        write_ledger(root, ledger)
        if stats_changed:
            publish_manifest(
                root,
                dataclasses.replace(manifest, shards=tuple(new_shards)),
                site="store.manifest",
            )

    report.remaining = sorted(ledger)
    registry = obs.metrics()
    registry.counter("store.shards_repaired").add(len(report.repaired))
    return report
