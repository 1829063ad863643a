"""The store manifest: shard index, pushdown statistics, identity.

``manifest.json`` is the store's single source of truth: the schema
digest, the shard list with per-shard row counts, per-column min/max
statistics and content checksums, the record-id mode, and the
serialized system inventory.  It is written *last*, atomically — a
directory without a readable manifest is not a store, so a crashed
write can never present a partial store as complete.

The manifest is deliberately free of wall-clock timestamps and
absolute paths: the same trace written twice produces byte-identical
manifests, which is what lets the chaos campaign and CI ``cmp`` them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.records.node import NodeCategory
from repro.records.record import Workload
from repro.records.system import (
    HardwareArchitecture,
    HardwareType,
    SystemConfig,
)
from repro.resilience.atomic import (
    atomic_write_json,
    atomic_write_text,
    fs_fault_hook,
)
from repro.store.schema import STAT_COLUMNS, ColumnBatch

__all__ = [
    "MANIFEST_NAME",
    "PREV_MANIFEST_NAME",
    "QUARANTINE_DIR",
    "STAGING_DIR",
    "LEDGER_NAME",
    "ShardInfo",
    "Predicate",
    "Manifest",
    "StoreError",
    "systems_to_payload",
    "systems_from_payload",
    "load_ledger",
    "write_ledger",
    "publish_manifest",
]

#: File name of the manifest inside a store directory.
MANIFEST_NAME = "manifest.json"

#: Rollback generation kept by :func:`publish_manifest` — the previous
#: ``manifest.json``, so a bad publish can be undone by hand.
PREV_MANIFEST_NAME = "manifest.prev.json"

#: Subdirectory holding the per-shard column files.
SHARDS_DIR = "shards"

#: Subdirectory where the scrub engine moves damaged shard files.
QUARANTINE_DIR = "quarantine"

#: Subdirectory where older versions' appends staged new shard files;
#: scrub removes one that a crash left behind.
STAGING_DIR = "staging"

#: JSONL ledger inside ``quarantine/`` recording what was quarantined
#: and why (one JSON object per line, sorted by key, written atomically).
LEDGER_NAME = "ledger.jsonl"


class StoreError(Exception):
    """A store directory is missing, inconsistent, or unreadable."""


@dataclass(frozen=True)
class ShardInfo:
    """One shard's entry in the manifest.

    ``stats`` maps each :data:`~repro.store.schema.STAT_COLUMNS` name
    to its inclusive ``(min, max)`` over the shard's rows; the store's
    shards each hold a single system, so ``system_id`` min == max.
    ``checksums`` maps every column name to the sha256 of its ``.npy``
    file bytes.
    """

    name: str
    rows: int
    stats: Mapping[str, Tuple[float, float]]
    checksums: Mapping[str, str] = field(default_factory=dict)

    @property
    def system_id(self) -> int:
        """The one system whose rows the shard holds."""
        return int(self.stats["system_id"][0])

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "rows": self.rows,
            "stats": {
                column: [low, high]
                for column, (low, high) in sorted(self.stats.items())
            },
            "checksums": dict(sorted(self.checksums.items())),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ShardInfo":
        return cls(
            name=str(payload["name"]),
            rows=int(payload["rows"]),
            stats={
                column: (bounds[0], bounds[1])
                for column, bounds in payload["stats"].items()
            },
            checksums=dict(payload.get("checksums", {})),
        )


@dataclass(frozen=True)
class Predicate:
    """A pushdown filter over ``start_time`` and ``system_id``.

    Semantics match :meth:`repro.records.trace.FailureTrace.between`
    and ``filter_systems``: the time window is half-open —
    ``t_min <= start_time < t_max`` — and ``systems`` is an inclusive
    membership set.  ``None`` fields are unconstrained.

    :meth:`admits_shard` is the *pruning* side: it may only return
    ``False`` when no row of the shard can satisfy :meth:`mask` (the
    property-test invariant).  Boundary care: a shard whose
    ``max(start_time)`` equals ``t_min`` still has matching rows
    (inclusive lower bound), while one whose ``min(start_time)``
    equals ``t_max`` has none (exclusive upper bound).
    """

    t_min: Optional[float] = None
    t_max: Optional[float] = None
    systems: Optional[frozenset] = None

    @classmethod
    def build(
        cls,
        t_min: Optional[float] = None,
        t_max: Optional[float] = None,
        systems=None,
    ) -> "Predicate":
        """Normalize raw filter values into a predicate."""
        return cls(
            t_min=None if t_min is None else float(t_min),
            t_max=None if t_max is None else float(t_max),
            systems=(
                None if systems is None
                else frozenset(int(s) for s in systems)
            ),
        )

    def is_null(self) -> bool:
        """True when the predicate constrains nothing."""
        return self.t_min is None and self.t_max is None and (
            self.systems is None
        )

    def admits_shard(self, shard: ShardInfo) -> bool:
        """Whether the shard may contain a matching row (never a false
        negative: pruning only on disjoint bounds)."""
        start_lo, start_hi = shard.stats["start_time"]
        if self.t_min is not None and start_hi < self.t_min:
            return False
        if self.t_max is not None and start_lo >= self.t_max:
            return False
        if self.systems is not None:
            sys_lo, sys_hi = shard.stats["system_id"]
            if not any(sys_lo <= s <= sys_hi for s in self.systems):
                return False
        return True

    def mask(self, batch: ColumnBatch) -> np.ndarray:
        """Boolean row mask of the predicate over a batch."""
        keep = np.ones(len(batch), dtype=bool)
        if self.t_min is not None:
            keep &= batch["start_time"] >= self.t_min
        if self.t_max is not None:
            keep &= batch["start_time"] < self.t_max
        if self.systems is not None:
            keep &= np.isin(
                batch["system_id"],
                np.fromiter(self.systems, dtype=np.int64, count=len(self.systems)),
            )
        return keep

    def describe(self) -> str:
        parts = []
        if self.t_min is not None or self.t_max is not None:
            lo = "-inf" if self.t_min is None else repr(self.t_min)
            hi = "+inf" if self.t_max is None else repr(self.t_max)
            parts.append(f"start_time in [{lo}, {hi})")
        if self.systems is not None:
            parts.append(f"system_id in {sorted(self.systems)}")
        return " and ".join(parts) if parts else "(no filter)"


# ----------------------------------------------------------------------
# Inventory serialization
# ----------------------------------------------------------------------


def systems_to_payload(
    systems: Mapping[int, SystemConfig]
) -> Dict[str, dict]:
    """Serialize an inventory to a JSON-able payload (sorted keys)."""
    payload: Dict[str, dict] = {}
    for system_id in sorted(systems):
        config = systems[system_id]
        payload[str(system_id)] = {
            "hardware_type": config.hardware_type.value,
            "architecture": config.architecture.value,
            "categories": [
                {
                    "node_count": category.node_count,
                    "procs_per_node": category.procs_per_node,
                    # Canonical: integral values serialize as ints, so a
                    # load -> save round trip is byte-stable regardless
                    # of whether the inventory carried 16 or 16.0.
                    "memory_gb": (
                        int(category.memory_gb)
                        if float(category.memory_gb).is_integer()
                        else float(category.memory_gb)
                    ),
                    "nics": category.nics,
                    "production_start": category.production_start,
                    "production_end": category.production_end,
                    "workload": category.workload.value,
                }
                for category in config.categories
            ],
        }
    return payload


def systems_from_payload(payload: Mapping[str, Mapping]) -> Dict[int, SystemConfig]:
    """Inverse of :func:`systems_to_payload`."""
    systems: Dict[int, SystemConfig] = {}
    for key, entry in payload.items():
        system_id = int(key)
        systems[system_id] = SystemConfig(
            system_id=system_id,
            hardware_type=HardwareType(entry["hardware_type"]),
            architecture=HardwareArchitecture(entry["architecture"]),
            categories=tuple(
                NodeCategory(
                    node_count=int(category["node_count"]),
                    procs_per_node=int(category["procs_per_node"]),
                    memory_gb=float(category["memory_gb"]),
                    nics=int(category["nics"]),
                    production_start=str(category["production_start"]),
                    production_end=str(category["production_end"]),
                    workload=Workload(category["workload"]),
                )
                for category in entry["categories"]
            ),
        )
    return systems


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Manifest:
    """The parsed ``manifest.json`` of one store directory."""

    schema_sha256: str
    format_version: int
    columns: Tuple[str, ...]
    record_ids: str                      # "implicit" or "explicit"
    row_count: int
    shards: Tuple[ShardInfo, ...]
    data_start: float
    data_end: float
    systems: Dict[int, SystemConfig] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": "repro-columnar-store",
            "format_version": self.format_version,
            "schema_sha256": self.schema_sha256,
            "columns": list(self.columns),
            "record_ids": self.record_ids,
            "row_count": self.row_count,
            "data_start": self.data_start,
            "data_end": self.data_end,
            "shards": [shard.to_dict() for shard in self.shards],
            "systems": systems_to_payload(self.systems),
            "meta": dict(sorted(self.meta.items())),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Manifest":
        if payload.get("kind") != "repro-columnar-store":
            raise StoreError(
                f"not a store manifest (kind={payload.get('kind')!r})"
            )
        return cls(
            schema_sha256=str(payload["schema_sha256"]),
            format_version=int(payload["format_version"]),
            columns=tuple(payload["columns"]),
            record_ids=str(payload["record_ids"]),
            row_count=int(payload["row_count"]),
            shards=tuple(
                ShardInfo.from_dict(entry) for entry in payload["shards"]
            ),
            data_start=float(payload["data_start"]),
            data_end=float(payload["data_end"]),
            systems=systems_from_payload(payload.get("systems", {})),
            meta=dict(payload.get("meta", {})),
        )

    def save(self, path, site: str = "store.manifest") -> None:
        """Atomically write the manifest (fault site ``site``)."""
        path = Path(path)
        fs_fault_hook(site, path)
        atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "Manifest":
        path = Path(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            raise StoreError(
                f"{path.parent} is not a columnar store (no {MANIFEST_NAME})"
            ) from None
        except json.JSONDecodeError as exc:
            raise StoreError(f"{path}: corrupt manifest: {exc}") from exc
        return cls.from_dict(payload)


# ----------------------------------------------------------------------
# Quarantine ledger and manifest publishing
# ----------------------------------------------------------------------


def load_ledger(root) -> Dict[str, dict]:
    """Read the quarantine ledger, keyed by shard (or orphan file) name.

    Tolerates a torn trailing line — the ledger is rewritten whole on
    every scrub, so a partial last line only loses that one entry, and
    the files it described are still sitting in ``quarantine/`` where
    the next scrub re-discovers them.  Returns ``{}`` when no ledger
    exists.
    """
    path = Path(root) / QUARANTINE_DIR / LEDGER_NAME
    entries: Dict[str, dict] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue                     # torn tail
                if isinstance(entry, dict) and "shard" in entry:
                    entries[str(entry["shard"])] = entry
    except FileNotFoundError:
        pass
    return entries


def write_ledger(root, entries: Mapping[str, dict]) -> None:
    """Atomically rewrite the quarantine ledger (site ``store.scrub.ledger``).

    An empty mapping removes the ledger — and the ``quarantine/``
    directory itself when nothing else is left in it — so a fully
    repaired store's tree is indistinguishable from one that was never
    damaged.
    """
    root = Path(root)
    quarantine = root / QUARANTINE_DIR
    path = quarantine / LEDGER_NAME
    if not entries:
        try:
            path.unlink()
        except FileNotFoundError:
            pass
        try:
            quarantine.rmdir()
        except OSError:
            pass                                  # non-empty or absent
        return
    quarantine.mkdir(parents=True, exist_ok=True)
    lines = [
        json.dumps(entries[key], sort_keys=True)
        for key in sorted(entries)
    ]
    text = "\n".join(lines) + "\n"
    fs_fault_hook("store.scrub.ledger", path)
    atomic_write_text(path, text)


def publish_manifest(root, manifest: Manifest,
                     site: str = "store.merge.manifest") -> None:
    """Replace the store's manifest, keeping a rollback generation.

    The current ``manifest.json`` (if any) is first copied to
    ``manifest.prev.json``, then the new manifest atomically replaces
    it.  A crash at any point leaves either the old manifest or the
    new one in place — never a missing or partial ``manifest.json`` —
    so readers always see a complete store generation.
    """
    root = Path(root)
    current = root / MANIFEST_NAME
    try:
        previous_text = current.read_text(encoding="utf-8")
    except FileNotFoundError:
        previous_text = None
    if previous_text is not None:
        atomic_write_text(root / PREV_MANIFEST_NAME, previous_text)
    manifest.save(current, site=site)


def shard_stats_from_batch(batch: ColumnBatch) -> Dict[str, Tuple[float, float]]:
    """Compute a shard's manifest statistics from its batch.

    Values are converted to Python scalars — ``json`` serializes floats
    with ``repr``, so the stored bounds round-trip bit-exactly.
    """
    stats: Dict[str, Tuple[float, float]] = {}
    for column in STAT_COLUMNS:
        array = batch[column]
        low, high = array.min(), array.max()
        if array.dtype.kind == "f":
            stats[column] = (float(low), float(high))
        else:
            stats[column] = (int(low), int(high))
    return stats
