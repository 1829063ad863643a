"""The store summary: headline aggregates from one streaming pass.

:func:`summarize_store` — failure counts by system and by root cause,
downtime by cause, repair-time statistics and the start-time range —
is a projection of :class:`~repro.analysis.outofcore.FoldCore`, the
core of the paper report's fold, filled by the one scan loop
:func:`~repro.analysis.outofcore.scan_store` with predicate pushdown
pruning shards first.  Peak memory is one chunk, independent of the
trace size; the RSS-capped CI job runs this path over a
million-record store.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

from repro.records.codes import CAUSE_VOCAB
from repro.resilience.deadline import Deadline
from repro.store.manifest import Predicate
from repro.store.reader import DEFAULT_BATCH_ROWS, ColumnarStore, ScanStats

__all__ = ["StoreSummary", "summarize_store"]


@dataclass
class StoreSummary:
    """Aggregates from one streaming pass over a store."""

    rows: int = 0
    counts_by_system: Dict[int, int] = field(default_factory=dict)
    counts_by_cause: Dict[str, int] = field(default_factory=dict)
    downtime_by_cause: Dict[str, float] = field(default_factory=dict)
    repair_mean: float = 0.0
    repair_min: float = math.inf
    repair_max: float = -math.inf
    start_min: float = math.inf
    start_max: float = -math.inf
    scan: ScanStats = field(default_factory=ScanStats)
    #: Populated (dict form) when a degraded read skipped shards.
    degraded: Optional[dict] = None
    #: Populated when a deadline cut the scan short (``on_deadline="partial"``).
    partial: Optional[dict] = None

    def to_dict(self) -> dict:
        """A JSON-able view for ``repro store analyze --json``.

        Extrema still at their ±inf initials read as null, never as
        non-RFC ``Infinity`` tokens.  The ``partial`` key appears only
        when a deadline truncated the scan.
        """
        has_durations = math.isfinite(self.repair_min) and math.isfinite(
            self.repair_max
        )
        has_window = math.isfinite(self.start_min) and math.isfinite(
            self.start_max
        )
        payload = {
            "rows": self.rows,
            "counts_by_system": {
                str(k): v for k, v in sorted(self.counts_by_system.items())
            },
            "counts_by_cause": dict(sorted(self.counts_by_cause.items())),
            "downtime_hours_by_cause": {
                cause: seconds / 3600.0
                for cause, seconds in sorted(self.downtime_by_cause.items())
            },
            "repair_minutes": (
                {
                    "mean": self.repair_mean / 60.0,
                    "min": self.repair_min / 60.0,
                    "max": self.repair_max / 60.0,
                }
                if has_durations
                else None
            ),
            "start_time_range": (
                [self.start_min, self.start_max] if has_window else None
            ),
            "scan": asdict(self.scan),
            "degraded": self.degraded,
        }
        if self.partial is not None:
            payload["partial"] = self.partial
        return payload

    def describe(self) -> str:
        lines = [f"rows: {self.rows}"]
        if self.rows:
            if math.isfinite(self.repair_min) and math.isfinite(
                self.repair_max
            ):
                lines.append(
                    "repair minutes: "
                    f"mean={self.repair_mean / 60.0:.1f} "
                    f"min={self.repair_min / 60.0:.1f} "
                    f"max={self.repair_max / 60.0:.1f}"
                )
            lines.append("counts by cause:")
            for cause, count in sorted(self.counts_by_cause.items()):
                hours = self.downtime_by_cause[cause] / 3600.0
                lines.append(
                    f"  {cause:<12} {count:>9}  ({hours:.1f} downtime hours)"
                )
            lines.append("counts by system:")
            for system_id, count in sorted(self.counts_by_system.items()):
                lines.append(f"  system {system_id:>2}: {count}")
        lines.append(f"pushdown: {self.scan.describe()}")
        if self.partial:
            lines.append(
                "PARTIAL: deadline exceeded after "
                f"{self.partial.get('rows_seen', self.rows)} row(s); "
                "aggregates cover only the scanned prefix"
            )
        if self.degraded:
            lines.append(
                "DEGRADED: skipped "
                f"{len(self.degraded.get('shards_skipped', []))} shard(s), "
                f"{self.degraded.get('rows_skipped', 0)} row(s) "
                "(see `repro store scrub`)"
            )
        return "\n".join(lines)


def summarize_store(
    store: ColumnarStore,
    predicate: Optional[Predicate] = None,
    batch_rows: int = DEFAULT_BATCH_ROWS,
    deadline: Optional[Deadline] = None,
    on_deadline: str = "raise",
) -> StoreSummary:
    """One streaming pass of headline aggregates over ``store``.

    :func:`~repro.analysis.outofcore.scan_store` folds the rows
    ``predicate`` admits into a :class:`~repro.analysis.outofcore.FoldCore`,
    with its deadline semantics: ``on_deadline="raise"`` lets a blown
    deadline raise, and ``"partial"`` returns a summary of the scanned
    prefix carrying a ``partial`` record.  The summary's ``scan`` counts
    exactly this pass (the CI job asserts ``shards_pruned >= 1`` from
    it).  Downtime per cause adds up system by system in system order.
    """
    # Imported here: repro.analysis.outofcore imports repro.store.
    from repro.analysis.outofcore import FoldCore, scan_store

    core, partial = scan_store(
        store,
        FoldCore,
        predicate=predicate,
        deadline=deadline,
        on_deadline=on_deadline,
        batch_rows=batch_rows,
    )
    counts, downtime = core.cause_totals(sorted(core.counts))
    causes = [
        (cause.value, code)
        for code, cause in enumerate(CAUSE_VOCAB)
        if counts[code]
    ]
    return StoreSummary(
        rows=core.rows,
        counts_by_system=core.failures_by_system(),
        counts_by_cause={name: int(counts[code]) for name, code in causes},
        downtime_by_cause={
            name: float(downtime[code]) for name, code in causes
        },
        repair_mean=core.repair_total / core.rows if core.rows else 0.0,
        repair_min=core.repair_min,
        repair_max=core.repair_max,
        start_min=core.start_min,
        start_max=core.start_max,
        scan=store.scan,
        degraded=store.degraded.to_dict() if store.degraded else None,
        partial=partial,
    )
