"""Structured account of a supervised run: attempts, retries, skips.

Every supervised generation produces a :class:`RunReport`: one
:class:`ShardOutcome` per shard, each with its full attempt history —
outcome, error text, wall time and the backoff delay the supervisor
applied before the next attempt.  The
report is what turns silent retries into auditable behavior, and what
CI uploads when a chaos drill fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.resilience.atomic import atomic_write_json

__all__ = ["ShardAttempt", "ShardOutcome", "RunReport"]

#: Attempt outcomes.
OK = "ok"
CRASH = "crash"          # worker process died (BrokenProcessPool)
TIMEOUT = "timeout"      # no progress within the shard timeout
ERROR = "error"          # the task raised
DEADLINE = "deadline"    # retry deadline exhausted

#: Final shard statuses.
STATUS_OK = "ok"
STATUS_SKIPPED = "skipped"
STATUS_RESUMED = "resumed"
STATUS_PENDING = "pending"


@dataclass
class ShardAttempt:
    """One attempt at one shard."""

    attempt: int
    outcome: str
    error: str = ""
    #: Backoff applied after this (failed) attempt, seconds; None for
    #: successful or final attempts.
    backoff: Optional[float] = None
    #: Wall-clock duration of the attempt, seconds; None when the
    #: supervisor could not time it (e.g. journal-resumed shards).
    wall_s: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "attempt": self.attempt,
            "outcome": self.outcome,
        }
        if self.error:
            payload["error"] = self.error
        if self.backoff is not None:
            payload["backoff_s"] = round(self.backoff, 6)
        if self.wall_s is not None:
            payload["wall_s"] = round(self.wall_s, 6)
        return payload


@dataclass
class ShardOutcome:
    """Final status and attempt history of one shard."""

    shard: str
    status: str = STATUS_PENDING
    attempts: List[ShardAttempt] = field(default_factory=list)
    records: Optional[int] = None

    @property
    def retried(self) -> bool:
        return len(self.attempts) > 1

    def backoff_schedule(self) -> List[float]:
        """The delays actually applied between this shard's attempts."""
        return [a.backoff for a in self.attempts if a.backoff is not None]

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "shard": self.shard,
            "status": self.status,
            "attempts": [attempt.to_dict() for attempt in self.attempts],
        }
        if self.records is not None:
            payload["records"] = self.records
        return payload


@dataclass
class RunReport:
    """Everything that happened during one supervised run."""

    meta: Dict[str, Any] = field(default_factory=dict)
    shards: Dict[str, ShardOutcome] = field(default_factory=dict)

    # -- recording -----------------------------------------------------

    def _shard(self, key: str) -> ShardOutcome:
        return self.shards.setdefault(key, ShardOutcome(shard=key))

    def record_attempt(
        self,
        key: str,
        outcome: str,
        error: str = "",
        backoff: Optional[float] = None,
        wall_s: Optional[float] = None,
    ) -> None:
        shard = self._shard(key)
        shard.attempts.append(
            ShardAttempt(
                attempt=len(shard.attempts) + 1,
                outcome=outcome,
                error=error,
                backoff=backoff,
                wall_s=wall_s,
            )
        )

    def finish_shard(
        self, key: str, status: str, records: Optional[int] = None
    ) -> None:
        shard = self._shard(key)
        shard.status = status
        shard.records = records

    def mark_resumed(self, key: str, records: Optional[int] = None) -> None:
        self.finish_shard(key, STATUS_RESUMED, records=records)

    # -- queries -------------------------------------------------------

    def _with_status(self, status: str) -> List[ShardOutcome]:
        return [s for s in self.shards.values() if s.status == status]

    @property
    def retried_shards(self) -> List[ShardOutcome]:
        """Shards that needed more than one attempt (chaos survivors)."""
        return [s for s in self.shards.values() if s.retried]

    @property
    def skipped_shards(self) -> List[ShardOutcome]:
        return self._with_status(STATUS_SKIPPED)

    @property
    def resumed_shards(self) -> List[ShardOutcome]:
        return self._with_status(STATUS_RESUMED)

    @property
    def ok(self) -> bool:
        """True when every shard completed (possibly resumed)."""
        return all(
            s.status in (STATUS_OK, STATUS_RESUMED)
            for s in self.shards.values()
        )

    # -- output --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "meta": dict(self.meta),
            "shards": [
                self.shards[key].to_dict() for key in sorted(self.shards)
            ],
            "summary": {
                "total": len(self.shards),
                "ok": len(self._with_status(STATUS_OK)),
                "skipped": len(self.skipped_shards),
                "resumed": len(self.resumed_shards),
                "retried": len(self.retried_shards),
            },
        }

    def write(self, path) -> None:
        """Atomically write the report as JSON."""
        atomic_write_json(path, self.to_dict())

    def describe(self) -> str:
        """Human-readable one-screen summary."""
        summary = self.to_dict()["summary"]
        lines = [
            "run report: {total} shard(s) — {ok} ok, {skipped} skipped, "
            "{resumed} resumed, {retried} retried".format(
                **summary
            )
        ]
        for shard in sorted(self.shards.values(), key=lambda s: s.shard):
            if not shard.retried and shard.status in (STATUS_OK, STATUS_RESUMED):
                continue
            history = " -> ".join(
                a.outcome
                + (f" (backoff {a.backoff:.3f}s)" if a.backoff is not None else "")
                for a in shard.attempts
            )
            lines.append(f"  {shard.shard}: {shard.status}: {history or 'n/a'}")
        return "\n".join(lines)
