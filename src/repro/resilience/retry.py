"""Retry policies: exponential backoff with deterministic jitter.

The paper's systems retried failed components on a backoff schedule;
our supervisor does the same for failed generation shards.  Jitter is
*deterministic* — a pure function of ``(seed, shard key, attempt)`` —
so a retried run produces the same backoff schedule every time, which
keeps run reports reproducible and lets tests assert exact schedules.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for retrying a failed shard.

    Parameters
    ----------
    max_attempts:
        Attempts per shard; a shard that fails this many times is
        skipped (see :func:`~repro.resilience.supervisor.supervised_map`).
    base_delay:
        Delay before the second attempt, in seconds.
    multiplier:
        Exponential growth factor per further attempt.
    max_delay:
        Cap on any single delay, in seconds.
    jitter:
        Fractional jitter: each delay is scaled by a deterministic
        factor in ``[1 - jitter, 1 + jitter)`` derived from
        ``(seed, key, attempt)``.
    deadline:
        Optional cap on the *total* wall-clock time the supervisor may
        spend retrying; once exceeded, remaining failed shards are
        skipped (recorded, not raised).
    seed:
        Root of the deterministic jitter.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    deadline: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline}")

    def backoff(self, key: str, attempt: int) -> float:
        """Delay in seconds after failed attempt number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        raw = min(
            self.base_delay * self.multiplier ** (attempt - 1), self.max_delay
        )
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}".encode("utf-8")
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / 2.0**64  # [0, 1)
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * unit)
