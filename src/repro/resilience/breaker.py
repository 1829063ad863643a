"""Per-shard circuit breaker with a degradation ladder.

After ``failure_threshold`` failures in a stage, a shard is *degraded*
to the next stage rather than retried forever; when the last stage is
exhausted, the breaker *opens* and the shard is skipped — recorded as
a structured skip in the :class:`~repro.resilience.report.RunReport`
instead of failing the whole run.  Trace generation runs a one-stage
ladder: a shard is retried ``failure_threshold`` times, then skipped.  This mirrors the graceful-degradation posture
the paper observes in production HPC tooling: lose a component, not
the job.

Long-running processes additionally need a *path back to closed*: a
batch run can afford to leave a breaker open until exit, but the
analytics service (``repro serve``) would otherwise serve degraded
results forever after one bad spell.  Setting ``cooldown_seconds``
enables **time-based recovery**: once an open breaker's cooldown
elapses, the next :meth:`CircuitBreaker.allow` admits exactly one
*half-open probe*; a success fully closes the breaker (back to stage
0, failure streak cleared), a failure re-opens it and restarts the
cooldown.  The clock is injectable so tests drive the state machine
without sleeping.  With the default ``cooldown_seconds=None`` the
original open-forever semantics are untouched — the generation
supervisor's behavior is byte-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

__all__ = [
    "CircuitBreaker",
    "CLOSED",
    "OPEN_STATE",
    "HALF_OPEN",
]

#: Failure-handling actions returned by :meth:`CircuitBreaker.record_failure`.
RETRY = "retry"
DEGRADE = "degrade"
OPEN = "open"

#: Breaker states reported by :meth:`CircuitBreaker.state`.
CLOSED = "closed"
OPEN_STATE = "open"
HALF_OPEN = "half-open"


@dataclass
class _ShardState:
    stage_index: int = 0
    failures: int = 0
    opened_at: Optional[float] = None
    half_open: bool = False


@dataclass
class CircuitBreaker:
    """Track per-shard failures and walk the degradation ladder.

    Parameters
    ----------
    stages:
        Ordered degradation ladder; a shard starts in ``stages[0]`` and
        moves right after ``failure_threshold`` failures per stage.
    failure_threshold:
        Failures tolerated in one stage before degrading.
    cooldown_seconds:
        Time-based recovery: how long an open breaker stays open before
        the next :meth:`allow` admits a half-open probe.  ``None``
        (default) disables recovery — open stays open, exactly the
        batch-supervisor semantics.
    clock:
        Monotonic clock used for the cooldown; injectable for tests.
    """

    stages: Tuple[str, ...] = ("primary",)
    failure_threshold: int = 3
    cooldown_seconds: Optional[float] = None
    clock: Callable[[], float] = time.monotonic
    _shards: Dict[str, _ShardState] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.stages = tuple(self.stages)
        if not self.stages:
            raise ValueError("stages must be non-empty")
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_seconds is not None and self.cooldown_seconds <= 0:
            raise ValueError(
                f"cooldown_seconds must be > 0 or None, got "
                f"{self.cooldown_seconds}"
            )

    def _state(self, key: str) -> _ShardState:
        return self._shards.setdefault(key, _ShardState())

    def stage(self, key: str) -> Optional[str]:
        """The shard's current stage, or None when the breaker is open."""
        state = self._state(key)
        if state.stage_index >= len(self.stages):
            return None
        return self.stages[state.stage_index]

    def is_open(self, key: str) -> bool:
        return self.stage(key) is None

    def state(self, key: str) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"`` for ``key``."""
        state = self._state(key)
        if state.half_open:
            return HALF_OPEN
        return OPEN_STATE if state.stage_index >= len(self.stages) else CLOSED

    def allow(self, key: str) -> bool:
        """Whether a call through this breaker may proceed right now.

        Closed (and half-open, while the probe is in flight) admit;
        open admits only once ``cooldown_seconds`` have elapsed since
        the breaker opened, transitioning to half-open for one probe.
        With ``cooldown_seconds=None`` an open breaker never re-admits.
        """
        state = self._state(key)
        if state.stage_index < len(self.stages) or state.half_open:
            return True
        if self.cooldown_seconds is None or state.opened_at is None:
            return False
        if self.clock() - state.opened_at < self.cooldown_seconds:
            return False
        state.half_open = True
        return True

    def record_success(self, key: str) -> None:
        """A completed attempt closes the shard's failure streak.

        A half-open probe's success fully closes the breaker: back to
        the first ladder stage with a clean failure count.
        """
        state = self._state(key)
        if state.half_open:
            state.stage_index = 0
            state.opened_at = None
            state.half_open = False
        state.failures = 0

    def record_failure(self, key: str) -> str:
        """Count a failure; returns ``"retry"``, ``"degrade"`` or ``"open"``."""
        state = self._state(key)
        if state.stage_index >= len(self.stages):
            # A failed half-open probe re-opens and restarts the cooldown.
            if state.half_open:
                state.half_open = False
                state.opened_at = self.clock()
            return OPEN
        state.failures += 1
        if state.failures < self.failure_threshold:
            return RETRY
        state.stage_index += 1
        state.failures = 0
        if state.stage_index >= len(self.stages):
            state.opened_at = self.clock()
            state.half_open = False
            return OPEN
        return DEGRADE

    def failures(self, key: str) -> int:
        return self._state(key).failures
