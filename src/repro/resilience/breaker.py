"""A three-state circuit breaker with time-based recovery.

The serving gateway (``repro serve``) guards its primary store read
with one :class:`CircuitBreaker`: after ``failure_threshold``
consecutive failures the breaker *opens* and the gateway stops paying
for doomed full reads.  Once ``cooldown_seconds`` have elapsed, the
next :meth:`CircuitBreaker.allow` admits exactly one *half-open
probe*; a success closes the breaker (failure streak cleared), a
failure re-opens it and restarts the cooldown.  The clock is
injectable so tests drive the state machine without sleeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = [
    "CircuitBreaker",
    "CLOSED",
    "OPEN_STATE",
    "HALF_OPEN",
]

#: Breaker states reported by :meth:`CircuitBreaker.state`.
CLOSED = "closed"
OPEN_STATE = "open"
HALF_OPEN = "half-open"


@dataclass
class CircuitBreaker:
    """Count consecutive failures; open at the threshold, then recover.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that open a closed breaker.
    cooldown_seconds:
        How long an open breaker stays open before the next
        :meth:`allow` admits a half-open probe.
    clock:
        Monotonic clock used for the cooldown; injectable for tests.
    """

    failure_threshold: int = 3
    cooldown_seconds: float = 5.0
    clock: Callable[[], float] = time.monotonic
    _failures: int = field(default=0, repr=False)
    #: When the breaker last opened; None while closed.
    _opened_at: Optional[float] = field(default=None, repr=False)
    _half_open: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_seconds is None or self.cooldown_seconds <= 0:
            raise ValueError(
                f"cooldown_seconds must be > 0, got {self.cooldown_seconds}"
            )

    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"``."""
        if self._half_open:
            return HALF_OPEN
        return CLOSED if self._opened_at is None else OPEN_STATE

    def allow(self) -> bool:
        """Whether a call through this breaker may proceed right now.

        Closed (and half-open, while the probe is in flight) admit;
        open admits only once ``cooldown_seconds`` have elapsed since
        the breaker opened, transitioning to half-open for one probe.
        """
        if self._opened_at is None or self._half_open:
            return True
        if self.clock() - self._opened_at < self.cooldown_seconds:
            return False
        self._half_open = True
        return True

    def record_success(self) -> None:
        """Clear the failure streak; a half-open probe's success closes
        the breaker."""
        if self._half_open:
            self._opened_at = None
            self._half_open = False
        self._failures = 0

    def record_failure(self) -> None:
        """Count a failure; the threshold opens a closed breaker, and a
        failed half-open probe re-opens it and restarts the cooldown."""
        if self._opened_at is not None:
            if self._half_open:
                self._half_open = False
                self._opened_at = self.clock()
            return
        self._failures += 1
        if self._failures >= self.failure_threshold:
            self._failures = 0
            self._opened_at = self.clock()
