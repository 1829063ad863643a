"""CircuitBreaker: closed, open and half-open, with time-based recovery."""

from __future__ import annotations

import pytest

from repro.resilience import CircuitBreaker


def _breaker(**kwargs):
    clock = {"now": 0.0}
    defaults = dict(
        failure_threshold=1,
        cooldown_seconds=10.0,
        clock=lambda: clock["now"],
    )
    defaults.update(kwargs)
    return CircuitBreaker(**defaults), clock


class TestLadder:
    """Closed to open: consecutive failures climb to the threshold."""

    def test_starts_closed(self):
        breaker = CircuitBreaker()
        assert breaker.state() == "closed"
        assert breaker.allow()

    def test_retries_below_threshold(self):
        breaker, _ = _breaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state() == "closed"
        assert breaker.allow()

    def test_opens_at_threshold(self):
        breaker, _ = _breaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state() == "open"
        assert not breaker.allow()

    def test_stays_open_on_further_failures(self):
        breaker, _ = _breaker(failure_threshold=1)
        breaker.record_failure()
        assert breaker.state() == "open"
        breaker.record_failure()
        assert breaker.state() == "open"
        assert not breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker, _ = _breaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state() == "closed"


class TestValidation:
    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)


class TestTimeBasedRecovery:
    """Cooldown -> half-open probe -> close/reopen (the serve path)."""

    def test_closed_always_allows(self):
        breaker, _ = _breaker()
        assert breaker.state() == "closed"
        assert breaker.allow()

    def test_open_blocks_until_cooldown(self):
        breaker, clock = _breaker()
        breaker.record_failure()
        assert breaker.state() == "open"
        assert not breaker.allow()
        clock["now"] = 9.999
        assert not breaker.allow()

    def test_cooldown_admits_single_half_open_probe(self):
        breaker, clock = _breaker()
        breaker.record_failure()
        clock["now"] = 10.0
        assert breaker.allow()
        assert breaker.state() == "half-open"
        # The probe slot stays admitted while in flight.
        assert breaker.allow()

    def test_probe_success_fully_closes(self):
        breaker, clock = _breaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_failure()
        clock["now"] = 10.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state() == "closed"
        # The failure streak starts over: one failure stays closed.
        breaker.record_failure()
        assert breaker.state() == "closed"

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker, clock = _breaker()
        breaker.record_failure()
        clock["now"] = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state() == "open"
        # Cooldown restarts from the probe failure, not the first open.
        clock["now"] = 19.999
        assert not breaker.allow()
        clock["now"] = 20.0
        assert breaker.allow()

    def test_bad_cooldown_rejected(self):
        with pytest.raises(ValueError, match="cooldown_seconds"):
            CircuitBreaker(cooldown_seconds=0.0)
        # There is no open-forever mode.
        with pytest.raises(ValueError, match="cooldown_seconds"):
            CircuitBreaker(cooldown_seconds=None)

    def test_states_exported(self):
        from repro.resilience import CLOSED, HALF_OPEN, OPEN_STATE

        assert (CLOSED, OPEN_STATE, HALF_OPEN) == ("closed", "open", "half-open")
