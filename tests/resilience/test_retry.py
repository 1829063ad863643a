"""RetryPolicy: deterministic exponential backoff with jitter."""

from __future__ import annotations

import pytest

from repro.resilience import RetryPolicy


class TestBackoff:
    def test_deterministic(self):
        delays = [RetryPolicy(seed=7).backoff("system-20", n) for n in (1, 2, 3)]
        again = [RetryPolicy(seed=7).backoff("system-20", n) for n in (1, 2, 3)]
        assert delays == again
        assert len(set(delays)) == 3

    def test_jitter_varies_by_key_attempt_and_seed(self):
        policy = RetryPolicy(seed=0, jitter=0.2)
        assert policy.backoff("a", 1) != policy.backoff("b", 1)
        assert policy.backoff("a", 1) != RetryPolicy(seed=1, jitter=0.2).backoff("a", 1)

    def test_exponential_growth_within_jitter_band(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=100.0, jitter=0.1
        )
        for attempt in range(1, 6):
            raw = 0.1 * 2.0 ** (attempt - 1)
            delay = policy.backoff("k", attempt)
            assert raw * 0.9 <= delay < raw * 1.1

    def test_max_delay_caps_every_attempt(self):
        policy = RetryPolicy(
            base_delay=1.0, multiplier=10.0, max_delay=2.0, jitter=0.0
        )
        assert policy.backoff("k", 5) == 2.0

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(base_delay=0.5, multiplier=2.0, jitter=0.0)
        assert policy.backoff("k", 1) == 0.5
        assert policy.backoff("k", 2) == 1.0


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": -1.0},
            {"multiplier": 0.5},
            {"max_delay": -0.1},
            {"jitter": 1.0},
            {"jitter": -0.1},
            {"deadline": 0.0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_bad_attempt_rejected(self):
        with pytest.raises(ValueError, match="attempt"):
            RetryPolicy().backoff("k", 0)

