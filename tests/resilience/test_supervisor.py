"""supervised_map: surviving crashed, hung and failing attempts.

With ``workers > 1`` these tests run real ``ProcessPoolExecutor`` pools
with tiny tasks; with ``workers=1`` every attempt runs in the calling
process under the same retry loop.  Cross-process "fail only the first
N times" coordination uses the same claim-file scheme as
:mod:`repro.faults.process_ops`: a worker injects its failure only if
it can exclusively create the next claim file.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro import obs
from repro.resilience import (
    RetryPolicy,
    RunReport,
    SupervisorError,
    supervised_map,
)

FAST = RetryPolicy(base_delay=0.01, max_delay=0.05, max_attempts=3)


def _claim(state_dir: str, times: int) -> bool:
    for n in range(times):
        try:
            fd = os.open(
                os.path.join(state_dir, f"claim-{n}"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            continue
        os.close(fd)
        return True
    return False


# --- module-level tasks (must be picklable) ---------------------------

def _square(payload):
    return payload * payload


def _flaky(payload):
    value, state_dir, fail_times = payload
    if _claim(state_dir, fail_times):
        raise RuntimeError(f"transient failure for {value}")
    return value * 10


def _kill_self(payload):
    value, state_dir, kill_times = payload
    if _claim(state_dir, kill_times):
        os.kill(os.getpid(), signal.SIGKILL)
    return value + 100


def _hang(payload):
    value, state_dir, hang_times = payload
    if _claim(state_dir, hang_times):
        time.sleep(600)
    return value + 7


def _always_fails(payload):
    raise ValueError("permanent defect")


class TestHappyPath:
    def test_maps_all_payloads(self):
        results = supervised_map(_square, [1, 2, 3], workers=2, policy=FAST)
        assert results == {"shard-0": 1, "shard-1": 4, "shard-2": 9}

    def test_custom_keys_and_on_result(self):
        seen = []
        results = supervised_map(
            _square,
            [2, 3],
            keys=["a", "b"],
            workers=2,
            policy=FAST,
            on_result=lambda key, value: seen.append((key, value)),
        )
        assert results == {"a": 4, "b": 9}
        assert sorted(seen) == [("a", 4), ("b", 9)]


class TestRecovery:
    def test_flaky_task_retried_to_success(self, tmp_path):
        report = RunReport()
        results = supervised_map(
            _flaky,
            [(i, str(tmp_path), 2) for i in range(4)],
            keys=[f"s{i}" for i in range(4)],
            workers=2,
            policy=FAST,
            report=report,
        )
        assert results == {f"s{i}": i * 10 for i in range(4)}
        assert report.ok
        retried = report.retried_shards
        assert retried, "two injected failures must show up as retries"
        for shard in retried:
            assert shard.attempts[0].outcome == "error"
            assert shard.attempts[0].backoff is not None
            assert shard.attempts[-1].outcome == "ok"

    def test_killed_worker_pool_respawned(self, tmp_path):
        report = RunReport()
        results = supervised_map(
            _kill_self,
            [(i, str(tmp_path), 2) for i in range(5)],
            keys=[f"s{i}" for i in range(5)],
            workers=2,
            policy=FAST,
            report=report,
        )
        assert results == {f"s{i}": i + 100 for i in range(5)}
        crashes = [
            attempt
            for shard in report.shards.values()
            for attempt in shard.attempts
            if attempt.outcome == "crash"
        ]
        assert crashes, "worker kills must be recorded as crash attempts"
        assert report.ok

    def test_hung_worker_terminated_and_retried(self, tmp_path):
        report = RunReport()
        results = supervised_map(
            _hang,
            [(i, str(tmp_path), 1) for i in range(3)],
            keys=[f"s{i}" for i in range(3)],
            workers=2,
            policy=FAST,
            shard_timeout=1.5,
            report=report,
        )
        assert results == {f"s{i}": i + 7 for i in range(3)}
        timeouts = [
            attempt
            for shard in report.shards.values()
            for attempt in shard.attempts
            if attempt.outcome == "timeout"
        ]
        assert timeouts, "the hang must be recorded as a timeout attempt"


class TestDegradationAndSkip:
    def test_permanent_failure_becomes_structured_skip(self):
        report = RunReport()
        results = supervised_map(
            _always_fails,
            [0, 1],
            keys=["bad-0", "bad-1"],
            workers=2,
            policy=RetryPolicy(base_delay=0.0, jitter=0.0, max_attempts=2),
            report=report,
        )
        assert results == {"bad-0": None, "bad-1": None}
        assert {s.shard for s in report.skipped_shards} == {"bad-0", "bad-1"}
        assert not report.ok

    def test_deadline_skips_remaining_shards(self):
        report = RunReport()
        results = supervised_map(
            _always_fails,
            [0],
            keys=["slow"],
            workers=2,
            policy=RetryPolicy(
                base_delay=0.0, jitter=0.0, max_attempts=100, deadline=0.001
            ),
            report=report,
        )
        assert results == {"slow": None}
        assert report.shards["slow"].attempts[-1].outcome == "deadline"


class TestValidation:
    def test_bad_workers(self):
        with pytest.raises(SupervisorError, match="workers"):
            supervised_map(_square, [1], workers=0)

    def test_mismatched_keys(self):
        with pytest.raises(SupervisorError, match="keys"):
            supervised_map(_square, [1, 2], keys=["only-one"], workers=1)

    def test_duplicate_keys(self):
        with pytest.raises(SupervisorError, match="unique"):
            supervised_map(_square, [1, 2], keys=["x", "x"], workers=1)


def _no_pool(workers):
    raise AssertionError(f"an in-process run built a {workers}-worker pool")


class TestInProcess:
    """``workers=1``: the same retry loop, no process pool."""

    def test_maps_without_a_pool(self):
        results = supervised_map(
            _square, [1, 2, 3], workers=1, policy=FAST,
            executor_factory=_no_pool,
        )
        assert results == {"shard-0": 1, "shard-1": 4, "shard-2": 9}

    def test_failed_attempt_retried_after_backoff(self):
        calls = []

        def flaky(value):
            calls.append(value)
            if calls.count(value) == 1 and value == 2:
                raise RuntimeError("transient")
            return value * 10

        slept = []
        report = RunReport()
        tracer = obs.Tracer()
        with obs.observing(tracer):
            results = supervised_map(
                flaky, [1, 2], keys=["a", "b"], workers=1, policy=FAST,
                report=report, sleep=slept.append, executor_factory=_no_pool,
            )
        assert results == {"a": 10, "b": 20}
        assert calls == [1, 2, 2]
        assert slept == [FAST.backoff("b", 1)]
        attempts = report.shards["b"].attempts
        assert [a.outcome for a in attempts] == ["error", "ok"]
        assert attempts[0].error == "RuntimeError: transient"
        assert attempts[0].backoff == slept[0]
        # One live shard.attempt span per attempt, inside supervise.
        spans = [
            (e["attrs"]["shard"], e["attrs"]["attempt"], e["status"])
            for e in tracer.events if e["name"] == "shard.attempt"
        ]
        assert spans == [("a", 1, "ok"), ("b", 1, "error"), ("b", 2, "ok")]
        assert tracer.events[-1]["name"] == "supervise"

    @pytest.mark.parametrize(
        "base_delay, delays", [(0.1, [0.1, 0.2]), (0.0, [])]
    )
    def test_exhausted_shard_skipped_after_max_attempts(
        self, base_delay, delays
    ):
        # Sleeps are the policy's backoffs between attempts, none when
        # the backoff is zero.
        report = RunReport()
        slept = []
        results = supervised_map(
            _always_fails, [0], keys=["bad"], workers=1,
            policy=RetryPolicy(
                base_delay=base_delay, jitter=0.0, max_attempts=3
            ),
            report=report, sleep=slept.append,
        )
        assert results == {"bad": None}
        assert [a.outcome for a in report.shards["bad"].attempts] == [
            "error", "error", "error",
        ]
        assert slept == delays
        assert report.shards["bad"].status == "skipped"

    def test_deadline_skips_remaining_shards(self):
        report = RunReport()
        results = supervised_map(
            _always_fails, [0], keys=["slow"], workers=1,
            policy=RetryPolicy(
                base_delay=0.01, jitter=0.0, max_attempts=100, deadline=0.005
            ),
            report=report,
        )
        assert results == {"slow": None}
        outcomes = [a.outcome for a in report.shards["slow"].attempts]
        assert outcomes[-1] == "deadline"
        assert set(outcomes[:-1]) == {"error"} and len(outcomes) <= 3

    def test_results_journaled_as_each_shard_completes(self):
        # on_result runs before the next shard's attempt: a crash after
        # shard "a" leaves "a" journaled for --resume.
        order = []

        def task(value):
            order.append(("run", value))
            return value

        supervised_map(
            task, [1, 2], keys=["a", "b"], workers=1,
            on_result=lambda key, value: order.append(("journal", key)),
        )
        assert order == [
            ("run", 1), ("journal", "a"), ("run", 2), ("journal", "b"),
        ]

    def test_on_result_failure_propagates_without_retry(self):
        # A failed journal write is not a shard failure: it is raised,
        # not retried.
        calls = []

        def task(value):
            calls.append(value)
            return value

        def broken_journal(key, value):
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            supervised_map(
                task, [1, 2], workers=1, policy=FAST,
                on_result=broken_journal,
            )
        assert calls == [1]
