"""Supervised generation: chaos drills, resumable runs, worker clamping.

The acceptance drill for the fault-tolerant execution path: inject
worker crashes/hangs/failures into a parallel generation and require
the final trace to be byte-identical to an uninjected serial run —
the RNG-stream contract makes retried shards indistinguishable from
first-try shards.
"""

from __future__ import annotations

import warnings

import pytest

from repro.faults import chaos_env, make_chaos
from repro.resilience import RetryPolicy, ShardJournal
from repro.synth import SupervisionConfig, TraceGenerator

from tests.synth.test_equivalence import assert_traces_identical

FAST = SupervisionConfig(
    policy=RetryPolicy(base_delay=0.01, max_delay=0.05, max_attempts=3)
)


class TestAcceptanceChaosDrill:
    def test_two_worker_kills_leave_full_trace_identical(self, full_trace):
        """The issue's acceptance criterion: >= 2 worker crashes during a
        22-system workers=4 generation; the run completes, the trace is
        record-identical to the serial run, and the report names every
        retried shard with its backoff schedule."""
        spec = make_chaos("kill-worker", times=2)
        generator = TraceGenerator(seed=1)
        with warnings.catch_warnings():
            # workers=4 oversubscribes small CI hosts by design.
            warnings.simplefilter("ignore", RuntimeWarning)
            with chaos_env(spec):
                chaotic = generator.generate(workers=4, supervision=FAST)
        assert spec.injections() >= 2
        assert_traces_identical(full_trace, chaotic)
        report = generator.last_run_report
        assert report is not None and report.ok
        retried = report.retried_shards
        assert retried, "injected crashes must surface as retried shards"
        for shard in retried:
            assert shard.attempts[0].outcome == "crash"
            assert shard.attempts[0].backoff is not None
            assert shard.backoff_schedule(), shard.shard
            assert shard.attempts[-1].outcome == "ok"

    def test_hung_worker_recovered(self, small_trace):
        spec = make_chaos("hang-worker", times=1, hang_seconds=600.0)
        generator = TraceGenerator(seed=5)
        supervision = SupervisionConfig(
            policy=FAST.policy, shard_timeout=2.0
        )
        with chaos_env(spec):
            trace = generator.generate(
                [2, 13], workers=2, supervision=supervision
            )
        assert_traces_identical(small_trace, trace)
        outcomes = [
            attempt.outcome
            for shard in generator.last_run_report.shards.values()
            for attempt in shard.attempts
        ]
        assert "timeout" in outcomes

    def test_flaky_shard_retried(self, small_trace):
        spec = make_chaos("flaky-shard", times=2)
        generator = TraceGenerator(seed=5)
        with chaos_env(spec):
            trace = generator.generate([2, 13], workers=2, supervision=FAST)
        assert_traces_identical(small_trace, trace)
        assert generator.last_run_report.retried_shards

    def test_bare_parallel_run_raises_instead_of_skipping(self):
        # Without explicit supervision, a shard that fails past every
        # retry must raise — not return a trace silently missing a
        # system — mirroring the bare serial path.
        spec = make_chaos("flaky-shard", times=1000, shards=("system-2",))
        generator = TraceGenerator(seed=5)
        with chaos_env(spec):
            with pytest.raises(RuntimeError, match="system-2.*ChaosError"):
                generator.generate([2, 13], workers=2)

    def test_serial_chaos_is_retried(self):
        # The chaos hook sits on the per-shard execution point, so a
        # --workers 1 drill injects too (not a silent plain run), and
        # the serial path retries the shard like a worker shard.
        spec = make_chaos("flaky-shard", times=1)
        generator = TraceGenerator(seed=5)
        with chaos_env(spec):
            trace = generator.generate([2], supervision=FAST)
        assert spec.injections() == 1
        assert_traces_identical(TraceGenerator(seed=5).generate([2]), trace)
        report = generator.last_run_report
        assert report.ok
        assert [s.shard for s in report.retried_shards] == ["system-2"]
        attempts = report.shards["system-2"].attempts
        assert [a.outcome for a in attempts] == ["error", "ok"]
        assert attempts[0].backoff == FAST.policy.backoff("system-2", 1)

    def test_exhausted_shard_becomes_structured_skip(self):
        self._exhaust(workers=2)

    def test_exhausted_serial_shard_becomes_structured_skip(self):
        self._exhaust(workers=1)

    def _exhaust(self, workers):
        # An unbounded injection budget on one shard defeats every
        # retry: the shard must be skipped after max_attempts attempts
        # and the run must complete without that system instead of
        # raising.
        spec = make_chaos("flaky-shard", times=1000, shards=("system-2",))
        generator = TraceGenerator(seed=5)
        supervision = SupervisionConfig(
            policy=RetryPolicy(base_delay=0.0, jitter=0.0, max_attempts=2),
        )
        with chaos_env(spec):
            trace = generator.generate(
                [2, 13], workers=workers, supervision=supervision
            )
        assert {r.system_id for r in trace.records} == {13}
        report = generator.last_run_report
        assert not report.ok
        assert [s.shard for s in report.skipped_shards] == ["system-2"]
        outcomes = [a.outcome for a in report.shards["system-2"].attempts]
        assert outcomes == ["error", "error"]


class TestResume:
    def test_resume_skips_journaled_shards(self, tmp_path):
        run_dir = tmp_path / "run"
        generator = TraceGenerator(seed=5)
        journal = ShardJournal(run_dir, meta=generator.journal_meta())
        partial = generator.generate([2], journal=journal)
        assert len(partial) > 0 and journal.has("system-2")

        resumed_generator = TraceGenerator(seed=5)
        resumed_journal = ShardJournal(
            run_dir, meta=resumed_generator.journal_meta(), resume=True
        )
        calls = []
        original = TraceGenerator._system_columns

        def counting(self, system_id):
            calls.append(system_id)
            return original(self, system_id)

        TraceGenerator._system_columns = counting
        try:
            trace = resumed_generator.generate(
                [2, 13], journal=resumed_journal
            )
        finally:
            TraceGenerator._system_columns = original
        assert calls == [13], "journaled system 2 must not regenerate"
        report = resumed_generator.last_run_report
        assert [s.shard for s in report.resumed_shards] == ["system-2"]
        fresh = TraceGenerator(seed=5).generate([2, 13])
        assert_traces_identical(fresh, trace)

    def test_resume_after_chaos_interrupt_completes(self, tmp_path):
        # Journal under chaos, then finish the run without chaos: the
        # combined trace equals an uninterrupted run.
        run_dir = tmp_path / "run"
        generator = TraceGenerator(seed=5)
        journal = ShardJournal(run_dir, meta=generator.journal_meta())
        spec = make_chaos("kill-worker", times=1)
        with chaos_env(spec):
            generator.generate([2, 13], workers=2, supervision=FAST,
                               journal=journal)
        assert len(journal) == 2
        resumed = ShardJournal(
            run_dir, meta=generator.journal_meta(), resume=True
        )
        trace = TraceGenerator(seed=5).generate([2, 13], journal=resumed)
        assert_traces_identical(TraceGenerator(seed=5).generate([2, 13]), trace)


class TestSerialSupervision:
    def test_serial_retries_a_failed_attempt(self, monkeypatch):
        from repro import obs

        original = TraceGenerator._system_columns
        failures = []

        def fails_once(self, system_id):
            if not failures:
                failures.append(system_id)
                raise RuntimeError("simulated transient defect")
            return original(self, system_id)

        slept = []
        monkeypatch.setattr(TraceGenerator, "_system_columns", fails_once)
        monkeypatch.setattr("repro.resilience.supervisor.time.sleep", slept.append)
        generator = TraceGenerator(seed=5)
        tracer = obs.Tracer()
        with obs.observing(tracer):
            trace = generator.generate([2], supervision=FAST)
        monkeypatch.undo()
        assert_traces_identical(TraceGenerator(seed=5).generate([2]), trace)
        report = generator.last_run_report
        assert [s.shard for s in report.retried_shards] == ["system-2"]
        assert report.shards["system-2"].status == "ok"
        assert slept == [FAST.policy.backoff("system-2", 1)]
        # One shard.attempt span per attempt, numbered like the report.
        attempts = [
            (event["attrs"]["attempt"], event["status"])
            for event in tracer.events
            if event["name"] == "shard.attempt"
        ]
        assert attempts == [(1, "error"), (2, "ok")]

    def test_bare_serial_run_still_raises(self, monkeypatch):
        # Without explicit supervision a genuine bug must raise, not
        # silently skip a system: the default policy's retries, then
        # the same error a bare parallel run raises.
        def always_broken(self, system_id):
            raise RuntimeError("genuine defect")

        slept = []
        monkeypatch.setattr(TraceGenerator, "_system_columns", always_broken)
        monkeypatch.setattr("repro.resilience.supervisor.time.sleep", slept.append)
        generator = TraceGenerator(seed=5)
        with pytest.raises(
            RuntimeError, match=r"system-2 \(RuntimeError: genuine defect\)"
        ):
            generator.generate([2])
        attempts = generator.last_run_report.shards["system-2"].attempts
        assert [a.outcome for a in attempts] == ["error"] * 3
        default = RetryPolicy()
        assert slept == [default.backoff("system-2", n) for n in (1, 2)]

    def test_serial_run_honours_the_deadline(self):
        # The serial path shares the supervisor's deadline: once it is
        # spent, a failing shard is skipped instead of retried on.
        spec = make_chaos("flaky-shard", times=1000, shards=("system-2",))
        generator = TraceGenerator(seed=5)
        supervision = SupervisionConfig(
            policy=RetryPolicy(
                base_delay=0.3, jitter=0.0, max_attempts=5, deadline=0.2
            ),
        )
        with chaos_env(spec):
            trace = generator.generate([2], supervision=supervision)
        assert len(trace) == 0
        attempts = generator.last_run_report.shards["system-2"].attempts
        assert [a.outcome for a in attempts] == ["error", "error", "deadline"]


class TestWorkerValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            TraceGenerator(seed=5).generate([2], workers=0)

    def test_workers_clamped_to_shards(self):
        generator = TraceGenerator(seed=5)
        assert generator._effective_workers(8, 2) == 2

    def test_single_shard_runs_serial(self):
        generator = TraceGenerator(seed=5)
        assert generator._effective_workers(4, 1) == 1

    def test_oversubscription_warns_and_clamps(self):
        import os

        generator = TraceGenerator(seed=5)
        cap = max(2, os.cpu_count() or 1)
        with pytest.warns(RuntimeWarning, match="cpu_count"):
            assert generator._effective_workers(cap + 50, 64) == cap

    def test_unknown_system_raises_before_any_work(self):
        with pytest.raises(KeyError, match="unknown system"):
            TraceGenerator(seed=5).generate([2, 99], workers=2)
