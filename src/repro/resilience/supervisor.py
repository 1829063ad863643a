"""Supervised process-pool mapping: crash, hang and error recovery.

:func:`supervised_map` is the fault-tolerant replacement for
``ProcessPoolExecutor.map``.  A bare pool has the failure mode the
paper warns about: one crashed worker (``BrokenProcessPool``) or one
hung worker aborts *all* in-flight work.  The supervisor instead:

* detects a broken pool, respawns it, and retries only the shards that
  did not complete;
* detects hangs — no shard completes within ``shard_timeout`` —
  terminates the stuck workers, respawns, retries;
* counts failures per shard through a
  :class:`~repro.resilience.breaker.CircuitBreaker`, degrading a
  repeatedly-failing shard down a stage ladder and finally recording a
  structured skip (result ``None``) instead of raising;
* spaces retry rounds by the
  :class:`~repro.resilience.retry.RetryPolicy`'s deterministic
  exponential backoff, honoring its overall deadline;
* records every attempt in a
  :class:`~repro.resilience.report.RunReport`.

Work is only safe to retry because tasks are pure functions of their
payload (the generator re-derives every shard from ``(seed, labels)``),
so a retried shard is byte-identical to a first-try shard.
"""

from __future__ import annotations

import contextlib
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.resilience import report as report_mod
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.report import RunReport
from repro.resilience.retry import RetryPolicy

__all__ = ["supervised_map", "SupervisorError"]


class SupervisorError(RuntimeError):
    """Unrecoverable supervision failure (bad configuration, not a shard)."""


def _terminate_workers(executor: ProcessPoolExecutor) -> None:
    """Forcefully stop a pool whose workers may never return.

    Workers must be killed *before* ``shutdown()``: shutdown clears the
    executor's process table, and a hung worker never drains the wakeup
    sentinel anyway — it has to die for the pool's management thread
    (joined here and again by the interpreter's atexit hook) to finish.
    """
    processes = list((getattr(executor, "_processes", None) or {}).values())
    for process in processes:
        with contextlib.suppress(Exception):
            process.kill()
    executor.shutdown(wait=True, cancel_futures=True)


def supervised_map(
    task: Callable[[Any], Any],
    payloads: Sequence[Any],
    *,
    workers: int,
    keys: Optional[Sequence[str]] = None,
    policy: Optional[RetryPolicy] = None,
    breaker: Optional[CircuitBreaker] = None,
    stage_payload: Optional[Callable[[Any, str], Any]] = None,
    shard_timeout: Optional[float] = None,
    report: Optional[RunReport] = None,
    on_result: Optional[Callable[[str, Any], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
    executor_factory: Optional[Callable[[int], ProcessPoolExecutor]] = None,
) -> Dict[str, Any]:
    """Map ``task`` over ``payloads`` in worker processes, surviving
    crashed, hung and failing workers.

    Parameters
    ----------
    task:
        Module-level (picklable) callable applied to each payload.
    payloads:
        Picklable work items ("shards").
    workers:
        Worker process count (capped at the number of pending shards).
    keys:
        Shard labels for reporting/journaling; default ``"shard-i"``.
    policy:
        Retry/backoff policy; defaults to :class:`RetryPolicy`'s
        defaults.
    breaker:
        Circuit breaker owning the degradation ladder; defaults to a
        single-stage breaker with ``policy.max_attempts`` threshold.
    stage_payload:
        ``f(payload, stage) -> payload`` rewriting a payload for a
        degraded stage; default identity.  (Trace generation runs a
        one-stage ladder and never rewrites.)
    shard_timeout:
        Hang detection: if no shard completes for this many seconds,
        the round's unfinished shards are failed with outcome
        ``timeout`` and the pool is terminated and respawned.
    report:
        Optional :class:`RunReport` filled in place.
    on_result:
        Called as ``on_result(key, result)`` in the parent process as
        each shard completes — the journaling hook.
    sleep / executor_factory:
        Injection points for tests.

    Returns
    -------
    dict
        ``key -> result``; a skipped shard maps to ``None``.

    Observability
    -------------
    When tracing is active (:func:`repro.obs.observing`), the whole
    call is wrapped in a ``supervise`` span and, at the end of the run,
    one ``shard.attempt`` span is emitted per :class:`ShardAttempt` in
    the report — shard-keyed and sorted, so the emitted spans line up
    with the attempt history one-for-one and the trace is stable across
    process schedules.  Worker processes that spooled their own span
    stream (:func:`repro.obs.worker_tracing`) get those events grafted
    under the successful attempt's span.
    """
    with obs.span(
        "supervise", shards=len(payloads), workers=workers
    ) as span:
        results = _supervised_map(
            task,
            payloads,
            workers=workers,
            keys=keys,
            policy=policy,
            breaker=breaker,
            stage_payload=stage_payload,
            shard_timeout=shard_timeout,
            report=report,
            on_result=on_result,
            sleep=sleep,
            executor_factory=executor_factory,
        )
        skipped = sum(1 for value in results.values() if value is None)
        span.add("completed", len(results) - skipped)
        span.add("skipped", skipped)
        tracer = obs.active_tracer()
        if tracer is not None and report is not None:
            _emit_attempt_spans(tracer, report, sorted(results))
    return results


def _emit_attempt_spans(
    tracer: "obs.Tracer", report: RunReport, keys: Sequence[str]
) -> None:
    """Replay the report's attempt history as spans, merging spools.

    Emission is keyed by shard and ordered by (sorted shard key,
    attempt number) — never by completion time — so the merged trace is
    deterministic for a deterministic workload regardless of how the
    pool scheduled the attempts.  A worker's spooled events (the final
    attempt's, since retries overwrite the spool atomically) are
    grafted under the successful attempt's span.
    """
    for key in keys:
        outcome = report.shards.get(key)
        if outcome is None:
            continue
        for entry in outcome.attempts:
            attrs = {
                "shard": key,
                "stage": entry.stage,
                "attempt": entry.attempt,
                "outcome": entry.outcome,
            }
            if entry.backoff is not None:
                attrs["backoff_s"] = round(entry.backoff, 6)
            span_id = tracer.emit(
                "shard.attempt",
                wall_s=entry.wall_s or 0.0,
                attrs=attrs,
                error=entry.error,
            )
            if entry.outcome == report_mod.OK:
                events = obs.load_spool_events(key)
                if events:
                    tracer.graft(events, span_id)


def _supervised_map(
    task: Callable[[Any], Any],
    payloads: Sequence[Any],
    *,
    workers: int,
    keys: Optional[Sequence[str]] = None,
    policy: Optional[RetryPolicy] = None,
    breaker: Optional[CircuitBreaker] = None,
    stage_payload: Optional[Callable[[Any, str], Any]] = None,
    shard_timeout: Optional[float] = None,
    report: Optional[RunReport] = None,
    on_result: Optional[Callable[[str, Any], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
    executor_factory: Optional[Callable[[int], ProcessPoolExecutor]] = None,
) -> Dict[str, Any]:
    """The supervision loop behind :func:`supervised_map`."""
    if workers < 1:
        raise SupervisorError(f"workers must be >= 1, got {workers}")
    if keys is None:
        keys = [f"shard-{i}" for i in range(len(payloads))]
    if len(keys) != len(payloads):
        raise SupervisorError(
            f"{len(keys)} keys for {len(payloads)} payloads"
        )
    if len(set(keys)) != len(keys):
        raise SupervisorError("shard keys must be unique")
    policy = policy if policy is not None else RetryPolicy()
    if breaker is None:
        breaker = CircuitBreaker(failure_threshold=policy.max_attempts)
    if stage_payload is None:
        stage_payload = lambda payload, stage: payload  # noqa: E731
    if executor_factory is None:
        executor_factory = lambda n: ProcessPoolExecutor(max_workers=n)  # noqa: E731

    pending: Dict[str, Any] = dict(zip(keys, payloads))
    results: Dict[str, Any] = {}
    attempts: Dict[str, int] = {key: 0 for key in keys}
    started = time.monotonic()
    deadline_at = (
        started + policy.deadline if policy.deadline is not None else None
    )

    def _skip(key: str) -> None:
        results[key] = None
        del pending[key]
        if report is not None:
            report.finish_shard(key, report_mod.STATUS_SKIPPED)

    def _complete(
        key: str, stage: str, result: Any, wall_s: Optional[float]
    ) -> None:
        results[key] = result
        del pending[key]
        breaker.record_success(key)
        if report is not None:
            report.record_attempt(key, stage, report_mod.OK, wall_s=wall_s)
            status = (
                report_mod.STATUS_DEGRADED
                if stage != breaker.stages[0]
                else report_mod.STATUS_OK
            )
            try:
                n_records = len(result)
            except TypeError:
                n_records = None
            report.finish_shard(key, status, records=n_records)
        if on_result is not None:
            on_result(key, result)

    while pending:
        round_stages = {key: breaker.stage(key) for key in pending}
        executor = executor_factory(min(workers, len(pending)))
        futures = {
            executor.submit(
                task, stage_payload(pending[key], round_stages[key])
            ): key
            for key in list(pending)
        }
        # Attempt wall time is measured from submission: it includes
        # pool queueing, which is what the user actually waited.
        submitted = {future: time.perf_counter() for future in futures}
        failed: List[str] = []
        hung = False
        not_done = set(futures)
        while not_done:
            done, not_done = wait(
                not_done, timeout=shard_timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                hung = True
                break
            for future in done:
                key = futures[future]
                stage = round_stages[key]
                attempts[key] += 1
                wall = time.perf_counter() - submitted[future]
                try:
                    result = future.result()
                except BrokenProcessPool:
                    failed.append(key)
                    if report is not None:
                        report.record_attempt(
                            key, stage, report_mod.CRASH,
                            error="worker process died (pool broken)",
                            wall_s=wall,
                        )
                except Exception as exc:  # task raised in the worker
                    failed.append(key)
                    if report is not None:
                        report.record_attempt(
                            key, stage, report_mod.ERROR,
                            error=f"{type(exc).__name__}: {exc}",
                            wall_s=wall,
                        )
                else:
                    _complete(key, stage, result, wall)
        if hung:
            for future, key in futures.items():
                if not future.done():
                    attempts[key] += 1
                    failed.append(key)
                    if report is not None:
                        report.record_attempt(
                            key, round_stages[key], report_mod.TIMEOUT,
                            error=(
                                "no progress within "
                                f"{shard_timeout}s; pool terminated"
                            ),
                            wall_s=time.perf_counter() - submitted[future],
                        )
            _terminate_workers(executor)
        else:
            executor.shutdown(wait=True)

        if not failed:
            continue
        # Decide each failed shard's fate and the round's backoff.
        round_delay = 0.0
        for key in failed:
            action = breaker.record_failure(key)
            if action == "open":
                _skip(key)
                continue
            delay = policy.backoff(key, attempts[key])
            round_delay = max(round_delay, delay)
            if report is not None and report.shards[key].attempts:
                report.shards[key].attempts[-1].backoff = delay
        if deadline_at is not None and time.monotonic() >= deadline_at:
            for key in list(pending):
                if report is not None:
                    report.record_attempt(
                        key, str(breaker.stage(key)), report_mod.DEADLINE,
                        error=f"retry deadline ({policy.deadline}s) exhausted",
                    )
                _skip(key)
            break
        if round_delay > 0 and pending:
            sleep(round_delay)

    return results
