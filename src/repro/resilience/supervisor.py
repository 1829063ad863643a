"""Supervised mapping: crash, hang and error recovery.

:func:`supervised_map` is the fault-tolerant replacement for
``ProcessPoolExecutor.map``, and the one retry loop of the toolkit.  A
bare pool has the failure mode the paper warns about: one crashed
worker (``BrokenProcessPool``) or one hung worker aborts *all*
in-flight work.  The supervisor instead:

* runs the shards in rounds — in the calling process with one worker,
  in a fresh process pool with more;
* detects a broken pool, respawns it, and retries only the shards that
  did not complete;
* detects hangs — no shard completes within ``shard_timeout`` —
  terminates the stuck workers, respawns, retries;
* skips a shard that failed ``policy.max_attempts`` times, recording a
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


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def supervised_map(
    task: Callable[[Any], Any],
    payloads: Sequence[Any],
    *,
    workers: int,
    keys: Optional[Sequence[str]] = None,
    policy: Optional[RetryPolicy] = None,
    shard_timeout: Optional[float] = None,
    report: Optional[RunReport] = None,
    on_result: Optional[Callable[[str, Any], None]] = None,
    sleep: Optional[Callable[[float], None]] = None,
    executor_factory: Optional[Callable[[int], ProcessPoolExecutor]] = None,
) -> Dict[str, Any]:
    """Map ``task`` over ``payloads``, surviving crashed, hung and
    failing attempts.

    Parameters
    ----------
    task:
        Callable applied to each payload; module-level (picklable) when
        ``workers > 1``.
    payloads:
        Work items ("shards"); picklable when ``workers > 1``.
    workers:
        ``1`` runs every attempt in the calling process; more runs each
        round in a process pool of that many workers (capped at the
        number of pending shards).
    keys:
        Shard labels for reporting/journaling; default ``"shard-i"``.
    policy:
        Retry/backoff policy; defaults to :class:`RetryPolicy`'s
        defaults.  A shard that fails ``policy.max_attempts`` times is
        skipped; once ``policy.deadline`` is spent, so is every shard
        still failing.
    shard_timeout:
        Hang detection for pools: if no shard completes for this many
        seconds, the round's unfinished shards are failed with outcome
        ``timeout`` and the pool is terminated and respawned.  An
        in-process attempt cannot be pre-empted, so it has no timeout.
    report:
        Optional :class:`RunReport` filled in place.
    on_result:
        Called as ``on_result(key, result)`` in the calling process as
        each shard completes — the journaling hook.  Its exceptions
        propagate: a failed journal write is not a shard failure.
    sleep / executor_factory:
        Injection points for tests; ``sleep`` defaults to
        :func:`time.sleep`.

    Returns
    -------
    dict
        ``key -> result``; a skipped shard maps to ``None``.

    Observability
    -------------
    When tracing is active (:func:`repro.obs.observing`), the whole
    call is wrapped in a ``supervise`` span.  In process, each attempt
    runs inside a live ``shard.attempt`` span, so the task's own spans
    nest under it.  With a pool, one ``shard.attempt`` span is emitted
    per :class:`ShardAttempt` in the report at the end of the run —
    shard-keyed and sorted, so the spans line up with the attempt
    history one-for-one and the trace is stable across process
    schedules — and worker processes that spooled their own span
    stream (:func:`repro.obs.worker_tracing`) get those events grafted
    under the successful attempt's span.
    """
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
    sleep = sleep if sleep is not None else time.sleep
    if executor_factory is None:
        executor_factory = lambda n: ProcessPoolExecutor(max_workers=n)  # noqa: E731

    pending: Dict[str, Any] = dict(zip(keys, payloads))
    results: Dict[str, Any] = {}
    attempts: Dict[str, int] = {key: 0 for key in keys}
    deadline_at = (
        time.monotonic() + policy.deadline
        if policy.deadline is not None
        else None
    )

    def _record(
        key: str, outcome: str, error: str = "", wall_s: Optional[float] = None
    ) -> None:
        if report is not None:
            report.record_attempt(key, outcome, error=error, wall_s=wall_s)

    def _skip(key: str) -> None:
        results[key] = None
        del pending[key]
        if report is not None:
            report.finish_shard(key, report_mod.STATUS_SKIPPED)

    def _complete(key: str, result: Any, wall_s: float) -> None:
        results[key] = result
        del pending[key]
        if report is not None:
            _record(key, report_mod.OK, wall_s=wall_s)
            try:
                n_records = len(result)
            except TypeError:
                n_records = None
            report.finish_shard(key, report_mod.STATUS_OK, records=n_records)
        if on_result is not None:
            on_result(key, result)

    def _inline_round() -> List[str]:
        """One attempt per pending shard, in the calling process."""
        failed: List[str] = []
        for key in list(pending):
            attempts[key] += 1
            begin = time.perf_counter()
            try:
                with obs.span("shard.attempt", shard=key, attempt=attempts[key]):
                    result = task(pending[key])
            except Exception as exc:
                failed.append(key)
                _record(
                    key, report_mod.ERROR, _error_text(exc),
                    time.perf_counter() - begin,
                )
            else:
                _complete(key, result, time.perf_counter() - begin)
        return failed

    def _pool_round() -> List[str]:
        """One attempt per pending shard, in a fresh process pool."""
        executor = executor_factory(min(workers, len(pending)))
        futures = {
            executor.submit(task, payload): key
            for key, payload in pending.items()
        }
        # Attempt wall time is measured from submission: it includes
        # pool queueing, which is what the user actually waited.
        submitted = {future: time.perf_counter() for future in futures}
        failed: List[str] = []
        not_done = set(futures)
        while not_done:
            done, not_done = wait(
                not_done, timeout=shard_timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                break
            for future in done:
                key = futures[future]
                attempts[key] += 1
                wall = time.perf_counter() - submitted[future]
                try:
                    result = future.result()
                except BrokenProcessPool:
                    failed.append(key)
                    _record(
                        key, report_mod.CRASH,
                        "worker process died (pool broken)", wall,
                    )
                except Exception as exc:  # task raised in the worker
                    failed.append(key)
                    _record(key, report_mod.ERROR, _error_text(exc), wall)
                else:
                    _complete(key, result, wall)
        # Hung: no shard completed within shard_timeout.
        for future, key in futures.items():
            if future in not_done:
                attempts[key] += 1
                failed.append(key)
                _record(
                    key, report_mod.TIMEOUT,
                    f"no progress within {shard_timeout}s; pool terminated",
                    time.perf_counter() - submitted[future],
                )
        if not_done:
            _terminate_workers(executor)
        else:
            executor.shutdown(wait=True)
        return failed

    run_round = _inline_round if workers == 1 else _pool_round
    with obs.span(
        "supervise", shards=len(payloads), workers=workers
    ) as span:
        while pending:
            failed = run_round()
            # Decide each failed shard's fate and the round's backoff.
            round_delay = 0.0
            for key in failed:
                if attempts[key] >= policy.max_attempts:
                    _skip(key)
                    continue
                delay = policy.backoff(key, attempts[key])
                round_delay = max(round_delay, delay)
                if report is not None:
                    report.shards[key].attempts[-1].backoff = delay
            if (
                pending
                and deadline_at is not None
                and time.monotonic() >= deadline_at
            ):
                for key in list(pending):
                    _record(
                        key, report_mod.DEADLINE,
                        f"retry deadline ({policy.deadline}s) exhausted",
                    )
                    _skip(key)
            elif round_delay > 0 and pending:
                sleep(round_delay)
        skipped = sum(1 for value in results.values() if value is None)
        span.add("completed", len(results) - skipped)
        span.add("skipped", skipped)
        tracer = obs.active_tracer()
        if tracer is not None and report is not None and workers > 1:
            _emit_attempt_spans(tracer, report, sorted(results))
    return results


def _emit_attempt_spans(
    tracer: "obs.Tracer", report: RunReport, keys: Sequence[str]
) -> None:
    """Replay the report's pool attempt history as spans, merging spools.

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
