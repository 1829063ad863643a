"""Fault-tolerant execution: retries, supervision, journaling, atomicity.

The paper this repo reproduces studies failures in long-running HPC
pipelines; this subsystem applies its lessons — retry with backoff,
checkpointing, graceful degradation — to our own hot path:

* :class:`~repro.resilience.retry.RetryPolicy` — exponential backoff
  with deterministic jitter, an attempt limit and an overall deadline;
* :func:`~repro.resilience.supervisor.supervised_map` — the one retry
  loop: maps a task over shards, in process or in a process pool,
  retries failed, crashed (``BrokenProcessPool``) and hung attempts
  under one policy, and records a structured skip once a shard's
  retries are spent;
* :class:`~repro.resilience.breaker.CircuitBreaker` — the three-state
  (closed, open, half-open) breaker guarding the serving gateway's
  primary read;
* :class:`~repro.resilience.journal.ShardJournal` — a crash-safe
  per-run record of completed shards enabling ``--resume``;
* :class:`~repro.resilience.report.RunReport` — the audit trail of
  every attempt, retry and skip;
* :mod:`~repro.resilience.atomic` — tmp + fsync + ``os.replace``
  artifact writes used by every writer in the toolkit.

See ``docs/resilience.md`` for the full semantics.
"""

from repro.resilience.atomic import (
    atomic_open_text,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN_STATE,
    CircuitBreaker,
)
from repro.resilience.deadline import Deadline, DeadlineExceeded
from repro.resilience.journal import JournalError, ShardJournal
from repro.resilience.report import RunReport, ShardAttempt, ShardOutcome
from repro.resilience.retry import RetryPolicy
from repro.resilience.supervisor import SupervisorError, supervised_map

__all__ = [
    "atomic_open_text",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "CLOSED",
    "HALF_OPEN",
    "OPEN_STATE",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "JournalError",
    "ShardJournal",
    "RunReport",
    "ShardAttempt",
    "ShardOutcome",
    "RetryPolicy",
    "SupervisorError",
    "supervised_map",
]
