"""The trace generator: orchestrates all synthetic components.

:class:`TraceGenerator` produces a :class:`~repro.records.trace.FailureTrace`
for any subset of the 22 LANL systems.  Generation is deterministic in
the seed and *compositional*: each (system, node) derives its own RNG
stream, so generating system 20 alone yields exactly the same records
for system 20 as generating the full trace — and generating systems in
parallel worker processes yields exactly the same trace as generating
them serially.

Pipeline per system:

1. expand Table 1 categories into nodes with production windows,
2. assign workloads (graphics / front-end / compute) and per-node rate
   multipliers,
3. sample each node's failure times from a modulated Weibull renewal
   process (lifecycle x weekly modulation via time rescaling),
4. draw root causes (age-dependent unknown era for types D/G) and
   repair durations,
5. inject correlated bursts for the early NUMA era,
6. sort, stamp record IDs, wrap in a FailureTrace.

Engines and the RNG-stream contract
-----------------------------------
Two engines share this pipeline: ``"vectorized"`` (the default; batched
NumPy hot path) and ``"scalar"`` (the per-event reference loop).  Each
(system, node) consumes two dedicated streams:

* ``("system", s, "node", n, "arrivals")`` — one equilibrium uniform,
  then Weibull interarrivals.  The vectorized engine over-draws past
  the window capacity, so this stream is never reused for anything
  else.
* ``("system", s, "node", n, "marks")`` — fixed block order:
  ``u_cause``, ``u_lost``, ``u_detail``, ``u_tail``, ``z`` (one array
  each, sized by the node's event count).  Untouched when the node has
  no failures.

System-level streams (``jitter``, ``bursts``) and the per-node rate
multiplier stream are unchanged from the per-record pipeline.  Because
every stream's seed is a pure function of (root seed, label path), the
engines — and serial vs. parallel execution — produce bit-identical
records.
"""

from __future__ import annotations

import hashlib
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs

from repro.records.codes import (
    CAUSE_CODE,
    CAUSE_VOCAB,
    DETAIL_CODE,
    DETAIL_VOCAB,
    NO_DETAIL,
    WORKLOAD_CODE,
    WORKLOAD_VOCAB,
)
from repro.records.inventory import DATA_END, DATA_START, LANL_SYSTEMS
from repro.records.record import FailureRecord, Workload
from repro.records.system import SystemConfig
from repro.records.timeutils import (
    SECONDS_PER_MONTH,
    SECONDS_PER_WEEK,
    SECONDS_PER_YEAR,
)
from repro.records.trace import FailureTrace
from repro.resilience import (
    CircuitBreaker,
    RetryPolicy,
    RunReport,
    ShardJournal,
    supervised_map,
)
from repro.resilience import report as report_mod
from repro.simulate.rng import RngStream
from repro.synth.arrivals import (
    ArrivalGrid,
    ModulatedWeibullArrivals,
    build_arrival_grid,
    invert_operational,
    week_grid,
)
from repro.synth.config import ENGINES, GeneratorConfig
from repro.synth.correlated import inject_bursts
from repro.synth.diurnal import WeeklyProfile
from repro.synth.jitter import MonthlyJitter
from repro.synth.lifecycle import lifecycle_levels, lifecycle_shape_for
from repro.synth.nodes import (
    assign_workload,
    node_rate_multipliers,
    workload_multiplier,
)
from repro.synth.repair import RepairModel
from repro.synth.rootcause import CauseModel

__all__ = ["TraceGenerator", "SupervisionConfig"]


@dataclass
class _SystemColumns:
    """One system's failures in columnar form (pre-record objects).

    The hot path works on arrays; :class:`FailureRecord` objects are
    only materialized lazily at emission time, which is what bounds
    memory for scaled-inventory runs.  Categorical columns are int8
    codes (:mod:`repro.records.codes`), never object arrays: worker
    handoff and journal payloads pickle six numeric buffers instead of
    per-element enum references, and the columnar store can write them
    straight to disk.
    """

    system_id: int
    start: np.ndarray          # float64, node-major order
    end: np.ndarray            # float64
    node_id: np.ndarray        # int64
    cause_code: np.ndarray     # int8, index into CAUSE_VOCAB
    detail_code: np.ndarray    # int8, index into DETAIL_VOCAB, -1 = None
    workload_code: np.ndarray  # int8, index into WORKLOAD_VOCAB

    def __len__(self) -> int:
        return len(self.start)


def _empty_columns(system_id: int) -> _SystemColumns:
    return _SystemColumns(
        system_id=system_id,
        start=np.empty(0),
        end=np.empty(0),
        node_id=np.empty(0, dtype=np.int64),
        cause_code=np.empty(0, dtype=np.int8),
        detail_code=np.empty(0, dtype=np.int8),
        workload_code=np.empty(0, dtype=np.int8),
    )


def _records_from_columns(columns: _SystemColumns) -> List[FailureRecord]:
    """Materialize a system's columns as (un-numbered) records."""
    # FailureRecord.__post_init__ coerces numeric fields, so NumPy
    # scalars can be passed straight through.
    records = []
    for i in range(len(columns)):
        detail = int(columns.detail_code[i])
        records.append(
            FailureRecord(
                start_time=columns.start[i],
                end_time=columns.end[i],
                system_id=columns.system_id,
                node_id=columns.node_id[i],
                root_cause=CAUSE_VOCAB[columns.cause_code[i]],
                low_level_cause=DETAIL_VOCAB[detail] if detail >= 0 else None,
                workload=WORKLOAD_VOCAB[columns.workload_code[i]],
            )
        )
    return records


def _columns_from_records(
    system_id: int, records: Sequence[FailureRecord]
) -> _SystemColumns:
    """Inverse of :func:`_records_from_columns` (burst adapter)."""
    if not records:
        return _empty_columns(system_id)
    return _SystemColumns(
        system_id=system_id,
        start=np.array([r.start_time for r in records]),
        end=np.array([r.end_time for r in records]),
        node_id=np.array([r.node_id for r in records], dtype=np.int64),
        cause_code=np.array(
            [CAUSE_CODE[r.root_cause] for r in records], dtype=np.int8
        ),
        detail_code=np.array(
            [
                NO_DETAIL if r.low_level_cause is None
                else DETAIL_CODE[r.low_level_cause]
                for r in records
            ],
            dtype=np.int8,
        ),
        workload_code=np.array(
            [WORKLOAD_CODE[r.workload] for r in records], dtype=np.int8
        ),
    )


def _shard_key(system_id: int) -> str:
    return f"system-{system_id}"


def _system_columns_task(payload: Tuple) -> _SystemColumns:
    """Worker entry point for ``workers > 1`` (module-level: picklable).

    Rebuilds the generator from its defining state; determinism comes
    from the (seed, label path) stream derivation, so the rebuilt
    generator's output is identical to the parent's — which is also
    what makes a *retried* shard byte-identical to a first-try one.
    """
    seed, config, systems, data_start, data_end, system_id, engine = payload
    generator = TraceGenerator(
        seed=seed,
        config=config,
        systems=systems,
        data_start=data_start,
        data_end=data_end,
    )
    # Worker-side tracing: a no-op unless the parent armed the spool
    # directory (repro.obs.SPOOL_ENV_VAR, inherited through the pool).
    # When armed, the shard's spans go to a stream named after the
    # shard key and are spooled for the supervisor to graft.
    key = _shard_key(system_id)
    with obs.worker_tracing(key):
        with obs.span("synth.system", system=system_id, engine=engine) as span:
            columns = generator._system_columns(system_id, engine)
            span.add("records", len(columns))
    return columns


@dataclass(frozen=True)
class SupervisionConfig:
    """How :class:`TraceGenerator` supervises multi-process generation.

    Parameters
    ----------
    policy:
        Retry/backoff policy for failed shards.
    shard_timeout:
        Hang detection: if no shard completes for this many seconds,
        the worker pool is terminated and respawned and the unfinished
        shards retried.  ``None`` disables hang detection.
    failure_threshold:
        Failures per degradation stage before the circuit breaker moves
        a shard down the ladder (vectorized → scalar → skip).
    degrade_to_scalar:
        Whether a repeatedly-failing vectorized shard falls back to the
        scalar reference engine (byte-identical output) before being
        skipped.
    """

    policy: RetryPolicy = field(default_factory=RetryPolicy)
    shard_timeout: Optional[float] = None
    failure_threshold: int = 3
    degrade_to_scalar: bool = True

    def stages(self, engine: str) -> Tuple[str, ...]:
        """The engine degradation ladder for a run on ``engine``."""
        if self.degrade_to_scalar and engine == "vectorized":
            return ("vectorized", "scalar")
        return (engine,)


class TraceGenerator:
    """Generate a synthetic LANL failure trace.

    Parameters
    ----------
    seed:
        Root seed; the trace is a deterministic function of it (plus
        the configuration).
    config:
        Calibration knobs; defaults reproduce the paper.
    systems:
        Inventory to generate for; defaults to all 22 LANL systems.
    data_start / data_end:
        Observation window; defaults to the LANL data window.

    Example
    -------
    >>> trace = TraceGenerator(seed=1).generate([2])
    >>> 0 < len(trace) < 400   # system 2 averages ~17.6 failures/year
    True
    """

    def __init__(
        self,
        seed: int = 0,
        config: Optional[GeneratorConfig] = None,
        systems: Optional[Dict[int, SystemConfig]] = None,
        data_start: float = DATA_START,
        data_end: float = DATA_END,
    ) -> None:
        self.seed = int(seed)
        self.config = config if config is not None else GeneratorConfig()
        self.systems = dict(systems if systems is not None else LANL_SYSTEMS)
        self.data_start = float(data_start)
        self.data_end = float(data_end)
        self._root = RngStream(seed)
        self._profile = WeeklyProfile(
            amplitude=self.config.diurnal_amplitude,
            peak_hour=self.config.diurnal_peak_hour,
            weekend_factor=self.config.weekend_factor,
            enabled=self.config.diurnal_enabled,
        )
        self._repair_model = RepairModel(self.config)
        #: The :class:`~repro.resilience.report.RunReport` of the most
        #: recent :meth:`generate`/:meth:`iter_records` call.
        self.last_run_report: Optional[RunReport] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def generate(
        self,
        system_ids: Optional[Sequence[int]] = None,
        *,
        workers: int = 1,
        engine: Optional[str] = None,
        supervision: Optional[SupervisionConfig] = None,
        journal: Optional[ShardJournal] = None,
    ) -> FailureTrace:
        """Generate the trace for the given systems (default: all).

        Parameters
        ----------
        workers:
            Number of worker processes for per-system generation; 1
            (default) runs in-process.  Output is identical for any
            worker count.  Values above ``os.cpu_count()`` or the
            number of systems are clamped (with a warning for the CPU
            case).
        engine:
            Override the config's ``default_engine`` ("vectorized" or
            "scalar"); both produce identical traces.
        supervision:
            Fault-tolerance knobs for the worker fan-out (retry policy,
            hang timeout, degradation ladder); defaults apply when
            omitted.  Graceful degradation is opt-in: when omitted, a
            shard that fails past every retry raises (serial and
            parallel alike) instead of being skipped, so a bare run
            never returns a silently incomplete trace.  The resulting
            :class:`~repro.resilience.report.RunReport` is available as
            :attr:`last_run_report`.
        journal:
            Optional :class:`~repro.resilience.journal.ShardJournal`:
            completed shards are durably recorded as they finish, and
            shards already in the journal are loaded instead of
            regenerated (crash-resumable runs).
        """
        records = list(
            self.iter_records(
                system_ids,
                workers=workers,
                engine=engine,
                supervision=supervision,
                journal=journal,
            )
        )
        return FailureTrace(
            records,
            systems=self.systems,
            data_start=self.data_start,
            data_end=self.data_end,
        )

    def iter_records(
        self,
        system_ids: Optional[Sequence[int]] = None,
        *,
        workers: int = 1,
        engine: Optional[str] = None,
        supervision: Optional[SupervisionConfig] = None,
        journal: Optional[ShardJournal] = None,
    ) -> Iterator[FailureRecord]:
        """Yield the trace's records in final order, lazily.

        Record objects are built one at a time from the columnar
        intermediate, so peak memory is the (numeric) columns plus one
        record — the streaming path for scaled-inventory runs where
        materializing millions of record objects would dominate memory.
        Ordering and record IDs match :meth:`generate` exactly.
        ``supervision`` and ``journal`` behave as in :meth:`generate`.
        """
        if system_ids is None:
            system_ids = sorted(self.systems.keys())
        system_ids = list(system_ids)
        engine = self._resolve_engine(engine)
        with obs.span(
            "generate",
            engine=engine,
            workers=workers,
            systems=len(system_ids),
            seed=self.seed,
        ) as gen_span:
            columns = self._all_columns(
                system_ids, workers, engine, supervision, journal
            )
            columns = [c for c in columns if len(c)]
            total = int(sum(len(c) for c in columns))
            gen_span.add("records", total)
        registry = obs.metrics()
        registry.counter("generate.records").add(total)
        registry.counter("generate.systems").add(len(columns))
        if not columns:
            return
        starts = np.concatenate([c.start for c in columns])
        ends = np.concatenate([c.end for c in columns])
        node_ids = np.concatenate([c.node_id for c in columns])
        cause_codes = np.concatenate([c.cause_code for c in columns])
        detail_codes = np.concatenate([c.detail_code for c in columns])
        workload_codes = np.concatenate([c.workload_code for c in columns])
        sys_ids = np.concatenate(
            [np.full(len(c), c.system_id, dtype=np.int64) for c in columns]
        )
        # Stable sort by (start, system, node) — identical to the
        # record-object sort the per-record pipeline used.
        with obs.span("generate.sort", records=int(starts.size)):
            order = np.lexsort((node_ids, sys_ids, starts))
        # __post_init__ coerces the NumPy scalars to Python floats/ints;
        # categorical codes decode through the canonical vocab tables.
        for record_id, i in enumerate(order):
            detail = int(detail_codes[i])
            yield FailureRecord(
                start_time=starts[i],
                end_time=ends[i],
                system_id=sys_ids[i],
                node_id=node_ids[i],
                root_cause=CAUSE_VOCAB[cause_codes[i]],
                low_level_cause=DETAIL_VOCAB[detail] if detail >= 0 else None,
                workload=WORKLOAD_VOCAB[workload_codes[i]],
                record_id=record_id,
            )

    def generate_system(
        self, system_id: int, engine: Optional[str] = None
    ) -> List[FailureRecord]:
        """Generate (unsorted, un-numbered) records for one system."""
        engine = self._resolve_engine(engine)
        return _records_from_columns(self._system_columns(system_id, engine))

    def generate_store(
        self,
        root: "os.PathLike",
        system_ids: Optional[Sequence[int]] = None,
        *,
        workers: int = 1,
        engine: Optional[str] = None,
        supervision: Optional[SupervisionConfig] = None,
        journal: Optional[ShardJournal] = None,
        shard_rows: Optional[int] = None,
        meta: Optional[Dict[str, object]] = None,
    ):
        """Generate straight into a columnar store directory.

        The engines' column batches are written to per-shard ``.npy``
        column files under ``root`` without ever materializing
        :class:`FailureRecord` objects — the out-of-core path for
        scaled-inventory runs.  ``workers``, ``supervision`` and
        ``journal`` behave exactly as in :meth:`generate`; reading the
        store back (:meth:`repro.store.ColumnarStore.iter_records`)
        yields the same records, in the same order, with the same
        record IDs as :meth:`iter_records`.

        Returns the store's :class:`~repro.store.manifest.Manifest`.
        """
        from repro.store.schema import ColumnBatch
        from repro.store.writer import DEFAULT_SHARD_ROWS, StoreWriter

        if system_ids is None:
            system_ids = sorted(self.systems.keys())
        system_ids = list(system_ids)
        engine = self._resolve_engine(engine)
        with obs.span(
            "store.generate",
            engine=engine,
            workers=workers,
            systems=len(system_ids),
            seed=self.seed,
        ) as span:
            columns = self._all_columns(
                system_ids, workers, engine, supervision, journal
            )
            columns = [c for c in columns if len(c)]
            total = int(sum(len(c) for c in columns))
            span.add("records", total)
            store_meta: Dict[str, object] = {
                "generator": "repro-synth",
                "seed": self.seed,
                "engine": engine,
            }
            if meta:
                store_meta.update(meta)
            writer = StoreWriter(
                root,
                systems=self.systems,
                data_start=self.data_start,
                data_end=self.data_end,
                record_ids="implicit",
                shard_rows=(
                    shard_rows if shard_rows is not None else DEFAULT_SHARD_ROWS
                ),
                meta=store_meta,
            )
            with obs.span("store.write", records=total):
                # One group per system, ascending: each shard holds one
                # system's rows sorted by (start, node) — the layout the
                # reader's stable merge sort and predicate pushdown rely on.
                for c in sorted(columns, key=lambda c: c.system_id):
                    order = np.lexsort((c.node_id, c.start))
                    writer.append_group(
                        ColumnBatch(
                            {
                                "start_time": c.start[order],
                                "end_time": c.end[order],
                                "system_id": np.full(
                                    len(c), c.system_id, dtype=np.int32
                                ),
                                "node_id": c.node_id[order].astype(np.int32),
                                "root_cause": c.cause_code[order],
                                "low_level_cause": c.detail_code[order],
                                "workload": c.workload_code[order],
                                "record_id": np.full(
                                    len(c), -1, dtype=np.int64
                                ),
                            }
                        )
                    )
            manifest = writer.finalize()
        registry = obs.metrics()
        registry.counter("store.records_written").add(total)
        registry.counter("store.shards_written").add(len(manifest.shards))
        return manifest

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _resolve_engine(self, engine: Optional[str]) -> str:
        engine = engine if engine is not None else self.config.default_engine
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        return engine

    def journal_meta(self, engine: Optional[str] = None) -> Dict[str, object]:
        """The run-identity dict pinned into a resumable run's journal.

        Shards are compositional — a system's records are a pure
        function of ``(seed, config, inventory, engine)`` — so the
        identity deliberately excludes *which* systems a run requested:
        a journaled shard is valid for any later run with the same
        identity.
        """
        engine = self._resolve_engine(engine)
        systems_digest = hashlib.sha256(
            repr(sorted(self.systems.items())).encode("utf-8")
        ).hexdigest()
        config_digest = hashlib.sha256(
            repr(self.config).encode("utf-8")
        ).hexdigest()
        return {
            "kind": "repro-generate",
            # Journal payloads are pickled _SystemColumns; bump when the
            # shard payload layout changes so a --resume against an old
            # run directory fails loudly instead of unpickling garbage.
            "payload": "columns-v2",
            "seed": self.seed,
            "engine": engine,
            "systems_sha256": systems_digest,
            "config_sha256": config_digest,
            "data_start": self.data_start,
            "data_end": self.data_end,
        }

    def _effective_workers(self, workers: int, n_shards: int) -> int:
        """Validate and clamp the worker count.

        * ``workers > len(shards)`` would spawn idle processes — clamp
          silently (it is an upper bound, not a demand);
        * ``workers > os.cpu_count()`` oversubscribes — warn and clamp.
          The cap has a floor of 2 so an explicit parallel request
          still exercises a real process pool on single-core hosts
          (two workers on one core is timesharing, not a fan-out bomb).
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if workers == 1 or n_shards <= 1:
            return 1
        effective = min(workers, n_shards)
        cpu_cap = max(2, os.cpu_count() or 1)
        if effective > cpu_cap:
            warnings.warn(
                f"workers={workers} exceeds cpu_count()={os.cpu_count()}; "
                f"clamping to {cpu_cap} to avoid oversubscription",
                RuntimeWarning,
                stacklevel=3,
            )
            effective = cpu_cap
        return effective

    def _all_columns(
        self,
        system_ids: List[int],
        workers: int,
        engine: str,
        supervision: Optional[SupervisionConfig] = None,
        journal: Optional[ShardJournal] = None,
    ) -> List[_SystemColumns]:
        unknown = sorted(set(system_ids) - set(self.systems))
        if unknown:
            raise KeyError(
                f"unknown system id(s) {unknown}; inventory has "
                f"{sorted(self.systems)}"
            )
        # Degradation (structured skips) is opt-in on *every* path: a
        # bare run — serial or parallel — should raise on a genuine
        # bug, not hand back a silently incomplete trace.
        explicit_supervision = supervision is not None
        supervision = (
            supervision if supervision is not None else SupervisionConfig()
        )
        report = RunReport(
            meta={
                "seed": self.seed,
                "engine": engine,
                "requested_workers": workers,
                "systems": list(system_ids),
                "policy": {
                    "max_attempts": supervision.policy.max_attempts,
                    "base_delay": supervision.policy.base_delay,
                    "multiplier": supervision.policy.multiplier,
                    "max_delay": supervision.policy.max_delay,
                    "jitter": supervision.policy.jitter,
                    "deadline": supervision.policy.deadline,
                },
                "failure_threshold": supervision.failure_threshold,
                "shard_timeout": supervision.shard_timeout,
            },
        )
        self.last_run_report = report
        results: Dict[int, Optional[_SystemColumns]] = {}
        pending: List[int] = []
        for system_id in system_ids:
            key = _shard_key(system_id)
            if journal is not None and journal.has(key):
                columns = journal.load(key)
                results[system_id] = columns
                report.mark_resumed(key, records=len(columns))
            else:
                pending.append(system_id)
        effective = self._effective_workers(workers, len(pending))
        report.meta["workers"] = effective
        if pending and effective == 1:
            for system_id in pending:
                if explicit_supervision:
                    results[system_id] = self._serial_supervised(
                        system_id, engine, supervision, report, journal
                    )
                else:
                    key = _shard_key(system_id)
                    begin = time.perf_counter()
                    with obs.span(
                        "shard.attempt", shard=key, stage=engine, attempt=1
                    ) as span:
                        columns = self._system_columns(system_id, engine)
                        span.add("records", len(columns))
                    report.record_attempt(
                        key, engine, report_mod.OK,
                        wall_s=time.perf_counter() - begin,
                    )
                    report.finish_shard(
                        key, report_mod.STATUS_OK, records=len(columns)
                    )
                    self._journal_shard(journal, key, columns)
                    results[system_id] = columns
        elif pending:
            results.update(
                self._parallel_supervised(
                    pending, effective, engine, supervision, report, journal
                )
            )
            if not explicit_supervision and report.skipped_shards:
                # Mirror the bare serial path, where the exception
                # propagates directly: a caller who never asked for
                # graceful degradation gets an error, not a trace
                # missing systems (with silently renumbered records).
                raise RuntimeError(self._describe_skips(report))
        return [
            results[system_id]
            for system_id in system_ids
            if results[system_id] is not None
        ]

    @staticmethod
    def _describe_skips(report: RunReport) -> str:
        """Error message for shards that failed past every retry."""
        details = []
        for shard in report.skipped_shards:
            last_error = next(
                (a.error for a in reversed(shard.attempts) if a.error),
                "no attempt recorded",
            )
            details.append(f"{shard.shard} ({last_error})")
        return (
            f"generation failed for {len(details)} shard(s) despite "
            f"retries: {'; '.join(details)}; pass an explicit "
            "SupervisionConfig to degrade or skip failing shards "
            "instead of raising"
        )

    def _shard_payload(self, system_id: int, engine: str) -> Tuple:
        return (
            self.seed,
            self.config,
            self.systems,
            self.data_start,
            self.data_end,
            system_id,
            engine,
        )

    def _journal_shard(
        self,
        journal: Optional[ShardJournal],
        key: str,
        columns: _SystemColumns,
    ) -> None:
        if journal is not None:
            journal.record(key, columns, extra={"records": len(columns)})

    def _parallel_supervised(
        self,
        system_ids: List[int],
        workers: int,
        engine: str,
        supervision: SupervisionConfig,
        report: RunReport,
        journal: Optional[ShardJournal],
    ) -> Dict[int, Optional[_SystemColumns]]:
        """Supervised process fan-out: crashes, hangs and errors survive."""
        stages = supervision.stages(engine)
        breaker = CircuitBreaker(
            stages=stages, failure_threshold=supervision.failure_threshold
        )
        keys = [_shard_key(system_id) for system_id in system_ids]
        by_key = dict(zip(keys, system_ids))

        def stage_payload(payload: Tuple, stage: str) -> Tuple:
            return payload[:-1] + (stage,)

        def on_result(key: str, columns: _SystemColumns) -> None:
            self._journal_shard(journal, key, columns)

        shard_results = supervised_map(
            _system_columns_task,
            [self._shard_payload(system_id, engine) for system_id in system_ids],
            keys=keys,
            workers=workers,
            policy=supervision.policy,
            breaker=breaker,
            stage_payload=stage_payload,
            shard_timeout=supervision.shard_timeout,
            report=report,
            on_result=on_result,
        )
        return {by_key[key]: columns for key, columns in shard_results.items()}

    def _serial_supervised(
        self,
        system_id: int,
        engine: str,
        supervision: SupervisionConfig,
        report: RunReport,
        journal: Optional[ShardJournal],
    ) -> Optional[_SystemColumns]:
        """In-process generation with the same degradation ladder.

        In-process failures are deterministic (no crashed workers to
        respawn), so each ladder stage gets a single attempt:
        vectorized → scalar → structured skip.
        """
        key = _shard_key(system_id)
        for attempt, stage in enumerate(supervision.stages(engine), start=1):
            begin = time.perf_counter()
            try:
                with obs.span(
                    "shard.attempt", shard=key, stage=stage, attempt=attempt
                ) as span:
                    columns = self._system_columns(system_id, stage)
                    span.add("records", len(columns))
            except Exception as exc:
                report.record_attempt(
                    key, stage, report_mod.ERROR,
                    error=f"{type(exc).__name__}: {exc}",
                    wall_s=time.perf_counter() - begin,
                )
                continue
            report.record_attempt(
                key, stage, report_mod.OK,
                wall_s=time.perf_counter() - begin,
            )
            report.finish_shard(
                key,
                report_mod.STATUS_OK if attempt == 1
                else report_mod.STATUS_DEGRADED,
                records=len(columns),
            )
            self._journal_shard(journal, key, columns)
            return columns
        report.finish_shard(key, report_mod.STATUS_SKIPPED)
        return None

    def _system_columns(self, system_id: int, engine: str) -> _SystemColumns:
        """Generate one system's failures in columnar, node-major form."""
        # Chaos hook for the fault-injection drills (no-op unless armed
        # via the environment).  Placed here — the single per-shard
        # execution point — so serial drills inject exactly like worker
        # drills.  Imported lazily: repro.faults pulls in the report
        # stack, which must not load at generator import time.
        from repro.faults.process_ops import maybe_inject

        maybe_inject(_shard_key(system_id))
        system = self.systems[system_id]
        config = self.config
        hardware_type = system.hardware_type
        nodes = system.expand_nodes(self.data_start, self.data_end)
        system_start, system_end = system.production_window(
            self.data_start, self.data_end
        )
        shape = lifecycle_shape_for(
            hardware_type,
            system_id,
            ramp_types=config.ramp_types,
            ramp_exempt_systems=config.ramp_exempt_systems,
        )
        cause_model = CauseModel(config, hardware_type)
        repair_sampler = self._repair_model.batch_sampler(
            cause_model.causes, hardware_type
        )
        n_months = int((system_end - system_start) // SECONDS_PER_MONTH) + 2
        jitter = MonthlyJitter(
            self._root.child("system", str(system_id), "jitter"),
            n_months=n_months,
            shape=shape,
            sigma_early_ramp=config.jitter_sigma_early_ramp,
            sigma_early_decay=config.jitter_sigma_early_decay,
            sigma_late=config.jitter_sigma_late,
            era_months=config.jitter_era_months,
            enabled=config.jitter_enabled,
        )
        rate_per_proc_second = (
            config.rate_per_proc_year[hardware_type]
            * config.early_system_boost.get(system_id, 1.0)
            / SECONDS_PER_YEAR
        )
        workloads: Dict[int, Workload] = {
            node.node_id: assign_workload(system, node.node_id) for node in nodes
        }
        multipliers = node_rate_multipliers(
            system_id, len(nodes), self._root, config.node_sigma
        )
        # Weekly capacity grids, cached per production window (nodes of
        # one Table 1 category share their window, so a system needs
        # only a handful of distinct grids).
        grid_cache: Dict[Tuple[float, float], ArrivalGrid] = {}

        def node_grid(node_start: float, node_end: float) -> ArrivalGrid:
            key = (node_start, node_end)
            grid = grid_cache.get(key)
            if grid is None:
                mids = week_grid(node_start, node_end) + 0.5 * SECONDS_PER_WEEK
                # Lifecycle age is measured from *system* production
                # start: a node added later joins a matured system.
                ages = np.maximum(0.0, mids - node_start) + (
                    node_start - system_start
                )
                levels = lifecycle_levels(shape, ages) * jitter.at_ages(ages)
                grid = build_arrival_grid(
                    self._profile, node_start, node_end, levels
                )
                grid_cache[key] = grid
            return grid

        sys_label = str(system_id)

        def node_base_rate(position: int, node) -> float:
            multiplier = float(multipliers[position])
            multiplier *= workload_multiplier(
                workloads[node.node_id],
                graphics_multiplier=config.graphics_multiplier,
                frontend_multiplier=config.frontend_multiplier,
            )
            return rate_per_proc_second * node.procs * multiplier

        # --- Arrival stage: (node, starts) pairs in node order --------
        node_starts: List[Tuple[object, np.ndarray]] = []
        with obs.span(
            "synth.arrivals", system=system_id, engine=engine
        ) as arrivals_span:
            if engine == "vectorized":
                # Draw per node (each node owns its arrival stream), but
                # defer the time-rescaling inversion so all nodes sharing a
                # grid — a whole Table 1 category — invert in one call.
                pending: List[Tuple[object, np.ndarray, ArrivalGrid]] = []
                for position, node in enumerate(nodes):
                    sampler = ModulatedWeibullArrivals(
                        base_rate=node_base_rate(position, node),
                        shape=config.tbf_shape,
                        profile=self._profile,
                        start=node.production_start,
                        end=node.production_end,
                        grid=node_grid(node.production_start, node.production_end),
                    )
                    totals = sampler.sample_operational_totals(
                        self._root.spawn_generator(
                            "system", sys_label, "node", str(node.node_id), "arrivals"
                        )
                    )
                    if totals.size:
                        pending.append((node, totals, sampler._grid))
                groups: Dict[int, List[int]] = {}
                for i, (_node, _totals, grid) in enumerate(pending):
                    groups.setdefault(id(grid), []).append(i)
                starts_for: Dict[int, np.ndarray] = {}
                for members in groups.values():
                    grid = pending[members[0]][2]
                    merged = np.concatenate([pending[i][1] for i in members])
                    times = invert_operational(grid, self._profile, merged)
                    offset = 0
                    for i in members:
                        node, totals, _grid = pending[i]
                        segment = times[offset : offset + len(totals)]
                        offset += len(totals)
                        starts_for[i] = segment[segment < node.production_end]
                for i, (node, _totals, _grid) in enumerate(pending):
                    starts = starts_for[i]
                    if starts.size:
                        node_starts.append((node, starts))
            else:
                for position, node in enumerate(nodes):
                    sampler = ModulatedWeibullArrivals(
                        base_rate=node_base_rate(position, node),
                        shape=config.tbf_shape,
                        profile=self._profile,
                        start=node.production_start,
                        end=node.production_end,
                        grid=node_grid(node.production_start, node.production_end),
                    )
                    starts = np.asarray(
                        sampler.sample(
                            self._root.spawn_generator(
                                "system",
                                sys_label,
                                "node",
                                str(node.node_id),
                                "arrivals",
                            )
                        )
                    )
                    if starts.size:
                        node_starts.append((node, starts))
            arrivals_span.set("nodes", len(nodes))
            arrivals_span.add(
                "events", int(sum(len(starts) for _, starts in node_starts))
            )

        # --- Mark stage: per-node block draws, system-level resolve --
        with obs.span(
            "synth.marks", system=system_id, engine=engine
        ) as marks_span:
            parts_start: List[np.ndarray] = []
            parts_node: List[np.ndarray] = []
            parts_workload: List[np.ndarray] = []
            marks_u_cause: List[np.ndarray] = []
            marks_u_lost: List[np.ndarray] = []
            marks_u_detail: List[np.ndarray] = []
            marks_u_tail: List[np.ndarray] = []
            marks_z: List[np.ndarray] = []
            for node, starts in node_starts:
                n_events = len(starts)
                marks_generator = self._root.spawn_generator(
                    "system", sys_label, "node", str(node.node_id), "marks"
                )
                marks_u_cause.append(marks_generator.random(n_events))
                marks_u_lost.append(marks_generator.random(n_events))
                marks_u_detail.append(marks_generator.random(n_events))
                marks_u_tail.append(marks_generator.random(n_events))
                marks_z.append(marks_generator.standard_normal(n_events))
                parts_start.append(starts)
                parts_node.append(np.full(n_events, node.node_id, dtype=np.int64))
                parts_workload.append(
                    np.full(
                        n_events,
                        WORKLOAD_CODE[workloads[node.node_id]],
                        dtype=np.int8,
                    )
                )
            if not parts_start:
                columns = _empty_columns(system_id)
            else:
                starts_all = np.concatenate(parts_start)
                u_cause = np.concatenate(marks_u_cause)
                u_lost = np.concatenate(marks_u_lost)
                u_detail = np.concatenate(marks_u_detail)
                u_tail = np.concatenate(marks_u_tail)
                z = np.concatenate(marks_z)
                ages = starts_all - system_start
                if engine == "vectorized":
                    cause_idx, detail_idx = cause_model.resolve_batch(
                        u_cause, u_lost, u_detail, ages
                    )
                    repairs = repair_sampler.resolve_seconds(u_tail, z, cause_idx)
                else:
                    cause_idx, detail_idx = cause_model.resolve_batch_scalar(
                        u_cause, u_lost, u_detail, ages
                    )
                    repairs = repair_sampler.resolve_seconds_scalar(
                        u_tail, z, cause_idx
                    )
                columns = _SystemColumns(
                    system_id=system_id,
                    start=starts_all,
                    end=starts_all + repairs,
                    node_id=np.concatenate(parts_node),
                    cause_code=cause_model.resolve_cause_codes(cause_idx),
                    detail_code=cause_model.resolve_detail_codes(
                        cause_idx, detail_idx
                    ),
                    workload_code=np.concatenate(parts_workload),
                )
            marks_span.add("records", len(columns))
        if config.bursts_enabled and system_id in config.burst_systems:
            with obs.span("synth.bursts", system=system_id) as bursts_span:
                burst_stream = self._root.child("system", sys_label, "bursts")
                records = inject_bursts(
                    _records_from_columns(columns),
                    nodes,
                    workloads,
                    system_start,
                    hardware_type,
                    config,
                    self._repair_model,
                    burst_stream.generator,
                )
                bursts_span.add("added", len(records) - len(columns))
                columns = _columns_from_records(system_id, records)
        return columns
