"""The trace generator: orchestrates all synthetic components.

:class:`TraceGenerator` produces a :class:`~repro.records.trace.FailureTrace`
for any subset of the 22 LANL systems.  Generation is deterministic in
the seed and *compositional*: each (system, node) derives its own RNG
stream, so generating system 20 alone yields exactly the same records
for system 20 as generating the full trace — and generating systems in
parallel worker processes yields exactly the same trace as generating
them serially.

Pipeline per system:

1. expand Table 1 categories into node arrays (processors, production
   window) one category at a time,
2. assign workloads (graphics / front-end / compute) and per-node rate
   multipliers, and take every node's base rate in one array pass,
3. sample each node's failure times from a modulated Weibull renewal
   process (lifecycle x weekly modulation via time rescaling) with
   :func:`~repro.synth.arrivals.sample_arrivals`: only the draws run
   per node; running totals, the capacity cut, the inversion of a whole
   Table 1 category and the window cut are array passes,
4. draw root causes (age-dependent unknown era for types D/G) and
   repair durations, each node's mark blocks written into system-wide
   arrays and resolved for the whole system at once,
5. inject correlated bursts for the early NUMA era, with each burst's
   clone candidates looked up per production epoch (the span between
   two window edges, over which the nodes in production do not change).

Every stage works on NumPy arrays, and a system's failures travel as a
:class:`~repro.records.columns.ColumnBatch` — the layout the trace and
the columnar store share — to workers, the shard journal, the store
writer and the trace.  :meth:`TraceGenerator.generate` sorts all
systems' rows into trace order once and numbers them; no
:class:`~repro.records.record.FailureRecord` is built.

The RNG-stream contract
-----------------------
Each (system, node) consumes two dedicated streams:

* ``("system", s, "node", n, "arrivals")`` — one equilibrium uniform,
  then Weibull interarrivals.  Draws come in chunks that over-draw past
  the window capacity, so this stream is never reused for anything
  else.
* ``("system", s, "node", n, "marks")`` — fixed block order:
  ``u_cause``, ``u_lost``, ``u_detail``, ``u_tail``, ``z`` (one array
  each, sized by the node's event count).  Untouched when the node has
  no failures.

The arrival and mark stages each seed a system's per-node streams in
one vectorized pass (:meth:`~repro.simulate.rng.RngStream.spawn_generators`)
and draw each node's stream in full before the next node's begins; a
node whose first chunk of arrivals falls short of its window replays
its stream from a fresh generator.

The system-level streams are ``jitter``, ``node-multipliers`` and
``bursts``.  Because every stream's seed is a pure function of (root
seed, label path), serial and parallel runs, retried shards and
resumed shards produce bit-identical rows.  The scalar reference
engine in ``tests/synth/reference_engine.py`` draws the same streams
one event at a time; the equivalence suite checks this generator
against it record for record.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs

from repro.records.codes import WORKLOAD_VOCAB
from repro.records.columns import (
    NO_RECORD_ID,
    ColumnBatch,
    concat_batches,
    trace_order,
)
from repro.records.inventory import DATA_END, DATA_START, LANL_SYSTEMS
from repro.records.system import SystemConfig
from repro.records.timeutils import (
    SECONDS_PER_MONTH,
    SECONDS_PER_WEEK,
    SECONDS_PER_YEAR,
)
from repro.records.trace import FailureTrace
from repro.resilience import (
    RetryPolicy,
    RunReport,
    ShardJournal,
    supervised_map,
)
from repro.simulate.rng import RngStream
from repro.synth.arrivals import (
    ArrivalGrid,
    build_arrival_grid,
    sample_arrivals,
    week_grid,
)
from repro.synth.config import GeneratorConfig
from repro.synth.correlated import inject_bursts
from repro.synth.diurnal import WeeklyProfile
from repro.synth.jitter import MonthlyJitter
from repro.synth.lifecycle import lifecycle_levels, lifecycle_shape_for
from repro.synth.nodes import (
    node_rate_multipliers,
    system_nodes,
    workload_multiplier,
)
from repro.synth.repair import RepairModel
from repro.synth.rootcause import CauseModel

__all__ = ["TraceGenerator", "SupervisionConfig"]


def _shard_key(system_id: int) -> str:
    return f"system-{system_id}"


def _system_columns_task(payload: Tuple) -> ColumnBatch:
    """Worker entry point for ``workers > 1`` (module-level: picklable).

    Rebuilds the generator from its defining state; determinism comes
    from the (seed, label path) stream derivation, so the rebuilt
    generator's output is identical to the parent's — which is also
    what makes a *retried* shard byte-identical to a first-try one.
    """
    seed, config, systems, data_start, data_end, system_id = payload
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
        with obs.span("synth.system", system=system_id) as span:
            columns = generator._system_columns(system_id)
            span.add("records", len(columns))
    return columns


@dataclass(frozen=True)
class SupervisionConfig:
    """How :class:`TraceGenerator` supervises generation.

    Parameters
    ----------
    policy:
        Retry/backoff policy for failed shards: a shard, serial or
        parallel, that fails ``policy.max_attempts`` times becomes a
        structured skip.
    shard_timeout:
        Hang detection: if no shard completes for this many seconds,
        the worker pool is terminated and respawned and the unfinished
        shards retried.  ``None`` disables hang detection; an
        in-process (``workers=1``) attempt has none.
    """

    policy: RetryPolicy = field(default_factory=RetryPolicy)
    shard_timeout: Optional[float] = None


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
        #: recent :meth:`generate`/:meth:`generate_store` call.
        self.last_run_report: Optional[RunReport] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def generate(
        self,
        system_ids: Optional[Sequence[int]] = None,
        *,
        workers: int = 1,
        supervision: Optional[SupervisionConfig] = None,
        journal: Optional[ShardJournal] = None,
    ) -> FailureTrace:
        """Generate the trace for the given systems (default: all).

        Rows are sorted by ``(start_time, system_id, node_id)``, ties
        in generation order, and numbered from 0 in that order.

        Parameters
        ----------
        workers:
            Number of worker processes for per-system generation; 1
            (default) runs in-process.  Output is identical for any
            worker count.  Values above ``os.cpu_count()`` or the
            number of systems are clamped (with a warning for the CPU
            case).
        supervision:
            Fault-tolerance knobs (retry policy, hang timeout); defaults
            apply when omitted.  Graceful degradation is opt-in: when
            omitted, a shard that fails past every retry raises (serial
            and parallel alike) instead of being skipped, so a bare run
            never returns a silently incomplete trace.  The resulting
            :class:`~repro.resilience.report.RunReport` is available as
            :attr:`last_run_report`.
        journal:
            Optional :class:`~repro.resilience.journal.ShardJournal`:
            completed shards are durably recorded as they finish, and
            shards already in the journal are loaded instead of
            regenerated (crash-resumable runs).
        """
        system_ids = (
            sorted(self.systems) if system_ids is None else list(system_ids)
        )
        with obs.span(
            "generate", workers=workers, systems=len(system_ids), seed=self.seed
        ) as gen_span:
            batches = [
                batch
                for batch in self._all_columns(
                    system_ids, workers, supervision, journal
                ).values()
                if len(batch)
            ]
            rows = concat_batches(batches)
            with obs.span("generate.sort", records=len(rows)):
                order = trace_order(rows)
                columns = {name: rows[name][order] for name in rows.names}
                columns["record_id"] = np.arange(len(rows), dtype=np.int64)
            gen_span.add("records", len(rows))
        registry = obs.metrics()
        registry.counter("generate.records").add(len(rows))
        registry.counter("generate.systems").add(len(batches))
        return FailureTrace.from_columns(
            ColumnBatch(columns),
            systems=self.systems,
            data_start=self.data_start,
            data_end=self.data_end,
        )

    def generate_store(
        self,
        root: "os.PathLike",
        system_ids: Optional[Sequence[int]] = None,
        *,
        workers: int = 1,
        supervision: Optional[SupervisionConfig] = None,
        journal: Optional[ShardJournal] = None,
        shard_rows: Optional[int] = None,
        meta: Optional[Dict[str, object]] = None,
    ):
        """Generate straight into a columnar store directory.

        Every system's rows go to the store writer, which cuts them into
        per-shard ``.npy`` column files under ``root`` — the out-of-core
        path for scaled-inventory runs.  ``workers``, ``supervision`` and
        ``journal`` behave exactly as in :meth:`generate`; reading the
        store back (:meth:`repro.store.ColumnarStore.to_trace`) gives
        the rows, order and record IDs of :meth:`generate`.

        Returns the store's :class:`~repro.store.manifest.Manifest`.
        """
        from repro.store.writer import DEFAULT_SHARD_ROWS, StoreWriter

        system_ids = (
            sorted(self.systems) if system_ids is None else list(system_ids)
        )
        with obs.span(
            "store.generate",
            workers=workers,
            systems=len(system_ids),
            seed=self.seed,
        ) as span:
            batches = self._all_columns(system_ids, workers, supervision, journal)
            total = int(sum(len(batch) for batch in batches.values()))
            span.add("records", total)
            store_meta: Dict[str, object] = {
                "generator": "repro-synth",
                "seed": self.seed,
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
                # Whole systems, ascending, one call each: the writer's
                # single-pass layout without a copy of every row.
                for system_id in sorted(batches):
                    writer.append(batches[system_id])
            manifest = writer.finalize()
        registry = obs.metrics()
        registry.counter("store.records_written").add(total)
        registry.counter("store.shards_written").add(len(manifest.shards))
        return manifest

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def journal_meta(self) -> Dict[str, object]:
        """The run-identity dict pinned into a resumable run's journal.

        Shards are compositional — a system's rows are a pure function
        of ``(seed, config, inventory, window)`` — so the identity
        deliberately excludes *which* systems a run requested: a
        journaled shard is valid for any later run with the same
        identity.
        """
        systems_digest = hashlib.sha256(
            repr(sorted(self.systems.items())).encode("utf-8")
        ).hexdigest()
        config_digest = hashlib.sha256(
            repr(self.config).encode("utf-8")
        ).hexdigest()
        return {
            "kind": "repro-generate",
            # Journal payloads are pickled ColumnBatch objects; bump when
            # the shard payload layout changes so a --resume against an
            # old run directory fails on the identity check instead of
            # unpickling a payload of another layout.
            "payload": "columns-v3",
            "seed": self.seed,
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
                stacklevel=4,
            )
            effective = cpu_cap
        return effective

    def _all_columns(
        self,
        system_ids: List[int],
        workers: int,
        supervision: Optional[SupervisionConfig] = None,
        journal: Optional[ShardJournal] = None,
    ) -> Dict[int, ColumnBatch]:
        """Each generated system's rows, in ``system_ids`` order; a
        skipped shard has no entry."""
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
                "shard_timeout": supervision.shard_timeout,
            },
        )
        self.last_run_report = report
        results: Dict[int, Optional[ColumnBatch]] = {}
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
        if pending:
            if effective == 1:
                task, payloads = self._system_columns, pending
            else:
                identity = (
                    self.seed, self.config, self.systems,
                    self.data_start, self.data_end,
                )
                task = _system_columns_task
                payloads = [identity + (system_id,) for system_id in pending]

            def journal_shard(key: str, columns: ColumnBatch) -> None:
                journal.record(key, columns, extra={"records": len(columns)})

            keys = [_shard_key(system_id) for system_id in pending]
            shards = supervised_map(
                task,
                payloads,
                workers=effective,
                keys=keys,
                policy=supervision.policy,
                shard_timeout=supervision.shard_timeout,
                report=report,
                on_result=journal_shard if journal is not None else None,
            )
            results.update(zip(pending, (shards[key] for key in keys)))
            if not explicit_supervision and report.skipped_shards:
                raise RuntimeError(self._describe_skips(report))
        return {
            system_id: results[system_id]
            for system_id in system_ids
            if results[system_id] is not None
        }

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
            "SupervisionConfig to skip failing shards instead of raising"
        )

    def _system_columns(self, system_id: int) -> ColumnBatch:
        """One system's failures as full-schema rows: node-major, burst
        clones last, record IDs unset."""
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
        nodes = system_nodes(system, self.data_start, self.data_end)
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
        workload_multipliers = np.array(
            [
                workload_multiplier(
                    workload,
                    graphics_multiplier=config.graphics_multiplier,
                    frontend_multiplier=config.frontend_multiplier,
                )
                for workload in WORKLOAD_VOCAB
            ]
        )
        base_rates = (rate_per_proc_second * nodes.procs) * (
            node_rate_multipliers(system_id, len(nodes), self._root, config.node_sigma)
            * workload_multipliers[nodes.workloads]
        )
        sys_label = str(system_id)
        node_labels = [str(node_id) for node_id in range(len(nodes))]

        # --- Arrival stage: per-node draws, array passes --------------
        with obs.span("synth.arrivals", system=system_id) as arrivals_span:
            # One weekly capacity grid per production window: the nodes
            # of a Table 1 category share one.
            grids: List[ArrivalGrid] = []
            for node_start, node_end in nodes.windows:
                mids = week_grid(node_start, node_end) + 0.5 * SECONDS_PER_WEEK
                # Lifecycle age is measured from *system* production
                # start: a node added later joins a matured system.
                ages = np.maximum(0.0, mids - node_start) + (
                    node_start - system_start
                )
                levels = lifecycle_levels(shape, ages) * jitter.at_ages(ages)
                grids.append(
                    build_arrival_grid(self._profile, node_start, node_end, levels)
                )
            starts, counts = sample_arrivals(
                self._root,
                [("system", sys_label, "node", node, "arrivals") for node in node_labels],
                base_rates,
                grids,
                nodes.window,
                config.tbf_shape,
                self._profile,
            )
            arrivals_span.set("nodes", len(nodes))
            arrivals_span.add("events", len(starts))

        # --- Mark stage: per-node block draws, system-level resolve --
        with obs.span("synth.marks", system=system_id) as marks_span:
            failing = np.flatnonzero(counts).tolist()
            bounds = np.cumsum([0] + counts[failing].tolist()).tolist()
            u_cause, u_lost, u_detail, u_tail, z = np.empty((5, len(starts)))
            marks_streams = self._root.spawn_generators(
                [
                    ("system", sys_label, "node", node_labels[node], "marks")
                    for node in failing
                ]
            )
            for marks, lo, hi in zip(marks_streams, bounds, bounds[1:]):
                marks.random(out=u_cause[lo:hi])
                marks.random(out=u_lost[lo:hi])
                marks.random(out=u_detail[lo:hi])
                marks.random(out=u_tail[lo:hi])
                marks.standard_normal(out=z[lo:hi])
            cause_idx, detail_idx = cause_model.resolve_batch(
                u_cause, u_lost, u_detail, starts - system_start
            )
            repairs = repair_sampler.resolve_seconds(u_tail, z, cause_idx)
            rows = ColumnBatch(
                {
                    "start_time": starts,
                    "end_time": starts + repairs,
                    "system_id": np.full(len(starts), system_id, dtype=np.int32),
                    "node_id": np.repeat(
                        np.arange(len(nodes), dtype=np.int32), counts
                    ),
                    "root_cause": cause_model.resolve_cause_codes(cause_idx),
                    "low_level_cause": cause_model.resolve_detail_codes(
                        cause_idx, detail_idx
                    ),
                    "workload": np.repeat(nodes.workloads, counts),
                    "record_id": np.full(len(starts), NO_RECORD_ID, dtype=np.int64),
                }
            )
            marks_span.add("records", len(rows))
        if config.bursts_enabled and system_id in config.burst_systems:
            with obs.span("synth.bursts", system=system_id) as bursts_span:
                burst_stream = self._root.child("system", sys_label, "bursts")
                independent = len(rows)
                rows = inject_bursts(
                    rows,
                    nodes,
                    system_start,
                    hardware_type,
                    config,
                    self._repair_model,
                    burst_stream.generator,
                )
                bursts_span.add("added", len(rows) - independent)
        return rows
