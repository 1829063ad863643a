"""The scalar reference engine: the trace generator one event at a time.

The generator once had two engines.  The vectorized one is the
generator today; the scalar one drew each node's failure times in a
per-event loop, resolved causes and repairs with per-event mirrors of
the batched resolvers, and cloned burst failures as
:class:`~repro.records.record.FailureRecord` objects.  This module
freezes the scalar engine as the oracle for the column engine:
``test_equivalence.py`` checks :meth:`TraceGenerator.generate` against
:func:`reference_trace` record for record, with exact floats.

The oracle shares the generator's model components (inventory,
lifecycle and jitter levels, weekly profile, per-node rate multipliers,
cause and repair tables) but none of its sampling code.  Each node's
two streams are consumed as the generator's RNG-stream contract says:
``arrivals`` (one equilibrium uniform, then Weibull interarrivals, one
per event) and ``marks`` (``u_cause``, ``u_lost``, ``u_detail``,
``u_tail``, ``z``, one block each).  Bursts draw from the system's
``bursts`` stream, per early-era record in node-major order.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import special

from repro.records.codes import WORKLOAD_VOCAB
from repro.records.node import NodeConfig
from repro.records.record import FailureRecord, Workload
from repro.records.system import HardwareType
from repro.records.timeutils import SECONDS_PER_MONTH, SECONDS_PER_WEEK, SECONDS_PER_YEAR
from repro.records.trace import FailureTrace
from repro.simulate.rng import RngStream
from repro.synth.arrivals import ArrivalGrid, build_arrival_grid, week_grid
from repro.synth.config import GeneratorConfig
from repro.synth.diurnal import WeeklyProfile
from repro.synth.jitter import MonthlyJitter
from repro.synth.lifecycle import lifecycle_levels, lifecycle_shape_for
from repro.synth.nodes import assign_workloads, node_rate_multipliers, workload_multiplier
from repro.synth.repair import BatchRepairSampler, RepairModel
from repro.synth.rootcause import CauseModel

SECONDS_PER_MINUTE = 60.0


# ----------------------------------------------------------------------
# Arrivals: one event per loop iteration
# ----------------------------------------------------------------------


def invert_one(
    grid: ArrivalGrid, profile: WeeklyProfile, total_operational: float
) -> Optional[float]:
    """Wall-clock time of one cumulative operational time, or None past
    the grid's capacity (the scalar twin of ``invert_operational``)."""
    cumulative = grid.cumulative
    index = int(np.searchsorted(cumulative, total_operational, side="left"))
    if index >= len(cumulative):
        return None
    previous = cumulative[index - 1] if index else 0.0
    base = grid.base0 if index == 0 else 0.0
    target = base + (total_operational - previous) / grid.levels[index]
    return grid.week_starts[index] + profile.invert(target)


def arrival_times(
    base_rate: float,
    shape: float,
    grid: ArrivalGrid,
    profile: WeeklyProfile,
    end: float,
    generator: np.random.Generator,
) -> List[float]:
    """A node's failure times before ``end``, drawn one at a time.

    The first interarrival comes from the equilibrium renewal law, the
    rest are unit-mean Weibull draws; each running total is inverted
    through the grid, and the loop stops at the first time past the
    grid's capacity or at or after ``end``.
    """
    if base_rate == 0.0:
        return []
    unit_scale = 1.0 / math.gamma(1.0 + 1.0 / shape)
    events: List[float] = []
    total_operational = 0.0
    first = True
    while True:
        if first:
            u = float(generator.random())
            z = float(special.gammaincinv(1.0 / shape, u))
            draw = unit_scale * z ** (1.0 / shape)
            first = False
        else:
            draw = unit_scale * float(generator.weibull(shape))
        total_operational += draw / base_rate
        t = invert_one(grid, profile, total_operational)
        if t is None or t >= end:
            return events
        events.append(float(t))


# ----------------------------------------------------------------------
# Marks: per-event mirrors of the batched resolvers
# ----------------------------------------------------------------------


def resolve_causes(
    model: CauseModel,
    u_cause: np.ndarray,
    u_lost: np.ndarray,
    u_detail: np.ndarray,
    ages: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(cause_idx, detail_idx)`` per event, in a Python loop."""
    n = len(ages)
    cause_idx = np.empty(n, dtype=np.int64)
    detail_idx = np.full(n, -1, dtype=np.int64)
    n_causes = len(model._causes)
    for i in range(n):
        index = min(
            int(np.searchsorted(model._cause_cdf, u_cause[i], side="right")),
            n_causes - 1,
        )
        if model._unknown_era and model._unknown_index >= 0:
            lost = model._unknown_probability_array(ages[i : i + 1])[0]
            if u_lost[i] < lost:
                index = model._unknown_index
        cause_idx[i] = index
        detail_cdf = model._detail_cdfs.get(index)
        if detail_cdf is not None:
            detail_idx[i] = min(
                int(np.searchsorted(detail_cdf, u_detail[i], side="right")),
                len(detail_cdf) - 1,
            )
    return cause_idx, detail_idx


def resolve_repairs(
    sampler: BatchRepairSampler,
    u_tail: np.ndarray,
    z: np.ndarray,
    cause_idx: np.ndarray,
) -> np.ndarray:
    """Repair seconds per event, in a Python loop."""
    n = len(cause_idx)
    out = np.empty(n)
    for i in range(n):
        index = cause_idx[i]
        mu = sampler._mu[index]
        sigma = sampler._sigma[index]
        if sampler._tailable[index] and u_tail[i] < sampler._tail_prob:
            mu = mu + sampler._mu_shift
            sigma = sigma + sampler._sigma_extra
        minutes = np.exp(mu + sigma * z[i])
        minutes = minutes * sampler._post_factor[index]
        out[i] = (
            min(max(minutes, sampler._floor), sampler._ceiling) * SECONDS_PER_MINUTE
        )
    return out


# ----------------------------------------------------------------------
# Bursts: clones as record objects
# ----------------------------------------------------------------------


def inject_bursts(
    records: Sequence[FailureRecord],
    nodes: Sequence[NodeConfig],
    workloads: Mapping[int, Workload],
    system_start: float,
    hardware_type: HardwareType,
    config: GeneratorConfig,
    repair_model: RepairModel,
    generator: np.random.Generator,
) -> List[FailureRecord]:
    """The records plus their burst clones, clones appended in draw order.

    Per early-era record: ``random()`` decides a burst; the candidates
    are the other nodes in production at that instant; ``geometric``
    sizes the burst and ``choice`` picks the clone nodes, each of which
    then draws its own repair.
    """
    if not config.bursts_enabled or config.burst_prob <= 0.0:
        return list(records)
    era_end = system_start + config.burst_era_months * SECONDS_PER_MONTH
    geometric_p = min(1.0, 1.0 / max(config.burst_mean_extra, 1.0))
    node_by_id: Dict[int, NodeConfig] = {node.node_id: node for node in nodes}
    output: List[FailureRecord] = list(records)
    for record in records:
        if record.start_time >= era_end:
            continue
        if generator.random() >= config.burst_prob:
            continue
        candidates = [
            node_id
            for node_id, node in node_by_id.items()
            if node_id != record.node_id and node.in_production(record.start_time)
        ]
        if not candidates:
            continue
        n_clones = min(int(generator.geometric(geometric_p)), len(candidates))
        chosen = generator.choice(len(candidates), size=n_clones, replace=False)
        for index in np.atleast_1d(chosen):
            clone_node_id = candidates[int(index)]
            repair = repair_model.sample_seconds(
                generator, record.root_cause, hardware_type
            )
            output.append(
                FailureRecord(
                    start_time=record.start_time,
                    end_time=record.start_time + repair,
                    system_id=record.system_id,
                    node_id=clone_node_id,
                    root_cause=record.root_cause,
                    low_level_cause=record.low_level_cause,
                    workload=workloads.get(clone_node_id, Workload.COMPUTE),
                )
            )
    return output


# ----------------------------------------------------------------------
# Whole systems and traces
# ----------------------------------------------------------------------


def system_records(generator, system_id: int) -> List[FailureRecord]:
    """One system's failures as un-numbered records, node-major, with
    burst clones appended.  ``generator`` is a
    :class:`~repro.synth.generator.TraceGenerator`; only its seed,
    configuration, inventory and window are read."""
    config = generator.config
    root = RngStream(generator.seed)
    profile = WeeklyProfile(
        amplitude=config.diurnal_amplitude,
        peak_hour=config.diurnal_peak_hour,
        weekend_factor=config.weekend_factor,
        enabled=config.diurnal_enabled,
    )
    repair_model = RepairModel(config)
    system = generator.systems[system_id]
    hardware_type = system.hardware_type
    nodes = system.expand_nodes(generator.data_start, generator.data_end)
    system_start, system_end = system.production_window(
        generator.data_start, generator.data_end
    )
    shape = lifecycle_shape_for(
        hardware_type,
        system_id,
        ramp_types=config.ramp_types,
        ramp_exempt_systems=config.ramp_exempt_systems,
    )
    cause_model = CauseModel(config, hardware_type)
    repair_sampler = repair_model.batch_sampler(cause_model.causes, hardware_type)
    jitter = MonthlyJitter(
        root.child("system", str(system_id), "jitter"),
        n_months=int((system_end - system_start) // SECONDS_PER_MONTH) + 2,
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
    node_ids = [node.node_id for node in nodes]
    workloads = {
        node_id: WORKLOAD_VOCAB[code]
        for node_id, code in zip(node_ids, assign_workloads(system, node_ids))
    }
    multipliers = node_rate_multipliers(
        system_id, len(nodes), root, config.node_sigma
    )
    sys_label = str(system_id)

    # One grid per production window: a Table 1 category shares one.
    grids: Dict[Tuple[float, float], ArrivalGrid] = {}
    records: List[FailureRecord] = []
    for position, node in enumerate(nodes):
        node_start, node_end = node.production_start, node.production_end
        grid = grids.get((node_start, node_end))
        if grid is None:
            mids = week_grid(node_start, node_end) + 0.5 * SECONDS_PER_WEEK
            ages = np.maximum(0.0, mids - node_start) + (node_start - system_start)
            levels = lifecycle_levels(shape, ages) * jitter.at_ages(ages)
            grid = build_arrival_grid(profile, node_start, node_end, levels)
            grids[(node_start, node_end)] = grid
        base_rate = (
            rate_per_proc_second
            * node.procs
            * (
                float(multipliers[position])
                * workload_multiplier(
                    workloads[node.node_id],
                    graphics_multiplier=config.graphics_multiplier,
                    frontend_multiplier=config.frontend_multiplier,
                )
            )
        )
        starts = np.asarray(
            arrival_times(
                base_rate,
                config.tbf_shape,
                grid,
                profile,
                node_end,
                root.spawn_generator(
                    "system", sys_label, "node", str(node.node_id), "arrivals"
                ),
            )
        )
        n_events = len(starts)
        if not n_events:
            continue
        marks = root.spawn_generator(
            "system", sys_label, "node", str(node.node_id), "marks"
        )
        u_cause = marks.random(n_events)
        u_lost = marks.random(n_events)
        u_detail = marks.random(n_events)
        u_tail = marks.random(n_events)
        z = marks.standard_normal(n_events)
        cause_idx, detail_idx = resolve_causes(
            cause_model, u_cause, u_lost, u_detail, starts - system_start
        )
        ends = starts + resolve_repairs(repair_sampler, u_tail, z, cause_idx)
        for i in range(n_events):
            cause = cause_model.causes[cause_idx[i]]
            detail = None
            if detail_idx[i] >= 0:
                details, _probs = cause_model._detail_tables[cause]
                detail = details[detail_idx[i]]
            records.append(
                FailureRecord(
                    start_time=starts[i],
                    end_time=ends[i],
                    system_id=system_id,
                    node_id=node.node_id,
                    root_cause=cause,
                    low_level_cause=detail,
                    workload=workloads[node.node_id],
                )
            )
    if config.bursts_enabled and system_id in config.burst_systems:
        records = inject_bursts(
            records,
            nodes,
            workloads,
            system_start,
            hardware_type,
            config,
            repair_model,
            root.child("system", sys_label, "bursts").generator,
        )
    return records


def reference_trace(
    generator, system_ids: Optional[Sequence[int]] = None
) -> FailureTrace:
    """The trace the scalar engine generates for ``system_ids`` (default:
    every system of the generator's inventory): records sorted by
    ``(start_time, system_id, node_id)``, ties in generation order, and
    numbered from 0 in that order."""
    if system_ids is None:
        system_ids = sorted(generator.systems)
    records = [
        record
        for system_id in system_ids
        for record in system_records(generator, system_id)
    ]
    records.sort(key=lambda r: (r.start_time, r.system_id, r.node_id))
    numbered = [
        FailureRecord(
            start_time=r.start_time,
            end_time=r.end_time,
            system_id=r.system_id,
            node_id=r.node_id,
            root_cause=r.root_cause,
            low_level_cause=r.low_level_cause,
            workload=r.workload,
            record_id=record_id,
        )
        for record_id, r in enumerate(records)
    ]
    return FailureTrace(
        numbered,
        systems=generator.systems,
        data_start=generator.data_start,
        data_end=generator.data_end,
    )
