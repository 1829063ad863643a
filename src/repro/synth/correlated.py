"""Correlated simultaneous failures (Figure 6(c)).

System-wide interarrival data for system 20 in its early years shows
more than 30% *zero* gaps — two or more nodes failing at the same
instant — indicating tightly correlated failures in the initial years
of the first NUMA clusters.

We model this as a burst process layered over the independent per-node
arrivals: during the early era of the burst systems, each failure
spawns, with probability ``burst_prob``, a geometric number of clone
failures on other in-production nodes at the *same timestamp*.  Clones
inherit the parent's root cause (a power outage or fabric fault hits
many nodes at once) but draw their own repair times and carry their own
node's workload label.

With clone probability p and mean clone count m, the expected fraction
of zero interarrivals is ``p*m / (1 + p*m)`` — the defaults
(p = 0.32, m = 1.8) give ~37%, matching "more than 30%".
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

import numpy as np

from repro.records.codes import CAUSE_VOCAB, WORKLOAD_CODE
from repro.records.columns import NO_RECORD_ID, ColumnBatch, concat_batches
from repro.records.node import NodeConfig
from repro.records.record import Workload
from repro.records.system import HardwareType
from repro.records.timeutils import SECONDS_PER_MONTH
from repro.synth.config import GeneratorConfig
from repro.synth.repair import RepairModel

__all__ = ["inject_bursts"]


def inject_bursts(
    rows: ColumnBatch,
    nodes: Sequence[NodeConfig],
    workloads: Mapping[int, Workload],
    system_start: float,
    hardware_type: HardwareType,
    config: GeneratorConfig,
    repair_model: RepairModel,
    generator: np.random.Generator,
) -> ColumnBatch:
    """Clone early-era failures onto other nodes at identical timestamps.

    Parameters
    ----------
    rows:
        The system's independently generated failures: full-schema
        rows (:class:`~repro.records.columns.ColumnBatch`) in
        node-major order.  Bursts are drawn per early-era row in this
        order.
    nodes:
        All nodes of the system (clone targets are drawn from those in
        production at the failure instant).
    workloads:
        Node ID -> workload label (clones carry their own node's).
    system_start:
        The system's production start (defines the early era).
    hardware_type:
        The system's hardware type (for the clone repair model).
    config:
        Generator configuration (burst probability, era length...).
    repair_model:
        Repair-duration sampler for the clones.
    generator:
        RNG for the burst draws.  Per early-era row it draws
        ``random()`` (burst or not), then ``geometric`` (burst size),
        then ``choice`` (clone nodes), then each clone's repair.

    Returns
    -------
    ColumnBatch
        ``rows`` followed by the clones in draw order; *not* sorted —
        the caller sorts into trace order.
    """
    if not config.bursts_enabled or config.burst_prob <= 0.0:
        return rows
    era_end = system_start + config.burst_era_months * SECONDS_PER_MONTH
    # Geometric on {1, 2, ...} with mean m has success probability 1/m.
    geometric_p = min(1.0, 1.0 / max(config.burst_mean_extra, 1.0))
    # One entry per node ID, in node order: the order ``choice`` indexes.
    by_id = {node.node_id: node for node in nodes}
    node_ids = np.fromiter(by_id, dtype=np.int64, count=len(by_id))
    in_from = np.array([node.production_start for node in by_id.values()])
    in_to = np.array([node.production_end for node in by_id.values()])
    node_workloads = np.array(
        [WORKLOAD_CODE[workloads.get(node_id, Workload.COMPUTE)] for node_id in by_id],
        dtype=np.int8,
    )
    starts = rows["start_time"]
    row_nodes = rows["node_id"]
    causes = rows["root_cause"]
    parents: List[int] = []
    targets: List[int] = []
    repairs: List[float] = []
    for row in np.flatnonzero(starts < era_end).tolist():
        if generator.random() >= config.burst_prob:
            continue
        start = starts[row]
        candidates = np.flatnonzero(
            (node_ids != row_nodes[row]) & (in_from <= start) & (start < in_to)
        )
        if not candidates.size:
            continue
        n_clones = min(int(generator.geometric(geometric_p)), candidates.size)
        chosen = generator.choice(candidates.size, size=n_clones, replace=False)
        cause = CAUSE_VOCAB[causes[row]]
        for index in np.atleast_1d(chosen):
            parents.append(row)
            targets.append(candidates[int(index)])
            repairs.append(
                repair_model.sample_seconds(generator, cause, hardware_type)
            )
    if not parents:
        return rows
    parent = np.array(parents)
    target = np.array(targets)
    clone_starts = starts[parent]
    clones = ColumnBatch(
        {
            "start_time": clone_starts,
            "end_time": clone_starts + np.array(repairs),
            "system_id": rows["system_id"][parent],
            "node_id": node_ids[target],
            "root_cause": causes[parent],
            "low_level_cause": rows["low_level_cause"][parent],
            "workload": node_workloads[target],
            "record_id": np.full(len(parent), NO_RECORD_ID, dtype=np.int64),
        }
    )
    return concat_batches([rows, clones])
