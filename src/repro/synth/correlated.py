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

import bisect
from typing import List

import numpy as np

from repro.records.codes import CAUSE_VOCAB
from repro.records.columns import NO_RECORD_ID, ColumnBatch, concat_batches
from repro.records.system import HardwareType
from repro.records.timeutils import SECONDS_PER_MONTH
from repro.synth.config import GeneratorConfig
from repro.synth.nodes import SystemNodes
from repro.synth.repair import RepairModel

__all__ = ["inject_bursts"]


def inject_bursts(
    rows: ColumnBatch,
    nodes: SystemNodes,
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
        production at the failure instant, in node order); clones carry
        their own node's workload.
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
    # Between consecutive window edges (a production epoch) the nodes
    # in production do not change: list them once per epoch, in node
    # order, the order ``choice`` indexes.
    edges = sorted({edge for window in nodes.windows for edge in window})
    epoch_nodes = [
        np.flatnonzero(
            np.isin(
                nodes.window,
                [
                    index
                    for index, (start, end) in enumerate(nodes.windows)
                    if start <= lo and hi <= end
                ],
            )
        ).tolist()
        for lo, hi in zip(edges, edges[1:])
    ]
    starts = rows["start_time"]
    causes = rows["root_cause"]
    early = np.flatnonzero(starts < era_end)
    parents: List[int] = []
    targets: List[int] = []
    repairs: List[float] = []
    for row, start, node in zip(
        early.tolist(), starts[early].tolist(), rows["node_id"][early].tolist()
    ):
        if generator.random() >= config.burst_prob:
            continue
        epoch = bisect.bisect_right(edges, start) - 1
        if not 0 <= epoch < len(epoch_nodes):
            continue
        members = epoch_nodes[epoch]
        # The failing node itself is no candidate.
        own = bisect.bisect_left(members, node)
        skip = own < len(members) and members[own] == node
        n_candidates = len(members) - skip
        if not n_candidates:
            continue
        n_clones = min(int(generator.geometric(geometric_p)), n_candidates)
        chosen = generator.choice(n_candidates, size=n_clones, replace=False)
        cause = CAUSE_VOCAB[causes[row]]
        for index in chosen.tolist():
            parents.append(row)
            targets.append(members[index + 1 if skip and index >= own else index])
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
            "node_id": target,
            "root_cause": causes[parent],
            "low_level_cause": rows["low_level_cause"][parent],
            "workload": nodes.workloads[target],
            "record_id": np.full(len(parent), NO_RECORD_ID, dtype=np.int64),
        }
    )
    return concat_batches([rows, clones])
