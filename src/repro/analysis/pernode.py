"""Failures per node within a system (Figure 3, Section 5.1).

Figure 3(a) plots the lifetime failure count of every node of system
20: the three visualization nodes (21-23) stick out, with 6% of the
nodes accounting for ~20% of the failures.  Figure 3(b) fits the CDF
of per-node counts for the *compute-only* nodes: a Poisson (the classic
equal-rates assumption) is a poor fit; normal and lognormal are far
better — evidence of real heterogeneity across nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.errors import DegenerateSampleError
from repro.records.codes import WORKLOAD_VOCAB
from repro.records.record import Workload
from repro.records.system import SystemConfig
from repro.records.trace import FailureTrace
from repro.stats.empirical import EmpiricalDistribution
from repro.stats.fitting import FitResult, fit_all_discrete

__all__ = [
    "failures_per_node",
    "node_share",
    "NodeCountStudy",
    "node_count_study",
    "node_count_study_from_counts",
    "node_counts_and_workloads",
]


def failures_per_node(trace: FailureTrace, system_id: int) -> Dict[int, int]:
    """Figure 3(a): lifetime failure count per node of a system.

    Includes zero-count nodes from the inventory.
    """
    return trace.failures_per_node(system_id)


def node_share(trace: FailureTrace, system_id: int, node_ids: Sequence[int]) -> float:
    """Fraction of the system's failures on the given nodes.

    ``node_share(trace, 20, [21, 22, 23])`` reproduces the paper's
    "6% of nodes, 20% of failures" claim for the graphics nodes.
    """
    counts = failures_per_node(trace, system_id)
    total = sum(counts.values())
    if total == 0:
        raise DegenerateSampleError(f"system {system_id} has no failures")
    return sum(counts.get(node_id, 0) for node_id in node_ids) / total


@dataclass(frozen=True)
class NodeCountStudy:
    """Figure 3(b): per-node count distribution and candidate fits.

    Attributes
    ----------
    counts:
        The per-node failure counts studied (compute-only by default).
    summary:
        Mean/median/C² of the counts.
    fits:
        Poisson / normal / lognormal fits ranked by NLL (best first).
    """

    counts: Tuple[int, ...]
    summary: EmpiricalDistribution
    fits: Tuple[FitResult, ...]

    @property
    def best(self) -> FitResult:
        """The winning fit."""
        return self.fits[0]

    @property
    def poisson_is_poor(self) -> bool:
        """True when Poisson ranks last among the fitted candidates.

        This is the paper's key observation: per-node failure counts
        are overdispersed relative to the equal-rate Poisson model.
        """
        return self.fits[-1].name == "poisson" and len(self.fits) > 1

    @property
    def overdispersion(self) -> float:
        """Variance-to-mean ratio (1 under a Poisson model)."""
        return self.summary.variance / self.summary.mean


def node_count_study(
    trace: FailureTrace,
    system_id: int,
    workload: Workload = Workload.COMPUTE,
    exclude_nodes: Sequence[int] = (),
    min_production_fraction: float = 0.5,
) -> NodeCountStudy:
    """Fit the per-node failure-count CDF for one system.

    Parameters
    ----------
    trace / system_id:
        The system to study.
    workload:
        Keep only nodes whose failures carry this workload label
        (compute-only, as in Figure 3(b)).  Nodes with zero failures
        are kept — their workload is taken from the inventory-driven
        absence of records, i.e. they count as compute.
    exclude_nodes:
        Node IDs to drop regardless (e.g. node 0 of system 20, which
        was in production far shorter — the paper's footnote 4).
    min_production_fraction:
        Drop nodes whose production window is shorter than this
        fraction of the system's (automates the footnote-4 exclusion).
    """
    rows = trace.filter_systems([system_id]).columns
    config = trace.systems[system_id]
    # Workload per node: from its records if any, else compute.
    node_workloads = {
        node_id: WORKLOAD_VOCAB[code]
        for node_id, (_, code) in node_counts_and_workloads(
            rows["node_id"], rows["start_time"], rows["workload"]
        )[1].items()
    }
    counts = failures_per_node(trace, system_id)
    return node_count_study_from_counts(
        config,
        trace.data_start,
        trace.data_end,
        system_id,
        counts,
        node_workloads,
        workload=workload,
        exclude_nodes=exclude_nodes,
        min_production_fraction=min_production_fraction,
    )


def node_counts_and_workloads(
    nodes: np.ndarray, starts: np.ndarray, workloads: np.ndarray
) -> Tuple[Dict[int, int], Dict[int, Tuple[float, int]]]:
    """Each node's row count, and its ``(start, workload code)`` on its
    earliest row.

    Among rows that tie on the earliest start, the first one wins.
    """
    order = np.lexsort((starts, nodes))
    ids, first, counts = np.unique(
        nodes[order], return_index=True, return_counts=True
    )
    rows = order[first]
    ids = ids.tolist()
    pairs = zip(starts[rows].tolist(), workloads[rows].tolist())
    return dict(zip(ids, counts.tolist())), dict(zip(ids, pairs))


def node_count_study_from_counts(
    config: SystemConfig,
    data_start: float,
    data_end: float,
    system_id: int,
    counts: Dict[int, int],
    node_workloads: Dict[int, Workload],
    workload: Workload = Workload.COMPUTE,
    exclude_nodes: Sequence[int] = (),
    min_production_fraction: float = 0.5,
) -> NodeCountStudy:
    """:func:`node_count_study` from pre-aggregated per-node state.

    The trace-derived inputs — lifetime failure counts per node
    (zero-filled over the inventory) and each node's workload on its
    earliest row — can be streamed from a columnar store, so the out-of-
    core path shares this exact filtering/fitting core and produces
    bit-identical studies.
    """
    nodes = config.expand_nodes(data_start, data_end)
    system_window = config.production_window(data_start, data_end)
    system_length = system_window[1] - system_window[0]
    kept: List[int] = []
    excluded = frozenset(exclude_nodes)
    for node in nodes:
        if node.node_id in excluded:
            continue
        if node.production_seconds < min_production_fraction * system_length:
            continue
        if node_workloads.get(node.node_id, Workload.COMPUTE) is not workload:
            continue
        kept.append(counts[node.node_id])
    if len(kept) < 4:
        raise ValueError(
            f"only {len(kept)} {workload.value} nodes retained for system {system_id}"
        )
    values = np.array(kept, dtype=float)
    return NodeCountStudy(
        counts=tuple(int(v) for v in kept),
        summary=EmpiricalDistribution.from_data(values),
        fits=tuple(fit_all_discrete(values)),
    )
