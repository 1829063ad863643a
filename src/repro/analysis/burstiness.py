"""Burst extraction — the paper's named correlation gap.

Section 5.3: "While we did not perform a rigorous analysis of
correlations between nodes, this high number of simultaneous failures
indicates the existence of a tight correlation."  This module groups
failures into bursts (events within a coalescing window), yielding the
burst-size distribution that the correlated-failure ablation claim
checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.records.trace import FailureTrace

__all__ = ["Burst", "extract_bursts", "burst_size_distribution"]


@dataclass(frozen=True)
class Burst:
    """A group of failures coalesced in time.

    Attributes
    ----------
    start:
        Time of the first failure in the burst.
    node_ids:
        Nodes involved (with multiplicity collapsed).
    size:
        Number of failure records in the burst.
    """

    start: float
    node_ids: Tuple[int, ...]
    size: int

    @property
    def is_multi_node(self) -> bool:
        """Whether more than one distinct node failed."""
        return len(self.node_ids) > 1


def extract_bursts(trace: FailureTrace, window: float = 0.0) -> List[Burst]:
    """Coalesce a trace's failures into bursts.

    A failure joins the current burst if it starts within ``window``
    seconds of the *previous* failure (0 groups only exactly
    simultaneous events, matching the paper's zero-interarrival
    observation).
    """
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    records = trace.records
    if not records:
        return []
    bursts: List[Burst] = []
    current_start = records[0].start_time
    current_nodes = [records[0].node_id]
    previous_time = records[0].start_time
    for record in records[1:]:
        if record.start_time - previous_time <= window:
            current_nodes.append(record.node_id)
        else:
            bursts.append(
                Burst(
                    start=current_start,
                    node_ids=tuple(sorted(set(current_nodes))),
                    size=len(current_nodes),
                )
            )
            current_start = record.start_time
            current_nodes = [record.node_id]
        previous_time = record.start_time
    bursts.append(
        Burst(
            start=current_start,
            node_ids=tuple(sorted(set(current_nodes))),
            size=len(current_nodes),
        )
    )
    return bursts


def burst_size_distribution(
    trace: FailureTrace, window: float = 0.0
) -> Dict[int, int]:
    """Histogram of burst sizes: size -> number of bursts."""
    histogram: Dict[int, int] = {}
    for burst in extract_bursts(trace, window):
        histogram[burst.size] = histogram.get(burst.size, 0) + 1
    return histogram
