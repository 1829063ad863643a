"""Per-node workload assignment and rate heterogeneity (Figure 3).

Two mechanisms make nodes of one system fail at different rates:

* **Workload.** Graphics/visualization nodes (nodes 21-23 of system 20)
  and front-end nodes of the cluster systems run more varied,
  interactive workloads and fail several times more often
  (Section 5.1).
* **Residual heterogeneity.** Even compute-only nodes are
  overdispersed relative to a Poisson model with a common mean —
  Figure 3(b) shows the per-node failure-count CDF is fit far better
  by a lognormal than a Poisson.  We give every node a lognormal rate
  multiplier with unit mean.

The trace generator holds a system's nodes as arrays
(:class:`SystemNodes`), built per Table 1 category.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.records.codes import WORKLOAD_CODE
from repro.records.record import Workload
from repro.records.system import HardwareType, SystemConfig
from repro.records.timeutils import production_window
from repro.simulate.rng import RngStream

__all__ = [
    "SystemNodes",
    "assign_workloads",
    "node_rate_multipliers",
    "system_nodes",
    "workload_multiplier",
]

#: System 20's visualization nodes (Section 5.1: 6% of nodes, 20% of
#: failures).
GRAPHICS_NODES_SYSTEM_20 = frozenset({21, 22, 23})

#: Cluster types whose node 0 serves as a front-end (Section 5.1 calls
#: out much higher front-end failure rates for types E and F).
FRONTEND_TYPES = frozenset({HardwareType.D, HardwareType.E, HardwareType.F})

#: Minimum cluster size for a dedicated front-end node.
FRONTEND_MIN_NODES = 32


def assign_workloads(system: SystemConfig, node_ids: np.ndarray) -> np.ndarray:
    """The workload code (:data:`~repro.records.codes.WORKLOAD_CODE`)
    of each node in ``node_ids``, per the paper's description.

    * System 20, nodes 21-23: graphics (plus compute; we record the
      node as a graphics node since that is what distinguishes it).
    * Node 0 of every D/E/F cluster with >= 32 nodes: front-end.
    * Everything else: compute.
    """
    node_ids = np.asarray(node_ids)
    codes = np.full(len(node_ids), WORKLOAD_CODE[Workload.COMPUTE], dtype=np.int8)
    if (
        system.hardware_type in FRONTEND_TYPES
        and system.node_count >= FRONTEND_MIN_NODES
    ):
        codes[node_ids == 0] = WORKLOAD_CODE[Workload.FRONTEND]
    if system.system_id == 20:
        graphics = np.isin(node_ids, sorted(GRAPHICS_NODES_SYSTEM_20))
        codes[graphics] = WORKLOAD_CODE[Workload.GRAPHICS]
    return codes


@dataclass(frozen=True)
class SystemNodes:
    """A system's nodes as arrays; node ``i`` has node ID ``i``.

    Attributes
    ----------
    procs:
        Processors per node.
    window:
        Each node's index into ``windows``.
    windows:
        The distinct production windows ``(start, end)`` of the
        system's Table 1 categories, in order of first appearance.
    workloads:
        Workload codes, from :func:`assign_workloads`.
    """

    procs: np.ndarray
    window: np.ndarray
    windows: Tuple[Tuple[float, float], ...]
    workloads: np.ndarray

    def __len__(self) -> int:
        return len(self.procs)


def system_nodes(
    system: SystemConfig, data_start: float, data_end: float
) -> SystemNodes:
    """The system's nodes, one Table 1 category at a time.

    Node IDs, windows and processor counts follow
    :meth:`~repro.records.system.SystemConfig.expand_nodes`.
    """
    windows: List[Tuple[float, float]] = []
    category_window: List[int] = []
    for category in system.categories:
        window = production_window(
            category.production_start,
            category.production_end,
            data_start,
            data_end,
        )
        if window not in windows:
            windows.append(window)
        category_window.append(windows.index(window))
    sizes = [category.node_count for category in system.categories]
    return SystemNodes(
        procs=np.repeat(
            [category.procs_per_node for category in system.categories], sizes
        ),
        window=np.repeat(category_window, sizes),
        windows=tuple(windows),
        workloads=assign_workloads(system, np.arange(sum(sizes))),
    )


def workload_multiplier(
    workload: Workload,
    graphics_multiplier: float = 3.8,
    frontend_multiplier: float = 2.5,
) -> float:
    """Rate multiplier for a node's workload type.

    The graphics default of 3.8 makes 3 of system 20's 49 nodes carry
    ~20% of its failures, matching Section 5.1 exactly:
    ``3 * 3.8 / (46 + 3 * 3.8) = 0.199``.
    """
    if workload is Workload.GRAPHICS:
        return graphics_multiplier
    if workload is Workload.FRONTEND:
        return frontend_multiplier
    return 1.0


def node_rate_multipliers(
    system_id: int,
    n_nodes: int,
    rng_root: RngStream,
    sigma: float,
) -> np.ndarray:
    """Batched residual rate multipliers for a whole system's nodes.

    One per-system stream (``"system", s, "node-multipliers"``) yields
    all nodes' normals in node order — one generator construction per
    system instead of one per node, which matters at 4750 nodes.
    Deterministic per (seed, system), so generating a system alone or in
    a worker process reproduces the same multipliers.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return np.ones(n_nodes)
    generator = rng_root.spawn_generator(
        "system", str(system_id), "node-multipliers"
    )
    mu = -0.5 * sigma**2  # unit mean: E[exp(N(mu, sigma^2))] = 1
    return np.exp(mu + sigma * generator.standard_normal(n_nodes))
