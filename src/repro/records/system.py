"""System-level configuration schema for the Table 1 inventory."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.records.node import NodeCategory, NodeConfig
from repro.records.timeutils import production_window

__all__ = ["HardwareType", "HardwareArchitecture", "SystemConfig"]


class HardwareArchitecture(enum.Enum):
    """Node architecture: SMP (systems 1-18) or NUMA (systems 19-22)."""

    SMP = "smp"
    NUMA = "numa"

    def __str__(self) -> str:
        return self.value


class HardwareType(enum.Enum):
    """Anonymized processor/memory chip model, A-H (Table 1)."""

    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"
    F = "F"
    G = "G"
    H = "H"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SystemConfig:
    """One of the 22 LANL systems (left half of Table 1 + categories).

    Attributes
    ----------
    system_id:
        The paper's system ID, 1-22.
    hardware_type:
        Anonymized chip model A-H.
    architecture:
        SMP or NUMA.
    categories:
        Node categories (right half of Table 1), in node-ID order: the
        first category owns node IDs ``0 .. count-1``, and so on.
    """

    system_id: int
    hardware_type: HardwareType
    architecture: HardwareArchitecture
    categories: Tuple[NodeCategory, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 1 <= self.system_id <= 22:
            raise ValueError(f"system_id must be in 1..22, got {self.system_id}")
        if not self.categories:
            raise ValueError(f"system {self.system_id} has no node categories")

    @property
    def node_count(self) -> int:
        """Total nodes across all categories."""
        return sum(category.node_count for category in self.categories)

    @property
    def processor_count(self) -> int:
        """Total processors across all categories."""
        return sum(category.total_processors for category in self.categories)

    def expand_nodes(self, data_start: float, data_end: float) -> List[NodeConfig]:
        """Expand categories into concrete :class:`NodeConfig` objects.

        Node IDs are assigned in category order.  Production windows are
        resolved against ``[data_start, data_end)``.
        """
        nodes: List[NodeConfig] = []
        next_id = 0
        for category in self.categories:
            start, end = production_window(
                category.production_start,
                category.production_end,
                data_start,
                data_end,
            )
            for _ in range(category.node_count):
                nodes.append(
                    NodeConfig(
                        system_id=self.system_id,
                        node_id=next_id,
                        category=category,
                        production_start=start,
                        production_end=end,
                    )
                )
                next_id += 1
        return nodes

    def production_window(self, data_start: float, data_end: float) -> Tuple[float, float]:
        """The system-wide production window: union over categories."""
        starts = []
        ends = []
        for category in self.categories:
            start, end = production_window(
                category.production_start,
                category.production_end,
                data_start,
                data_end,
            )
            starts.append(start)
            ends.append(end)
        return min(starts), max(ends)

    def production_years(self, data_start: float, data_end: float) -> float:
        """Length of the system production window in (average) years."""
        from repro.records.timeutils import SECONDS_PER_YEAR

        start, end = self.production_window(data_start, data_end)
        return (end - start) / SECONDS_PER_YEAR
