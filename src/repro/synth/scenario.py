"""Scenario builder: synthetic traces for *your* cluster.

The LANL inventory is baked into :data:`repro.records.inventory`; this
module lets a user describe an arbitrary fleet — node counts, rates,
lifecycle shape, repair scale — and generate a statistically faithful
failure trace for it, reusing the full calibrated machinery.

Example
-------
>>> scenario = (
...     ClusterScenario(name="my-dc", years=3.0)
...     .add_system("compute", nodes=512, procs_per_node=2,
...                 failures_per_proc_year=0.3)
...     .add_system("storage", nodes=64, procs_per_node=8,
...                 failures_per_proc_year=0.15, repair_scale=2.0,
...                 lifecycle="ramp-peak")
... )
>>> trace = scenario.generate(seed=7)                  # doctest: +SKIP
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.records.inventory import DATA_START, LANL_SYSTEMS
from repro.records.node import NodeCategory
from repro.records.system import HardwareArchitecture, HardwareType, SystemConfig
from repro.records.timeutils import SECONDS_PER_YEAR
from repro.records.trace import FailureTrace
from repro.synth.config import GeneratorConfig
from repro.synth.generator import TraceGenerator
from repro.synth.lifecycle import LifecycleShape

__all__ = [
    "ScenarioSystem",
    "ClusterScenario",
    "scale_inventory",
    "scaled_lanl_systems",
]

#: Hardware-type letters are recycled as scenario slots; at most 8
#: systems per scenario (one per letter, so per-system knobs map
#: cleanly onto the per-type configuration tables).
_SLOTS = tuple(HardwareType)


@dataclass(frozen=True)
class ScenarioSystem:
    """One system of a user-defined scenario."""

    name: str
    nodes: int
    procs_per_node: int
    failures_per_proc_year: float
    memory_gb: float = 8.0
    nics: int = 1
    repair_scale: float = 1.0
    lifecycle: str = "infant-decay"
    architecture: str = "smp"

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.procs_per_node < 1:
            raise ValueError(f"{self.name}: nodes and procs must be >= 1")
        if self.failures_per_proc_year < 0:
            raise ValueError(f"{self.name}: rate must be >= 0")
        if self.repair_scale <= 0:
            raise ValueError(f"{self.name}: repair_scale must be positive")
        LifecycleShape(self.lifecycle)  # validates the string
        HardwareArchitecture(self.architecture)


class ClusterScenario:
    """Fluent builder for custom-cluster failure traces.

    Parameters
    ----------
    name:
        Scenario label (cosmetic).
    years:
        Length of the observation window.
    """

    def __init__(self, name: str, years: float) -> None:
        if years <= 0:
            raise ValueError(f"years must be positive, got {years}")
        self.name = name
        self.years = float(years)
        self._systems: List[ScenarioSystem] = []

    def add_system(self, name: str, **kwargs) -> "ClusterScenario":
        """Add a system; keyword arguments are :class:`ScenarioSystem` fields."""
        if len(self._systems) >= len(_SLOTS):
            raise ValueError(f"a scenario holds at most {len(_SLOTS)} systems")
        if any(system.name == name for system in self._systems):
            raise ValueError(f"duplicate system name {name!r}")
        self._systems.append(ScenarioSystem(name=name, **kwargs))
        return self

    @property
    def systems(self) -> List[ScenarioSystem]:
        """The systems added so far."""
        return list(self._systems)

    def system_id_of(self, name: str) -> int:
        """The numeric system ID assigned to a named system."""
        for index, system in enumerate(self._systems):
            if system.name == name:
                return index + 1
        raise KeyError(f"no system named {name!r} in scenario {self.name!r}")

    def build_inventory(self) -> Dict[int, SystemConfig]:
        """The SystemConfig inventory for this scenario."""
        if not self._systems:
            raise ValueError("scenario has no systems")
        inventory: Dict[int, SystemConfig] = {}
        for index, system in enumerate(self._systems):
            inventory[index + 1] = SystemConfig(
                system_id=index + 1,
                hardware_type=_SLOTS[index],
                architecture=HardwareArchitecture(system.architecture),
                categories=(
                    NodeCategory(
                        node_count=system.nodes,
                        procs_per_node=system.procs_per_node,
                        memory_gb=system.memory_gb,
                        nics=system.nics,
                        production_start="N/A",
                        production_end="now",
                    ),
                ),
            )
        return inventory

    def build_config(self, base: Optional[GeneratorConfig] = None) -> GeneratorConfig:
        """A GeneratorConfig with this scenario's per-system knobs."""
        config = base if base is not None else GeneratorConfig()
        config = dataclasses.replace(config)
        config.rate_per_proc_year = dict(config.rate_per_proc_year)
        config.repair_type_factor = dict(config.repair_type_factor)
        ramp_types = []
        for index, system in enumerate(self._systems):
            slot = _SLOTS[index]
            config.rate_per_proc_year[slot] = system.failures_per_proc_year
            config.repair_type_factor[slot] = system.repair_scale
            if LifecycleShape(system.lifecycle) is LifecycleShape.RAMP_PEAK:
                ramp_types.append(slot)
        config.ramp_types = tuple(ramp_types)
        config.ramp_exempt_systems = ()
        config.early_system_boost = {}
        # Scenario systems are generic: no LANL-specific burst systems.
        config.burst_systems = ()
        return config

    def generate(
        self, seed: int = 0, config: Optional[GeneratorConfig] = None
    ) -> FailureTrace:
        """Generate the scenario's failure trace."""
        inventory = self.build_inventory()
        resolved = self.build_config(config)
        generator = TraceGenerator(
            seed=seed,
            config=resolved,
            systems=inventory,
            data_start=DATA_START,
            data_end=DATA_START + self.years * SECONDS_PER_YEAR,
        )
        return generator.generate()


def scale_inventory(
    systems: Dict[int, SystemConfig], factor: float
) -> Dict[int, SystemConfig]:
    """Scale every node category's node count by ``factor``.

    Returns a new inventory whose systems have ``round(count * factor)``
    nodes per Table 1 category (at least 1), keeping proc counts,
    memory, and production windows intact.  Useful for exercising the
    generator at exascale-style fleet sizes — e.g. ``factor=10`` turns
    the 4750-node LANL inventory into ~47,500 nodes — and for the
    ``ingest`` workload of ``perfbench/``.
    """
    if factor <= 0:
        raise ValueError(f"factor must be positive, got {factor}")
    scaled: Dict[int, SystemConfig] = {}
    for system_id, system in systems.items():
        categories = tuple(
            dataclasses.replace(
                category,
                node_count=max(1, int(round(category.node_count * factor))),
            )
            for category in system.categories
        )
        scaled[system_id] = dataclasses.replace(system, categories=categories)
    return scaled


def scaled_lanl_systems(factor: float) -> Dict[int, SystemConfig]:
    """The LANL Table 1 inventory with node counts scaled by ``factor``."""
    return scale_inventory(LANL_SYSTEMS, factor)
