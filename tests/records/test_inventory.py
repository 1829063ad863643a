"""Tests for the Table 1 inventory encoding."""

import pytest

from repro.records.inventory import (
    DATA_END,
    DATA_START,
    LANL_SYSTEMS,
    total_nodes,
    total_processors,
)
from repro.records.system import HardwareArchitecture, HardwareType


class TestTotals:
    def test_node_total_matches_paper(self):
        # The paper: 4750 nodes across the 22 systems.
        assert total_nodes() == 4750

    def test_processor_total_near_paper(self):
        # The paper: 24101; the encoding's documented deviation is < 0.5%.
        assert abs(total_processors() - 24101) / 24101 < 0.005

    def test_twenty_two_systems(self):
        assert set(LANL_SYSTEMS.keys()) == set(range(1, 23))


class TestPerSystem:
    # (system, hardware type, nodes, procs) from Table 1.
    TABLE1 = [
        (1, "A", 1, 8),
        (2, "B", 1, 32),
        (3, "C", 1, 4),
        (4, "D", 164, 328),
        (5, "E", 256, 1024),
        (6, "E", 128, 512),
        (7, "E", 1024, 4096),
        (8, "E", 1024, 4096),
        (9, "E", 128, 512),
        (10, "E", 128, 512),
        (11, "E", 128, 512),
        (12, "E", 32, 128),
        (13, "F", 128, 256),
        (14, "F", 256, 512),
        (15, "F", 256, 512),
        (16, "F", 256, 512),
        (17, "F", 256, 512),
        (18, "F", 512, 1024),
        (19, "G", 16, 2048),
        (21, "G", 5, 544),
        (22, "H", 1, 256),
    ]

    @pytest.mark.parametrize("system_id,hw,nodes,procs", TABLE1)
    def test_exact_rows(self, system_id, hw, nodes, procs):
        config = LANL_SYSTEMS[system_id]
        assert config.hardware_type is HardwareType(hw)
        assert config.node_count == nodes
        assert config.processor_count == procs

    def test_system20_known_deviation(self):
        # 49 nodes exactly; processors within 1.5% of the published 6152
        # (the Table 1 category rows cannot combine to 6152 exactly).
        config = LANL_SYSTEMS[20]
        assert config.node_count == 49
        assert abs(config.processor_count - 6152) / 6152 < 0.015

    def test_architecture_split(self):
        # Systems 1-18 SMP, 19-22 NUMA.
        for system_id in range(1, 19):
            assert LANL_SYSTEMS[system_id].architecture is HardwareArchitecture.SMP
        for system_id in range(19, 23):
            assert LANL_SYSTEMS[system_id].architecture is HardwareArchitecture.NUMA

    def test_system12_two_memory_categories(self):
        # Table 1 callout: system 12's nodes differ only in memory (4 vs 16 GB).
        memories = sorted(c.memory_gb for c in LANL_SYSTEMS[12].categories)
        assert memories == [4.0, 16.0]

    def test_system20_node0_short_production(self):
        # Footnote 4: node 0 was in production much shorter.
        nodes = LANL_SYSTEMS[20].expand_nodes(DATA_START, DATA_END)
        node0 = nodes[0]
        rest = nodes[1:]
        assert node0.production_seconds < min(n.production_seconds for n in rest) / 5

    def test_all_windows_resolve(self):
        for config in LANL_SYSTEMS.values():
            start, end = config.production_window(DATA_START, DATA_END)
            assert DATA_START <= start < end <= DATA_END

    def test_type_e_systems_are_5_through_12(self):
        e_systems = sorted(
            sid for sid, c in LANL_SYSTEMS.items() if c.hardware_type is HardwareType.E
        )
        assert e_systems == [5, 6, 7, 8, 9, 10, 11, 12]

    def test_type_f_systems_are_13_through_18(self):
        f_systems = sorted(
            sid for sid, c in LANL_SYSTEMS.items() if c.hardware_type is HardwareType.F
        )
        assert f_systems == [13, 14, 15, 16, 17, 18]
