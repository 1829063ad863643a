"""Tests for workload assignment and node heterogeneity."""

import numpy as np
import pytest

from repro.records.codes import WORKLOAD_VOCAB
from repro.records.inventory import DATA_END, DATA_START, LANL_SYSTEMS
from repro.records.record import Workload
from repro.simulate.rng import RngStream
from repro.synth.nodes import (
    assign_workloads,
    node_rate_multiplier,
    system_nodes,
    workload_multiplier,
)


def workloads(system, node_ids):
    return [WORKLOAD_VOCAB[code] for code in assign_workloads(system, node_ids)]


class TestAssignWorkload:
    def test_system20_graphics_nodes(self):
        system = LANL_SYSTEMS[20]
        assert workloads(system, [21, 22, 23]) == [Workload.GRAPHICS] * 3
        assert workloads(system, [20, 24]) == [Workload.COMPUTE] * 2

    def test_cluster_frontend_node0(self):
        # Types E/F clusters get a front-end at node 0.
        assert workloads(LANL_SYSTEMS[5], [0, 1]) == [Workload.FRONTEND, Workload.COMPUTE]
        assert workloads(LANL_SYSTEMS[13], [0]) == [Workload.FRONTEND]

    def test_small_systems_have_no_frontend(self):
        # Single-node systems are all compute.
        assert workloads(LANL_SYSTEMS[1], [0]) == [Workload.COMPUTE]
        assert workloads(LANL_SYSTEMS[22], [0]) == [Workload.COMPUTE]

    def test_numa_systems_have_no_frontend(self):
        assert workloads(LANL_SYSTEMS[19], [0]) == [Workload.COMPUTE]


class TestSystemNodes:
    def test_follows_expand_nodes(self):
        # The generator's per-category arrays name the nodes, windows
        # and processor counts expand_nodes gives, for every system.
        for system in LANL_SYSTEMS.values():
            nodes = system_nodes(system, DATA_START, DATA_END)
            expanded = system.expand_nodes(DATA_START, DATA_END)
            assert len(nodes) == len(expanded)
            windows = [nodes.windows[index] for index in nodes.window]
            assert windows == [
                (node.production_start, node.production_end) for node in expanded
            ]
            assert nodes.procs.tolist() == [node.procs for node in expanded]
            assert nodes.workloads.tolist() == assign_workloads(
                system, [node.node_id for node in expanded]
            ).tolist()


class TestWorkloadMultiplier:
    def test_graphics_boost_matches_papers_20_percent(self):
        # 3 graphics nodes of 49 at 3.8x carry ~20% of failures:
        # 3*3.8 / (46 + 3*3.8) = 0.199.
        m = workload_multiplier(Workload.GRAPHICS)
        share = 3 * m / (46 + 3 * m)
        assert share == pytest.approx(0.20, abs=0.01)

    def test_compute_is_unit(self):
        assert workload_multiplier(Workload.COMPUTE) == 1.0

    def test_frontend_boost(self):
        assert workload_multiplier(Workload.FRONTEND) == 2.5


class TestNodeRateMultiplier:
    def make_node(self, system_id=20, node_id=5):
        system = LANL_SYSTEMS[system_id]
        return system.expand_nodes(DATA_START, DATA_END)[node_id]

    def test_deterministic(self):
        node = self.make_node()
        a = node_rate_multiplier(node, RngStream(1), 0.35)
        b = node_rate_multiplier(node, RngStream(1), 0.35)
        assert a == b

    def test_varies_by_node(self):
        root = RngStream(1)
        values = {
            node_rate_multiplier(self.make_node(node_id=i), root, 0.35)
            for i in range(20)
        }
        assert len(values) == 20

    def test_sigma_zero_is_unit(self):
        assert node_rate_multiplier(self.make_node(), RngStream(1), 0.0) == 1.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            node_rate_multiplier(self.make_node(), RngStream(1), -0.1)

    def test_unit_mean_in_aggregate(self):
        root = RngStream(3)
        nodes = LANL_SYSTEMS[7].expand_nodes(DATA_START, DATA_END)
        values = [node_rate_multiplier(node, root, 0.35) for node in nodes]
        assert np.mean(values) == pytest.approx(1.0, abs=0.05)
        assert all(v > 0 for v in values)
