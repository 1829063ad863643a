"""Tests for workload assignment and node heterogeneity."""

import numpy as np
import pytest

from repro.records.codes import WORKLOAD_VOCAB
from repro.records.inventory import DATA_END, DATA_START, LANL_SYSTEMS
from repro.records.record import Workload
from repro.simulate.rng import RngStream
from repro.synth.nodes import (
    assign_workloads,
    node_rate_multipliers,
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
    """``node_rate_multipliers``: one system's nodes from one stream."""

    def test_deterministic(self):
        a = node_rate_multipliers(20, 49, RngStream(1), 0.35)
        b = node_rate_multipliers(20, 49, RngStream(1), 0.35)
        assert np.array_equal(a, b)

    def test_varies_by_node(self):
        values = node_rate_multipliers(20, 20, RngStream(1), 0.35)
        assert len(set(values.tolist())) == 20

    def test_sigma_zero_is_unit(self):
        assert np.array_equal(
            node_rate_multipliers(20, 49, RngStream(1), 0.0), np.ones(49)
        )

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            node_rate_multipliers(20, 49, RngStream(1), -0.1)

    def test_unit_mean_in_aggregate(self):
        n_nodes = len(LANL_SYSTEMS[7].expand_nodes(DATA_START, DATA_END))
        values = node_rate_multipliers(7, n_nodes, RngStream(3), 0.35)
        assert np.mean(values) == pytest.approx(1.0, abs=0.05)
        assert (values > 0).all()
