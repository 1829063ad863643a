"""Tests for burst injection and monthly jitter."""

import numpy as np
import pytest

from repro.records.codes import CAUSE_CODE, WORKLOAD_VOCAB
from repro.records.columns import batch_from_records, records_from_batch
from repro.records.inventory import DATA_END, DATA_START, LANL_SYSTEMS
from repro.records.record import FailureRecord, RootCause
from repro.records.system import HardwareType
from repro.records.timeutils import SECONDS_PER_MONTH
from repro.simulate.rng import RngStream
from repro.synth.config import GeneratorConfig
from repro.synth.correlated import inject_bursts
from repro.synth.jitter import MonthlyJitter
from repro.synth.lifecycle import LifecycleShape
from repro.synth.nodes import system_nodes
from repro.synth.repair import RepairModel

from tests.synth import reference_engine


def generator(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def build_records(n, start, spacing, system_id=20):
    return [
        FailureRecord(
            start_time=start + i * spacing,
            end_time=start + i * spacing + 600.0,
            system_id=system_id,
            node_id=i % 40,
            root_cause=RootCause.HARDWARE,
        )
        for i in range(n)
    ]


def build_rows(n, start, spacing, system_id=20):
    return batch_from_records(build_records(n, start, spacing, system_id))


class TestInjectBursts:
    def setup_method(self):
        self.system = LANL_SYSTEMS[20]
        self.nodes = system_nodes(self.system, DATA_START, DATA_END)
        self.start = self.system.production_window(DATA_START, DATA_END)[0]
        self.config = GeneratorConfig()
        self.repair = RepairModel(self.config)

    def run_inject(self, rows, config=None):
        return inject_bursts(
            rows,
            self.nodes,
            self.start,
            HardwareType.G,
            config or self.config,
            self.repair,
            generator(1),
        )

    def run_reference(self, records):
        nodes = self.system.expand_nodes(DATA_START, DATA_END)
        return reference_engine.inject_bursts(
            records,
            nodes,
            {
                node.node_id: WORKLOAD_VOCAB[code]
                for node, code in zip(nodes, self.nodes.workloads)
            },
            self.start,
            HardwareType.G,
            self.config,
            self.repair,
            generator(1),
        )

    def clones(self, rows):
        output = self.run_inject(rows)
        return output.slice(len(rows), len(output))

    def test_clones_share_timestamp_and_cause(self):
        rows = build_rows(500, self.start + 1e6, 3600.0)
        clones = self.clones(rows)
        assert len(clones) > 50
        assert np.isin(clones["start_time"], rows["start_time"]).all()
        assert (clones["root_cause"] == CAUSE_CODE[RootCause.HARDWARE]).all()

    def test_clone_fraction_matches_burst_parameters(self):
        # Expected extra fraction = p * m = 0.32 * 1.8 ~ 0.58.
        rows = build_rows(3000, self.start + 1e6, 3600.0)
        output = self.run_inject(rows)
        extra = (len(output) - len(rows)) / len(rows)
        assert extra == pytest.approx(0.576, abs=0.1)

    def test_no_bursts_after_era(self):
        era_end = self.start + self.config.burst_era_months * SECONDS_PER_MONTH
        rows = build_rows(500, era_end + 1e6, 3600.0)
        assert len(self.run_inject(rows)) == len(rows)

    def test_disabled_config(self):
        rows = build_rows(500, self.start + 1e6, 3600.0)
        config = GeneratorConfig(bursts_enabled=False)
        assert len(self.run_inject(rows, config)) == len(rows)

    def test_clones_on_other_in_production_nodes(self):
        rows = build_rows(500, self.start + 1e6, 3600.0)
        node_by_id = {
            node.node_id: node
            for node in self.system.expand_nodes(DATA_START, DATA_END)
        }
        clones = self.clones(rows)
        parent = np.searchsorted(rows["start_time"], clones["start_time"])
        assert (clones["node_id"] != rows["node_id"][parent]).all()
        for node_id, start in zip(clones["node_id"], clones["start_time"]):
            assert node_by_id[int(node_id)].in_production(float(start))

    def test_clones_draw_fresh_repairs(self):
        rows = build_rows(500, self.start + 1e6, 3600.0)
        clones = self.clones(rows)
        repairs = set((clones["end_time"] - clones["start_time"]).tolist())
        assert len(repairs) > len(clones) // 2  # not copies of 600 s

    def test_matches_the_record_injector(self):
        # Same stream, same draws in the same order: the column
        # injector reproduces the reference engine's record clones.
        records = build_records(800, self.start + 1e6, 1800.0)
        columns = self.run_inject(batch_from_records(records))
        reference = self.run_reference(records)
        assert len(columns) > len(records)
        assert list(records_from_batch(columns)) == reference
        for left, right in zip(records_from_batch(columns), reference):
            assert repr(left.end_time) == repr(right.end_time)
            assert left.workload is right.workload


class TestMonthlyJitter:
    def test_deterministic(self):
        a = MonthlyJitter(RngStream(1).child("j"), 50, LifecycleShape.RAMP_PEAK)
        b = MonthlyJitter(RngStream(1).child("j"), 50, LifecycleShape.RAMP_PEAK)
        assert [a.at_age(i * SECONDS_PER_MONTH) for i in range(50)] == [
            b.at_age(i * SECONDS_PER_MONTH) for i in range(50)
        ]

    def test_disabled_is_flat(self):
        jitter = MonthlyJitter(
            RngStream(1).child("j"), 50, LifecycleShape.RAMP_PEAK, enabled=False
        )
        assert all(jitter.at_age(i * SECONDS_PER_MONTH) == 1.0 for i in range(50))

    def test_unit_mean_late_era(self):
        jitter = MonthlyJitter(
            RngStream(7).child("j"), 5000, LifecycleShape.INFANT_DECAY,
            era_months=0.0, sigma_late=0.18,
        )
        values = [jitter.at_age(i * SECONDS_PER_MONTH) for i in range(5000)]
        assert np.mean(values) == pytest.approx(1.0, abs=0.02)

    def test_early_era_more_turbulent_for_ramp(self):
        stream = RngStream(9).child("j")
        jitter = MonthlyJitter(stream, 120, LifecycleShape.RAMP_PEAK, era_months=40)
        early = [np.log(jitter.at_age(i * SECONDS_PER_MONTH)) for i in range(40)]
        late = [np.log(jitter.at_age(i * SECONDS_PER_MONTH)) for i in range(40, 120)]
        assert np.std(early) > 2 * np.std(late)

    def test_age_clamping(self):
        jitter = MonthlyJitter(RngStream(1).child("j"), 10, LifecycleShape.RAMP_PEAK)
        # Ages beyond the precomputed range reuse the last month.
        assert jitter.at_age(100 * SECONDS_PER_MONTH) == jitter.at_age(9 * SECONDS_PER_MONTH)
        assert jitter.at_age(-5.0) == jitter.at_age(0.0)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            MonthlyJitter(RngStream(1), 0, LifecycleShape.RAMP_PEAK)
