"""Tests for repair-time analyses (Table 2, Figure 7)."""

import pytest

from repro.analysis.repair import (
    repair_by_system,
    repair_fit_study,
    repair_statistics_by_cause,
)
from repro.records.record import FailureRecord, RootCause, Workload
from repro.records.trace import FailureTrace


def record(start, duration, cause=RootCause.HARDWARE, system=20, node=0,
           workload=Workload.COMPUTE):
    return FailureRecord(
        start_time=start, end_time=start + duration, system_id=system,
        node_id=node, root_cause=cause, workload=workload,
    )


class TestTable2Small:
    def test_row_statistics(self):
        trace = FailureTrace(
            [
                record(1e8, 600.0),        # 10 min
                record(1.1e8, 1800.0),     # 30 min
                record(1.2e8, 606.0, cause=RootCause.HUMAN),
                record(1.3e8, 1200.0, cause=RootCause.HUMAN),
            ]
        )
        rows = {row.label: row for row in repair_statistics_by_cause(trace)}
        assert rows["hardware"].mean == pytest.approx(20.0)
        assert rows["hardware"].median == pytest.approx(20.0)
        assert rows["All"].n == 4

    def test_causes_without_records_omitted(self):
        trace = FailureTrace([record(1e8, 60.0), record(1.1e8, 60.0)])
        labels = [row.label for row in repair_statistics_by_cause(trace)]
        assert labels == ["hardware", "All"]

    def test_aggregate_always_last(self, small_trace):
        rows = repair_statistics_by_cause(small_trace)
        assert rows[-1].label == "All"
        assert rows[-1].n == len(small_trace)


class TestTable2OnSynthetic:
    def test_means_match_paper_order_of_magnitude(self, full_trace):
        rows = {row.label: row for row in repair_statistics_by_cause(full_trace)}
        # Paper Table 2 reference values (minutes).
        paper = {"human": 163, "environment": 572, "network": 247,
                 "software": 369, "hardware": 342}
        for cause, expected in paper.items():
            assert rows[cause].mean == pytest.approx(expected, rel=1.0)

    def test_environment_longest_median(self, full_trace):
        rows = {row.label: row for row in repair_statistics_by_cause(full_trace)}
        non_aggregate = [row for row in repair_statistics_by_cause(full_trace)
                         if row.cause is not None]
        assert rows["environment"].median == max(row.median for row in non_aggregate)

    def test_software_mean_far_above_median(self, full_trace):
        # Paper: software mean ~10x its median.
        rows = {row.label: row for row in repair_statistics_by_cause(full_trace)}
        assert rows["software"].mean / rows["software"].median > 5.0

    def test_extreme_variability_except_environment(self, full_trace):
        rows = {row.label: row for row in repair_statistics_by_cause(full_trace)}
        assert rows["environment"].squared_cv < 10.0
        assert rows["hardware"].squared_cv > 20.0
        assert rows["software"].squared_cv > 20.0

    def test_mean_near_six_hours_overall(self, full_trace):
        rows = {row.label: row for row in repair_statistics_by_cause(full_trace)}
        # Paper: ~355 min. Allow generous slack: heavy tails move means.
        assert 150 < rows["All"].mean < 900


class TestFigure7:
    def test_lognormal_best_exponential_worst(self, full_trace):
        fits = repair_fit_study(full_trace)
        assert fits[0].name == "lognormal"
        assert fits[-1].name == "exponential"

    def test_minimum_sample(self):
        trace = FailureTrace([record(1e8, 60.0)])
        with pytest.raises(ValueError):
            repair_fit_study(trace)

    def test_per_system_type_effect(self, full_trace):
        per_system = repair_by_system(full_trace)
        # Type F (systems 13-18) repairs much shorter than type G (19-21).
        f_means = [per_system[s].mean for s in range(13, 19)]
        g_means = [per_system[s].mean for s in (19, 20, 21)]
        assert max(f_means) < min(g_means)

    def test_per_system_size_insensitivity(self, full_trace):
        # Type E spans 128-1024 nodes; median repairs stay similar.
        per_system = repair_by_system(full_trace)
        e_medians = [per_system[s].median for s in range(5, 12)]
        assert max(e_medians) / min(e_medians) < 3.0

    def test_minimum_records_filter(self, full_trace):
        assert 1 not in repair_by_system(full_trace, minimum_records=100)
