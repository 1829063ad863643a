"""End-to-end integration tests.

Each test exercises a full user workflow across several subpackages —
the paths a README reader actually takes.
"""

import datetime as dt

import numpy as np
import pytest

from repro.records.timeutils import SECONDS_PER_DAY, from_datetime


class TestGenerateWriteReadAnalyze:
    def test_full_cycle(self, tmp_path):
        """generate -> CSV -> read -> analyze -> compare to original."""
        from repro.analysis import compare_traces, summarize
        from repro.io import read_lanl_csv, write_lanl_csv
        from repro.synth import TraceGenerator

        original = TraceGenerator(seed=3).generate([20, 13])
        path = tmp_path / "trace.csv"
        write_lanl_csv(original, path)
        loaded = read_lanl_csv(path)

        # The loaded trace is statistically identical to the original.
        rows = compare_traces(original, loaded)
        assert all(row.relative_difference < 1e-12 for row in rows)

        # And the whole-paper summary runs on it.
        summary = summarize(loaded)
        assert summary.n_records == len(original)
        assert summary.repair_best_fit == "lognormal"

    def test_gzip_roundtrip(self, tmp_path):
        from repro.io import read_lanl_csv, write_lanl_csv
        from repro.synth import TraceGenerator

        trace = TraceGenerator(seed=5).generate([2])
        path = tmp_path / "trace.csv.gz"
        write_lanl_csv(trace, path)
        assert path.stat().st_size > 0
        # Gzip magic bytes.
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        loaded = read_lanl_csv(path)
        assert len(loaded) == len(trace)
        assert loaded[0].start_time == trace[0].start_time


class TestReadmeQuickstart:
    def test_quickstart_snippet(self):
        """The code block in README.md works as written."""
        import repro

        trace = repro.generate_lanl_trace(seed=1)
        assert len(trace) > 10_000

        fits = repro.fit_all(trace.repair_minutes())
        assert fits[0].name == "lognormal"

        from repro.analysis import system_interarrivals

        study = system_interarrivals(trace.filter_systems([20]), 20)
        assert study.best.name in ("weibull", "gamma")
        assert str(study.hazard) in ("decreasing", "non-monotone")


class TestDiurnalWorkload:
    def test_rate_matches_base_generator(self):
        from repro.sched import DiurnalJobGenerator, JobGenerator

        window = (0.0, 120 * SECONDS_PER_DAY)
        flat = JobGenerator(seed=4).generate(*window)
        diurnal = DiurnalJobGenerator(seed=4).generate(*window)
        assert len(diurnal) == pytest.approx(len(flat), rel=0.15)

    def test_arrivals_concentrate_in_working_hours(self):
        from repro.records.timeutils import day_of_week, hour_of_day
        from repro.sched import DiurnalJobGenerator

        jobs = DiurnalJobGenerator(
            seed=4, mean_interarrival=900.0
        ).generate(0.0, 200 * SECONDS_PER_DAY)
        hours = np.array([hour_of_day(job.arrival) for job in jobs])
        days = np.array([day_of_week(job.arrival) for job in jobs])
        day_count = np.sum((hours >= 10) & (hours < 18))
        night_count = np.sum((hours >= 22) | (hours < 6))
        assert day_count > 1.3 * night_count
        weekday = np.sum(days < 5) / 5.0
        weekend = np.sum(days >= 5) / 2.0
        assert weekday > 1.4 * weekend

    def test_scheduling_with_diurnal_workload(self, system20_trace):
        from repro.sched import (
            ClusterTimeline,
            DiurnalJobGenerator,
            RandomPolicy,
            SchedulerSimulation,
        )

        timeline = ClusterTimeline(system20_trace, 20)
        t0 = from_datetime(dt.datetime(2002, 1, 1))
        t1 = from_datetime(dt.datetime(2002, 4, 1))
        jobs = DiurnalJobGenerator(seed=9).generate(t0, t1 - 20 * SECONDS_PER_DAY)
        result = SchedulerSimulation(timeline, RandomPolicy(seed=1), (t0, t1)).run(jobs)
        assert result.jobs_completed == len(jobs)


class TestScenarioToPaperPipeline:
    def test_custom_scenario_through_full_analysis(self):
        """A scenario-built trace flows through every major analysis."""
        from repro.analysis import (
            availability_report,
            periodicity_study,
            repair_statistics_by_cause,
        )
        from repro.stats import fit_weibull, prepare_positive
        from repro.synth import ClusterScenario

        trace = (
            ClusterScenario(name="it", years=3.0)
            .add_system("pool", nodes=200, procs_per_node=2,
                        failures_per_proc_year=0.6)
            .generate(seed=2)
        )
        assert len(trace) > 300
        assert periodicity_study(trace).peak_trough_ratio > 1.4
        assert repair_statistics_by_cause(trace)[-1].n == len(trace)
        assert availability_report(trace)[1].failures == len(trace)
        gaps = prepare_positive(trace.interarrival_times(), zero_policy="drop")
        assert fit_weibull(gaps).distribution.shape < 1.0
