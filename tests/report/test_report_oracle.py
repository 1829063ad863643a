"""The accumulator-backed report == the analysis functions' report.

``run_paper_report(trace)`` and the ``render_*`` functions fold the
trace as one chunk through
:class:`~repro.analysis.outofcore.PaperAccumulator`; the oracle in
``reference_report`` calls the trace-level study functions of
:mod:`repro.analysis` instead.  Every section must agree on status,
text and error, on curated traces and on thin, partial, out-of-window
and corrupted ones.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import repro.faults.chaos as chaos
from repro import report
from repro.records.inventory import DATA_START
from repro.records.record import FailureRecord, RootCause
from repro.records.trace import FailureTrace
from repro.report import run_paper_report, run_store_report
from repro.store import ColumnarStore, store_from_trace
from repro.synth import TraceGenerator
from repro.synth.scenario import scaled_lanl_systems
from tests.report import reference_report as reference

SECONDS_PER_DAY = 86400.0
SECONDS_PER_YEAR = 365.25 * SECONDS_PER_DAY

CASES = (
    "full",
    "full-store",
    "x3-store",
    "systems-2-13",
    "system-20",
    "system-2",
    "systems-13-20-and-23",
    "system-20-one-year",
    "empty",
    "system-20-first-1",
    "system-20-first-2",
    "system-20-first-9",
    "system-20-before-window",
    "system-5-before-window",
    "window-misses-system-5",
    "window-misses-system-19",
    "chaos-1",
    "chaos-2",
    "chaos-3",
)


def _before_window(trace: FailureTrace, rows: int) -> FailureTrace:
    """``trace`` plus copies of its first rows dated before DATA_START."""
    early = [
        replace(
            record,
            start_time=DATA_START - SECONDS_PER_DAY * (index + 1),
            end_time=DATA_START - SECONDS_PER_DAY * (index + 1) + record.repair_time,
        )
        for index, record in enumerate(trace.records[:rows])
    ]
    return FailureTrace(list(trace.records) + early, trace.systems)


#: Data windows that miss a Figure 4 system's production window: the
#: one of system 5 (12/01 - now), then the one of system 19 (12/96 -
#: 09/02).  Only the sections that need those windows may fail.
NARROWED_WINDOWS = {
    "window-misses-system-5": (1.2e8, 1.8e8),
    "window-misses-system-19": (2.4e8, 3.0e8),
}


def _narrowed(trace: FailureTrace, start: float, end: float) -> FailureTrace:
    """``trace``'s rows in ``[start, end)``, with that as its data window."""
    rows = trace.between(start, end)
    return FailureTrace(rows.records, trace.systems, data_start=start, data_end=end)


def _chaos_traces(trace: FailureTrace, seeds, monkeypatch) -> list:
    """The traces ``chaos_roundtrip`` ingests from corrupted copies."""
    captured = []
    monkeypatch.setattr(chaos, "run_paper_report", captured.append)
    for seed in seeds:
        chaos.chaos_roundtrip(trace, seed=seed)
    monkeypatch.undo()
    return captured


@pytest.fixture(scope="module")
def traces(full_trace, tmp_path_factory):
    root = tmp_path_factory.mktemp("oracle")
    store_from_trace(full_trace, root / "full")
    TraceGenerator(seed=1, systems=scaled_lanl_systems(3)).generate_store(
        root / "x3"
    )
    system20 = TraceGenerator(seed=1).generate([20])
    systems13_20 = TraceGenerator(seed=5).generate([13, 20])
    outside = [
        FailureRecord(
            start_time=1e8 + index * 3600.0,
            end_time=1e8 + index * 3600.0 + 600.0,
            system_id=23,
            node_id=index % 3,
            root_cause=RootCause.HARDWARE,
        )
        for index in range(12)
    ]
    first_start = float(system20.columns["start_time"][0])
    cases = {
        "full": full_trace,
        "full-store": ColumnarStore(root / "full").to_trace(),
        "x3-store": ColumnarStore(root / "x3").to_trace(),
        "systems-2-13": TraceGenerator(seed=5).generate([2, 13]),
        "system-20": system20,
        "system-2": TraceGenerator(seed=5).generate([2]),
        "systems-13-20-and-23": FailureTrace(
            list(systems13_20.records) + outside, systems13_20.systems
        ),
        "system-20-one-year": system20.between(
            first_start, first_start + SECONDS_PER_YEAR
        ),
        "empty": FailureTrace([]),
        "system-20-before-window": _before_window(system20, 5),
        "system-5-before-window": _before_window(
            TraceGenerator(seed=1).generate([5]), 5
        ),
    }
    for name, (start, end) in NARROWED_WINDOWS.items():
        cases[name] = _narrowed(full_trace, start, end)
    for rows in (1, 2, 9):
        cases[f"system-20-first-{rows}"] = FailureTrace(system20.records[:rows])
    patch = pytest.MonkeyPatch()
    corrupted = _chaos_traces(
        TraceGenerator(seed=1).generate([19, 20]), (1, 2, 3), patch
    )
    for seed, trace in zip((1, 2, 3), corrupted):
        cases[f"chaos-{seed}"] = trace
    assert set(cases) == set(CASES)
    return cases


def _outcomes(paper):
    return [
        (section.name, section.status, section.text, section.error)
        for section in paper.sections
    ]


@pytest.mark.parametrize("name", CASES)
def test_report_matches_the_analysis_functions(name, traces):
    trace = traces[name]
    assert _outcomes(run_paper_report(trace)) == _outcomes(
        reference.reference_report(trace)
    )


def test_cases_reach_the_degenerate_paths(traces):
    statuses = {
        name: {s.name: s.status for s in run_paper_report(trace).sections}
        for name, trace in traces.items()
    }
    assert statuses["system-5-before-window"]["fig4"] == "failed"
    for name in NARROWED_WINDOWS:
        assert statuses[name]["fig4"] == "failed"
        assert statuses[name]["table2"] == statuses[name]["fig7"] == "ok"
    assert all(
        status == "degraded"
        for name, status in statuses["empty"].items()
        if name not in ("table1", "fig4", "table3")
    )
    assert all(status == "ok" for status in statuses["x3-store"].values())


@pytest.mark.parametrize("name", sorted(NARROWED_WINDOWS))
def test_store_report_on_a_narrowed_window(name, traces, tmp_path):
    trace = traces[name]
    store_from_trace(trace, tmp_path / "store")
    store = ColumnarStore(tmp_path / "store")
    assert (store.manifest.data_start, store.manifest.data_end) == (
        trace.data_start,
        trace.data_end,
    )
    got = run_store_report(store).report
    assert _outcomes(got) == _outcomes(run_paper_report(trace))


@pytest.mark.parametrize(
    "render, kwargs",
    [
        ("render_table2", {}),
        ("render_figure1", {}),
        ("render_figure2", {}),
        ("render_figure3", {}),
        ("render_figure3", {"system_id": 13, "graphics_nodes": (0, 1)}),
        ("render_figure4", {}),
        ("render_figure4", {"system_ids": (20, 13)}),
        ("render_figure5", {}),
        ("render_figure6", {}),
        ("render_figure6", {"node_id": 21, "era_boundary": 2.5e8}),
        ("render_figure6", {"node_id": 5, "era_boundary": 2.5e8}),
        ("render_figure7", {}),
    ],
)
def test_renderers_match_the_analysis_functions(render, kwargs, traces):
    def rendered(module):
        try:
            return getattr(module, render)(trace, **kwargs)
        except Exception as exc:  # noqa: BLE001 — errors must match too
            return f"{type(exc).__name__}: {exc}"

    trace = traces["systems-13-20-and-23"]
    assert rendered(report) == rendered(reference)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rows_the_fold_cannot_take_fail_their_sections(bad, traces):
    trace = traces["system-20"]
    broken = FailureTrace(
        list(trace.records)
        + [
            FailureRecord(
                start_time=bad,
                end_time=bad,
                system_id=20,
                node_id=1,
                root_cause=RootCause.HARDWARE,
            )
        ]
    )
    with np.errstate(invalid="ignore"):
        paper = run_paper_report(broken)
    statuses = {section.name: section.status for section in paper.sections}
    assert statuses.pop("table1") == statuses.pop("table3") == "ok"
    assert set(statuses.values()) == {"failed"}
    assert len({section.error for section in paper.failed}) == 1
