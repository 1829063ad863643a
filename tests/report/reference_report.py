"""The paper report computed by the analysis functions, as an oracle.

Every section here calls the trace-level study functions of
:mod:`repro.analysis` and formats their results with the formatters of
:mod:`repro.report.paper`.  :func:`reference_report` is what
``run_paper_report(trace)`` must equal, section by section, now that
the report folds the trace through
:class:`~repro.analysis.outofcore.PaperAccumulator` instead.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.analysis.interarrival import (
    node_interarrivals,
    split_eras,
    system_interarrivals,
)
from repro.analysis.lifecycle import monthly_failures
from repro.analysis.pernode import failures_per_node, node_count_study, node_share
from repro.analysis.periodicity import periodicity_study
from repro.analysis.rates import failure_rates, normalized_variability
from repro.analysis.repair import (
    repair_by_system,
    repair_fit_study,
    repair_statistics_by_cause,
)
from repro.analysis.rootcause import (
    breakdown_by_hardware_type,
    downtime_breakdown_by_hardware_type,
)
from repro.records.trace import FailureTrace
from repro.report.charts import cdf_plot
from repro.report.paper import (
    ERA_BOUNDARY,
    PaperReport,
    _format_figure1,
    _format_figure2,
    _format_figure3,
    _format_figure4,
    _format_figure5,
    _format_figure6_panel,
    _format_figure7,
    _format_table2,
    render_table1,
    render_table3,
    run_sections,
)


def render_table2(trace: FailureTrace) -> str:
    return _format_table2(repair_statistics_by_cause(trace))


def render_figure1(trace: FailureTrace) -> str:
    return _format_figure1(
        breakdown_by_hardware_type(trace),
        downtime_breakdown_by_hardware_type(trace),
    )


def render_figure2(trace: FailureTrace) -> str:
    return _format_figure2(failure_rates(trace), normalized_variability(trace))


def render_figure3(
    trace: FailureTrace, system_id: int = 20, graphics_nodes=(21, 22, 23)
) -> str:
    counts = failures_per_node(trace, system_id)
    share = node_share(trace, system_id, graphics_nodes)
    study = node_count_study(trace, system_id)
    return _format_figure3(system_id, graphics_nodes, counts, share, study)


def render_figure4(trace: FailureTrace, system_ids=(5, 19)) -> str:
    return _format_figure4(
        [(system_id, monthly_failures(trace, system_id)) for system_id in system_ids]
    )


def render_figure5(trace: FailureTrace) -> str:
    return _format_figure5(periodicity_study(trace))


def render_figure6(
    trace: FailureTrace,
    system_id: int = 20,
    node_id: int = 22,
    era_boundary: float = ERA_BOUNDARY,
) -> str:
    reference = trace.filter_systems([system_id])
    early, late = split_eras(reference, era_boundary)
    sections = []
    for panel, study in (
        ("(a) node view, early era", node_interarrivals(early, system_id, node_id)),
        ("(b) node view, late era", node_interarrivals(late, system_id, node_id)),
        ("(c) system view, early era", system_interarrivals(early, system_id)),
        ("(d) system view, late era", system_interarrivals(late, system_id)),
    ):
        gaps = np.maximum(np.asarray(study.gaps), 1.0)  # clamp zeros for log-x
        plot = cdf_plot(
            gaps,
            {fit.name: fit.distribution for fit in study.fits},
            title=f"Figure 6{panel}: time between failures (s)",
        )
        sections.append(
            _format_figure6_panel(
                panel,
                study.n,
                study.summary.squared_cv,
                study.zero_fraction,
                study.fits,
                plot,
            )
        )
    return "\n\n".join(sections)


def render_figure7(trace: FailureTrace) -> str:
    fits = repair_fit_study(trace)
    minutes = np.maximum(trace.repair_minutes(), 0.1)
    plot = cdf_plot(
        minutes,
        {fit.name: fit.distribution for fit in fits},
        title="Figure 7(a): CDF of repair time (minutes) with fits",
    )
    return _format_figure7(fits, plot, repair_by_system(trace))


def trace_sections(trace: FailureTrace) -> Dict[str, Callable[[], str]]:
    """Each section's renderer over a materialized trace, by name."""
    return {
        "table1": lambda: render_table1(trace),
        "fig1": lambda: render_figure1(trace),
        "fig2": lambda: render_figure2(trace),
        "fig3": lambda: render_figure3(trace),
        "fig4": lambda: render_figure4(trace),
        "fig5": lambda: render_figure5(trace),
        "fig6": lambda: render_figure6(trace.filter_systems([20])),
        "table2": lambda: render_table2(trace),
        "fig7": lambda: render_figure7(trace),
        "table3": render_table3,
    }


def reference_report(trace: FailureTrace, degraded_read=None) -> PaperReport:
    """The whole report by the analysis functions, failures isolated."""
    return run_sections(trace_sections(trace), degraded_read)
