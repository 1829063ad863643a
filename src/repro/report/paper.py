"""One renderer per paper artifact.

Each ``render_*`` function takes a trace (and options), folds it as one
chunk into a :class:`~repro.analysis.outofcore.PaperAccumulator` aimed
at the requested targets, and returns the printable reproduction of
the paper's table or figure from that accumulator's section builder
(:func:`repro.report.streaming.section_builders`, the report's one
implementation).  The bench for each artifact calls exactly one of
these.  This module also holds the text formatters those builders
share and the per-section error isolation of :func:`run_sections`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Dict, Mapping, Tuple

import numpy as np

from repro import obs
from repro.analysis.lifecycle import classify_lifecycle
from repro.analysis.outofcore import DEFAULT_ERA_BOUNDARY, PaperAccumulator
from repro.analysis.periodicity import WEEKDAY_NAMES
from repro.analysis.related import RELATED_STUDIES
from repro.records.record import HIGH_LEVEL_CAUSES
from repro.stats.errors import DegenerateSampleError
from repro.records.trace import FailureTrace
from repro.report.charts import (
    bar_chart,
    cdf_plot,
    cdf_plot_weighted,
    series_plot,
    stacked_bars,
)
from repro.report.tables import format_table

__all__ = [
    "render_table1",
    "render_table2",
    "render_table3",
    "render_figure1",
    "render_figure2",
    "render_figure3",
    "render_figure4",
    "render_figure5",
    "render_figure6",
    "render_figure7",
    "SectionResult",
    "PaperReport",
    "SECTIONS",
    "run_sections",
    "run_paper_report",
]

ERA_BOUNDARY = DEFAULT_ERA_BOUNDARY

#: The paper's sections in report order.  Both report paths render them
#: in this order, and ``repro report --artifact`` takes these names.
SECTIONS = (
    "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "table2",
    "fig7", "table3",
)


def _fold(
    trace: FailureTrace, graphics_nodes=(21, 22, 23), **targets
) -> Tuple[PaperAccumulator, Dict[str, Callable[[], str]]]:
    """``trace`` folded as one chunk, and the section builders over it.

    ``targets`` are :class:`PaperAccumulator`'s figure targets.
    """
    # Imported here: repro.report.streaming imports this module.
    from repro.report.streaming import section_builders

    accumulator = PaperAccumulator(
        trace.systems, trace.data_start, trace.data_end, **targets
    )
    builders = section_builders(accumulator, graphics_nodes)
    try:
        with obs.span("report.scan", mode="trace", rows=len(trace)):
            accumulator.observe(trace.columns)
    except Exception as exc:  # noqa: BLE001 — isolated per section below
        # A trace the fold cannot take (non-finite times, say) fails the
        # sections that read its rows, not the whole report.
        def fail(error=exc):
            raise error

        builders = {
            name: build if name in ("table1", "table3") else fail
            for name, build in builders.items()
        }
    return accumulator, builders


def _render(name: str, trace: FailureTrace, **options) -> str:
    """One section of ``trace``'s report; ``options`` go to :func:`_fold`."""
    return _fold(trace, **options)[1][name]()


def render_table1(trace: FailureTrace) -> str:
    """Table 1: overview of the systems in the trace's inventory."""
    return _format_table1(trace.systems)


def _format_table1(systems) -> str:
    """Table 1 text from an inventory mapping (trace- or manifest-fed)."""
    rows = []
    total_nodes = 0
    total_procs = 0
    for system_id in sorted(systems.keys()):
        config = systems[system_id]
        total_nodes += config.node_count
        total_procs += config.processor_count
        for index, category in enumerate(config.categories):
            rows.append(
                (
                    system_id if index == 0 else "",
                    config.hardware_type.value if index == 0 else "",
                    config.architecture.value.upper() if index == 0 else "",
                    config.node_count if index == 0 else "",
                    config.processor_count if index == 0 else "",
                    category.node_count,
                    category.procs_per_node,
                    f"{category.production_start} - {category.production_end}",
                    f"{category.memory_gb:g}",
                    category.nics,
                )
            )
    table = format_table(
        ("ID", "HW", "Arch", "Nodes", "Procs", "Cat nodes", "Procs/node",
         "Production", "Mem (GB)", "NICs"),
        rows,
        title="Table 1: overview of systems",
    )
    return f"{table}\n\nTotals: {total_nodes} nodes, {total_procs} processors"


def render_table2(trace: FailureTrace) -> str:
    """Table 2: repair-time statistics by root cause (minutes)."""
    return _render("table2", trace)


def _format_table2(by_cause) -> str:
    """Table 2 text from :class:`RepairByCauseRow` rows."""
    rows = [
        (
            row.label,
            row.n,
            f"{row.mean:.0f}",
            f"{row.median:.0f}",
            f"{row.std:.0f}",
            f"{row.squared_cv:.0f}",
        )
        for row in by_cause
    ]
    return format_table(
        ("Root cause", "n", "Mean (min)", "Median (min)", "Std dev (min)", "C^2"),
        rows,
        title="Table 2: time to repair as a function of root cause",
    )


def render_table3() -> str:
    """Table 3: overview of related studies (literature metadata)."""
    rows = [
        (
            study.reference,
            study.date,
            study.length,
            study.environment,
            study.data_type,
            study.n_failures if study.n_failures is not None else "N/A",
            study.statistics,
        )
        for study in RELATED_STUDIES
    ]
    return format_table(
        ("Study", "Date", "Length", "Environment", "Type of data", "# Failures", "Statistics"),
        rows,
        title="Table 3: overview of related studies",
        align="lrlllll",
    )


def render_figure1(trace: FailureTrace) -> str:
    """Figure 1: root-cause breakdown of failures (a) and downtime (b)."""
    return _render("fig1", trace)


def _format_figure1(failure_breakdowns, downtime_breakdowns) -> str:
    """Figure 1 text from label -> :class:`CauseBreakdown` mappings."""
    sections = []
    for panel, breakdowns in (
        ("(a) failures by root cause (%)", failure_breakdowns),
        ("(b) downtime by root cause (%)", downtime_breakdowns),
    ):
        groups = {
            label: {
                cause.value: breakdown.percent(cause) for cause in HIGH_LEVEL_CAUSES
            }
            for label, breakdown in breakdowns.items()
        }
        rows = [
            (label,) + tuple(f"{breakdown.percent(c):.1f}" for c in HIGH_LEVEL_CAUSES)
            for label, breakdown in breakdowns.items()
        ]
        table = format_table(
            ("Group",) + tuple(c.value for c in HIGH_LEVEL_CAUSES),
            rows,
            title=f"Figure 1{panel}",
        )
        sections.append(table + "\n\n" + stacked_bars(groups))
    return "\n\n".join(sections)


def render_figure2(trace: FailureTrace) -> str:
    """Figure 2: failures/year per system, raw (a) and per processor (b)."""
    return _render("fig2", trace)


def _format_figure2(rates, variability) -> str:
    """Figure 2 text from :class:`SystemRate` rows and CV mapping."""
    chart_a = bar_chart(
        [f"{rate.system_id} ({rate.hardware_type.value})" for rate in rates],
        [rate.per_year for rate in rates],
        title="Figure 2(a): average failures per year per system",
    )
    chart_b = bar_chart(
        [f"{rate.system_id} ({rate.hardware_type.value})" for rate in rates],
        [rate.per_year_per_proc for rate in rates],
        title="Figure 2(b): failures per year per processor",
        value_format="{:.3f}",
    )
    footer = "\n".join(
        f"  CV[{name}] = {value:.3f}" for name, value in variability.items()
    )
    return f"{chart_a}\n\n{chart_b}\n\nRate variability (coefficient of variation):\n{footer}"


def render_figure3(
    trace: FailureTrace, system_id: int = 20, graphics_nodes=(21, 22, 23)
) -> str:
    """Figure 3: failures per node of system 20 and count-CDF fits."""
    return _render(
        "fig3", trace, graphics_nodes=graphics_nodes, fig3_system=system_id
    )


def _format_figure3(system_id, graphics_nodes, counts, share, study) -> str:
    """Figure 3 text from per-node counts, share, and the count study."""
    chart = bar_chart(
        [str(node_id) for node_id in sorted(counts.keys())],
        [counts[node_id] for node_id in sorted(counts.keys())],
        width=40,
        title=f"Figure 3(a): failures per node, system {system_id}",
        value_format="{:.0f}",
    )
    fit_lines = "\n".join("  " + fit.describe() for fit in study.fits)
    plot = cdf_plot(
        np.asarray(study.counts, dtype=float),
        {fit.name: fit.distribution for fit in study.fits},
        log_x=False,
        title="Figure 3(b): CDF of failures per compute node, with fits",
    )
    return (
        f"{chart}\n\n"
        f"Graphics nodes {list(graphics_nodes)}: "
        f"{100 * len(graphics_nodes) / len(counts):.0f}% of nodes, "
        f"{100 * share:.0f}% of failures\n\n"
        f"Figure 3(b) fits (ranked by negative log-likelihood):\n{fit_lines}\n\n{plot}"
    )


def render_figure4(trace: FailureTrace, system_ids=(5, 19)) -> str:
    """Figure 4: failures per month vs system age for two systems."""
    return _render("fig4", trace, fig4_systems=system_ids)


def _format_figure4(curves) -> str:
    """Figure 4 text from ``(system_id, LifecycleCurve)`` pairs."""
    sections = []
    for system_id, curve in curves:
        if sum(curve.totals) == 0:
            sections.append(
                f"Figure 4: system {system_id} has no failures in this trace"
            )
            continue
        shape = classify_lifecycle(curve)
        plot = series_plot(
            curve.totals,
            title=(
                f"Figure 4: system {system_id} failures/month "
                f"(classified: {shape})"
            ),
            x_label=f"months in production (0..{curve.months - 1})",
        )
        top_causes = sorted(
            curve.by_cause.items(), key=lambda kv: -sum(kv[1])
        )[:3]
        cause_lines = "\n".join(
            f"  {cause.value}: {sum(values)} failures" for cause, values in top_causes
        )
        sections.append(f"{plot}\nTop causes:\n{cause_lines}")
    return "\n\n".join(sections)


def render_figure5(trace: FailureTrace) -> str:
    """Figure 5: failures by hour of day and day of week."""
    return _render("fig5", trace)


def _format_figure5(study) -> str:
    """Figure 5 text from a :class:`PeriodicityStudy`."""
    hours = bar_chart(
        [f"{hour:02d}" for hour in range(24)],
        list(study.hourly),
        width=40,
        title="Figure 5 (left): failures by hour of day",
        value_format="{:.0f}",
    )
    days = bar_chart(
        list(WEEKDAY_NAMES),
        list(study.weekday),
        width=40,
        title="Figure 5 (right): failures by day of week",
        value_format="{:.0f}",
    )
    return (
        f"{hours}\n\n{days}\n\n"
        f"peak/trough ratio: {study.peak_trough_ratio:.2f} "
        f"(peak {study.peak_hour}:00, trough {study.trough_hour}:00)\n"
        f"weekday/weekend ratio: {study.weekday_weekend_ratio:.2f}\n"
        f"Monday spike (delayed-detection check): {study.monday_spike:.2f}"
    )


def render_figure6(
    trace: FailureTrace,
    system_id: int = 20,
    node_id: int = 22,
    era_boundary: float = ERA_BOUNDARY,
) -> str:
    """Figure 6: interarrival CDFs, node/system x early/late."""
    return _render(
        "fig6",
        trace,
        era_boundary=era_boundary,
        fig6_system=system_id,
        fig6_node=node_id,
    )


def _sample_plot(sample, fits, title: str) -> str:
    """A Figure 6/7 CDF plot of a sketched duration sample with its fits.

    Plots the exact sample while the sketch holds it, else its
    histogram; values are floored at the sketch's clamp epsilon, as for
    the fits (zeros cannot sit on the log axis).
    """
    models = {fit.name: fit.distribution for fit in fits}
    floor = sample.clamp_epsilon
    ordered = sample.ordered
    if ordered is not None:
        # The floor is monotone, so the floored copy stays sorted.
        return cdf_plot(np.maximum(ordered, floor), models, title=title)
    points, weights = sample.histogram.representatives()
    return cdf_plot_weighted(
        np.maximum(points, floor), weights, models, title=title
    )


def _format_figure6_panel(panel, n, squared_cv, zero_fraction, fits, plot) -> str:
    """One Figure 6 panel's text from its summary numbers and plot."""
    fit_lines = "\n".join("  " + fit.describe() for fit in fits)
    return (
        f"Figure 6{panel}: n={n}  C^2={squared_cv:.2f}  "
        f"zero gaps={100 * zero_fraction:.1f}%\n{fit_lines}\n{plot}"
    )


@dataclass(frozen=True)
class SectionResult:
    """Outcome of rendering one paper artifact.

    Attributes
    ----------
    name:
        Artifact name (``"table1"``, ``"fig6"``, ...).
    status:
        ``"ok"``; ``"degraded"`` when the section's analysis raised
        :class:`~repro.stats.errors.DegenerateSampleError` (the data is
        too thin for this artifact — expected on sparse or corrupted
        traces); ``"failed"`` for any other exception (a bug or an
        unanticipated data condition).
    text:
        The rendered artifact when ok, else empty.
    error:
        ``"ExceptionType: message"`` when not ok, else empty.
    partial:
        True when the section was computed from a deadline-truncated
        scan (out-of-core path with ``on_deadline="partial"``): the
        numbers cover only the scanned prefix of the store.
    approximate:
        True when the section read a sample past
        :data:`~repro.stats.sketch.EXACT_LIMIT` off its histogram.
    """

    name: str
    status: str
    text: str = ""
    error: str = ""
    partial: bool = False
    approximate: bool = False

    @property
    def ok(self) -> bool:
        """True when the section rendered."""
        return self.status == "ok"

    @property
    def degraded(self) -> bool:
        """True when the section's data was too thin to render."""
        return self.status == "degraded"

    @property
    def crashed(self) -> bool:
        """True when the section failed for a non-degenerate reason."""
        return self.status == "failed"


@dataclass(frozen=True)
class PaperReport:
    """The whole-paper report with per-section error isolation."""

    sections: Tuple[SectionResult, ...]

    @property
    def ok(self) -> bool:
        """True when every section rendered."""
        return all(section.ok for section in self.sections)

    @property
    def failed(self) -> Tuple[SectionResult, ...]:
        """The sections that did not render (degraded and crashed)."""
        return tuple(section for section in self.sections if not section.ok)

    @property
    def degraded(self) -> Tuple[SectionResult, ...]:
        """The sections skipped because their data was too thin."""
        return tuple(section for section in self.sections if section.degraded)

    @property
    def crashed(self) -> Tuple[SectionResult, ...]:
        """The sections that failed for a non-degenerate reason."""
        return tuple(section for section in self.sections if section.crashed)

    def diagnostics(self) -> str:
        """One line per section: ok, or the failure it degraded with."""
        lines = []
        for section in self.sections:
            if section.ok:
                note = (
                    " (approximate: a sample past the exact limit, read "
                    "off its histogram)" if section.approximate else ""
                )
                lines.append(f"{section.name:<8} ok{note}")
            elif section.degraded:
                lines.append(
                    f"{section.name:<8} DEGRADED (thin data): {section.error}"
                )
            else:
                lines.append(f"{section.name:<8} FAILED: {section.error}")
        return "\n".join(lines)

    def render(self, divider: str = "\n\n" + "=" * 78 + "\n\n") -> str:
        """The full report text; failed sections render as diagnostics."""
        parts = []
        for section in self.sections:
            if section.ok:
                parts.append(section.text)
            else:
                parts.append(
                    f"[{section.name} unavailable on this trace: {section.error}]"
                )
        return divider.join(parts)


def run_sections(
    builders: Mapping[str, Callable[[], str]],
    degraded_read=None,
    *,
    partial: bool = False,
    span: str = "report",
    approximate: Collection[str] = (),
) -> PaperReport:
    """Render ``builders`` in :data:`SECTIONS` order, isolating failures.

    A :class:`DegenerateSampleError` degrades its section (the data is
    too thin for it); any other exception fails it, unless
    ``degraded_read`` is truthy: the input is known to be incomplete, so
    a section that cannot cope is a data gap, not a report bug.
    ``partial`` marks every section as computed from a truncated scan,
    and ``approximate`` names the sections that, when they render, are
    read off a histogram (:meth:`PaperAccumulator.approximate_sections`).
    """
    names = [name for name in SECTIONS if name in builders]
    sections = []
    with obs.span(span, sections=len(names)):
        for name in names:
            try:
                with obs.span("report.section", section=name):
                    section = SectionResult(
                        name=name,
                        status="ok",
                        text=builders[name](),
                        partial=partial,
                        approximate=name in approximate,
                    )
            except Exception as exc:  # noqa: BLE001 — isolation is the point
                thin = degraded_read or isinstance(exc, DegenerateSampleError)
                section = SectionResult(
                    name=name,
                    status="degraded" if thin else "failed",
                    error=f"{type(exc).__name__}: {exc}",
                    partial=partial,
                )
            sections.append(section)
    return PaperReport(sections=tuple(sections))


def run_paper_report(trace: FailureTrace, degraded_read=None) -> PaperReport:
    """Render every paper artifact, isolating failures per section.

    The trace is folded as one chunk into one
    :class:`~repro.analysis.outofcore.PaperAccumulator`, and every
    section renders from it — the same builders the store path uses,
    and the same text as calling each ``render_*`` in sequence.  On
    degraded traces (sparse slices, corrupt-but-ingested data) a
    section whose analysis cannot run — a degenerate fit, an empty era,
    a missing system — yields a diagnostics entry instead of aborting
    the whole report.

    ``degraded_read`` is the :class:`repro.store.DegradedReadReport`
    from a store opened with ``on_damage="skip"`` (or ``None``).  When
    truthy, *any* section exception classifies as ``degraded`` rather
    than ``failed``: the trace is known-incomplete, so a section that
    cannot cope is a data gap, not a report bug.

    A store's report without materializing the trace — one
    bounded-memory streaming pass through sketches — is
    :func:`repro.report.streaming.run_store_report`.
    """
    accumulator, builders = _fold(trace)
    return run_sections(
        builders,
        degraded_read,
        approximate=accumulator.approximate_sections(),
    )


def render_figure7(trace: FailureTrace) -> str:
    """Figure 7: repair-time CDF with fits; mean/median per system."""
    return _render("fig7", trace)


def _format_figure7(fits, plot, per_system) -> str:
    """Figure 7 text from ranked fits, a rendered CDF plot, and
    per-system repair rows."""
    fit_lines = "\n".join("  " + fit.describe() for fit in fits)
    mean_chart = bar_chart(
        [str(system_id) for system_id in per_system],
        [row.mean for row in per_system.values()],
        width=40,
        title="Figure 7(b): mean repair time per system (min)",
        value_format="{:.0f}",
    )
    median_chart = bar_chart(
        [str(system_id) for system_id in per_system],
        [row.median for row in per_system.values()],
        width=40,
        title="Figure 7(c): median repair time per system (min)",
        value_format="{:.0f}",
    )
    return f"Figure 7(a) fits:\n{fit_lines}\n\n{plot}\n\n{mean_chart}\n\n{median_chart}"
