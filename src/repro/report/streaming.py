"""The paper report from a :class:`~repro.analysis.outofcore.PaperAccumulator`.

:func:`section_builders` is the report's one implementation: each
paper artifact rendered from a folded accumulator through the
formatters of :mod:`repro.report.paper`.  Two entry points fill the
accumulator:

* :func:`run_store_report` — one bounded-memory streaming pass over
  :meth:`~repro.store.reader.ColumnarStore.iter_batches`, in process;
  no :class:`~repro.records.trace.FailureTrace` is ever materialized.
* :func:`~repro.report.paper.run_paper_report` — an in-memory trace,
  folded as one chunk.

Both entry points fold the same rows into the same state, so a store's
report equals ``run_paper_report(store.to_trace())``: all ten sections
are byte-identical while every repair sample (overall, per cause, per
system) and every Figure 6 panel holds at most
:data:`~repro.stats.sketch.EXACT_LIMIT` values, in any chunking, and
Figure 6 in any row order.  Past the limit both entry points read
medians, fits and CDFs off the log-bucket histogram, within
:data:`~repro.stats.sketch.QUANTILE_RELATIVE_ERROR` of the exact ones,
and mark the section ``approximate``; Figure 6 then needs its starts in
time order.  Float sums (Figure 1's downtime, the means) follow chunk
order; they agree to last-ulp rounding, which the printed precision
absorbs.

Degenerate-data behaviour is the same on both entry points: the
finishers raise the exception types and messages the paper's analysis
functions raise, so a thin trace degrades the same sections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from repro.analysis.errors import DegenerateSampleError
from repro.analysis.outofcore import PaperAccumulator, scan_store
from repro.analysis.rates import variability_from_rates
from repro.report.paper import (
    PaperReport,
    _format_figure1,
    _format_figure2,
    _format_figure3,
    _format_figure4,
    _format_figure5,
    _format_figure6_panel,
    _format_figure7,
    _format_table1,
    _format_table2,
    _sample_plot,
    render_table3,
    run_sections,
)
from repro.resilience.deadline import Deadline
from repro.stats.streamfit import sketch_empirical, sketch_fit_all
from repro.store.reader import DEFAULT_BATCH_ROWS, ColumnarStore

__all__ = ["StoreReport", "run_store_report", "section_builders"]


@dataclass(frozen=True)
class StoreReport:
    """A paper report rendered out-of-core, with scan metadata.

    Attributes
    ----------
    report:
        The :class:`~repro.report.paper.PaperReport`; identical shape
        to the materialized path's, with ``partial=True`` on every
        section when the scan was deadline-truncated.
    partial:
        ``None`` for a complete scan, else the truncation descriptor
        (``reason`` / ``rows_seen`` / ``rows_total``).
    degraded:
        ``None`` for a clean read, else the degraded-read dict (shards
        skipped, coverage) from a store opened with
        ``on_damage="skip"``.
    """

    report: PaperReport
    partial: Optional[dict] = None
    degraded: Optional[dict] = None

    def to_dict(self) -> dict:
        """JSON-ready form (the ``/v1/report`` response body)."""
        return {
            "sections": [
                {
                    "name": section.name,
                    "status": section.status,
                    "text": section.text,
                    "error": section.error,
                    "partial": section.partial,
                    "approximate": section.approximate,
                }
                for section in self.report.sections
            ],
            "ok": self.report.ok,
            "partial": self.partial,
            "degraded": self.degraded,
        }


def _figure2_section(accumulator: PaperAccumulator) -> str:
    rates = accumulator.failure_rates()
    return _format_figure2(rates, variability_from_rates(rates))


def _figure6_section(accumulator: PaperAccumulator) -> str:
    # Check and fit all four panels before plotting any, as the
    # per-panel interarrival studies do, so a figure that fails reports
    # the error they would.
    studies = []
    for panel, label, segment in accumulator.interarrival_segments():
        gaps = segment.gaps()
        if gaps.count < 8:
            raise DegenerateSampleError(
                f"only {gaps.count} interarrivals in {label}; need >= 8"
            )
        studies.append(
            (panel, gaps, sketch_empirical(gaps), sketch_fit_all(gaps))
        )
    sections = []
    for panel, gaps, summary, fits in studies:
        plot = _sample_plot(
            gaps, fits, f"Figure 6{panel}: time between failures (s)"
        )
        sections.append(
            _format_figure6_panel(
                panel,
                gaps.count,
                summary.squared_cv,
                gaps.zero_fraction,
                fits,
                plot,
            )
        )
    return "\n\n".join(sections)


def _figure7_section(accumulator: PaperAccumulator) -> str:
    n = accumulator.repairs.count
    if n < 8:
        raise DegenerateSampleError(f"only {n} repairs; need >= 8")
    fits = sketch_fit_all(accumulator.repairs)
    plot = _sample_plot(
        accumulator.repairs,
        fits,
        "Figure 7(a): CDF of repair time (minutes) with fits",
    )
    return _format_figure7(fits, plot, accumulator.repairs_by_system())


def section_builders(
    accumulator: PaperAccumulator, graphics_nodes: Sequence[int] = (21, 22, 23)
) -> Dict[str, Callable[[], str]]:
    """Each paper section's renderer over a folded accumulator, by name.

    ``graphics_nodes`` are the Figure 3 nodes whose share of failures
    the figure reports; the other figure targets are the accumulator's.
    """
    return {
        "table1": lambda: _format_table1(accumulator.systems),
        "fig1": lambda: _format_figure1(*accumulator.cause_breakdowns()),
        "fig2": lambda: _figure2_section(accumulator),
        "fig3": lambda: _format_figure3(
            accumulator.fig3_system,
            graphics_nodes,
            accumulator.failures_per_node(),
            accumulator.node_share(graphics_nodes),
            accumulator.node_count_study(),
        ),
        "fig4": lambda: _format_figure4(accumulator.lifecycle_curves()),
        "fig5": lambda: _format_figure5(accumulator.periodicity()),
        "fig6": lambda: _figure6_section(accumulator),
        "table2": lambda: _format_table2(accumulator.repair_rows()),
        "fig7": lambda: _figure7_section(accumulator),
        "table3": render_table3,
    }


def run_store_report(
    store: ColumnarStore,
    *,
    deadline: Optional[Deadline] = None,
    on_deadline: str = "raise",
    batch_rows: int = DEFAULT_BATCH_ROWS,
) -> StoreReport:
    """Render the whole paper report out-of-core from ``store``.

    One streaming scan (see :func:`repro.analysis.outofcore.scan_store`
    for the deadline semantics), then per-section
    rendering through :func:`~repro.report.paper.run_sections`, the
    same error isolation as :func:`~repro.report.paper.run_paper_report`:
    a :class:`DegenerateSampleError` degrades the section, anything else
    fails it — unless the store read itself was degraded
    (``on_damage="skip"`` with shards skipped), in which case every
    section exception classifies as degraded.
    """
    accumulator, partial = scan_store(
        store,
        PaperAccumulator,
        deadline=deadline,
        on_deadline=on_deadline,
        batch_rows=batch_rows,
    )
    degraded_read = bool(store.degraded)
    report = run_sections(
        section_builders(accumulator),
        degraded_read,
        partial=partial is not None,
        span="report.streaming",
        approximate=accumulator.approximate_sections(),
    )
    return StoreReport(
        report=report,
        partial=partial,
        degraded=store.degraded.to_dict() if degraded_read else None,
    )
