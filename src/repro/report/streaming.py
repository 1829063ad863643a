"""The full paper report straight from a columnar store.

:func:`run_store_report` renders every paper artifact from one
bounded-memory streaming pass over
:meth:`~repro.store.reader.ColumnarStore.iter_batches` — no
:class:`~repro.records.trace.FailureTrace` is ever materialized.  The
scan folds chunks into a :class:`~repro.analysis.outofcore.PaperAccumulator`
(optionally sharded across supervised worker processes and merged
associatively); section builders then read the exact counts and
sketches back out through the same formatters the materialized
renderers use.

Section-for-section equivalence with ``run_paper_report(trace)``:

========  ==========================================================
section   fidelity vs the materialized report
========  ==========================================================
table1    byte-identical (manifest inventory only)
fig1      byte-identical in practice (integer counts; downtime sums
          agree to last-ulp rounding absorbed by the ``.1f`` format)
fig2      byte-identical (exact integer counts -> identical floats)
fig3      byte-identical (exact per-node counts and workloads)
fig4      byte-identical (exact monthly integer grids)
fig5      byte-identical (exact hour/weekday bins)
fig6      within sketch epsilon (quantiles/fits from the log-bucket
          histogram; moments and C^2 exact)
table2    within sketch epsilon (medians sketched; n/mean/std exact)
fig7      within sketch epsilon (same)
table3    byte-identical (literature metadata, no data at all)
========  ==========================================================

Degenerate-data behaviour also mirrors the materialized path: the
finishers raise the same exception types with the same messages, so a
section that degrades on a thin trace degrades identically here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.errors import DegenerateSampleError
from repro.analysis.outofcore import PaperAccumulator, scan_store
from repro.report.charts import cdf_plot_weighted
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
    render_table3,
    run_sections,
)
from repro.resilience.deadline import Deadline
from repro.stats.streamfit import sketch_empirical, sketch_fit_all
from repro.store.reader import DEFAULT_BATCH_ROWS, ColumnarStore

__all__ = ["StoreReport", "run_store_report"]

#: Clamp floors used by the materialized plots (np.maximum before
#: cdf_plot): 1 s for interarrival gaps, 0.1 min for repair times.
_GAP_PLOT_FLOOR = 1.0
_REPAIR_PLOT_FLOOR = 0.1


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
                }
                for section in self.report.sections
            ],
            "ok": self.report.ok,
            "partial": self.partial,
            "degraded": self.degraded,
        }


def _figure3_section(accumulator: PaperAccumulator) -> str:
    graphics_nodes = (21, 22, 23)
    counts = accumulator.failures_per_node()
    share = accumulator.node_share(graphics_nodes)
    study = accumulator.node_count_study()
    return _format_figure3(
        accumulator.fig3_system, graphics_nodes, counts, share, study
    )


def _figure6_section(accumulator: PaperAccumulator) -> str:
    sections = []
    for panel, label, segment in accumulator.interarrival_segments():
        n = segment.gaps.count
        if n < 8:
            raise DegenerateSampleError(
                f"only {n} interarrivals in {label}; need >= 8"
            )
        summary = sketch_empirical(segment.gaps)
        fits = sketch_fit_all(segment.gaps)
        values, weights = segment.gaps.histogram.representatives()
        plot = cdf_plot_weighted(
            np.maximum(values, _GAP_PLOT_FLOOR),
            weights,
            {fit.name: fit.distribution for fit in fits},
            title=f"Figure 6{panel}: time between failures (s)",
        )
        sections.append(
            _format_figure6_panel(
                panel,
                n,
                summary.squared_cv,
                segment.gaps.zero_fraction,
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
    values, weights = accumulator.repairs.histogram.representatives()
    plot = cdf_plot_weighted(
        np.maximum(values, _REPAIR_PLOT_FLOOR),
        weights,
        {fit.name: fit.distribution for fit in fits},
        title="Figure 7(a): CDF of repair time (minutes) with fits",
    )
    return _format_figure7(fits, plot, accumulator.repairs_by_system())


def run_store_report(
    store: ColumnarStore,
    *,
    deadline: Optional[Deadline] = None,
    on_deadline: str = "raise",
    workers: Optional[int] = None,
    batch_rows: int = DEFAULT_BATCH_ROWS,
) -> StoreReport:
    """Render the whole paper report out-of-core from ``store``.

    One streaming scan (see :func:`repro.analysis.outofcore.scan_store`
    for the serial/parallel/deadline semantics), then per-section
    rendering through :func:`~repro.report.paper.run_sections`, the
    same error isolation as :func:`~repro.report.paper.run_paper_report`:
    a :class:`DegenerateSampleError` degrades the section, anything else
    fails it — unless the store read itself was degraded
    (``on_damage="skip"`` with shards skipped), in which case every
    section exception classifies as degraded.
    """
    accumulator, partial = scan_store(
        store,
        deadline=deadline,
        on_deadline=on_deadline,
        workers=workers,
        batch_rows=batch_rows,
    )
    degraded_read = bool(store.degraded)
    builders = {
        "table1": lambda: _format_table1(accumulator.systems),
        "fig1": lambda: _format_figure1(*accumulator.cause_breakdowns()),
        "fig2": lambda: _format_figure2(
            accumulator.failure_rates(), accumulator.variability()
        ),
        "fig3": lambda: _figure3_section(accumulator),
        "fig4": lambda: _format_figure4(accumulator.lifecycle_curves()),
        "fig5": lambda: _format_figure5(accumulator.periodicity()),
        "fig6": lambda: _figure6_section(accumulator),
        "table2": lambda: _format_table2(accumulator.repair_rows()),
        "fig7": lambda: _figure7_section(accumulator),
        "table3": render_table3,
    }
    report = run_sections(
        builders,
        degraded_read,
        partial=partial is not None,
        span="report.streaming",
    )
    return StoreReport(
        report=report,
        partial=partial,
        degraded=store.degraded.to_dict() if degraded_read else None,
    )
