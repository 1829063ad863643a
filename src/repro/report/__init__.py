"""Text-mode rendering of tables and figures.

The toolkit has no plotting dependency; every bench prints the paper's
artifacts using these renderers, and every analysis returns plain data
a user can hand to matplotlib instead.

* :mod:`~repro.report.tables` — aligned ASCII tables.
* :mod:`~repro.report.charts` — horizontal bar charts, CDF comparison
  plots, and stacked-percentage bars, all as strings.
* :mod:`~repro.report.paper` — one renderer per paper artifact
  (Table 1/2/3, Figures 1-7).
* :mod:`~repro.report.streaming` — the same report folded from a
  columnar store in bounded memory.
"""

from repro.report.tables import format_table
from repro.report.charts import (
    bar_chart,
    cdf_plot,
    cdf_plot_weighted,
    series_plot,
    stacked_bars,
)
from repro.report.paper import (
    PaperReport,
    SectionResult,
    run_paper_report,
    render_figure1,
    render_figure2,
    render_figure3,
    render_figure4,
    render_figure5,
    render_figure6,
    render_figure7,
    render_table1,
    render_table2,
    render_table3,
)
from repro.report.streaming import StoreReport, run_store_report

__all__ = [
    "format_table",
    "bar_chart",
    "cdf_plot",
    "cdf_plot_weighted",
    "series_plot",
    "stacked_bars",
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
    "PaperReport",
    "SectionResult",
    "run_paper_report",
    "StoreReport",
    "run_store_report",
]
