"""Text-mode charts: bars, CDF comparisons, series plots.

Each function returns a string; benches print them so a reader can see
the reproduced figure's shape directly in the bench output.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.stats.errors import DegenerateSampleError

__all__ = [
    "bar_chart",
    "stacked_bars",
    "cdf_plot",
    "cdf_plot_weighted",
    "series_plot",
]

_FULL = "#"


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 50,
    title: Optional[str] = None,
    value_format: str = "{:.1f}",
) -> str:
    """Horizontal bar chart, one bar per label."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    if not labels:
        raise DegenerateSampleError("need at least one bar")
    peak = max(values)
    if peak <= 0:
        raise DegenerateSampleError("all values are non-positive")
    label_width = max(len(str(label)) for label in labels)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        bar = _FULL * max(0, round(width * value / peak))
        rendered = value_format.format(value)
        lines.append(f"{str(label):>{label_width}} |{bar} {rendered}")
    return "\n".join(lines)


def stacked_bars(
    groups: Mapping[str, Mapping[str, float]],
    width: int = 60,
    title: Optional[str] = None,
) -> str:
    """Stacked percentage bars (Figure 1 style).

    Parameters
    ----------
    groups:
        Group label -> {segment label: percentage}.  Percentages should
        sum to ~100 per group.
    """
    if not groups:
        raise DegenerateSampleError("need at least one group")
    # One letter per segment, assigned in first-seen order.
    letters: Dict[str, str] = {}
    for segments in groups.values():
        for name in segments:
            if name not in letters:
                letters[name] = name[0].upper()
    lines = [title] if title else []
    label_width = max(len(g) for g in groups)
    for group, segments in groups.items():
        bar = ""
        for name, value in segments.items():
            bar += letters[name] * max(0, round(width * value / 100.0))
        lines.append(f"{group:>{label_width}} |{bar}")
    legend = "  ".join(f"{letter}={name}" for name, letter in letters.items())
    lines.append(f"legend: {legend}")
    return "\n".join(lines)


def cdf_plot(
    data: Sequence[float],
    models: Mapping[str, object],
    width: int = 64,
    height: int = 16,
    log_x: bool = True,
    title: Optional[str] = None,
) -> str:
    """ASCII CDF plot of the data with model CDFs overlaid.

    Data points render as ``*``; each model gets a digit (1, 2, ...).
    With ``log_x`` the x-axis is logarithmic, matching the paper's
    interarrival and repair figures.
    """
    values = np.asarray(data, dtype=float)
    if not np.all(values[1:] >= values[:-1]):  # sorted data is used as is
        values = np.sort(values)
    if values.size < 2:
        raise DegenerateSampleError("need at least 2 observations")
    positive = values[values > 0]
    if log_x:
        if positive.size < 2:
            raise DegenerateSampleError("log_x requires at least 2 positive observations")
        x_low, x_high = positive[0], positive[-1]
        xs = np.geomspace(x_low, x_high, width)
    else:
        x_low, x_high = values[0], values[-1]
        if x_high <= x_low:
            raise DegenerateSampleError("degenerate data range")
        xs = np.linspace(x_low, x_high, width)
    ecdf = np.searchsorted(values, xs, side="right") / values.size
    return _render_cdf(xs, ecdf, models, width, height, x_low, x_high, log_x, title)


def cdf_plot_weighted(
    values: Sequence[float],
    counts: Sequence[float],
    models: Mapping[str, object],
    width: int = 64,
    height: int = 16,
    log_x: bool = True,
    title: Optional[str] = None,
) -> str:
    """:func:`cdf_plot` over a weighted (histogram) sample.

    ``values`` are ascending distinct sample points (e.g. log-bucket
    representatives) and ``counts`` their multiplicities; the empirical
    step function weights each point accordingly.  This is the
    out-of-core report's plotting path — the ECDF is exact at the
    bucket boundaries, so the rendered curve matches the materialized
    one to the sketch's relative-error bound.
    """
    points = np.asarray(values, dtype=float)
    weights = np.asarray(counts, dtype=float)
    if points.shape != weights.shape:
        raise ValueError("values and counts must have equal length")
    n = float(weights.sum())
    if n < 2:
        raise DegenerateSampleError("need at least 2 observations")
    positive = points > 0
    if log_x:
        if float(weights[positive].sum()) < 2:
            raise DegenerateSampleError("log_x requires at least 2 positive observations")
        kept = points[positive]
        x_low, x_high = kept[0], kept[-1]
        xs = np.geomspace(x_low, x_high, width)
    else:
        x_low, x_high = points[0], points[-1]
        if x_high <= x_low:
            raise DegenerateSampleError("degenerate data range")
        xs = np.linspace(x_low, x_high, width)
    cumulative = np.cumsum(weights)
    index = np.searchsorted(points, xs, side="right")
    ecdf = np.where(index > 0, cumulative[np.maximum(index - 1, 0)], 0.0) / n
    return _render_cdf(xs, ecdf, models, width, height, x_low, x_high, log_x, title)


def _render_cdf(
    xs: np.ndarray,
    ecdf: np.ndarray,
    models: Mapping[str, object],
    width: int,
    height: int,
    x_low: float,
    x_high: float,
    log_x: bool,
    title: Optional[str],
) -> str:
    """Shared grid painter behind both CDF plot variants."""
    grid = [[" "] * width for _ in range(height)]

    def paint(curve: np.ndarray, symbol: str) -> None:
        for column, p in enumerate(curve.tolist()):
            row = height - 1 - int(min(max(p, 0.0), 0.999) * height)
            if grid[row][column] == " ":
                grid[row][column] = symbol

    for index, (name, model) in enumerate(models.items(), start=1):
        paint(np.asarray(model.cdf(xs), dtype=float), str(index % 10))
    paint(ecdf, "*")
    lines = [title] if title else []
    for row_index, row in enumerate(grid):
        p = 1.0 - row_index / height
        prefix = f"{p:4.2f} |" if row_index % 4 == 0 else "     |"
        lines.append(prefix + "".join(row))
    lines.append("     +" + "-" * width)
    lines.append(f"      x: {x_low:.3g} .. {x_high:.3g}" + (" (log)" if log_x else ""))
    legend = "  ".join(
        f"{index % 10}={name}" for index, name in enumerate(models.keys(), start=1)
    )
    lines.append(f"      *=data  {legend}")
    return "\n".join(lines)


def series_plot(
    values: Sequence[float],
    width: int = 72,
    height: int = 14,
    title: Optional[str] = None,
    x_label: str = "",
) -> str:
    """ASCII line plot of a series (Figure 4 style: failures/month)."""
    series = np.asarray(values, dtype=float)
    if series.size < 2:
        raise DegenerateSampleError("need at least 2 points")
    peak = series.max()
    if peak <= 0:
        raise DegenerateSampleError("all values are non-positive")
    columns = np.linspace(0, series.size - 1, min(width, series.size)).astype(int)
    sampled = series[columns]
    grid = [[" "] * len(columns) for _ in range(height)]
    for column, value in enumerate(sampled):
        row = height - 1 - int(min(value / peak, 0.999) * height)
        grid[row][column] = "*"
    lines = [title] if title else []
    for row_index, row in enumerate(grid):
        level = peak * (1.0 - row_index / height)
        prefix = f"{level:7.1f} |" if row_index % 4 == 0 else "        |"
        lines.append(prefix + "".join(row))
    lines.append("        +" + "-" * len(columns))
    if x_label:
        lines.append(f"         {x_label}")
    return "\n".join(lines)
