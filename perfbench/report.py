"""The ``report`` and ``trace`` workloads: the paper report from a store.

Both render every paper artifact (Tables 1-3, Figures 1-7) from the
same prebuilt store, by the two paths the program offers:

- ``report``: ``run_store_report`` folds ``iter_batches`` chunks into
  mergeable sketches, never materializing the trace (scan + fold).
- ``trace``: ``to_trace()`` k-way merges every shard into
  ``FailureRecord`` objects, then ``run_paper_report(trace)`` analyses
  them in memory (record merge + materialized analysis).
"""

from __future__ import annotations

import contextlib
import shutil
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import repro.analysis.interarrival as interarrival
import repro.analysis.pernode as pernode
import repro.analysis.repair as repair
import repro.report.paper as paper
import repro.report.streaming as streaming
from perfbench.build import build_stores
from perfbench.harness import (
    MATERIALIZED_LAYERS,
    READ_LAYERS,
    SERVE_LAYERS,
    Layers,
    Speedometer,
    Tally,
    WorkloadResult,
    batch_metrics,
    median,
    median_operation,
    peak_rss_mb,
    self_time_table,
    span_wall,
    step,
    timed_loop,
    untouched,
)
from repro import obs
from repro.analysis.outofcore import PaperAccumulator
from repro.report.paper import run_paper_report
from repro.report.streaming import run_store_report
from repro.store.reader import ColumnarStore

#: Sections the streaming path renders byte-identically to the
#: materialized one; the others carry sketch error by design.
IDENTICAL_SECTIONS = ("table1", "fig1", "fig2", "fig3", "fig4", "fig5", "table3")

_CHARTS = ("bar_chart", "cdf_plot", "series_plot", "stacked_bars", "format_table")


def _problems(report) -> List[str]:
    return [
        f"{section.name}: {section.status} {section.error or ''}".strip()
        for section in report.sections
        if section.status != "ok"
    ]


def _texts(report) -> Dict[str, str]:
    return {section.name: section.text for section in report.sections}


@dataclass
class Operation:
    """One timed report and what it produced."""

    #: Wall seconds, and the same normalized for host speed.
    seconds: float
    normalized: float
    result: object
    #: Layer times of a traced operation.
    busy: Dict[str, float]
    #: The read handle's pushdown counters.
    scan: object = None


def stream_report(speed: Speedometer, path, traced: bool) -> Operation:
    """One streaming report from opening the store to the last section."""
    layers = Layers()
    tracer = obs.Tracer() if traced else None
    with contextlib.ExitStack() as stack:
        if traced:
            stack.enter_context(
                layers.wrap_iter(ColumnarStore, "iter_batches", "store.scan")
            )
            stack.enter_context(layers.wrap(PaperAccumulator, "observe", "fold"))
            for owner, name in (
                (streaming, "sketch_fit_all"),
                (streaming, "sketch_empirical"),
                (pernode, "fit_all_discrete"),
            ):
                stack.enter_context(layers.wrap(owner, name, "fit"))
            stack.enter_context(obs.observing(tracer))
        before = speed.sample()
        start = time.perf_counter()
        store = ColumnarStore(path)
        result = run_store_report(store)
        seconds = time.perf_counter() - start
    normalized = speed.normalize(seconds, before, speed.sample())
    busy = {}
    if traced:
        # Fits run inside the sections; the rest of a section's time
        # is turning sketches into text.
        sections = span_wall(tracer.events, "report.section")
        busy = {
            "store.scan": layers.busy["store.scan"],
            "fold": layers.busy["fold"],
            "fit": layers.busy["fit"],
            "render": sections - layers.busy["fit"],
        }
    return Operation(seconds, normalized, result, busy, store.scan)


def materialized_report(speed: Speedometer, path, traced: bool) -> Operation:
    """store -> trace -> report, from opening the store to the last section."""
    layers = Layers()
    tracer = obs.Tracer() if traced else None
    with contextlib.ExitStack() as stack:
        if traced:
            stack.enter_context(layers.wrap(ColumnarStore, "to_trace", "store.merge"))
            for owner, name in (
                (interarrival, "fit_all"),
                (repair, "fit_all"),
                (pernode, "fit_all_discrete"),
            ):
                stack.enter_context(layers.wrap(owner, name, "fit"))
            for name in _CHARTS:
                stack.enter_context(layers.wrap(paper, name, "render"))
            stack.enter_context(obs.observing(tracer))
        before = speed.sample()
        start = time.perf_counter()
        trace = ColumnarStore(path).to_trace()
        result = run_paper_report(trace)
        seconds = time.perf_counter() - start
        del trace
    normalized = speed.normalize(seconds, before, speed.sample())
    busy = {}
    if traced:
        sections = span_wall(tracer.events, "report.section")
        busy = {
            "store.merge": layers.busy["store.merge"],
            "fit": layers.busy["fit"],
            "render": layers.busy["render"],
            "analysis": sections - layers.busy["fit"] - layers.busy["render"],
        }
    return Operation(seconds, normalized, result, busy)


def _setup(ctx) -> Tuple[object, float, dict]:
    with step(ctx.workload, "setup"):
        paths, built = build_stores(ctx, ctx.sizes.read_scale)
        for path in paths[:-1]:
            shutil.rmtree(path)
    return paths[-1], median(built["seconds"]), built


def _overhead(plain: List[Operation], traced: List[Operation]) -> float:
    return (
        median([op.normalized for op in traced])
        / median([op.normalized for op in plain]) - 1.0
    )


def run_report(ctx) -> WorkloadResult:
    path, setup_s, built = _setup(ctx)
    tally = Tally()
    speed = Speedometer()
    plain: List[Operation] = []
    traced: List[Operation] = []
    reference = None
    with step(ctx.workload, "streaming report"):
        for index in timed_loop(ctx.seconds, minimum=2 if ctx.trace else 1):
            is_traced = ctx.trace and index % 2 == 1
            op = stream_report(speed, path, is_traced)
            (traced if is_traced else plain).append(op)
            result = op.result
            texts = _texts(result.report)
            reference = reference or texts
            problems = _problems(result.report)
            if result.partial or result.degraded:
                problems.append(f"partial={result.partial} degraded={result.degraded}")
            if texts != reference:
                problems.append("report text differs from the first pass")
            tally.record(not problems, f"report {index}: {problems[:3]}")
    rss = peak_rss_mb()
    if not ctx.trace:
        return WorkloadResult(
            batch_metrics(
                setup_s, tally, rss, [op.normalized for op in plain],
                built["rows"], ctx.sizes.read_scale,
            ),
            tally,
        )

    wall, busy = median_operation([(op.seconds, op.busy) for op in traced])
    ctx.emit(self_time_table("report: traced run_store_report", wall, busy))
    metrics = dict(built["layers"])
    metrics.update(scan_metrics(traced[0].scan, busy["store.scan"]))
    metrics.update({
        "fold.busy_s": busy["fold"],
        "fold.rows_per_s": built["rows"] / busy["fold"],
        "fit.busy_s": busy["fit"],
        "render.busy_s": busy["render"],
        "trace.unaccounted_share": (wall - sum(busy.values())) / wall,
        "trace.overhead_share": _overhead(plain, traced),
    })
    metrics.update(untouched(MATERIALIZED_LAYERS, SERVE_LAYERS))
    return WorkloadResult(metrics, tally)


def scan_metrics(scan, busy: float) -> Dict[str, float]:
    """``store.scan.*`` from a handle's pushdown counters."""
    shards = scan.shards_scanned + scan.shards_pruned
    return {
        "store.scan.busy_s": busy,
        "store.scan.rows": float(scan.rows_scanned),
        "store.scan.shards_pruned_share": scan.shards_pruned / shards,
        "store.scan.rows_matched_share": scan.rows_matched / scan.rows_scanned,
    }


def run_trace(ctx) -> WorkloadResult:
    path, setup_s, built = _setup(ctx)
    tally = Tally()
    speed = Speedometer()
    plain: List[Operation] = []
    traced: List[Operation] = []
    reference = None
    with step(ctx.workload, "materialized report"):
        for index in timed_loop(ctx.seconds, minimum=2 if ctx.trace else 1):
            is_traced = ctx.trace and index % 2 == 1
            op = materialized_report(speed, path, is_traced)
            (traced if is_traced else plain).append(op)
            result = op.result
            texts = _texts(result)
            reference = reference or texts
            problems = _problems(result)
            if texts != reference:
                problems.append("report text differs from the first pass")
            tally.record(not problems, f"report {index}: {problems[:3]}")
    rss = peak_rss_mb()
    with step(ctx.workload, "cross-check against the streaming report"):
        texts = _texts(stream_report(speed, path, False).result.report)
        differ = [name for name in IDENTICAL_SECTIONS if texts[name] != reference[name]]
        tally.record(not differ, f"sections differ between paths: {differ}")
    if not ctx.trace:
        return WorkloadResult(
            batch_metrics(
                setup_s, tally, rss, [op.normalized for op in plain],
                built["rows"], ctx.sizes.read_scale,
            ),
            tally,
        )

    wall, busy = median_operation([(op.seconds, op.busy) for op in traced])
    ctx.emit(self_time_table("trace: traced to_trace + run_paper_report", wall, busy))
    metrics = dict(built["layers"])
    metrics.update({
        "store.merge.busy_s": busy["store.merge"],
        "analysis.busy_s": busy["analysis"],
        "fit.busy_s": busy["fit"],
        "render.busy_s": busy["render"],
        "trace.unaccounted_share": (wall - sum(busy.values())) / wall,
        "trace.overhead_share": _overhead(plain, traced),
    })
    metrics.update(untouched(READ_LAYERS, SERVE_LAYERS))
    return WorkloadResult(metrics, tally)
