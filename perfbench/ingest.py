"""The ``ingest`` workload: synthesize a scaled inventory into a store.

One operation is one ``TraceGenerator.generate_store`` pass over the
scaled 22-system LANL inventory into a fresh directory.  Synthesis and
the store write do the work; nothing is read back except by the output
checks, which run outside the timed operation.
"""

from __future__ import annotations

import contextlib
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from perfbench.harness import (
    MATERIALIZED_LAYERS,
    READ_LAYERS,
    REPORT_LAYERS,
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
    store_footprint,
    timed_loop,
    untouched,
)
from repro import obs
from repro.store.reader import ColumnarStore
from repro.store.writer import StoreWriter
from repro.synth.generator import TraceGenerator
from repro.synth.scenario import scaled_lanl_systems


@dataclass
class Pass:
    """One timed ``generate_store`` call and what it produced."""

    #: Wall seconds, and the same normalized for host speed.
    seconds: float
    normalized: float
    rows: int
    #: Rows the generator reported writing (its ``store.records_written``
    #: counter), the reference for the row-count check.
    records_written: int
    #: Synthesis and store-write self times, for a traced pass only.
    layers: Optional[Dict[str, float]] = None


def generate_pass(
    speed: Speedometer, path: Path, seed: int, scale: float, traced: bool
) -> Pass:
    """Generate the inventory scaled by ``scale`` into ``path``.

    A traced pass installs a tracer and reads the program's own spans:
    one ``shard.attempt`` per system synthesized (the serial generator's
    unit of work) and ``store.write``.  The manifest write
    (``StoreWriter.finalize``) runs after the ``store.write`` span
    closes, so it is timed by wrapping it and counted as store write.
    """
    systems = scaled_lanl_systems(scale)
    registry = obs.MetricsRegistry()
    tracer = obs.Tracer() if traced else None
    finalize = Layers()
    with contextlib.ExitStack() as stack:
        if traced:
            stack.enter_context(finalize.wrap(StoreWriter, "finalize", "finalize"))
        stack.enter_context(obs.observing(tracer, registry))
        before = speed.sample()
        start = time.perf_counter()
        manifest = TraceGenerator(seed=seed, systems=systems).generate_store(path)
        seconds = time.perf_counter() - start
    normalized = speed.normalize(seconds, before, speed.sample())
    written = int(registry.counter("store.records_written").to_value())
    layers = None
    if tracer is not None:
        layers = {
            "synth": span_wall(tracer.events, "shard.attempt"),
            "store.write": span_wall(tracer.events, "store.write")
            + finalize.busy["finalize"],
        }
    return Pass(seconds, normalized, manifest.row_count, written, layers)


def write_layer_metrics(
    busy: Dict[str, float], rows: int, footprint: Dict[str, float]
) -> Dict[str, float]:
    """The ``synth.*`` and ``store.write.*`` per-layer metrics."""
    return {
        "synth.busy_s": busy["synth"],
        "synth.records_per_s": rows / busy["synth"],
        "store.write.busy_s": busy["store.write"],
        "store.write.bytes_per_row": footprint["bytes"] / rows,
        "store.write.files": footprint["files"],
    }


def check_store(path: Path, done: Pass) -> List[str]:
    """Deep verification plus the row count against the generator's."""
    problems = ColumnarStore(path).verify(deep=True)
    if done.rows != done.records_written:
        problems.append(
            f"store holds {done.rows} rows, generator wrote {done.records_written}"
        )
    return problems


def run(ctx) -> WorkloadResult:
    sizes = ctx.sizes
    tally = Tally()
    speed = Speedometer()
    with step(ctx.workload, "setup"):
        # Warm-up passes at a small scale: imports, lazy initialisation
        # and the page cache settle before the timed passes.
        setup = []
        for rep in range(sizes.setup_reps):
            path = ctx.work / f"warm-{rep}"
            setup.append(
                generate_pass(speed, path, ctx.seed, sizes.warm_scale, False).normalized
            )
            shutil.rmtree(path)

    passes: List[Pass] = []
    traced: List[Pass] = []
    footprint: Dict[str, float] = {}
    with step(ctx.workload, "generate"):
        # A traced run alternates untraced and traced passes; the ratio
        # of their medians is the tracing overhead.
        for index in timed_loop(ctx.seconds, minimum=2 if ctx.trace else 1):
            path = ctx.work / f"pass-{index}"
            is_traced = ctx.trace and index % 2 == 1
            done = generate_pass(speed, path, ctx.seed, sizes.ingest_scale, is_traced)
            (traced if is_traced else passes).append(done)
            problems = check_store(path, done)
            tally.record(not problems, f"pass {index}: {problems[:3]}")
            if is_traced and not footprint:
                footprint = store_footprint(path)
            shutil.rmtree(path)

    if not ctx.trace:
        return WorkloadResult(
            batch_metrics(
                median(setup), tally, peak_rss_mb(),
                [done.normalized for done in passes],
                passes[0].rows, sizes.ingest_scale,
            ),
            tally,
        )

    wall, busy = median_operation([(done.seconds, done.layers) for done in traced])
    ctx.emit(self_time_table("ingest: traced generate_store pass", wall, busy))
    metrics = write_layer_metrics(busy, traced[0].rows, footprint)
    metrics.update(
        untouched(READ_LAYERS, REPORT_LAYERS, MATERIALIZED_LAYERS, SERVE_LAYERS)
    )
    metrics["trace.unaccounted_share"] = (wall - sum(busy.values())) / wall
    metrics["trace.overhead_share"] = (
        median([done.normalized for done in traced])
        / median([done.normalized for done in passes]) - 1.0
    )
    return WorkloadResult(metrics=metrics, tally=tally)
