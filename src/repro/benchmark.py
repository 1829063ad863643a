"""Overhead guards for the disabled instrumentation (``repro bench``).

Three guards bound what instrumentation costs when it is switched off:
observability spans on a quick generate, the filesystem-fault shim on
a journaled generate plus trace writes, and the read-path fault shim
on a store scan.  Each multiplies the number of sites a workload hits
by the measured cost of one disabled call, so the bound is stable on a
noisy machine.

The generator's throughput gate is a script,
``benchmarks/generator_gate.py``: it times ``generate()`` against the
scalar reference engine of the test suite, which does not ship with
the package.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Sequence

from repro.synth import TraceGenerator

__all__ = [
    "measure_obs_overhead",
    "measure_fsfaults_overhead",
    "measure_serve_overhead",
    "QUICK_SYSTEMS",
]

#: Quick-mode subset: one large (20), one mid (2), one small (13) system.
QUICK_SYSTEMS = (2, 13, 20)


def measure_obs_overhead(
    seed: int = 1,
    systems: Sequence[int] = QUICK_SYSTEMS,
    threshold: float = 0.02,
) -> Dict[str, Any]:
    """Bound the cost of *disabled* observability on the generator.

    The guard multiplies the number of instrumentation sites a quick
    generate actually hits (counted from a traced run) by the measured
    cost of one disabled :func:`repro.obs.span` call, and expresses the
    product as a fraction of the disabled generate's wall time.  That
    product is what the fast path can possibly cost — and unlike
    differencing two full-run timings, each factor is individually
    stable, so the guard doesn't flap on machine noise.

    Returns a dict with the measurements and ``ok`` (overhead within
    ``threshold``, default 2%).
    """
    from repro import obs

    generator = TraceGenerator(seed=seed)
    system_ids = list(systems)
    generator.generate(system_ids)  # warm caches/imports
    start = time.perf_counter()
    generator.generate(system_ids)
    disabled_seconds = time.perf_counter() - start

    tracer = obs.Tracer(run_id="obs-guard")
    registry = obs.MetricsRegistry()
    with obs.observing(tracer, registry):
        generator.generate(system_ids)
    spans_per_generate = len(tracer.events)

    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        with obs.span("bench.noop", site=1):
            pass
    noop_cost = (time.perf_counter() - start) / calls

    overhead = (
        spans_per_generate * noop_cost / disabled_seconds
        if disabled_seconds > 0
        else 0.0
    )
    return {
        "systems": system_ids,
        "spans_per_generate": spans_per_generate,
        "noop_span_cost_ns": round(noop_cost * 1e9, 1),
        "disabled_seconds": round(disabled_seconds, 4),
        "overhead_fraction": round(overhead, 6),
        "threshold": threshold,
        "ok": overhead <= threshold,
    }


def measure_fsfaults_overhead(
    seed: int = 1,
    systems: Sequence[int] = QUICK_SYSTEMS,
    threshold: float = 0.02,
) -> Dict[str, Any]:
    """Bound the cost of the *disabled* filesystem-fault shim.

    Same measurement strategy as :func:`measure_obs_overhead`: count
    the fault-hook sites a representative workload (a journaled quick
    generate plus a CSV and a JSONL trace write) actually hits — via
    the shim's passive ``count`` operator — multiply by the measured
    cost of one disabled :func:`~repro.resilience.atomic.fs_fault_hook`
    call, and express the product as a fraction of the workload's
    disabled wall time.  Each factor is individually stable, so the
    guard doesn't flap on machine noise.

    Returns a dict with the measurements and ``ok`` (overhead within
    ``threshold``, default 2%).
    """
    import tempfile
    from pathlib import Path

    from repro.faults import fsfaults
    from repro.io.csv_format import write_lanl_csv
    from repro.io.jsonl_format import write_jsonl
    from repro.resilience.atomic import fs_fault_hook
    from repro.resilience.journal import ShardJournal

    generator = TraceGenerator(seed=seed)
    system_ids = list(systems)

    def workload(base: Path) -> None:
        journal = ShardJournal(
            base / "run", meta=generator.journal_meta(), resume=False
        )
        trace = generator.generate(system_ids, journal=journal)
        write_lanl_csv(trace, base / "trace.csv")
        write_jsonl(trace, base / "trace.jsonl")

    with tempfile.TemporaryDirectory(prefix="repro-fsguard-") as tmp:
        workload(Path(tmp) / "warm")  # warm caches/imports
        start = time.perf_counter()
        workload(Path(tmp) / "timed")
        disabled_seconds = time.perf_counter() - start

        fsfaults.reset_counts()
        with fsfaults.fsfaults_env(fsfaults.FsFaults(operator="count")):
            workload(Path(tmp) / "counted")
        sites_per_run = fsfaults.call_count()
        fsfaults.reset_counts()

    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        fs_fault_hook("bench.noop", "bench")
    noop_cost = (time.perf_counter() - start) / calls

    overhead = (
        sites_per_run * noop_cost / disabled_seconds
        if disabled_seconds > 0
        else 0.0
    )
    return {
        "systems": system_ids,
        "sites_per_run": sites_per_run,
        "noop_hook_cost_ns": round(noop_cost * 1e9, 1),
        "disabled_seconds": round(disabled_seconds, 4),
        "overhead_fraction": round(overhead, 6),
        "threshold": threshold,
        "ok": overhead <= threshold,
    }


def measure_serve_overhead(
    seed: int = 5,
    threshold: float = 0.02,
) -> Dict[str, Any]:
    """Bound the cost of the disabled fault shim on the *serving* path.

    PR 9 added a read-side hook site (``store.read.column``) so the
    chaos campaign can drill the analytics service; this guard holds
    its disabled cost to the same <= 2% bar as the write-side sites.
    Strategy mirrors :func:`measure_fsfaults_overhead`, but the
    workload is the one ``repro serve`` executes per query: a full
    :func:`~repro.store.analytics.summarize_store` scan over a
    columnar store.
    """
    import tempfile
    from pathlib import Path

    from repro.faults import fsfaults
    from repro.resilience.atomic import fs_fault_hook
    from repro.store import ColumnarStore, store_from_trace, summarize_store

    generator = TraceGenerator(seed=seed)
    trace = generator.generate([2, 13])

    with tempfile.TemporaryDirectory(prefix="repro-serveguard-") as tmp:
        root = Path(tmp) / "store"
        store_from_trace(trace, root, shard_rows=500)

        def workload() -> None:
            summarize_store(ColumnarStore(root))

        workload()  # warm caches/imports
        start = time.perf_counter()
        workload()
        disabled_seconds = time.perf_counter() - start

        fsfaults.reset_counts()
        with fsfaults.fsfaults_env(fsfaults.FsFaults(operator="count")):
            workload()
        sites_per_scan = fsfaults.call_count()
        fsfaults.reset_counts()

    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        fs_fault_hook("bench.noop", "bench")
    noop_cost = (time.perf_counter() - start) / calls

    overhead = (
        sites_per_scan * noop_cost / disabled_seconds
        if disabled_seconds > 0
        else 0.0
    )
    return {
        "sites_per_scan": sites_per_scan,
        "noop_hook_cost_ns": round(noop_cost * 1e9, 1),
        "disabled_seconds": round(disabled_seconds, 4),
        "overhead_fraction": round(overhead, 6),
        "threshold": threshold,
        "ok": overhead <= threshold,
    }
