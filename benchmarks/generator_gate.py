"""Generator throughput gate: ``generate()`` against the reference engine.

Times :meth:`TraceGenerator.generate` against the per-event scalar
reference engine kept in ``tests/synth/reference_engine.py``, on the
same seed and systems, over the full 22-system LANL trace and the
3-system :data:`~repro.benchmark.QUICK_SYSTEMS` subset, and optionally
process-parallel generation too.  The JSON report is what
``BENCH_generator.json`` at the repository root records.  Its keys
predate the single engine: ``scalar`` times the reference engine and
``vectorized`` times ``generate()``.

The gate (``--check``) compares *speedup ratios* measured in the same
run, not absolute records/second, so a baseline recorded on one
machine meaningfully gates a run on another: absolute throughput
varies with hardware, but the generator's advantage over the
reference loop on identical work should not silently erode.  A record
count that differs from the baseline's at the same seed fails too:
the generator's output changed.

Usage, from the repository root::

    # CI: both suites, gated on the committed baseline.
    PYTHONPATH=src python benchmarks/generator_gate.py --repeats 3 \\
        --out bench-result.json --check BENCH_generator.json --tolerance 0.25

    # Re-record the baseline (full trace, plus two workers).
    PYTHONPATH=src python benchmarks/generator_gate.py --workers 2 \\
        --repeats 3 --out BENCH_generator.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    # The reference engine lives in the test package at the root.
    sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from repro import __version__  # noqa: E402
from repro.benchmark import QUICK_SYSTEMS  # noqa: E402
from repro.resilience import atomic_write_json  # noqa: E402
from repro.synth import TraceGenerator  # noqa: E402
from tests.synth.reference_engine import reference_trace  # noqa: E402

#: JSON schema version of the report.
SCHEMA_VERSION = 1


def _time(
    runs: Dict[str, Callable[[], Any]], repeats: int
) -> Dict[str, Dict[str, Any]]:
    """Best-of-``repeats`` wall time of each ``run()``, which returns a
    trace.  The runs take turns within each repeat, so a slow spell on
    a shared host lands on all of them rather than on one side of a
    ratio."""
    best = {name: float("inf") for name in runs}
    records: Dict[str, int] = {}
    for _ in range(max(repeats, 1)):
        for name, run in runs.items():
            start = time.perf_counter()
            trace = run()
            best[name] = min(best[name], time.perf_counter() - start)
            records[name] = len(trace)
    return {
        name: {
            "seconds": round(best[name], 4),
            "records": records[name],
            "records_per_second": (
                round(records[name] / best[name], 1) if best[name] > 0 else None
            ),
        }
        for name in runs
    }


def _suite(
    generator: TraceGenerator,
    system_ids: Optional[Sequence[int]],
    workers: int,
    repeats: int,
) -> Dict[str, Any]:
    runs: Dict[str, Callable[[], Any]] = {
        "scalar": lambda: reference_trace(generator, system_ids),
        "vectorized": lambda: generator.generate(system_ids),
    }
    if workers > 1:
        runs["parallel"] = lambda: generator.generate(system_ids, workers=workers)
    timings = _time(runs, repeats)
    scalar, vectorized = timings["scalar"], timings["vectorized"]
    suite: Dict[str, Any] = {
        "systems": (
            sorted(generator.systems) if system_ids is None else list(system_ids)
        ),
        "records": vectorized["records"],
        "scalar": scalar,
        "vectorized": vectorized,
        "speedup_vectorized_vs_scalar": round(
            scalar["seconds"] / vectorized["seconds"], 2
        ),
    }
    if workers > 1:
        suite["parallel"] = dict(timings["parallel"], workers=workers)
        suite["speedup_parallel_vs_scalar"] = round(
            scalar["seconds"] / timings["parallel"]["seconds"], 2
        )
    return suite


def run_benchmark(
    seed: int = 1,
    *,
    quick: bool = False,
    workers: int = 1,
    repeats: int = 1,
) -> Dict[str, Any]:
    """Run the generator benchmark and return the JSON-able report.

    Parameters
    ----------
    seed:
        Generator seed (the workload is deterministic in it).
    quick:
        Only run the 3-system :data:`QUICK_SYSTEMS` subset (CI smoke).
    workers:
        If > 1, additionally measure process-parallel generation.
    repeats:
        Take the best of this many runs per configuration.
    """
    generator = TraceGenerator(seed=seed)
    report: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "seed": seed,
        "repro_version": __version__,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "quick": _suite(generator, list(QUICK_SYSTEMS), workers, repeats),
    }
    if not quick:
        report["full"] = _suite(generator, None, workers, repeats)
    return report


def check_against_baseline(
    report: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.25,
) -> List[str]:
    """Regression check: current report vs. a committed baseline.

    Returns a list of human-readable problems (empty = pass).  Compares
    the speedup ratio over the reference engine of every suite present
    in both reports; a ratio more than ``tolerance`` below the
    baseline's means the generator regressed relative to the reference
    engine on the *same* machine and workload.  At the same seed, a
    suite's record count must also match the baseline's.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    problems: List[str] = []
    for suite_name in ("quick", "full"):
        current = report.get(suite_name)
        reference = baseline.get(suite_name)
        if current is None or reference is None:
            continue
        ratio = current["speedup_vectorized_vs_scalar"]
        expected = reference["speedup_vectorized_vs_scalar"]
        floor = expected * (1.0 - tolerance)
        if ratio < floor:
            problems.append(
                f"{suite_name}: speedup over the reference engine {ratio:.2f}x "
                f"fell below {floor:.2f}x (baseline {expected:.2f}x - "
                f"{tolerance:.0%})"
            )
        if current["records"] != reference["records"] and report.get(
            "seed"
        ) == baseline.get("seed"):
            problems.append(
                f"{suite_name}: record count {current['records']} != "
                f"baseline {reference['records']} at the same seed "
                "(generator output changed; regenerate the baseline)"
            )
    return problems


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable one-screen summary of a benchmark report."""
    lines = [f"generator gate (seed {report['seed']})"]
    labels = {"scalar": "reference engine", "vectorized": "generate()"}
    for suite_name in ("quick", "full"):
        suite = report.get(suite_name)
        if suite is None:
            continue
        lines.append(
            f"  {suite_name}: {suite['records']} records over "
            f"{len(suite['systems'])} systems"
        )
        for key in ("scalar", "vectorized", "parallel"):
            timing = suite.get(key)
            if timing is None:
                continue
            label = labels.get(key, f"parallel (workers={timing.get('workers')})")
            lines.append(
                f"    {label:<22} {timing['seconds']:>8.3f}s  "
                f"{timing['records_per_second']:>10.0f} rec/s"
            )
        lines.append(
            "    speedup over the reference engine  "
            f"{suite['speedup_vectorized_vs_scalar']:.2f}x"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="time generate() against the reference engine and "
        "gate the speedup on a committed baseline",
    )
    parser.add_argument("--seed", type=int, default=1, help="generator seed")
    parser.add_argument(
        "--quick", action="store_true",
        help="only the 3-system smoke subset (CI)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="also measure process-parallel generation with this many workers",
    )
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="best-of-N timing per configuration",
    )
    parser.add_argument(
        "--out", type=str, default=None,
        help="write the JSON report here (e.g. BENCH_generator.json)",
    )
    parser.add_argument(
        "--check", type=str, default=None, metavar="BASELINE",
        help="fail if the speedup regresses vs this baseline JSON",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional speedup regression for --check",
    )
    args = parser.parse_args(argv)
    report = run_benchmark(
        seed=args.seed, quick=args.quick, workers=args.workers,
        repeats=args.repeats,
    )
    print(format_report(report))
    if args.out:
        # Atomic (tmp + fsync + rename): an interrupted run never leaves
        # a truncated baseline for the gate to choke on.
        atomic_write_json(args.out, report)
        print(f"wrote {args.out}")
    if args.check:
        with open(args.check, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        problems = check_against_baseline(report, baseline, tolerance=args.tolerance)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}")
            return 1
        print(f"regression check vs {args.check}: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
