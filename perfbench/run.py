"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(name -> value and unit).  A step that cannot run prints what failed,
naming the workload and the step, on standard error and exits 1.
``--smoke`` shrinks every input so that the benchmark's own tests run
in seconds; its numbers measure nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Sizes:
    """Input sizes; see README.md for why each was chosen."""

    #: Inventory scale of an ``ingest`` pass (x3: ~75k-95k records).
    ingest_scale: float = 3.0
    #: Inventory scale of ``ingest``'s warm-up (set-up) passes.
    warm_scale: float = 1.0
    #: Inventory scale of the store ``report`` and ``trace`` read.
    read_scale: float = 3.0
    #: Inventory scale of the store ``serve`` serves.
    serve_scale: float = 2.0
    #: Set-up repetitions; ``setup_s`` is their median.
    setup_reps: int = 3
    #: Offered request rates of the ``serve`` ladder (per second).
    ladder: Tuple[int, ...] = (30, 90, 180, 900)
    #: The ladder rate whose latencies are ``p50_ms`` and ``serve.latency_ms_*``.
    reference_rate: int = 90


SMOKE = Sizes(
    ingest_scale=0.1,
    warm_scale=0.05,
    read_scale=1.0,
    serve_scale=1.0,
    setup_reps=2,
    ladder=(10, 20),
    reference_rate=10,
)


@dataclass
class Context:
    """One run's arguments and its scratch directory."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    sizes: Sizes
    work: Path
    root: Path = ROOT

    def child_env(self) -> Dict[str, str]:
        """Environment for child processes: the checkout's code only."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
        return env

    def emit(self, lines: List[str]) -> None:
        for line in lines:
            print(line, flush=True)


def _workloads():
    from perfbench import ingest, report, serve

    return {
        "ingest": ingest.run,
        "report": report.run_report,
        "trace": report.run_trace,
        "serve": serve.run,
    }


def _declared(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as declared in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if trace else "end_to_end"]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.harness import StepFailed

    workloads = _workloads()
    if args.workload not in workloads:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(one of {', '.join(workloads)})",
            file=sys.stderr,
        )
        return 2
    units = _declared(bool(args.trace))
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        sizes=SMOKE if args.smoke else Sizes(),
        work=work,
    )
    try:
        result = workloads[args.workload](ctx)
    except StepFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            scratch.rmdir()

    if set(result.metrics) != set(units):
        print(
            f"perfbench: workload {args.workload!r}, step 'report metrics': "
            f"missing {sorted(set(units) - set(result.metrics))}, "
            f"undeclared {sorted(set(result.metrics) - set(units))}",
            file=sys.stderr,
        )
        return 1
    for reason in result.tally.reasons:
        print(f"perfbench: failed operation: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.tally.attempted,
        "failed": result.tally.failed,
        "metrics": {
            name: {"value": float(result.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.path[0] = str(ROOT)
    sys.exit(main())
