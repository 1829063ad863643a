"""Build the read workloads' input stores in a child process.

``python3 -m perfbench.build OUT SEED SCALE REPS TRACED`` generates
``REPS`` stores of the inventory scaled by ``SCALE`` into ``OUT/store-<i>``
and prints one JSON line: each build's seconds (normalized for host
speed), the row count and, when ``TRACED`` is 1, the per-layer write
metrics of the last build.

The builds run in their own process so that the generator's memory
never counts toward the peak resident set of the process that then
reads the store.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from perfbench.harness import Speedometer, store_footprint
from perfbench.ingest import generate_pass, write_layer_metrics


def build_stores(ctx, scale: float):
    """Build ``ctx.sizes.setup_reps`` stores in a child process.

    Returns the store paths and the child's JSON result.
    """
    reps = ctx.sizes.setup_reps
    command = [
        sys.executable, "-m", "perfbench.build",
        str(ctx.work), str(ctx.seed), repr(scale), str(reps),
        "1" if ctx.trace else "0",
    ]
    done = subprocess.run(
        command, cwd=ctx.root, env=ctx.child_env(),
        capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"store build exited {done.returncode}: {done.stderr.strip()[-800:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return [ctx.work / f"store-{rep}" for rep in range(reps)], result


def main(argv) -> int:
    out, seed, scale, reps, traced = argv
    speed = Speedometer()
    seconds = []
    layers = None
    for rep in range(int(reps)):
        path = Path(out) / f"store-{rep}"
        last = rep == int(reps) - 1
        done = generate_pass(
            speed, path, int(seed), float(scale), last and traced == "1"
        )
        seconds.append(done.normalized)
        if done.rows != done.records_written:
            raise RuntimeError(
                f"{path}: {done.rows} rows, generator wrote {done.records_written}"
            )
        if done.layers is not None:
            layers = write_layer_metrics(done.layers, done.rows, store_footprint(path))
    print(json.dumps({"seconds": seconds, "rows": done.rows, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
