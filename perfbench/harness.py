"""Plumbing shared by the workloads: steps, statistics, layer timing.

Nothing here knows about a particular workload.  Layer times are taken
from outside the program: by wrapping public callables for the length
of a traced operation (:class:`Layers`) and by summing the spans the
program already emits (:func:`span_wall`).
"""

from __future__ import annotations

import contextlib
import functools
import math
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple


class StepFailed(Exception):
    """A benchmark step could not run; the message names workload and step."""


@contextlib.contextmanager
def step(workload: str, name: str) -> Iterator[None]:
    """Re-raise any error inside the block as a :class:`StepFailed`."""
    try:
        yield
    except StepFailed:
        raise
    except Exception as error:
        raise StepFailed(
            f"workload {workload!r}, step {name!r}: "
            f"{type(error).__name__}: {error}"
        ) from error


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok

    @property
    def ok_share(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile, as ``repro serve-bench`` computes it."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(fraction * len(ordered))))
    return float(ordered[rank])


def peak_rss_mb() -> float:
    """This process's peak resident set size so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Another process's peak resident set size, from ``/proc``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def timed_loop(seconds: float, minimum: int = 1) -> Iterator[int]:
    """Yield operation indices until ``seconds`` have passed.

    At least ``minimum`` operations run; the operation in progress when
    the time runs out is finished, not cut.
    """
    start = time.perf_counter()
    index = 0
    while index < minimum or time.perf_counter() - start < seconds:
        yield index
        index += 1


class Speedometer:
    """How fast the host runs right now, for normalizing wall times.

    Shared machines drift between fast and slow spells that last tens
    of seconds, longer than a run, so medians alone cannot hide them.
    A fixed kernel of interpreter and NumPy work is timed right before
    and right after each operation; the operation's wall time is scaled
    by ``REFERENCE_S`` over the kernel's time, the geometric mean of the
    two samples.  A normalized time reads as the wall time on a host
    where the kernel takes ``REFERENCE_S`` (about the fast spells of a
    2-core cloud VM).  The kernel is benchmark code, so a change to the
    program moves the operation and never the yardstick.
    """

    REFERENCE_S = 0.003

    def __init__(self) -> None:
        import numpy

        self._array = numpy.random.default_rng(0).random(50_000)
        self._sort = numpy.sort

    def _kernel(self) -> float:
        start = time.perf_counter()
        total = 0
        for value in range(60_000):
            total += value
        self._sort(self._array)
        self._sort(self._array)
        return time.perf_counter() - start

    def sample(self) -> float:
        """The kernel's median time over five runs, in seconds."""
        return median([self._kernel() for _ in range(5)])

    def normalize(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` on the reference host, given samples around them."""
        return seconds * self.REFERENCE_S / math.sqrt(before * after)


class Layers:
    """Busy time per layer, measured by wrapping the calls into it.

    ``wrap`` swaps a callable attribute for a timing wrapper until the
    context ends; ``wrap_iter`` does the same for a callable returning
    an iterator, timing each ``next`` (the read side of a scan).
    """

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)

    @contextlib.contextmanager
    def wrap(self, owner, attr: str, layer: str) -> Iterator[None]:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.busy[layer] += time.perf_counter() - start

        with _patched(owner, attr, timed):
            yield

    @contextlib.contextmanager
    def wrap_iter(self, owner, attr: str, layer: str) -> Iterator[None]:
        original = getattr(owner, attr)

        def timed_iterator(iterator):
            while True:
                start = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    self.busy[layer] += time.perf_counter() - start
                    return
                self.busy[layer] += time.perf_counter() - start
                yield item

        @functools.wraps(original)
        def timed(*args, **kwargs):
            return timed_iterator(iter(original(*args, **kwargs)))

        with _patched(owner, attr, timed):
            yield


@contextlib.contextmanager
def _patched(owner, attr: str, value) -> Iterator[None]:
    had_own = attr in vars(owner)
    previous = vars(owner).get(attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        if had_own:
            setattr(owner, attr, previous)
        else:
            delattr(owner, attr)


#: Rows of the unscaled 22-system inventory, about; batch operation
#: times are scaled to ``ROWS_PER_SCALE`` x scale rows.
ROWS_PER_SCALE = 25_000


def batch_metrics(
    setup_s: float, tally: Tally, rss: float, seconds: Sequence[float],
    rows: int, scale: float,
) -> Dict[str, float]:
    """End-to-end metrics of a workload of repeated batch operations.

    ``seconds`` are host-normalized operation times over ``rows`` input
    rows.  The seed sets the input size (bursts of correlated failures
    move it by about a tenth), so the latencies are scaled to the
    nominal size of the inventory at ``scale``; ``throughput_per_s`` is
    rows per second and needs no scaling.
    """
    per_nominal = ROWS_PER_SCALE * scale / rows * 1000.0
    return {
        "setup_s": setup_s,
        "ok_share": tally.ok_share,
        "peak_rss_mb": rss,
        "p50_ms": median(seconds) * per_nominal,
        "throughput_per_s": rows / median(seconds),
    }


def median_operation(traced: Sequence[Tuple[float, Dict[str, float]]]):
    """The traced ``(wall, layer times)`` with the median wall.

    One operation's layers add up to its own wall; medians taken layer
    by layer would not.
    """
    ordered = sorted(traced, key=lambda operation: operation[0])
    return ordered[(len(ordered) - 1) // 2]


def span_wall(events: Sequence[dict], name: str) -> float:
    """Total wall time of the program's spans called ``name``."""
    return sum(
        float(event["wall_s"])
        for event in events
        if event.get("type") == "span" and event.get("name") == name
    )


def self_time_table(title: str, wall: float, layers: Dict[str, float]) -> List[str]:
    """A printable per-layer self-time table that adds up to ``wall``."""
    lines = [f"{title}: wall {wall:.4f} s"]
    for name, seconds in layers.items():
        share = seconds / wall if wall else 0.0
        lines.append(f"  {name:<14} {seconds:9.4f} s  {share:7.2%}")
    gap = wall - sum(layers.values())
    lines.append(
        f"  {'unaccounted':<14} {gap:9.4f} s  {gap / wall if wall else 0.0:7.2%}"
    )
    return lines


def store_footprint(root: Path) -> Dict[str, float]:
    """Files and bytes a store directory occupies."""
    files = [path for path in Path(root).rglob("*") if path.is_file()]
    return {
        "files": float(len(files)),
        "bytes": float(sum(path.stat().st_size for path in files)),
    }


#: Per-layer metrics, grouped by the workloads that exercise them.
READ_LAYERS = (
    "store.scan.busy_s",
    "store.scan.rows",
    "store.scan.shards_pruned_share",
    "store.scan.rows_matched_share",
    "fold.busy_s",
    "fold.rows_per_s",
)
REPORT_LAYERS = ("fit.busy_s", "render.busy_s")
MATERIALIZED_LAYERS = ("store.merge.busy_s", "analysis.busy_s")
SERVE_LAYERS = (
    "serve.latency_ms_p90",
    "serve.latency_ms_p99",
    "serve.server_ms_p50",
    "serve.server_ms_p99",
    "serve.http_ms_p50",
    "serve.hit_ms_p50",
    "serve.miss_ms_p50",
    "serve.cache.hit_share",
    "serve.cache.evictions",
    "serve.admission.peak_waiting",
    "serve.gen_late_ms",
)


def untouched(*groups: Sequence[str]) -> Dict[str, float]:
    """Zero for per-layer metrics of layers a workload never runs."""
    return {name: 0.0 for group in groups for name in group}


@dataclass
class WorkloadResult:
    """What one run measured, before units are attached."""

    metrics: Dict[str, float]
    tally: Tally

    @property
    def correct(self) -> bool:
        return self.tally.failed == 0
