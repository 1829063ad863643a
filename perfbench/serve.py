"""The ``serve`` workload: ``repro serve`` under open-loop load.

The server runs as its own process over a prebuilt store.  This
process is the load generator: it sends requests at a constant rate
through at most ``nproc`` connections and times each request from the
moment it was due, so a stall also counts against the requests queued
behind it.

The mix is a small dashboard key set (per-system ``/v1/analyze``,
``/v1/summary``, ``/v1/systems``; warmed before timing) plus ad-hoc
``/v1/analyze`` windows, per system or over all systems, drawn with
Zipf popularity from a pool four times the server's 256-entry result
cache.  The skew is chosen so that roughly two thirds of the requests
(about 70%) hit the cache; the rest scan the store.

A ladder of offered rates runs after the warm-up: the reference rate
first and longest (its latencies, normalized for host speed, give
``p50_ms`` and the ``serve.latency_ms_*`` tail), then higher rates
until one misses the p99 limit or builds a backlog.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import itertools
import json
import os
import random
import re
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.build import build_stores
from perfbench.harness import (
    MATERIALIZED_LAYERS,
    REPORT_LAYERS,
    Layers,
    Speedometer,
    Tally,
    WorkloadResult,
    median,
    percentile,
    process_peak_rss_mb,
    step,
    untouched,
)
from repro.store.analytics import summarize_store
from repro.store.manifest import Predicate
from repro.store.reader import ColumnarStore

#: p99 a ladder rate must meet to count toward ``throughput_per_s``.
LATENCY_LIMIT_MS = 300.0
#: Ad-hoc key pool: four times the server's 256-entry result cache.
POOL_SIZE = 4 * 256
#: Share of requests that go to the dashboard keys.
DASHBOARD_SHARE = 0.25
#: Zipf exponent of ad-hoc key popularity; with the dashboard share it
#: gives a cache hit share of about two thirds.
ZIPF_EXPONENT = 0.95
#: One ad-hoc key in this many windows all systems (the costly misses).
ALL_SYSTEMS_EVERY = 14
#: Window lengths of ad-hoc keys, in months.
WINDOW_MONTHS = (1, 3, 6, 12)
MONTH_SECONDS = 2_629_800.0
GOLDEN = (5 ** 0.5 - 1) / 2
#: Share of the measuring time given to the reference rate.
REFERENCE_SHARE = 13 / 15
#: A rate whose requests go out this late has a growing backlog; the
#: rest of its schedule is abandoned.
ABANDON_LATE_S = 2.0
#: A rate passes only if answers keep up with arrivals to this share.
KEEP_UP_SHARE = 0.9
CONNECTIONS = len(os.sched_getaffinity(0))
#: Queries the server runs at once.  Two concurrent cache misses can
#: parse ``.npy`` headers (``ast.literal_eval`` inside ``np.load``) on
#: two threads at once, which on CPython 3.11 intermittently fails with
#: "AST constructor recursion depth mismatch" and answers HTTP 500; one
#: slot keeps every request answerable while the other connection's
#: request waits in the admission queue.
SERVER_CONCURRENCY = 1
_LISTENING = re.compile(r"listening on http://\S+:(\d+)")


@dataclass(frozen=True)
class Key:
    """One distinct request, and the summary query it stands for."""

    path: str
    kind: str = "analyze"
    system: Optional[int] = None
    t_min: Optional[float] = None
    t_max: Optional[float] = None

    def predicate(self) -> Optional[Predicate]:
        if self.system is None and self.t_min is None:
            return None
        return Predicate.build(
            t_min=self.t_min,
            t_max=self.t_max,
            systems=None if self.system is None else [self.system],
        )


@dataclass
class Sample:
    """One sent request."""

    key: Key
    due: float
    sent: float
    done: float
    ok: bool
    reason: str = ""
    cache: str = ""
    server_ms: float = 0.0
    data: Optional[dict] = None
    #: Host-speed factor of the slice the request was sent in (see
    #: :func:`run_reference`); 1 outside the reference rate.
    speed: float = 1.0

    @property
    def latency_ms(self) -> float:
        """From due time to answer, host-normalized; a failed request
        misses every limit."""
        if not self.ok:
            return float("inf")
        return (self.done - self.due) * 1000.0 * self.speed


@dataclass
class Rung:
    """One offered rate of the ladder and what it achieved."""

    rate: float
    samples: List[Sample]
    abandoned: bool

    @property
    def p50_ms(self) -> float:
        return percentile([s.latency_ms for s in self.samples], 0.50)

    @property
    def p90_ms(self) -> float:
        return percentile([s.latency_ms for s in self.samples], 0.90)

    @property
    def p99_ms(self) -> float:
        return percentile([s.latency_ms for s in self.samples], 0.99)

    @property
    def sustained(self) -> bool:
        return (
            not self.abandoned
            and all(sample.ok for sample in self.samples)
            and self.p99_ms <= LATENCY_LIMIT_MS
            and self.achieved_per_s >= KEEP_UP_SHARE * self.rate
        )

    @property
    def achieved_per_s(self) -> float:
        start = min(sample.due for sample in self.samples)
        end = max(sample.done for sample in self.samples)
        return sum(sample.ok for sample in self.samples) / (end - start)


@dataclass
class Mix:
    """The seeded request mix: dashboard keys plus a Zipf-ranked pool."""

    dashboard: List[Key]
    pool: List[Key]
    cumulative: List[float] = field(init=False)

    def __post_init__(self) -> None:
        self.cumulative = list(itertools.accumulate(
            1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(self.pool))
        ))

    def key_at(self, quantile: float) -> Key:
        """The key at ``quantile`` of the mix's popularity distribution."""
        if quantile < DASHBOARD_SHARE:
            return self.dashboard[int(quantile / DASHBOARD_SHARE * len(self.dashboard))]
        point = (quantile - DASHBOARD_SHARE) / (1.0 - DASHBOARD_SHARE)
        return self.pool[bisect.bisect(self.cumulative, point * self.cumulative[-1])]


def build_mix(rng: random.Random, store: ColumnarStore) -> Mix:
    """Dashboard keys plus the ad-hoc pool, most popular first.

    The pool is stratified so that every seed offers the same kind of
    load; the seed only shifts it.  Every ``ALL_SYSTEMS_EVERY``-th rank
    windows all systems, whose cost grows with the number of shards the
    window admits, so window starts follow a golden-ratio sequence from
    a seeded offset and spread evenly over the data window.  Window
    lengths cycle through ``WINDOW_MONTHS``, and per-system ranks cycle
    through the systems in a seeded order.
    """
    systems = sorted(store.manifest.systems)
    start = store.manifest.data_start
    months = int((store.manifest.data_end - start) // MONTH_SECONDS)
    dashboard = [Key(f"/v1/analyze?system={s}", system=s) for s in systems]
    dashboard += [Key("/v1/summary", kind="summary"), Key("/v1/systems", kind="systems")]
    order = rng.sample(systems, len(systems))
    phase = rng.random()
    pool: Dict[str, Key] = {}
    for index in itertools.count():
        if len(pool) == POOL_SIZE:
            break
        rank = len(pool)
        length = WINDOW_MONTHS[index % len(WINDOW_MONTHS)]
        spread = (phase + index * GOLDEN) % 1.0
        t_min = start + int(spread * (months - length + 1)) * MONTH_SECONDS
        t_max = t_min + length * MONTH_SECONDS
        window = f"t_min={t_min!r}&t_max={t_max!r}"
        if rank % ALL_SYSTEMS_EVERY == ALL_SYSTEMS_EVERY - 1:
            key = Key(f"/v1/analyze?{window}", t_min=t_min, t_max=t_max)
        else:
            system = order[rank % len(order)]
            key = Key(
                f"/v1/analyze?system={system}&{window}",
                system=system, t_min=t_min, t_max=t_max,
            )
        pool.setdefault(key.path, key)
    return Mix(dashboard, list(pool.values()))


def schedule(rng: random.Random, mix: Mix, rate: float, seconds: float):
    """Evenly spaced arrivals at ``rate`` over ``seconds``: (offset, key) pairs.

    Both the arrivals and the key draws are stratified, so that the
    share of each kind of request, and with it the tail, depends as
    little as possible on the seed: one key per equal slice of the
    popularity distribution, in shuffled order, at a constant rate.
    """
    count = max(1, int(rate * seconds))
    quantiles = [(index + rng.random()) / count for index in range(count)]
    rng.shuffle(quantiles)
    return [(index / rate, mix.key_at(q)) for index, q in enumerate(quantiles)]


# -- HTTP -------------------------------------------------------------------


async def _get(port: int, path: str, timeout: float = 30.0) -> Tuple[int, dict]:
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection("127.0.0.1", port), timeout
    )
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Connection: close\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body)


def get(port: int, path: str) -> Tuple[int, dict]:
    return asyncio.run(_get(port, path))


def _judge(key: Key, status: int, body: dict) -> Tuple[bool, str, dict]:
    meta = body.get("meta", {})
    problems = []
    if status != 200:
        problems.append(f"HTTP {status} {body.get('error', '')}".rstrip())
    if meta.get("status") != "ok":
        problems.append(f"meta.status={meta.get('status')}")
    for flag in ("degraded", "stale", "partial"):
        if meta.get(flag):
            problems.append(flag)
    return not problems, f"{key.path}: {', '.join(problems)}", meta


async def _drive(port: int, plan, connections: int) -> Tuple[List[Sample], bool]:
    samples: List[Sample] = []
    cursor = iter(plan)
    abandoned = False
    origin = time.perf_counter() + 0.05

    async def connection() -> None:
        nonlocal abandoned
        for offset, key in cursor:
            due = origin + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            if abandoned or sent - due > ABANDON_LATE_S:
                abandoned = True
                return
            try:
                status, body = await _get(port, key.path)
            except (OSError, asyncio.TimeoutError, ValueError, IndexError) as error:
                samples.append(Sample(
                    key, due, sent, time.perf_counter(), False,
                    f"{key.path}: {type(error).__name__}: {error}",
                ))
                continue
            done = time.perf_counter()
            ok, reason, meta = _judge(key, status, body)
            samples.append(Sample(
                key, due, sent, done, ok, reason,
                cache=str(meta.get("cache", "")),
                server_ms=float(meta.get("elapsed_ms", 0.0)),
                data=body.get("data"),
            ))

    await asyncio.gather(*(connection() for _ in range(connections)))
    return samples, abandoned


def run_rung(port: int, rng: random.Random, mix: Mix, rate: float, seconds: float) -> Rung:
    plan = schedule(rng, mix, rate, seconds)
    # The generator's own collector pauses would read as server latency.
    gc.disable()
    try:
        samples, abandoned = asyncio.run(_drive(port, plan, CONNECTIONS))
    finally:
        gc.enable()
    return Rung(rate, samples, abandoned)


#: Slices of the reference rate; the host speed is sampled between them.
REFERENCE_SLICES = 5


def run_reference(
    port: int, rng: random.Random, mix: Mix, rate: float, seconds: float,
    speed: Speedometer,
) -> Rung:
    """The reference rate in slices, each normalized for host speed.

    Host speed drifts in spells of a few seconds and queueing amplifies
    a slow spell in the tail, so each slice's latencies are scaled by
    the calibration kernel timed right before and right after it, as
    batch operation times are.  The server idles while the kernel runs.
    """
    samples: List[Sample] = []
    abandoned = False
    before = speed.sample()
    for _ in range(REFERENCE_SLICES):
        rung = run_rung(port, rng, mix, rate, seconds / REFERENCE_SLICES)
        after = speed.sample()
        factor = speed.normalize(1.0, before, after)
        for sample in rung.samples:
            sample.speed = factor
        samples += rung.samples
        abandoned = abandoned or rung.abandoned
        before = after
    return Rung(rate, samples, abandoned)


# -- the server process -------------------------------------------------------


class Server:
    """``repro serve`` in a child process on an ephemeral port."""

    def __init__(self, ctx, store: Path, name: str) -> None:
        self.errors = ctx.work / f"{name}.stderr"
        start = time.perf_counter()
        with open(self.errors, "w") as stderr:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", str(store),
                    "--port", "0",
                    "--max-concurrency", str(SERVER_CONCURRENCY),
                ],
                cwd=ctx.root, env=ctx.child_env(),
                stdout=subprocess.PIPE, stderr=stderr, text=True,
            )
        try:
            self.port = self._read_port(timeout=60.0)
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - start

    def _read_port(self, timeout: float) -> int:
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            limit = time.monotonic() + timeout
            while time.monotonic() < limit:
                if not selector.select(timeout=limit - time.monotonic()):
                    break
                line = self.process.stdout.readline()
                if not line:
                    break
                match = _LISTENING.search(line)
                if match:
                    return int(match.group(1))
        raise RuntimeError(
            f"server printed no 'listening on' line: {self.errors.read_text()[-800:]}"
        )

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM, wait for the drain, and require exit status 0."""
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=60)
        finally:
            self.kill()
        if self.process.returncode != 0:
            raise RuntimeError(
                f"server exited {self.process.returncode}: "
                f"{self.errors.read_text()[-800:]}"
            )

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


# -- the workload -------------------------------------------------------------


def _record(tally: Tally, samples: List[Sample]) -> None:
    for sample in samples:
        tally.record(sample.ok, sample.reason)


def _warm(port: int, mix: Mix, tally: Tally) -> None:
    """Fill the cache: dashboard keys, the full report, the top pool keys."""
    keys = mix.dashboard + [Key("/v1/report", kind="report")]
    keys += mix.pool[: max(0, 256 - len(keys))]
    for key in keys:
        status, body = get(port, key.path)
        ok, reason, _ = _judge(key, status, body)
        tally.record(ok, reason)


def _ladder(ctx, port, rng, mix, tally, speed, on_reference=None) -> List[Rung]:
    """The reference rate first, then up (or down) until a rate fails."""
    rates = sorted(ctx.sizes.ladder)
    ref = rates.index(ctx.sizes.reference_rate)
    reference_s = ctx.seconds * REFERENCE_SHARE
    other_s = (ctx.seconds - reference_s) / max(1, len(rates) - ref - 1)
    rungs = [run_reference(port, rng, mix, rates[ref], reference_s, speed)]
    if on_reference is not None:
        on_reference()
    order = rates[ref + 1:] if rungs[0].sustained else rates[:ref][::-1]
    for rate in order:
        rung = run_rung(port, rng, mix, rate, other_s)
        rungs.append(rung)
        if rung.sustained != rungs[0].sustained:
            break
    for rung in rungs:
        _record(tally, rung.samples)
    return rungs


def _max_sustained(rungs: List[Rung]) -> float:
    passing = [rung for rung in rungs if rung.sustained]
    if not passing:
        return 0.0
    return max(passing, key=lambda rung: rung.rate).achieved_per_s


def _check_answers(store: ColumnarStore, samples: List[Sample], tally: Tally) -> Dict[str, float]:
    """The first answer for each distinct key against an in-process scan.

    Returns the summaries' total seconds and scan counters.
    """
    first: Dict[str, Sample] = {}
    for sample in samples:
        if sample.ok and sample.key.kind != "report":
            first.setdefault(sample.key.path, sample)
    totals = dict.fromkeys(("seconds", "scanned", "pruned", "rows", "matched"), 0.0)
    for path, sample in first.items():
        start = time.perf_counter()
        summary = summarize_store(store, predicate=sample.key.predicate())
        totals["seconds"] += time.perf_counter() - start
        totals["scanned"] += summary.scan.shards_scanned
        totals["pruned"] += summary.scan.shards_pruned
        totals["rows"] += summary.scan.rows_scanned
        totals["matched"] += summary.scan.rows_matched
        if sample.key.kind == "systems":
            expected = {
                "systems": [
                    {"system": system, "rows": rows}
                    for system, rows in sorted(summary.counts_by_system.items())
                ],
                "row_count": summary.rows,
            }
        else:
            expected = summary.to_dict()
        expected = json.loads(json.dumps(expected))
        tally.record(sample.data == expected, f"{path}: answer differs from summarize_store")
    return totals


def run(ctx) -> WorkloadResult:
    tally = Tally()
    speed = Speedometer()
    rng = random.Random(ctx.seed)
    with step(ctx.workload, "setup: build stores"):
        paths, built = build_stores(ctx, ctx.sizes.serve_scale)
    servers: List[Server] = []
    try:
        setup = []
        for rep, path in enumerate(paths):
            with step(ctx.workload, f"setup: start server {rep}"):
                before = speed.sample()
                server = Server(ctx, path, f"server-{rep}")
                servers.append(server)
                ready = speed.normalize(server.ready_s, before, speed.sample())
            setup.append(built["seconds"][rep] + ready)
            if rep < len(paths) - 1:
                with step(ctx.workload, f"setup: stop server {rep}"):
                    server.stop()
        store = ColumnarStore(paths[-1])
        mix = build_mix(rng, store)
        with step(ctx.workload, "warm cache"):
            _warm(server.port, mix, tally)
        # A traced run reads the server's counters around the reference rate.
        stats: List[dict] = []

        def snapshot() -> None:
            stats.append(get(server.port, "/v1/stats")[1])

        with step(ctx.workload, "load ladder"):
            if ctx.trace:
                snapshot()
            rungs = _ladder(
                ctx, server.port, rng, mix, tally, speed,
                snapshot if ctx.trace else None,
            )
        with step(ctx.workload, "stop server"):
            rss = server.peak_rss_mb()
            server.stop()
    finally:
        for server in servers:
            server.kill()

    samples = [sample for rung in rungs for sample in rung.samples]
    with step(ctx.workload, "check answers"):
        _check_answers(store, samples, tally)
    reference = rungs[0]
    if not ctx.trace:
        return WorkloadResult(
            {
                "setup_s": median(setup),
                "ok_share": tally.ok_share,
                "peak_rss_mb": rss,
                "p50_ms": reference.p50_ms,
                "throughput_per_s": _max_sustained(rungs),
            },
            tally,
        )

    with step(ctx.workload, "replay the checks traced and untraced"):
        # The checks above already warmed the store, so the two replays
        # compare like with like.
        layers = Layers()
        with layers.wrap_iter(ColumnarStore, "iter_batches", "store.scan"):
            start = time.perf_counter()
            totals = _check_answers(store, samples, Tally())
            traced_s = time.perf_counter() - start
        start = time.perf_counter()
        _check_answers(store, samples, Tally())
        untraced_s = time.perf_counter() - start
    scan = layers.busy["store.scan"]
    fold = totals["seconds"] - scan
    before, after = stats
    cache_before, cache_after = before["gateway"]["cache"], after["gateway"]["cache"]
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    ok = [s for s in reference.samples if s.ok]
    metrics = dict(built["layers"])
    metrics.update({
        "store.scan.busy_s": scan,
        "store.scan.rows": float(totals["rows"]),
        "store.scan.shards_pruned_share": totals["pruned"] / (totals["pruned"] + totals["scanned"]),
        "store.scan.rows_matched_share": totals["matched"] / totals["rows"],
        "fold.busy_s": fold,
        "fold.rows_per_s": totals["matched"] / fold,
        "serve.latency_ms_p90": reference.p90_ms,
        "serve.latency_ms_p99": reference.p99_ms,
        "serve.server_ms_p50": percentile([s.server_ms for s in ok], 0.50),
        "serve.server_ms_p99": percentile([s.server_ms for s in ok], 0.99),
        "serve.http_ms_p50": percentile([(s.done - s.sent) * 1000.0 - s.server_ms for s in ok], 0.50),
        "serve.hit_ms_p50": percentile([s.latency_ms for s in ok if s.cache == "hit"], 0.50),
        "serve.miss_ms_p50": percentile([s.latency_ms for s in ok if s.cache == "miss"], 0.50),
        "serve.cache.hit_share": hits / (hits + misses),
        "serve.cache.evictions": float(cache_after["evictions"] - cache_before["evictions"]),
        "serve.admission.peak_waiting": float(after["admission"]["peak_waiting"]),
        "serve.gen_late_ms": percentile([(s.sent - s.due) * 1000.0 for s in reference.samples], 0.99),
        "trace.unaccounted_share": (traced_s - scan - fold) / traced_s,
        "trace.overhead_share": traced_s / untraced_s - 1.0,
    })
    metrics.update(untouched(REPORT_LAYERS, MATERIALIZED_LAYERS))
    return WorkloadResult(metrics, tally)
