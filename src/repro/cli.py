"""Command-line interface.

::

    python -m repro generate --seed 1 --out trace.csv
    python -m repro generate --systems 19,20 --format jsonl --out g.jsonl
    python -m repro generate --workers 4 --run-dir runs/full --out trace.csv
    python -m repro generate --resume --run-dir runs/full --out trace.csv
    python -m repro generate --store columnar --scale 35 --out runs/big-store
    python -m repro store info runs/big-store
    python -m repro store verify runs/big-store
    python -m repro store analyze runs/big-store --systems 20 --json
    python -m repro store export runs/big-store trace.csv
    python -m repro store import trace.csv runs/imported-store
    python -m repro store scrub runs/big-store --fix-stats
    python -m repro store repair runs/big-store --from trace.csv
    python -m repro store append runs/big-store extra.csv
    python -m repro store merge runs/merged runs/store-a runs/store-b
    python -m repro report runs/big-store
    python -m repro report trace.csv --artifact fig6
    python -m repro report --synthetic --artifact all
    python -m repro store analyze runs/big-store --full
    python -m repro summary trace.csv
    python -m repro availability trace.csv
    python -m repro validate trace.csv
    python -m repro ingest dirty.csv --mode lenient --quarantine dead.jsonl
    python -m repro chaos --synthetic --rate 0.05
    python -m repro bench --obs-guard
    python -m repro generate --seed 1 --out t.csv --trace trace.jsonl --metrics
    python -m repro profile --systems 2,13,20 --workers 2 --top 10
    python -m repro profile --trace trace.jsonl --validate
    python -m repro schema

Every subcommand that reads a trace accepts a CSV/JSONL path, a
columnar store directory, or ``--synthetic`` (with ``--seed``) to
generate the LANL trace in-process.

Any uncaught error exits with status 1 and a one-line message; pass
``--verbose`` (before or after the subcommand) to re-raise with the
full traceback instead.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__

__all__ = ["main", "build_parser"]

class _Artifacts:
    """``report --artifact`` choices: the paper's sections, then ``all``.

    Read from :data:`repro.report.paper.SECTIONS` only when argparse
    consults them, so commands other than ``report`` do not pay for
    importing the report package.
    """

    def __iter__(self):
        from repro.report.paper import SECTIONS

        return iter(SECTIONS + ("all",))


ARTIFACTS = _Artifacts()

INGEST_MODES = ("strict", "lenient", "repair")


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HPC failure-data analysis toolkit (Schroeder & Gibson, DSN 2006)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument(
        "--verbose", action="store_true", default=False,
        help="re-raise errors with the full traceback",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic LANL trace")
    generate.set_defaults(handler=_command_generate)
    generate.add_argument("--seed", type=int, default=0, help="generator seed")
    generate.add_argument(
        "--systems", type=str, default="",
        help="comma-separated system IDs (default: all 22)",
    )
    generate.add_argument("--out", type=str, required=True, help="output path")
    generate.add_argument(
        "--format", choices=("csv", "jsonl"), default="csv", help="output format"
    )
    generate.add_argument(
        "--store", choices=("records", "columnar"), default="records",
        help="output layout: 'records' writes --format to --out; "
             "'columnar' writes a sharded columnar store directory at "
             "--out (out-of-core; --format is ignored)",
    )
    generate.add_argument(
        "--scale", type=float, default=1.0, metavar="FACTOR",
        help="scale every system's node count by this factor "
             "(e.g. 35 ~ a million records)",
    )
    generate.add_argument(
        "--shard-rows", type=int, default=None, metavar="ROWS",
        help="rows per shard for --store columnar (default 131072)",
    )
    generate.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for per-system generation (supervised: "
             "crashed or hung workers are respawned and their shards retried)",
    )
    generate.add_argument(
        "--run-dir", type=str, default=None,
        help="run directory for the shard journal and run report "
             "(enables --resume after a crash)",
    )
    generate.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted run: skip shards already recorded "
             "in --run-dir's journal",
    )
    generate.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="hang detection: respawn the pool if no shard completes "
             "within this many seconds",
    )
    generate.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempts per shard, retried after a backoff, before the "
             "shard is skipped (the run then exits 3)",
    )
    generate.add_argument(
        "--chaos", type=str, default=None, metavar="OP[:TIMES]",
        help="fault-injection drill: inject process chaos into shard "
             "generation (kill-worker, hang-worker, slow-shard, "
             "flaky-shard); testing/CI only",
    )
    generate.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="enable tracing and write the span/metric event stream "
             "as JSONL to this path (worker spans are merged in)",
    )
    generate.add_argument(
        "--metrics", action="store_true",
        help="enable the metrics registry and print its summary",
    )

    for name, help_text, handler in (
        ("report", "render a paper table/figure from a trace", _command_report),
        ("summary", "print the whole-paper summary", _command_summary),
        ("availability", "per-system MTBF/MTTR/availability", _command_availability),
        ("validate", "check a trace file against the data model", _command_validate),
        ("outliers", "flag statistically anomalous nodes of a system", _command_outliers),
    ):
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(handler=handler)
        command.add_argument("trace", nargs="?", default=None, help="CSV/JSONL path")
        command.add_argument(
            "--synthetic", action="store_true",
            help="use the synthetic trace instead of a file",
        )
        command.add_argument("--seed", type=int, default=1, help="synthetic seed")
        command.add_argument(
            "--on-damage", choices=("raise", "skip"), default="raise",
            help="columnar-store traces only: 'raise' fails on a damaged "
                 "shard; 'skip' runs a degraded read over the healthy "
                 "shards and warns on stderr",
        )
        if name == "report":
            command.add_argument(
                "--artifact", choices=ARTIFACTS, default="all",
                metavar="ARTIFACT",
                help="which table/figure to render: %(choices)s "
                     "(default: all)",
            )
            command.add_argument(
                "--batch-rows", type=int, default=None, metavar="ROWS",
                help="store directories only: rows per streamed chunk "
                     "(default 65536)",
            )
        if name == "outliers":
            command.add_argument(
                "--system", type=int, default=20, help="system ID to inspect"
            )
            command.add_argument(
                "--threshold", type=float, default=0.995,
                help="bulk-quantile flagging threshold",
            )

    compare = sub.add_parser("compare", help="compare two traces metric by metric")
    compare.set_defaults(handler=_command_compare)
    compare.add_argument("trace_a", help="first CSV/JSONL path")
    compare.add_argument("trace_b", help="second CSV/JSONL path")

    ingest = sub.add_parser(
        "ingest", help="load a (possibly dirty) trace under an ingest policy"
    )
    ingest.set_defaults(handler=_command_ingest)
    ingest.add_argument("trace", help="CSV/JSONL path, optionally gzipped")
    ingest.add_argument(
        "--mode", choices=INGEST_MODES, default="lenient",
        help="strict: fail on first bad row; lenient: quarantine bad rows; "
             "repair: fix swapped times / duplicate IDs / clampable "
             "timestamps, then quarantine",
    )
    ingest.add_argument(
        "--quarantine", type=str, default=None,
        help="dead-letter JSONL path for quarantined rows",
    )
    ingest.add_argument(
        "--max-error-rate", type=float, default=0.1,
        help="fail when more than this fraction of rows is quarantined",
    )
    ingest.add_argument(
        "--out", type=str, default=None,
        help="write the surviving rows to this CSV/JSONL path",
    )
    ingest.add_argument(
        "--json", action="store_true", help="print the ingest report as JSON"
    )

    chaos = sub.add_parser(
        "chaos", help="corrupt a trace, re-ingest it, and check survival"
    )
    chaos.set_defaults(handler=_command_chaos)
    chaos.add_argument("trace", nargs="?", default=None, help="CSV/JSONL path")
    chaos.add_argument(
        "--synthetic", action="store_true",
        help="use the synthetic trace instead of a file",
    )
    chaos.add_argument("--seed", type=int, default=1, help="synthetic seed")
    chaos.add_argument(
        "--systems", type=str, default="",
        help="comma-separated system IDs for --synthetic (default: all 22)",
    )
    chaos.add_argument(
        "--chaos-seed", type=int, default=0, help="corruption injector seed"
    )
    chaos.add_argument(
        "--rate", type=float, default=0.05, help="fraction of rows to corrupt"
    )
    chaos.add_argument(
        "--mode", choices=("lenient", "repair"), default="lenient",
        help="ingest mode for the corrupted file",
    )
    chaos.add_argument(
        "--no-report", action="store_true",
        help="skip the paper report, only exercise ingest",
    )

    # Registered as "chaos-campaign"; main() rewrites the two-token
    # spelling ``chaos campaign ...`` to it, so the documented command
    # is ``repro chaos campaign`` while the legacy ``repro chaos
    # <trace>`` positional keeps working.
    campaign = sub.add_parser(
        "chaos-campaign",
        help="run a deterministic chaos campaign and verify recovery "
             "invariants (also: 'chaos campaign')",
    )
    campaign.set_defaults(handler=_command_chaos_campaign)
    campaign.add_argument(
        "--preset", choices=("smoke", "full"), default="smoke",
        help="scenario matrix to run (smoke: CI-sized; full: everything)",
    )
    campaign.add_argument(
        "--seed", type=int, default=7,
        help="campaign seed; same (preset, seed) -> byte-identical scorecard",
    )
    campaign.add_argument(
        "--root", type=str, default=None, metavar="DIR",
        help="campaign working directory (default: a temporary directory)",
    )
    campaign.add_argument(
        "--out", type=str, default=None, metavar="PATH",
        help="where to write robustness_scorecard.json "
             "(default: <root>/robustness_scorecard.json)",
    )
    campaign.add_argument(
        "--json", action="store_true",
        help="print the scorecard JSON instead of the summary",
    )

    bench = sub.add_parser(
        "bench",
        help="overhead guards: what disabled instrumentation costs "
             "(runs every guard unless some are selected)",
    )
    bench.set_defaults(handler=_command_bench)
    bench.add_argument("--seed", type=int, default=1, help="generator seed")
    bench.add_argument(
        "--obs-guard", action="store_true",
        help="assert that disabled observability costs <= 2%% of a "
             "quick generate",
    )
    bench.add_argument(
        "--fsfaults-guard", action="store_true",
        help="assert that the disabled filesystem-fault shim costs "
             "<= 2%% of a quick generate + trace write",
    )
    bench.add_argument(
        "--serve-guard", action="store_true",
        help="assert that the disabled read-path fault shim costs "
             "<= 2%% of a store analytics scan (the serving hot path)",
    )

    profile = sub.add_parser(
        "profile",
        help="run a scaled workload under tracing and print the span "
             "tree and top hotspots",
    )
    profile.set_defaults(handler=_command_profile)
    profile.add_argument("--seed", type=int, default=1, help="generator seed")
    profile.add_argument(
        "--systems", type=str, default="2,13,20",
        help="comma-separated system IDs for the profiling workload",
    )
    profile.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (worker spans are merged into the trace)",
    )
    profile.add_argument(
        "--report", action="store_true",
        help="also profile the paper report over the generated trace",
    )
    profile.add_argument(
        "--top", type=int, default=10, help="number of hotspots to print"
    )
    profile.add_argument(
        "--max-depth", type=int, default=None,
        help="limit the printed span tree to this depth",
    )
    profile.add_argument(
        "--out", type=str, default=None, metavar="PATH",
        help="also write the trace JSONL here",
    )
    profile.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="analyze an existing trace JSONL instead of running a workload",
    )
    profile.add_argument(
        "--validate", action="store_true",
        help="validate the trace against the schema (exit 1 on problems)",
    )

    store = sub.add_parser(
        "store", help="inspect, verify, convert a columnar trace store"
    )
    store.set_defaults(handler=_command_store)
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_info = store_sub.add_parser(
        "info", help="print a store's manifest summary"
    )
    store_info.add_argument("root", help="store directory")
    store_info.add_argument(
        "--json", action="store_true", help="print the summary as JSON"
    )

    store_verify = store_sub.add_parser(
        "verify", help="check column files against the manifest"
    )
    store_verify.add_argument("root", help="store directory")
    store_verify.add_argument(
        "--shallow", action="store_true",
        help="skip content checksums, statistics and sort checks "
             "(existence, shape and dtype only)",
    )
    store_verify.add_argument(
        "--json", action="store_true",
        help="print {problems, summary} as JSON (exit codes unchanged: "
             "0 clean, 1 problems)",
    )

    store_scrub = store_sub.add_parser(
        "scrub",
        help="classify damage, quarantine bad shards, repair safe drift",
    )
    store_scrub.add_argument("root", help="store directory")
    store_scrub.add_argument(
        "--fix-stats", action="store_true",
        help="recompute drifted manifest statistics from verified "
             "column data (instead of just reporting the drift)",
    )
    store_scrub.add_argument(
        "--json", action="store_true", help="print the scrub report as JSON"
    )

    store_repair = store_sub.add_parser(
        "repair",
        help="re-materialize quarantined shards from a reference trace "
             "or store, proving byte identity against the manifest",
    )
    store_repair.add_argument("root", help="store directory")
    store_repair.add_argument(
        "--from", dest="source", required=True, metavar="REFERENCE",
        help="reference to rebuild from: a CSV/JSONL trace file or "
             "another store directory holding the same records",
    )
    store_repair.add_argument(
        "--json", action="store_true", help="print the repair report as JSON"
    )

    store_append = store_sub.add_parser(
        "append",
        help="append a trace's records to an existing store (crash-safe: "
             "staged shards, atomic manifest publish)",
    )
    store_append.add_argument("root", help="existing store directory")
    store_append.add_argument(
        "source", help="CSV/JSONL trace file or store directory to append"
    )
    store_append.add_argument(
        "--shard-rows", type=int, default=None, metavar="ROWS",
        help="rows per new shard (default: the store's largest shard)",
    )

    store_merge = store_sub.add_parser(
        "merge",
        help="merge several traces/stores into a new store "
             "(globally re-sorted, crash-safe manifest publish)",
    )
    store_merge.add_argument("out", help="store directory to create")
    store_merge.add_argument(
        "sources", nargs="+",
        help="two or more CSV/JSONL trace files or store directories",
    )
    store_merge.add_argument(
        "--shard-rows", type=int, default=None, metavar="ROWS",
        help="rows per shard (default 131072)",
    )
    store_merge.add_argument(
        "--on-damage", choices=("raise", "skip"), default="raise",
        help="'skip' reads damaged source stores degraded instead of "
             "failing the merge",
    )

    store_analyze = store_sub.add_parser(
        "analyze",
        help="streaming summary over the store (bounded memory, "
             "predicate pushdown)",
    )
    store_analyze.add_argument("root", help="store directory")
    store_analyze.add_argument(
        "--since", type=float, default=None, metavar="TS",
        help="keep rows with start_time >= TS (epoch seconds)",
    )
    store_analyze.add_argument(
        "--until", type=float, default=None, metavar="TS",
        help="keep rows with start_time < TS (epoch seconds)",
    )
    store_analyze.add_argument(
        "--systems", type=str, default="",
        help="comma-separated system IDs to keep",
    )
    store_analyze.add_argument(
        "--batch-rows", type=int, default=None, metavar="ROWS",
        help="rows per read chunk (default 65536)",
    )
    store_analyze.add_argument(
        "--json", action="store_true", help="print the summary as JSON"
    )
    store_analyze.add_argument(
        "--on-damage", choices=("raise", "skip"), default="raise",
        help="'raise' fails on a damaged shard; 'skip' summarizes the "
             "healthy shards and reports the skipped ones",
    )
    store_analyze.add_argument(
        "--full", action="store_true",
        help="render the full paper report out-of-core (streaming "
             "sketches, bounded memory) instead of the summary",
    )

    store_export = store_sub.add_parser(
        "export", help="stream a store to a CSV/JSONL trace file"
    )
    store_export.add_argument("root", help="store directory")
    store_export.add_argument("out", help="output path (.csv/.jsonl[.gz])")
    store_export.add_argument(
        "--format", choices=("csv", "jsonl"), default=None,
        help="output format (default: from the file suffix)",
    )
    store_export.add_argument(
        "--since", type=float, default=None, metavar="TS",
        help="keep rows with start_time >= TS",
    )
    store_export.add_argument(
        "--until", type=float, default=None, metavar="TS",
        help="keep rows with start_time < TS",
    )
    store_export.add_argument(
        "--systems", type=str, default="",
        help="comma-separated system IDs to keep",
    )

    store_import = store_sub.add_parser(
        "import", help="import a CSV/JSONL trace file into a store"
    )
    store_import.add_argument("trace", help="CSV/JSONL path, optionally gzipped")
    store_import.add_argument("root", help="store directory to create")
    store_import.add_argument(
        "--shard-rows", type=int, default=None, metavar="ROWS",
        help="rows per shard (default 131072)",
    )

    serve = sub.add_parser(
        "serve",
        help="serve store analytics over HTTP until SIGTERM "
             "(admission control, deadlines, degraded serving)",
    )
    serve.set_defaults(handler=_command_serve)
    serve.add_argument("root", help="columnar store directory to serve")
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="listen port (0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--max-concurrency", type=int, default=4, metavar="N",
        help="queries executing simultaneously",
    )
    serve.add_argument(
        "--max-queue", type=int, default=16, metavar="N",
        help="queries allowed to wait; beyond that requests get 429",
    )
    serve.add_argument(
        "--deadline-seconds", type=float, default=5.0, metavar="S",
        help="default per-request scan budget (?deadline_ms= overrides)",
    )
    serve.add_argument(
        "--breaker-cooldown", type=float, default=5.0, metavar="S",
        help="open-breaker cooldown before a half-open probe",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=10.0, metavar="S",
        help="how long a SIGTERM drain waits for in-flight requests",
    )
    serve.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="write the final metrics snapshot here on drain",
    )

    serve_bench = sub.add_parser(
        "serve-bench",
        help="load-test the analytics service in-process and report "
             "latency percentiles and error/degraded rates",
    )
    serve_bench.set_defaults(handler=_command_serve_bench)
    serve_bench.add_argument("root", help="columnar store directory")
    serve_bench.add_argument(
        "--requests", type=int, default=200, help="total requests to issue"
    )
    serve_bench.add_argument(
        "--clients", type=int, default=8, help="concurrent client workers"
    )
    serve_bench.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request deadline to attach to every query",
    )
    serve_bench.add_argument(
        "--max-concurrency", type=int, default=4, metavar="N",
        help="server-side concurrent query limit",
    )
    serve_bench.add_argument(
        "--max-queue", type=int, default=16, metavar="N",
        help="server-side admission queue cap",
    )
    serve_bench.add_argument(
        "--out", type=str, default=None, metavar="PATH",
        help="write the JSON report here",
    )
    serve_bench.add_argument(
        "--check-p99", type=float, default=None, metavar="MS",
        help="fail (exit 1) if p99 latency exceeds this many ms",
    )
    serve_bench.add_argument(
        "--max-error-rate", type=float, default=0.0, metavar="FRAC",
        help="fail if the 5xx/connection-error rate exceeds this",
    )

    schema = sub.add_parser("schema", help="print the trace CSV schema")
    schema.set_defaults(handler=_command_schema)
    # --verbose is accepted before or after the subcommand; SUPPRESS
    # keeps a subparser without the flag from clobbering the root value.
    for subparser in sub.choices.values():
        subparser.add_argument(
            "--verbose", action="store_true", default=argparse.SUPPRESS,
            help=argparse.SUPPRESS,
        )
    for subparser in store_sub.choices.values():
        subparser.add_argument(
            "--verbose", action="store_true", default=argparse.SUPPRESS,
            help=argparse.SUPPRESS,
        )
    return parser


def _load_trace(args: argparse.Namespace):
    """Load the command's trace; returns ``(trace, degraded)``.

    ``degraded`` is a :class:`repro.store.DegradedReadReport` when the
    trace came from a columnar store opened with ``--on-damage skip``
    and shards were skipped, else ``None``.  A degraded load warns on
    stderr so piped stdout stays clean.
    """
    if args.synthetic:
        from repro.synth import TraceGenerator

        return TraceGenerator(seed=args.seed).generate(), None
    if not args.trace:
        raise SystemExit("error: provide a trace path or --synthetic")
    from pathlib import Path

    if Path(args.trace).is_dir():
        from repro.store import ColumnarStore

        store = ColumnarStore(
            args.trace, on_damage=getattr(args, "on_damage", "raise")
        )
        trace = store.to_trace()
        degraded = store.degraded if store.degraded else None
        if degraded is not None:
            print(
                f"warning: degraded read: skipped "
                f"{len(degraded.shards_skipped)} shard(s) "
                f"({degraded.rows_skipped} rows); run `repro store "
                f"scrub {args.trace}`",
                file=sys.stderr,
            )
        return trace, degraded
    from repro.io import read_trace_file

    return read_trace_file(args.trace), None


def _parse_chaos(spec: str, run_dir) -> "object":
    """Parse ``--chaos OP[:TIMES]`` into a ProcessChaos spec."""
    from repro.faults import make_chaos

    operator, _, times_text = spec.partition(":")
    times = int(times_text) if times_text else 1
    state_dir = str(run_dir / "chaos-state") if run_dir is not None else None
    return make_chaos(operator, times=times, state_dir=state_dir)


def _command_generate(args: argparse.Namespace) -> int:
    import contextlib
    from pathlib import Path

    from repro import obs
    from repro.io import write_jsonl, write_lanl_csv
    from repro.resilience import RetryPolicy, ShardJournal
    from repro.synth import SupervisionConfig, TraceGenerator

    system_ids = None
    if args.systems:
        system_ids = [int(part) for part in args.systems.split(",") if part]
    systems = None
    if args.scale != 1.0:
        from repro.synth.scenario import scaled_lanl_systems

        systems = scaled_lanl_systems(args.scale)
    generator = TraceGenerator(seed=args.seed, systems=systems)
    run_dir = Path(args.run_dir) if args.run_dir else None
    if args.resume and run_dir is None:
        raise SystemExit("error: --resume requires --run-dir")
    journal = None
    if run_dir is not None:
        journal = ShardJournal(
            run_dir,
            meta=generator.journal_meta(),
            resume=args.resume,
        )
    supervision = SupervisionConfig(
        policy=RetryPolicy(max_attempts=args.max_attempts, seed=args.seed),
        shard_timeout=args.shard_timeout,
    )
    chaos = contextlib.nullcontext()
    if args.chaos:
        from repro.faults import chaos_env

        if args.workers == 1:
            print(
                "warning: --chaos with --workers 1 injects into the main "
                "process; kill/hang operators will take down the run "
                "itself (use --run-dir so --resume can finish it)",
                file=sys.stderr,
            )
        chaos = chaos_env(_parse_chaos(args.chaos, run_dir))
    # Observability is opt-in (--trace / --metrics): a tracer + metrics
    # registry are installed for the whole command, and worker-process
    # tracing is armed through a spool directory (under --run-dir when
    # given, else a temp dir that outlives the worker pool).
    observability = bool(args.trace or args.metrics)
    tracer = None
    registry = None
    with contextlib.ExitStack() as stack:
        if observability:
            import tempfile

            tracer = obs.Tracer(run_id=f"generate:seed={args.seed}")
            registry = obs.MetricsRegistry()
            if run_dir is not None:
                spool = run_dir / "obs-spool"
            else:
                spool = Path(
                    stack.enter_context(
                        tempfile.TemporaryDirectory(prefix="repro-obs-")
                    )
                )
            stack.enter_context(obs.observing(tracer, registry, spool=spool))
            stack.enter_context(
                obs.span(
                    "repro.generate",
                    seed=args.seed,
                    workers=args.workers,
                    out=args.out,
                )
            )
        if args.store == "columnar":
            from repro.store.writer import DEFAULT_SHARD_ROWS

            with chaos:
                manifest = generator.generate_store(
                    args.out,
                    system_ids,
                    workers=args.workers,
                    supervision=supervision,
                    journal=journal,
                    shard_rows=(
                        args.shard_rows
                        if args.shard_rows is not None
                        else DEFAULT_SHARD_ROWS
                    ),
                )
            count = manifest.row_count
            print(
                f"wrote {count} records in {len(manifest.shards)} "
                f"shard(s) to {args.out}"
            )
        else:
            with chaos:
                trace = generator.generate(
                    system_ids,
                    workers=args.workers,
                    supervision=supervision,
                    journal=journal,
                )
            with obs.span("io.write", path=args.out, format=args.format):
                if args.format == "jsonl":
                    count = write_jsonl(trace, args.out)
                else:
                    count = write_lanl_csv(trace, args.out)
            print(f"wrote {count} records to {args.out}")
    if tracer is not None and args.trace:
        lines = tracer.write(args.trace, metrics=registry)
        print(f"wrote trace ({lines} events) to {args.trace}")
    if registry is not None and args.metrics:
        print(registry.describe())
    report = generator.last_run_report
    if report is not None:
        if tracer is not None:
            report.meta["observability"] = {
                "trace": args.trace,
                "spans": len(tracer.events),
                "metrics": len(registry) if registry is not None else 0,
            }
        if run_dir is not None:
            report.write(run_dir / "run_report.json")
            print(f"wrote {run_dir / 'run_report.json'}")
        if report.resumed_shards:
            print(f"resumed {len(report.resumed_shards)} shard(s) from the journal")
        if report.retried_shards or report.skipped_shards:
            print(report.describe())
        if report.skipped_shards:
            # The run *completed*, but some shards failed past every
            # retry: the trace is missing systems.
            return 3
    return 0


def _report_from_store(args: argparse.Namespace) -> int:
    """``repro report <store-dir>``: the out-of-core streaming path.

    Renders straight from the columnar store through streaming sketches
    — no trace is materialized, so peak memory stays bounded by one
    read chunk regardless of store size.
    """
    from repro.report.streaming import run_store_report
    from repro.store import ColumnarStore
    from repro.store.reader import DEFAULT_BATCH_ROWS

    store = ColumnarStore(
        args.trace, on_damage=getattr(args, "on_damage", "raise")
    )
    batch_rows = (
        DEFAULT_BATCH_ROWS if args.batch_rows is None else args.batch_rows
    )
    result = run_store_report(store, batch_rows=batch_rows)
    if result.degraded is not None:
        print(
            f"warning: degraded read: skipped "
            f"{len(result.degraded['shards_skipped'])} shard(s) "
            f"({result.degraded['rows_skipped']} rows); run "
            f"`repro store scrub {args.trace}`",
            file=sys.stderr,
        )
    return _print_report(result.report, args.artifact, "store")


def _print_report(paper, artifact: str, source: str) -> int:
    """Print the report (or one section of it); exit 1 unless it rendered."""
    if artifact == "all":
        print(paper.render())
        print("\n" + "=" * 78 + "\n")
        print(paper.diagnostics())
        return 0 if paper.ok else 1
    section = next(s for s in paper.sections if s.name == artifact)
    if section.ok:
        print(section.text)
        return 0
    print(f"[{artifact} unavailable on this {source}: {section.error}]")
    return 1


def _command_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.report.paper import run_paper_report

    if args.trace and not args.synthetic and Path(args.trace).is_dir():
        return _report_from_store(args)
    trace, degraded = _load_trace(args)
    return _print_report(
        run_paper_report(trace, degraded), args.artifact, "trace"
    )


def _command_summary(args: argparse.Namespace) -> int:
    from repro.analysis import summarize
    from repro.records.record import RootCause

    trace, _ = _load_trace(args)
    summary = summarize(trace)
    print(f"records: {summary.n_records}")
    low, high = summary.rate_range
    print(f"failure rates: {low:.0f} .. {high:.0f} per year")
    overall = summary.cause_breakdown["All systems"]
    causes = "  ".join(
        f"{cause.value}={overall.percent(cause):.0f}%" for cause in RootCause
    )
    print(f"root causes: {causes}")
    if summary.tbf_system_late is not None:
        tbf = summary.tbf_system_late
        print(
            f"TBF (system 20, late): best={tbf.best.name} "
            f"shape={tbf.weibull_shape:.2f} hazard={tbf.hazard}"
        )
    print(f"TTR: best={summary.repair_best_fit}; per-system mean "
          f"{summary.repair_system_range[0]:.0f}..{summary.repair_system_range[1]:.0f} min")
    print(
        f"periodicity: peak/trough={summary.periodicity.peak_trough_ratio:.2f} "
        f"weekday/weekend={summary.periodicity.weekday_weekend_ratio:.2f}"
    )
    shapes = ", ".join(
        f"{system_id}:{shape}" for system_id, shape in sorted(summary.lifecycle_shapes.items())
    )
    print(f"lifecycle shapes: {shapes}")
    return 0


def _command_availability(args: argparse.Namespace) -> int:
    from repro.analysis import availability_report
    from repro.report import format_table

    trace, _ = _load_trace(args)
    rows = [
        (
            system_id,
            availability.failures,
            f"{availability.mtbf_hours:.1f}",
            f"{availability.mttr_hours:.1f}",
            f"{100 * availability.node_availability:.3f}%",
            f"{100 * availability.any_node_down_fraction:.1f}%",
        )
        for system_id, availability in availability_report(trace).items()
    ]
    print(format_table(
        ("system", "failures", "MTBF (h)", "MTTR (h)", "node avail", "any node down"),
        rows, title="Availability report",
    ))
    return 0


def _command_validate(args: argparse.Namespace) -> int:
    from repro.records.validation import validate_trace

    trace, _ = _load_trace(args)
    problems = validate_trace(trace)
    if problems:
        for problem in problems:
            print(problem)
        print(f"INVALID: {len(problems)} problem(s) in {len(trace)} records")
        return 1
    print(f"OK: {len(trace)} records valid")
    return 0


def _command_outliers(args: argparse.Namespace) -> int:
    from repro.analysis import find_node_outliers
    from repro.report import format_table

    trace, _ = _load_trace(args)
    outliers, bulk = find_node_outliers(trace, args.system, threshold=args.threshold)
    print(f"bulk model: {bulk.describe()} (median {bulk.median:.0f} failures/node)")
    if not outliers:
        print(f"system {args.system}: no outlier nodes at threshold {args.threshold}")
        return 0
    rows = [
        (o.node_id, o.count, f"{o.excess_ratio:.1f}x", f"{o.tail_probability:.1e}")
        for o in outliers
    ]
    print(format_table(
        ("node", "failures", "vs bulk median", "tail p"),
        rows, title=f"Outlier nodes of system {args.system}",
    ))
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    from repro.analysis import compare_traces
    from repro.io import read_trace_file

    rows = compare_traces(
        read_trace_file(args.trace_a), read_trace_file(args.trace_b)
    )
    print(f"{'metric':<36} {'A':>12} {'B':>12}")
    for row in rows:
        print(row.describe())
    worst = max(rows, key=lambda row: row.relative_difference)
    print(f"\nlargest relative difference: {worst.name} "
          f"({100 * worst.relative_difference:.1f}%)")
    return 0


def _command_ingest(args: argparse.Namespace) -> int:
    import json as _json

    from repro.io import IngestPolicy, SchemaError, detect_format, ingest_trace

    policy = IngestPolicy(
        mode=args.mode,
        max_error_rate=args.max_error_rate,
        quarantine=args.quarantine,
    )
    try:
        result = ingest_trace(args.trace, policy=policy)
    except SchemaError as exc:
        print(f"error: {exc}")
        return 1
    if args.json:
        print(_json.dumps(result.report.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.report.describe())
    if args.out:
        from repro.io import write_jsonl, write_lanl_csv

        if detect_format(args.out) == "jsonl":
            count = write_jsonl(result.trace, args.out)
        else:
            count = write_lanl_csv(result.trace, args.out)
        print(f"wrote {count} surviving records to {args.out}")
    return 0


def _command_chaos(args: argparse.Namespace) -> int:
    from repro.faults import chaos_roundtrip

    if args.synthetic:
        from repro.synth import TraceGenerator

        system_ids = None
        if args.systems:
            system_ids = [int(part) for part in args.systems.split(",") if part]
        trace = TraceGenerator(seed=args.seed).generate(system_ids)
    elif args.trace:
        from repro.io import read_trace_file

        trace = read_trace_file(args.trace)
    else:
        raise SystemExit("error: provide a trace path or --synthetic")
    report = chaos_roundtrip(
        trace,
        seed=args.chaos_seed,
        rate=args.rate,
        mode=args.mode,
        run_report=not args.no_report,
    )
    print(report.describe())
    return 0 if report.survived else 1


def _command_chaos_campaign(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.faults.campaign import run_campaign

    result = run_campaign(
        preset=args.preset,
        seed=args.seed,
        root=Path(args.root) if args.root else None,
        scorecard_path=Path(args.out) if args.out else None,
    )
    if args.json:
        print(_json.dumps(result.scorecard(), indent=2, sort_keys=True))
    else:
        print(result.describe())
        total = sum(result.wall_times.values())
        print(f"({len(result.outcomes)} scenarios in {total:.1f}s)")
    return 0 if result.ok else 1


def _command_profile(args: argparse.Namespace) -> int:
    import contextlib
    import tempfile
    from pathlib import Path

    from repro import obs
    from repro.obs import profile as profile_mod
    from repro.obs import schema as schema_mod

    registry = None
    if args.trace:
        events = schema_mod.read_trace_file(Path(args.trace))
    else:
        from repro.synth import TraceGenerator

        system_ids = None
        if args.systems:
            system_ids = [int(part) for part in args.systems.split(",") if part]
        tracer = obs.Tracer(run_id=f"profile:seed={args.seed}")
        registry = obs.MetricsRegistry()
        with contextlib.ExitStack() as stack:
            spool = Path(
                stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro-obs-")
                )
            )
            stack.enter_context(obs.observing(tracer, registry, spool=spool))
            with obs.span(
                "repro.profile", seed=args.seed, workers=args.workers
            ):
                trace = TraceGenerator(seed=args.seed).generate(
                    system_ids, workers=args.workers
                )
                if args.report:
                    from repro.report import run_paper_report

                    run_paper_report(trace)
        events = tracer.to_events(registry)
        if args.out:
            tracer.write(args.out, metrics=registry)
            print(f"wrote {args.out}")
    if args.validate:
        problems = schema_mod.validate_events(events)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}")
            return 1
        print(f"schema OK: {len(events)} events")
    print(profile_mod.format_span_tree(events, max_depth=args.max_depth))
    print()
    print(profile_mod.format_hotspots(events, top=args.top))
    if registry is not None and len(registry):
        print()
        print(registry.describe())
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    from repro.benchmark import (
        measure_fsfaults_overhead,
        measure_obs_overhead,
        measure_serve_overhead,
    )

    run_all = not (args.obs_guard or args.fsfaults_guard or args.serve_guard)
    code = 0
    if run_all or args.obs_guard:
        guard = measure_obs_overhead(seed=args.seed)
        print(
            "observability overhead guard: "
            f"{guard['spans_per_generate']} span sites x "
            f"{guard['noop_span_cost_ns']:.0f}ns disabled cost = "
            f"{100 * guard['overhead_fraction']:.3f}% of a "
            f"{guard['disabled_seconds']:.3f}s generate "
            f"(threshold {100 * guard['threshold']:.0f}%)"
        )
        if not guard["ok"]:
            print("REGRESSION: disabled observability overhead above threshold")
            code = 1
    if run_all or args.fsfaults_guard:
        guard = measure_fsfaults_overhead(seed=args.seed)
        print(
            "fs-faults overhead guard: "
            f"{guard['sites_per_run']} hook sites x "
            f"{guard['noop_hook_cost_ns']:.0f}ns disabled cost = "
            f"{100 * guard['overhead_fraction']:.3f}% of a "
            f"{guard['disabled_seconds']:.3f}s generate+write "
            f"(threshold {100 * guard['threshold']:.0f}%)"
        )
        if not guard["ok"]:
            print("REGRESSION: disabled fs-faults shim overhead above threshold")
            code = 1
    if run_all or args.serve_guard:
        guard = measure_serve_overhead()
        print(
            "serve overhead guard: "
            f"{guard['sites_per_scan']} read hook sites x "
            f"{guard['noop_hook_cost_ns']:.0f}ns disabled cost = "
            f"{100 * guard['overhead_fraction']:.3f}% of a "
            f"{guard['disabled_seconds']:.3f}s store scan "
            f"(threshold {100 * guard['threshold']:.0f}%)"
        )
        if not guard["ok"]:
            print(
                "REGRESSION: disabled read-path fault shim overhead above "
                "threshold"
            )
            code = 1
    return code


def _store_predicate(args: argparse.Namespace):
    from repro.store import Predicate

    systems = None
    if args.systems:
        systems = [int(part) for part in args.systems.split(",") if part]
    predicate = Predicate.build(
        t_min=args.since, t_max=args.until, systems=systems
    )
    return None if predicate.is_null() else predicate


def _command_store(args: argparse.Namespace) -> int:
    import json as _json

    if args.store_command == "info":
        from repro.store import ColumnarStore

        info = ColumnarStore(args.root).info()
        if args.json:
            print(_json.dumps(info, indent=2, sort_keys=True))
        else:
            print(f"columnar store at {info['root']}")
            print(
                f"  rows: {info['rows']} in {info['shards']} shard(s), "
                f"{info['bytes']} bytes"
            )
            print(f"  record ids: {info['record_ids']}")
            print(f"  systems: {','.join(str(s) for s in info['systems'])}")
            print(f"  schema: {info['schema_sha256'][:12]} "
                  f"(format v{info['format_version']})")
            print(
                f"  window: [{info['data_start']!r}, {info['data_end']!r}]"
            )
            healing = info["healing"]
            if healing["quarantined_shards"]:
                affected = ",".join(
                    str(s) for s in healing["affected_systems"]
                )
                print(
                    f"  healing: DEGRADED — "
                    f"{healing['quarantined_shards']} shard(s) "
                    f"({healing['quarantined_rows']} rows) quarantined; "
                    f"affected systems: {affected} "
                    "(run `repro store repair`)"
                )
            else:
                print("  healing: clean (no quarantined shards)")
            if healing["manifest_prev"]:
                print("  healing: manifest.prev.json rollback generation present")
            for key, value in info["meta"].items():
                print(f"  meta.{key}: {value}")
        return 0

    if args.store_command == "verify":
        from repro.store import verify_store

        problems = verify_store(args.root, deep=not args.shallow)
        mode = "shallow" if args.shallow else "deep"
        if args.json:
            # Exit codes are pinned for scripting: 0 clean, 1 problems.
            print(_json.dumps(
                {
                    "problems": problems,
                    "summary": {
                        "ok": not problems,
                        "count": len(problems),
                        "mode": mode,
                        "root": args.root,
                    },
                },
                indent=2, sort_keys=True,
            ))
            return 1 if problems else 0
        if problems:
            for problem in problems:
                print(problem)
            print(f"CORRUPT: {len(problems)} problem(s)")
            return 1
        print(f"OK: store verifies clean ({mode})")
        return 0

    if args.store_command == "scrub":
        from repro.store import scrub_store

        report = scrub_store(args.root, fix_stats=args.fix_stats)
        if args.json:
            print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.describe())
        return 0 if report.ok else 1

    if args.store_command == "repair":
        from repro.store import repair_store

        report = repair_store(args.root, args.source)
        if args.json:
            print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.describe())
        return 0 if report.ok else 1

    if args.store_command == "append":
        from repro.store import append_trace

        manifest = append_trace(
            args.root, args.source, shard_rows=args.shard_rows
        )
        print(
            f"store now holds {manifest.row_count} records in "
            f"{len(manifest.shards)} shard(s) at {args.root}"
        )
        return 0

    if args.store_command == "merge":
        from repro.store import merge_stores
        from repro.store.writer import DEFAULT_SHARD_ROWS

        manifest = merge_stores(
            args.out,
            args.sources,
            shard_rows=(
                args.shard_rows
                if args.shard_rows is not None
                else DEFAULT_SHARD_ROWS
            ),
            on_damage=args.on_damage,
        )
        print(
            f"merged {len(args.sources)} source(s): {manifest.row_count} "
            f"records in {len(manifest.shards)} shard(s) at {args.out}"
        )
        return 0

    if args.store_command == "analyze":
        from repro.store import ColumnarStore, summarize_store
        from repro.store.reader import DEFAULT_BATCH_ROWS

        store = ColumnarStore(args.root, on_damage=args.on_damage)
        predicate = _store_predicate(args)
        batch_rows = (
            DEFAULT_BATCH_ROWS if args.batch_rows is None else args.batch_rows
        )
        if args.full:
            from repro.report.streaming import run_store_report

            if predicate is not None:
                raise SystemExit(
                    "error: --full renders the whole-store report and "
                    "does not compose with --since/--until/--systems"
                )
            result = run_store_report(store, batch_rows=batch_rows)
            if args.json:
                print(_json.dumps(
                    result.to_dict(), indent=2, sort_keys=True
                ))
            else:
                if result.degraded is not None:
                    print(
                        f"warning: degraded read: skipped "
                        f"{len(result.degraded['shards_skipped'])} "
                        f"shard(s); run `repro store scrub {args.root}`",
                        file=sys.stderr,
                    )
                print(result.report.render())
                print("\n" + "=" * 78 + "\n")
                print(result.report.diagnostics())
            return 0 if result.report.ok else 1
        summary = summarize_store(
            store, predicate=predicate, batch_rows=batch_rows
        )
        if args.json:
            print(_json.dumps(summary.to_dict(), indent=2, sort_keys=True))
        else:
            if predicate is not None:
                print(f"filter: {predicate.describe()}")
            print(summary.describe())
        return 0

    if args.store_command == "export":
        from repro.store import ColumnarStore, export_store

        store = ColumnarStore(args.root)
        count = export_store(
            store,
            args.out,
            fmt=args.format,
            predicate=_store_predicate(args),
        )
        print(f"exported {count} records to {args.out}")
        return 0

    if args.store_command == "import":
        from repro.store import store_from_file
        from repro.store.writer import DEFAULT_SHARD_ROWS

        manifest = store_from_file(
            args.trace,
            args.root,
            shard_rows=(
                args.shard_rows
                if args.shard_rows is not None
                else DEFAULT_SHARD_ROWS
            ),
        )
        print(
            f"imported {manifest.row_count} records in "
            f"{len(manifest.shards)} shard(s) to {args.root}"
        )
        return 0

    raise SystemExit(f"error: unknown store command {args.store_command!r}")


def _command_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro import obs
    from repro.serve import AnalyticsServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        max_queue=args.max_queue,
        deadline_seconds=args.deadline_seconds,
        breaker_cooldown=args.breaker_cooldown,
        drain_grace=args.drain_grace,
        metrics_path=Path(args.metrics_out) if args.metrics_out else None,
    )
    server = AnalyticsServer(args.root, config)
    # Metrics-only observability: the span stack is single-threaded by
    # design and the serve executor is not (see repro/serve/server.py).
    with obs.observing(metrics_registry=obs.MetricsRegistry()):
        return server.run()


def _command_serve_bench(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve import ServeConfig, check_serve_report, run_serve_bench

    report = run_serve_bench(
        args.root,
        requests=args.requests,
        clients=args.clients,
        deadline_ms=args.deadline_ms,
        config=ServeConfig(
            port=0,
            max_concurrency=args.max_concurrency,
            max_queue=args.max_queue,
        ),
    )
    latency = report["latency_ms"]
    print(
        f"serve-bench: {report['requests']} requests, "
        f"{report['clients']} clients -> "
        f"p50={latency['p50']:.1f}ms p90={latency['p90']:.1f}ms "
        f"p99={latency['p99']:.1f}ms "
        f"({report['throughput_rps']:.0f} req/s)"
    )
    print(
        f"  outcomes: {report['outcomes']}  "
        f"error_rate={report['error_rate']:.4f} "
        f"degraded_rate={report['degraded_rate']:.4f}"
    )
    if args.out:
        from repro.resilience.atomic import atomic_write_json

        atomic_write_json(args.out, report)
        print(f"wrote {args.out}")
    violations = check_serve_report(
        report, p99_ms=args.check_p99, max_error_rate=args.max_error_rate
    )
    for violation in violations:
        print(f"REGRESSION: {violation}")
    return 1 if violations else 0


def _command_schema(_args: argparse.Namespace) -> int:
    from repro.io import describe_schema

    print(describe_schema())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Every subcommand runs under a top-level error boundary: an uncaught
    exception prints a one-line ``error:`` message and exits 1 instead
    of dumping a traceback; ``--verbose`` re-raises.
    """
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # "chaos campaign" is the documented spelling; the subparser is
    # registered as "chaos-campaign" because the legacy "chaos" command
    # takes a positional trace path that would swallow "campaign".
    if len(argv) >= 2 and argv[0] == "chaos" and argv[1] == "campaign":
        argv = ["chaos-campaign"] + list(argv[2:])
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        if getattr(args, "verbose", False):
            raise
        message = str(exc) or type(exc).__name__
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
