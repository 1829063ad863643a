"""Deterministic chaos campaigns: compose every fault class, verify recovery.

A *campaign* runs a matrix of scenarios — {process chaos x data
corruption x filesystem faults} x {workflows: generate, resumable
generate, trace write, columnar-store write, store scrub/repair,
store merge, ingest, report, serve} — each in a fresh
directory, and verifies
**recovery invariants** after every drill:

* the recovered trace is byte-identical to an unfaulted serial run
  (the RNG-stream contract survives retries, resumes and degradation);
* no partial/temporary artifacts remain on disk;
* the shard journal's meta/journal/payload consistency holds;
* a store published under faults deep-verifies;
* report sections degrade (never crash) under corrupted input;
* the live service never answers 5xx or hangs.

One drill loop runs every scenario: it arms the fault, retries the
workflow up to :data:`MAX_ATTEMPTS` times, counts injections and
collects the workflow's checks.

Results aggregate into a ``robustness_scorecard.json`` artifact written
atomically.  The scorecard is a pure function of ``(preset, seed)``:
wall-clock timings go to a separate ``campaign_timings.json`` sidecar
and every recorded error message is scrubbed of filesystem paths, so
two runs of the same campaign produce byte-identical scorecards — the
file can be committed, diffed, and gated on in CI.

This is the standing harness new storage/serving subsystems must pass:
a new workflow is one row of ``_WORKFLOW_TABLE``, whose prepare
function returns one attempt and its checks built from the shared
``fault-injected``, ``journal-consistent``, ``store-verifies`` and
``trace-identical`` helpers, plus a :class:`Scenario` per fault.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union,
)

from repro import obs
from repro.faults.chaos import chaos_roundtrip
from repro.faults.fsfaults import FsFaults, fsfaults_env
from repro.faults.process_ops import ProcessChaos, chaos_env
from repro.io.csv_format import write_lanl_csv
from repro.io.jsonl_format import write_jsonl
from repro.resilience.atomic import atomic_write_json
from repro.resilience.journal import ShardJournal
from repro.synth.generator import SupervisionConfig, TraceGenerator

__all__ = [
    "Scenario",
    "InvariantCheck",
    "ScenarioOutcome",
    "CampaignResult",
    "PRESETS",
    "run_campaign",
]

SCORECARD_NAME = "robustness_scorecard.json"
TIMINGS_NAME = "campaign_timings.json"

#: Fault classes a scenario can arm (``none`` = clean baseline).
FAULT_KINDS = ("none", "fs", "process", "corruption")

#: Ceiling on attempts (first try + retries/resumes) per scenario.
MAX_ATTEMPTS = 4


@dataclass(frozen=True)
class Scenario:
    """One cell of the campaign matrix.

    Parameters
    ----------
    name:
        Stable identifier; keys the scorecard and names the scenario's
        directory.
    workflow:
        One of :data:`WORKFLOWS`.
    fault:
        One of :data:`FAULT_KINDS`.  A ``process`` fault runs generation
        supervised, so the retry ladder absorbs the injected failures.
    operator:
        The fault operator (an fsfaults operator for ``fault="fs"``, a
        process operator for ``fault="process"``; unused otherwise).
    sites / path_contains / times / skip:
        Forwarded to :class:`~repro.faults.fsfaults.FsFaults`.
    rate:
        Corruption rate for ``fault="corruption"`` scenarios.
    mode:
        Ingest mode for corruption scenarios; for ``serve`` scenarios
        the mid-traffic drill phase (``quarantine`` damages and scrubs
        a shard while the service is live, ``repair`` additionally
        heals it; anything else serves a clean store).
    systems:
        System IDs the workflow generates (small ones keep drills fast).
    workers:
        Worker processes for the generate workflow.
    """

    name: str
    workflow: str
    fault: str = "none"
    operator: str = ""
    sites: Tuple[str, ...] = field(default_factory=tuple)
    path_contains: str = ""
    times: int = 1
    skip: int = 0
    rate: float = 0.05
    mode: str = "lenient"
    systems: Tuple[int, ...] = (2, 13)
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workflow not in WORKFLOWS:
            raise ValueError(
                f"workflow must be one of {WORKFLOWS}, got {self.workflow!r}"
            )
        if self.fault not in FAULT_KINDS:
            raise ValueError(
                f"fault must be one of {FAULT_KINDS}, got {self.fault!r}"
            )
        if self.fault in ("fs", "process") and not self.operator:
            raise ValueError(f"scenario {self.name}: fault {self.fault} needs an operator")
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "systems", tuple(self.systems))


@dataclass(frozen=True)
class InvariantCheck:
    """One recovery invariant's verdict for one scenario."""

    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ScenarioOutcome:
    """What happened when one scenario was drilled."""

    scenario: Scenario
    attempts: int
    completed: bool
    injections: int
    error: str = ""
    invariants: Tuple[InvariantCheck, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return self.completed and all(check.passed for check in self.invariants)

    def failed_invariants(self) -> List[str]:
        return [check.name for check in self.invariants if not check.passed]


@dataclass(frozen=True)
class CampaignResult:
    """A full campaign run: per-scenario outcomes plus rollups."""

    preset: str
    seed: int
    outcomes: Tuple[ScenarioOutcome, ...]
    wall_times: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def scorecard(self) -> dict:
        """The deterministic scorecard payload (no paths, no timings)."""
        scenarios = []
        for outcome in self.outcomes:
            scenario = outcome.scenario
            scenarios.append(
                {
                    "name": scenario.name,
                    "workflow": scenario.workflow,
                    "fault": scenario.fault,
                    "operator": scenario.operator,
                    "systems": list(scenario.systems),
                    "attempts": outcome.attempts,
                    "completed": outcome.completed,
                    "injections": outcome.injections,
                    "error": outcome.error,
                    "ok": outcome.ok,
                    "invariants": [asdict(check) for check in outcome.invariants],
                }
            )
        checks = [c for o in self.outcomes for c in o.invariants]
        return {
            "kind": "repro-robustness-scorecard",
            "preset": self.preset,
            "seed": self.seed,
            "ok": self.ok,
            "scenarios": scenarios,
            "summary": {
                "scenarios": len(self.outcomes),
                "scenarios_ok": sum(1 for o in self.outcomes if o.ok),
                "invariants": len(checks),
                "invariants_failed": sum(1 for c in checks if not c.passed),
                "total_injections": sum(o.injections for o in self.outcomes),
            },
        }

    def describe(self) -> str:
        """Human-readable campaign summary (one line per scenario)."""
        lines = [
            f"chaos campaign '{self.preset}' (seed {self.seed}): "
            f"{sum(1 for o in self.outcomes if o.ok)}/{len(self.outcomes)} "
            "scenarios ok"
        ]
        for outcome in self.outcomes:
            status = "ok" if outcome.ok else "FAILED"
            detail = ""
            if not outcome.ok:
                failed = outcome.failed_invariants()
                detail = (
                    f" [{', '.join(failed)}]" if failed else f" [{outcome.error}]"
                )
            lines.append(
                f"  {outcome.scenario.name:<24} {status:<6} "
                f"attempts={outcome.attempts} injections={outcome.injections}"
                + detail
            )
        lines.append("ALL INVARIANTS HOLD" if self.ok else "INVARIANT FAILURES")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Drill engine
# ----------------------------------------------------------------------


def _scrub(text: str, root: Path) -> str:
    """Make an error message path-free so scorecards stay deterministic."""
    return text.replace(str(root), "<campaign>")


def _check(name: str, passed: bool, detail: str) -> InvariantCheck:
    """A verdict whose ``detail`` (what broke) is kept only on failure."""
    return InvariantCheck(name, passed, "" if passed else detail)


def _no_partials(directory: Path) -> InvariantCheck:
    """No staged temp files may survive a drill, failed writes included."""
    leftovers = sorted(
        str(p.relative_to(directory)) for p in directory.rglob("*.tmp")
    )
    return _check(
        "no-partial-artifacts",
        not leftovers,
        f"leftover temp files: {', '.join(leftovers)}",
    )


def _reference_csv(
    seed: int, systems: Tuple[int, ...], cache: Dict[Tuple[int, ...], bytes],
    workdir: Path,
) -> bytes:
    """Unfaulted serial reference trace as CSV bytes (cached per inventory)."""
    if systems not in cache:
        trace = TraceGenerator(seed=seed).generate(list(systems))
        path = workdir / f"reference-{'-'.join(map(str, systems))}.csv"
        write_lanl_csv(trace, path)
        cache[systems] = path.read_bytes()
    return cache[systems]


class _Stop(Exception):
    """A failed attempt retrying cannot change; its path-free text is kept."""


@dataclass
class _Drill:
    """One scenario being drilled: its directory, reference and fault."""

    scenario: Scenario
    seed: int
    dir: Path
    reference: bytes
    #: Faults actually injected: the loop reads the armed fault's claim
    #: files; a corruption attempt sets it from its injector.
    injections: int = 0

    def __post_init__(self) -> None:
        scenario = self.scenario
        state_dir = str(self.dir / "fault-state")
        self.fault: Union[FsFaults, ProcessChaos, None] = None
        if scenario.fault == "fs":
            self.fault = FsFaults(
                operator=scenario.operator,
                times=scenario.times,
                state_dir=state_dir,
                sites=scenario.sites,
                path_contains=scenario.path_contains,
                skip=scenario.skip,
                seed=self.seed,
                slow_seconds=0.01,
            )
        elif scenario.fault == "process":
            self.fault = ProcessChaos(
                operator=scenario.operator,
                times=scenario.times,
                state_dir=state_dir,
            )

    def armed(self):
        """Context arming the scenario's fs or process fault, if any."""
        arm = fsfaults_env if self.scenario.fault == "fs" else chaos_env
        return arm(self.fault)

    def describe(self, exc: BaseException) -> str:
        return _scrub(f"{type(exc).__name__}: {exc}", self.dir)

    def trace(self):
        """The scenario's unfaulted trace, generated serially."""
        return TraceGenerator(seed=self.seed).generate(list(self.scenario.systems))

    def judge(self, name: str, problems: Callable[[], List[str]]) -> InvariantCheck:
        """``name`` holds when ``problems()`` finds none; raising fails it."""
        try:
            found = problems()
        except Exception as exc:
            found = [self.describe(exc)]
        return InvariantCheck(name, not found, "; ".join(found))

    def fault_injected(self) -> Tuple[InvariantCheck, ...]:
        """``fault-injected`` for a scenario that arms a fault (else none)."""
        if self.scenario.fault == "none":
            return ()
        never = (
            "injector corrupted zero rows"
            if self.scenario.fault == "corruption"
            else "armed fault never fired"
        )
        return (_check("fault-injected", self.injections >= 1, never),)


def _trace_identical(produced: Path, expected: bytes, detail: str) -> InvariantCheck:
    return _check("trace-identical", produced.read_bytes() == expected, detail)


def _store_checks(
    drill: _Drill, store_dir: Path, detail: str
) -> Iterator[InvariantCheck]:
    """``store-verifies`` and ``trace-identical`` for a published store."""
    from repro.store import ColumnarStore, export_store, verify_store

    problems = verify_store(store_dir, deep=True)
    yield _check(
        "store-verifies",
        not problems,
        "; ".join(_scrub(p, drill.dir) for p in problems),
    )
    # The armed env is restored by now, so this export cannot fault.
    export_path = drill.dir / "trace.csv"
    export_store(ColumnarStore(store_dir), export_path)
    yield _trace_identical(export_path, drill.reference, detail)


def _journaled(drill: _Drill, generator: TraceGenerator) -> Dict[str, Any]:
    """Generate options for one attempt.

    The journal resumes once an earlier attempt began it, and process
    chaos runs supervised so the injected worker failures are absorbed.
    """
    run_dir = drill.dir / "run"
    journal = ShardJournal(
        run_dir,
        meta=generator.journal_meta(),
        resume=(run_dir / "meta.json").exists(),
    )
    supervision = SupervisionConfig() if drill.scenario.fault == "process" else None
    return {
        "workers": drill.scenario.workers,
        "supervision": supervision,
        "journal": journal,
    }


def _journal_consistent(drill: _Drill, generator: TraceGenerator) -> InvariantCheck:
    return drill.judge("journal-consistent", lambda: ShardJournal(
        drill.dir / "run", meta=generator.journal_meta(), resume=True
    ).verify())


# ----------------------------------------------------------------------
# Workflows: prepare(drill) builds the inputs, fault not yet armed, and
# returns (attempt, checks).  attempt() runs the workflow once and returns
# its result; an exception is retried, _Stop is not.  checks(result)
# yields the invariants in scorecard order; result is None if no attempt
# completed.
# ----------------------------------------------------------------------

_Attempt = Callable[[], Any]
_Checks = Callable[[Any], Iterable[InvariantCheck]]


def _generate(drill: _Drill) -> Tuple[_Attempt, _Checks]:
    """A journaled generate run: fault, crash, resume, verify."""
    generator = TraceGenerator(seed=drill.seed)

    def attempt():
        return generator.generate(
            list(drill.scenario.systems), **_journaled(drill, generator)
        )

    def checks(trace) -> Iterator[InvariantCheck]:
        yield from drill.fault_injected()
        yield _journal_consistent(drill, generator)
        if trace is not None:
            # The armed env is restored by now, so this write cannot fault.
            path = drill.dir / "trace.csv"
            write_lanl_csv(trace, path)
            yield _trace_identical(
                path, drill.reference,
                "recovered trace differs from unfaulted serial reference",
            )

    return attempt, checks


def _write_store(drill: _Drill) -> Tuple[_Attempt, _Checks]:
    """A journaled columnar-store write: fault, resume, verify.

    The recovery invariants are the store's crash-safety contract: a
    faulted write never publishes a manifest over missing shards
    (``store verify`` comes back clean after recovery), and the
    resumed store exports byte-identically to an unfaulted serial run.
    """
    from repro.store import verify_store

    generator = TraceGenerator(seed=drill.seed)
    store_dir = drill.dir / "store"

    def attempt():
        try:
            return generator.generate_store(
                store_dir,
                list(drill.scenario.systems),
                **_journaled(drill, generator),
            )
        except Exception as exc:
            # A faulted attempt must never present a complete store:
            # either no manifest was published, or — when the fault hit
            # a column file of an already-manifested directory —
            # verification must catch the damage.
            if verify_store(store_dir, deep=True):
                raise
            raise _Stop(
                f"{drill.describe(exc)}; faulted store verified clean "
                "before recovery"
            ) from exc

    def checks(manifest) -> Iterator[InvariantCheck]:
        yield from drill.fault_injected()
        yield _journal_consistent(drill, generator)
        if manifest is not None:
            yield from _store_checks(
                drill, store_dir,
                "recovered store exports differently from the unfaulted "
                "serial reference",
            )

    return attempt, checks


def _write(drill: _Drill) -> Tuple[_Attempt, _Checks]:
    """A trace-writer overwrite: the original must survive a fault."""
    csv = drill.scenario.workflow == "write-csv"
    write = write_lanl_csv if csv else write_jsonl
    target = drill.dir / ("trace.csv" if csv else "trace.jsonl")
    trace = drill.trace()
    write(trace, target)  # pre-existing artifact the fault must not damage
    original = target.read_bytes()
    damaged: List[bool] = []

    def attempt():
        try:
            write(trace, target)
        except Exception:
            damaged.append(target.read_bytes() != original)
            raise
        return target

    def checks(written) -> Iterator[InvariantCheck]:
        yield from drill.fault_injected()
        yield _check(
            "original-untouched",
            not any(damaged),
            "a failed write damaged the pre-existing artifact",
        )
        if written is not None:
            yield _trace_identical(
                target, drill.reference if csv else original,
                "rewritten artifact differs from the unfaulted write",
            )

    return attempt, checks


def _scrub_store(drill: _Drill) -> Tuple[_Attempt, _Checks]:
    """The self-healing loop under filesystem faults.

    Build a store, damage two shards deterministically (deleted column
    file + bit flip), scrub under the armed fault until the quarantine
    ledger lands, then assert the contract: a degraded read completes
    with exact skipped-row accounting even mid-heal, and repair from
    the source trace restores the store to a byte-identical,
    deep-verifying state.
    """
    from repro.store import (
        ColumnarStore,
        repair_store,
        scrub_store,
        store_from_trace,
        summarize_store,
    )

    trace = drill.trace()
    store_dir = drill.dir / "store"
    store_from_trace(trace, store_dir, shard_rows=100)
    shards = sorted(
        p.name for p in (store_dir / "shards").glob("*-start_time.npy")
    )
    first = shards[0].split("-")[0]
    second = shards[1].split("-")[0] if len(shards) > 1 else first
    (store_dir / "shards" / f"{first}-node_id.npy").unlink()
    victim = store_dir / "shards" / f"{second}-root_cause.npy"
    payload = bytearray(victim.read_bytes())
    payload[-1] ^= 0x01
    victim.write_bytes(bytes(payload))
    damaged = sorted({first, second})

    # Even between a crashed scrub and its retry, a degraded read must
    # complete and account for exactly the rows it could not reach.
    def degraded_read() -> List[str]:
        handle = ColumnarStore(store_dir, on_damage="skip")
        rows = summarize_store(handle).rows
        skipped = handle.degraded.rows_skipped
        total = handle.manifest.row_count
        if rows + skipped == total:
            return []
        return [f"rows {rows} + skipped {skipped} != manifest {total}"]

    def repair_roundtrip() -> List[str]:
        if not repair_store(store_dir, trace).ok:
            return ["repair left shards quarantined"]
        verdicts = _store_checks(
            drill, store_dir,
            "repaired store exports differently from the unfaulted serial "
            "reference",
        )
        # Lazily: a store that fails to verify is not exported.
        broken = next((check for check in verdicts if not check.passed), None)
        return [broken.detail] if broken else []

    def checks(report) -> Iterator[InvariantCheck]:
        yield from drill.fault_injected()
        yield drill.judge("degraded-read-completes", degraded_read)
        if report is not None:
            quarantined = sorted(report.quarantined)
            yield _check(
                "damage-quarantined",
                quarantined == damaged,
                f"expected shards {damaged} quarantined, got {quarantined}",
            )
            yield drill.judge("quarantine-repair-roundtrip", repair_roundtrip)

    return (lambda: scrub_store(store_dir)), checks


def _merge_store(drill: _Drill) -> Tuple[_Attempt, _Checks]:
    """A federated merge under filesystem faults.

    Two single-system source stores merge into a new one while faults
    tear column writes or the manifest publish.  The publish invariant
    is checked after every failed attempt: if a manifest exists at all,
    it must not reference missing shard files.  After recovery the
    merged store must deep-verify and export byte-identically to the
    unfaulted serial reference of the combined inventory.
    """
    from repro.store import merge_stores, store_from_trace, verify_store

    trace = drill.trace()
    sources = []
    for index, system_id in enumerate(drill.scenario.systems):
        source_dir = drill.dir / f"source-{index}"
        store_from_trace(
            trace.filter_systems([system_id]), source_dir, shard_rows=100
        )
        sources.append(source_dir)
    merged_dir = drill.dir / "merged"
    dangling: List[str] = []

    def attempt():
        try:
            return merge_stores(merged_dir, sources, shard_rows=100)
        except Exception:
            if (merged_dir / "manifest.json").exists():
                missing = [
                    _scrub(p, drill.dir)
                    for p in verify_store(merged_dir, deep=False)
                    if "missing" in p
                ]
                if missing:
                    dangling.append("; ".join(missing))
            raise

    def checks(manifest) -> Iterator[InvariantCheck]:
        yield from drill.fault_injected()
        yield _check(
            "publish-never-references-missing",
            not dangling,
            "".join(dangling[-1:]),
        )
        if manifest is not None:
            yield from _store_checks(
                drill, merged_dir,
                "merged store exports differently from the unfaulted serial "
                "reference",
            )

    return attempt, checks


def _serve(drill: _Drill) -> Tuple[_Attempt, _Checks]:
    """Drill the analytics service under live traffic.

    Boots a real :class:`~repro.serve.server.ServerThread` over a
    freshly built store and issues **sequential** HTTP requests (the
    scorecard is byte-compared in CI, so every invariant must be a
    deterministic boolean).  The serving contract under test:

    * no request ever gets a 5xx or a hung connection — damage and
      injected faults surface as degraded/stale answers or honest 429s;
    * responses on an undamaged store are byte-identical to the
      equivalent ``repro store analyze --json`` output;
    * quarantining a shard mid-traffic (``mode="quarantine"``)
      invalidates the result cache and flips responses to
      degraded-with-coverage, never errors;
    * repairing the store mid-traffic (``mode="repair"``) restores
      complete, byte-identical answers;
    * the SIGTERM-equivalent drain completes with in-flight work done.

    The drill runs once and arms the fault only for phase B.
    """
    from repro.serve import ServeConfig, ServerThread
    from repro.serve.client import get
    from repro.store import (
        ColumnarStore,
        Predicate,
        repair_store,
        scrub_store,
        store_from_trace,
        summarize_store,
    )

    scenario = drill.scenario
    trace = drill.trace()
    store_dir = drill.dir / "store"
    store_from_trace(trace, store_dir, shard_rows=100)
    damages = scenario.mode in ("quarantine", "repair")

    def dump(payload: dict) -> str:
        return json.dumps(payload, indent=2, sort_keys=True)

    def summary(**kwargs) -> str:
        return dump(summarize_store(ColumnarStore(store_dir), **kwargs).to_dict())

    # (path, reference) pairs covering the full and per-system views,
    # computed on the pristine store, before any damage.
    queries = [("/v1/summary", summary())] + [
        (
            f"/v1/analyze?system={system}",
            summary(predicate=Predicate.build(systems=[system])),
        )
        for system in scenario.systems
    ]

    # A long breaker cooldown keeps half-open probes (wall-clock
    # dependent) out of the drill window, so the rung each request
    # lands on is a pure function of the request sequence.
    config = ServeConfig(
        port=0, max_concurrency=2, max_queue=8, breaker_cooldown=600.0
    )
    # Every request as (phase, response or None after a connection
    # error, reference body); the checks judge the traffic from it.
    log: List[Tuple[str, Any, str]] = []
    hung: List[str] = []
    crashed: List[str] = []

    def traffic(handle) -> None:
        def request(phase: str, path: str, reference: str = "") -> None:
            try:
                response = get(handle.host, handle.port, path, timeout=60.0)
            except OSError as exc:
                hung.append(drill.describe(exc))
                response = None
            log.append((phase, response, reference))

        # Phase A: clean traffic; warms the cache and the last-good
        # stale fallback, and proves byte-identity with the batch path.
        request("health", "/healthz")
        request("health", "/readyz")
        for path, reference in queries:
            request("baseline", path, reference)

        # Mid-traffic damage: quarantine the first shard while the
        # service keeps answering.
        if damages:
            sorted((store_dir / "shards").glob("*-node_id.npy"))[0].unlink()
            scrub_store(store_dir)

        # Phase B: drilled traffic under the armed fault.  Two passes
        # over the query mix exercise the ladder past the breaker
        # threshold.
        with drill.armed():
            for pass_index in range(2):
                if damages:
                    # Re-issue the warmed queries: the rewritten ledger
                    # must invalidate them, and the stale fallback
                    # needs matching keys.
                    paths = [path for path, _ in queries]
                else:
                    # Clean store, unchanged generation: bust the cache
                    # with an all-admitting time window that varies per
                    # pass, so every request really scans (and hits the
                    # armed fault).
                    window = f"t_min={-1.0 - pass_index:g}"
                    paths = [f"/v1/analyze?{window}"] + [
                        f"/v1/analyze?system={system}&{window}"
                        for system in scenario.systems
                    ]
                for path in paths:
                    request("drilled", path)

        # Phase C: heal under live traffic, then answers must be
        # complete and byte-identical again.
        if scenario.mode == "repair":
            repair_store(store_dir, trace)
            for path, reference in queries:
                request("repaired", path, reference)
        request("stats", "/v1/stats")

    def attempt():
        try:
            with ServerThread(store_dir, config) as handle:
                traffic(handle)
        except Exception as exc:
            crashed.append(drill.describe(exc))
        if hung or crashed:
            raise _Stop("; ".join(hung + crashed))
        return log

    def answered(*phases: str) -> list:
        """The responses received in ``phases``, in request order."""
        return [r for phase, r, _ in log if phase in phases and r is not None]

    def identical(response, reference: str) -> bool:
        return (
            response is not None
            and response.status == 200
            and dump(response.body.get("data", {})) == reference
        )

    def checks(_) -> Iterator[InvariantCheck]:
        failures = hung + crashed
        bad_statuses = sorted(
            {r.status for _, r, _ in log if r is not None} - {200, 429}
        )
        yield _check(
            "no-5xx-no-hangs",
            not bad_statuses and not failures,
            f"statuses {bad_statuses}; connection errors: {'; '.join(failures)}",
        )
        metas = [
            r.meta() for r in answered("baseline", "drilled") if r.status == 200
        ]
        complete = [
            m for m in metas
            if all(key in m for key in ("degraded", "stale", "coverage"))
        ]
        yield _check(
            "responses-well-formed",
            len(complete) == len(metas),
            "a 200 response lacked degraded/stale/coverage metadata",
        )
        yield _check(
            "baseline-identical",
            all(identical(r, ref) for p, r, ref in log if p == "baseline"),
            "pristine-store responses differ from the batch analyze output",
        )
        yield _check(
            "drain-clean",
            not crashed,
            "graceful drain failed: " + "; ".join(crashed),
        )
        yield from drill.fault_injected()
        if damages:
            yield _check(
                "degraded-metadata",
                any(
                    m["stale"] or (
                        m["degraded"]
                        and isinstance(m["coverage"], dict)
                        and any(v < 1.0 for v in m["coverage"].values())
                    )
                    for m in complete
                ),
                "no response carried degraded coverage or stale metadata "
                "after mid-traffic quarantine",
            )
            # Quarantine rewrote the ledger, so the first drilled answer
            # must not come from the pre-damage cache entry.
            first = next(
                (r for r in answered("drilled") if r.status in (200, 429)),
                None,
            )
            yield _check(
                "cache-invalidated",
                first is None
                or first.status != 200
                or first.meta().get("cache") != "hit",
                "a pre-quarantine cache entry served after the ledger changed",
            )
        if scenario.mode == "repair":
            yield _check(
                "repaired-identical",
                all(
                    identical(r, ref)
                    and not (r.meta().get("degraded") or r.meta().get("stale"))
                    for p, r, ref in log if p == "repaired"
                ),
                "post-repair responses are not complete and byte-identical",
            )

    return attempt, checks


def _corrupt(drill: _Drill) -> Tuple[_Attempt, _Checks]:
    """corrupt -> ingest (-> report), once: degrade, never crash."""
    trace = drill.trace()
    run_report = drill.scenario.workflow == "report"
    roundtrips = []

    def attempt():
        try:
            report = chaos_roundtrip(
                trace,
                seed=drill.seed,
                rate=drill.scenario.rate,
                mode=drill.scenario.mode,
                workdir=drill.dir / "roundtrip",
                run_report=run_report,
            )
        except Exception as exc:
            raise _Stop(drill.describe(exc)) from exc
        roundtrips.append(report)
        drill.injections = report.corruption.n_corrupted
        if not report.survived:
            raise _Stop("")  # ingest-survives says why
        return report

    def checks(_) -> Iterator[InvariantCheck]:
        if not roundtrips:  # the round trip crashed
            return
        report = roundtrips[0]
        yield from drill.fault_injected()
        yield _check(
            "ingest-survives", report.survived, "ingest blew its error budget"
        )
        if run_report:
            paper = report.paper
            crashed = [] if paper is None else [
                section.name for section in paper.sections
                if section.status == "failed"
            ]
            yield _check(
                "report-degrades",
                paper is not None and not crashed,
                "paper report did not run" if paper is None
                else f"sections crashed: {', '.join(crashed)}",
            )

    return attempt, checks


@dataclass(frozen=True)
class _Workflow:
    """One row of the workflow table.

    ``needs_reference`` asks for the unfaulted serial reference CSV;
    ``loop_arms`` is False where the attempt arms the fault itself.
    """

    prepare: Callable[[_Drill], Tuple[_Attempt, _Checks]]
    needs_reference: bool = False
    loop_arms: bool = True


_WORKFLOW_TABLE: Dict[str, _Workflow] = {
    "generate": _Workflow(_generate, needs_reference=True),
    "write-csv": _Workflow(_write, needs_reference=True),
    "write-jsonl": _Workflow(_write),
    "write-store": _Workflow(_write_store, needs_reference=True),
    "scrub-store": _Workflow(_scrub_store, needs_reference=True),
    "merge-store": _Workflow(_merge_store, needs_reference=True),
    "ingest": _Workflow(_corrupt),
    "report": _Workflow(_corrupt),
    "serve": _Workflow(_serve, loop_arms=False),
}

#: Workflows a scenario can drill.
WORKFLOWS = tuple(_WORKFLOW_TABLE)


def _drill_loop(
    scenario: Scenario, seed: int, scenario_dir: Path, reference: bytes
) -> ScenarioOutcome:
    """The drill loop: prepare, arm, attempt until done, check."""
    workflow = _WORKFLOW_TABLE[scenario.workflow]
    drill = _Drill(scenario, seed, scenario_dir, reference)
    attempt, checks = workflow.prepare(drill)
    result = None
    errors: List[str] = []
    attempts = 0
    with drill.armed() if workflow.loop_arms else nullcontext():
        while result is None and attempts < MAX_ATTEMPTS:
            attempts += 1
            try:
                result = attempt()
            except _Stop as stop:
                errors.append(str(stop))
                break
            except Exception as exc:
                errors.append(drill.describe(exc))
    if drill.fault is not None:
        drill.injections = drill.fault.injections()
    completed = result is not None
    return ScenarioOutcome(
        scenario=scenario,
        attempts=attempts,
        completed=completed,
        injections=drill.injections,
        error="" if completed else "; ".join(errors),
        invariants=(_no_partials(scenario_dir), *checks(result)),
    )


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------

_SMOKE = (
    Scenario("baseline-clean", "generate"),
    Scenario(
        "fs-enospc-journal", "generate", fault="fs", operator="enospc",
        sites=("journal.append",),
    ),
    Scenario(
        "fs-torn-payload", "generate", fault="fs", operator="torn-write",
        sites=("atomic.bytes",), path_contains=".pkl",
    ),
    Scenario(
        "fs-fsync-payload", "generate", fault="fs", operator="fsync-fail",
        sites=("atomic.fsync",), path_contains=".pkl",
    ),
    Scenario(
        "proc-flaky-shard", "generate", fault="process",
        operator="flaky-shard",
    ),
    Scenario(
        "fs-enospc-csv", "write-csv", fault="fs", operator="enospc",
        sites=("io.csv",),
    ),
    Scenario(
        "fs-torn-csv", "write-csv", fault="fs", operator="torn-write",
        sites=("atomic.text",),
    ),
    Scenario(
        "fs-slow-jsonl", "write-jsonl", fault="fs", operator="slow-io",
        sites=("io.jsonl",),
    ),
    Scenario(
        "fs-enospc-store-column", "write-store", fault="fs",
        operator="enospc", sites=("store.column",),
    ),
    Scenario(
        "fs-torn-store-manifest", "write-store", fault="fs",
        operator="torn-write", sites=("atomic.text",),
        path_contains="manifest.json",
    ),
    Scenario(
        "scrub-enospc-ledger", "scrub-store", fault="fs", operator="enospc",
        sites=("store.scrub.ledger",),
    ),
    Scenario(
        "merge-enospc-manifest", "merge-store", fault="fs",
        operator="enospc", sites=("store.merge.manifest",),
    ),
    Scenario("corrupt-ingest", "ingest", fault="corruption", rate=0.05),
    Scenario("corrupt-report", "report", fault="corruption", rate=0.10),
    Scenario("serve-baseline", "serve"),
    Scenario(
        "serve-slow-reads", "serve", fault="fs", operator="slow-io",
        sites=("store.read.column",), times=6,
    ),
    Scenario("serve-quarantine-midflight", "serve", mode="quarantine"),
)

_FULL = _SMOKE + (
    Scenario(
        "fs-enospc-meta", "generate", fault="fs", operator="enospc",
        sites=("atomic.text",), path_contains="meta.json",
    ),
    Scenario(
        "fs-torn-journal", "generate", fault="fs", operator="torn-write",
        sites=("journal.append",),
    ),
    Scenario(
        "fs-enospc-second-shard", "generate", fault="fs", operator="enospc",
        sites=("atomic.bytes",), path_contains=".pkl", skip=1,
    ),
    Scenario(
        "fs-double-enospc", "generate", fault="fs", operator="enospc",
        sites=("journal.append", "atomic.bytes"), times=2,
    ),
    Scenario(
        "proc-kill-worker", "generate", fault="process",
        operator="kill-worker", workers=2,
        systems=(2, 13, 20),
    ),
    Scenario(
        "fs-enospc-jsonl", "write-jsonl", fault="fs", operator="enospc",
        sites=("io.jsonl",),
    ),
    Scenario(
        "fs-fsync-store-column", "write-store", fault="fs",
        operator="fsync-fail", sites=("atomic.fsync",), path_contains=".npy",
    ),
    Scenario(
        "fs-enospc-store-manifest", "write-store", fault="fs",
        operator="enospc", sites=("store.manifest",),
    ),
    Scenario(
        "scrub-torn-ledger", "scrub-store", fault="fs",
        operator="torn-write", sites=("atomic.text",),
        path_contains="ledger.jsonl",
    ),
    Scenario(
        "merge-enospc-column", "merge-store", fault="fs",
        operator="enospc", sites=("store.column",),
    ),
    Scenario(
        "corrupt-repair-heavy", "report", fault="corruption", rate=0.20,
        mode="repair",
    ),
    Scenario(
        "serve-enospc-reads", "serve", fault="fs", operator="enospc",
        sites=("store.read.column",), times=2, mode="quarantine",
    ),
    Scenario("serve-repair-under-traffic", "serve", mode="repair"),
)

PRESETS: Dict[str, Tuple[Scenario, ...]] = {
    "smoke": _SMOKE,
    "full": _FULL,
}



def run_scenario(
    scenario: Scenario,
    seed: int,
    scenario_dir: Path,
    reference: bytes = b"",
) -> ScenarioOutcome:
    """Drill one scenario under ``scenario_dir``; never raises."""
    scenario_dir.mkdir(parents=True, exist_ok=True)
    with obs.span(
        "campaign.scenario",
        scenario=scenario.name,
        workflow=scenario.workflow,
        fault=scenario.fault,
    ) as span:
        try:
            outcome = _drill_loop(scenario, seed, scenario_dir, reference)
        except Exception as exc:  # a drill must never take down the campaign
            outcome = ScenarioOutcome(
                scenario=scenario,
                attempts=1,
                completed=False,
                injections=0,
                error=_scrub(
                    f"harness error: {type(exc).__name__}: {exc}", scenario_dir
                ),
                invariants=(
                    InvariantCheck("harness", False, "scenario harness raised"),
                ),
            )
        span.add("ok", outcome.ok)
        span.add("attempts", outcome.attempts)
    return outcome


def run_campaign(
    preset: str = "smoke",
    seed: int = 7,
    root: Optional[Path] = None,
    scorecard_path: Optional[Path] = None,
) -> CampaignResult:
    """Run a named campaign preset; write the scorecard atomically.

    Parameters
    ----------
    preset:
        A key of :data:`PRESETS` (``smoke`` or ``full``).
    seed:
        Root seed for generation, corruption, and torn-write fractions;
        the scorecard is byte-identical for identical ``(preset, seed)``.
    root:
        Campaign working directory (one subdirectory per scenario); a
        temporary directory when omitted.
    scorecard_path:
        Where to write ``robustness_scorecard.json``; defaults to
        ``<root>/robustness_scorecard.json``.  A ``campaign_timings.json``
        sidecar (wall-clock per scenario; *not* deterministic) is
        written next to it.
    """
    if preset not in PRESETS:
        raise ValueError(
            f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
        )
    import tempfile

    if root is None:
        root = Path(tempfile.mkdtemp(prefix="repro-campaign-"))
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    scenarios = PRESETS[preset]

    outcomes: List[ScenarioOutcome] = []
    wall_times: Dict[str, float] = {}
    reference_cache: Dict[Tuple[int, ...], bytes] = {}
    registry = obs.metrics()
    with obs.span(
        "campaign", preset=preset, seed=seed, scenarios=len(scenarios)
    ) as span:
        for scenario in scenarios:
            begin = time.perf_counter()
            reference = b""
            if _WORKFLOW_TABLE[scenario.workflow].needs_reference:
                reference = _reference_csv(
                    seed, scenario.systems, reference_cache, root
                )
            outcome = run_scenario(
                scenario, seed, root / scenario.name, reference
            )
            wall_times[scenario.name] = time.perf_counter() - begin
            outcomes.append(outcome)
            registry.counter("campaign.scenarios").add(1)
            if not outcome.ok:
                registry.counter("campaign.failures").add(1)
            registry.counter("campaign.injections").add(outcome.injections)
        result = CampaignResult(
            preset=preset,
            seed=seed,
            outcomes=tuple(outcomes),
            wall_times=dict(wall_times),
        )
        span.add("ok", result.ok)

    if scorecard_path is None:
        scorecard_path = root / SCORECARD_NAME
    scorecard_path = Path(scorecard_path)
    atomic_write_json(scorecard_path, result.scorecard())
    atomic_write_json(
        scorecard_path.parent / TIMINGS_NAME,
        {
            "preset": preset,
            "seed": seed,
            "wall_times_seconds": {
                name: round(seconds, 3)
                for name, seconds in sorted(wall_times.items())
            },
            "total_seconds": round(sum(wall_times.values()), 3),
        },
    )
    return result
