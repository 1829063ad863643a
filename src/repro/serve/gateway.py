"""Circuit-broken store access with a three-rung degradation ladder.

Every query the service executes goes through :class:`StoreGateway`,
which walks a three-rung ladder:

1. **primary** — fresh ``ColumnarStore(root, on_damage="raise")``
   scan.  Guarded by a time-based-recovery
   :class:`~repro.resilience.breaker.CircuitBreaker`: after repeated
   primary failures the breaker opens and the gateway stops paying for
   doomed full reads until the cooldown admits a half-open probe.
2. **degraded** — ``on_damage="skip"`` scan over the healthy shards,
   answering with explicit per-system ``coverage``.
3. **stale** — the last complete cached result for this query, served
   with ``stale: true`` when the store cannot answer at all.

Results are cached under a *generation* token digesting both the
manifest bytes and the quarantine ledger bytes (see
:mod:`repro.serve.cache` for why both).  Deadline-truncated scans come
back ``partial`` (never cached); a blown deadline is a property of
this request's budget, not of the store, so it does **not** count as a
breaker failure.

Gateway methods run on serve executor threads; breaker transitions are
serialized by an internal lock, and each query opens its own store
handle so no scan state is shared across threads.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

from repro import obs
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.deadline import Deadline
from repro.serve.cache import ResultCache
from repro.store.analytics import summarize_store
from repro.store.manifest import (
    LEDGER_NAME,
    MANIFEST_NAME,
    QUARANTINE_DIR,
    Predicate,
    StoreError,
)
from repro.store.reader import DEFAULT_BATCH_ROWS, ColumnarStore

__all__ = ["Query", "QueryResult", "StoreGateway", "StoreUnavailable"]

class StoreUnavailable(Exception):
    """Every rung of the degradation ladder failed for this query."""


@dataclass(frozen=True)
class Query:
    """A normalized analytics query (the cache-key unit).

    ``systems`` is kept sorted/deduplicated by :meth:`build` so that
    ``?system=2&system=1`` and ``?system=1&system=2`` share a cache
    entry.
    """

    kind: str = "summary"
    systems: Optional[Tuple[int, ...]] = None
    t_min: Optional[float] = None
    t_max: Optional[float] = None

    @classmethod
    def build(cls, kind="summary", systems=None, t_min=None, t_max=None) -> "Query":
        return cls(
            kind=str(kind),
            systems=(
                None if systems is None
                else tuple(sorted({int(s) for s in systems}))
            ),
            t_min=None if t_min is None else float(t_min),
            t_max=None if t_max is None else float(t_max),
        )

    def key(self) -> str:
        """Canonical cache key; stable across parameter orderings."""
        systems = (
            "-" if self.systems is None
            else ",".join(str(s) for s in self.systems)
        )
        return (
            f"{self.kind}|systems={systems}"
            f"|t_min={self.t_min!r}|t_max={self.t_max!r}"
        )

    def predicate(self) -> Optional[Predicate]:
        if self.systems is None and self.t_min is None and self.t_max is None:
            return None
        return Predicate.build(
            t_min=self.t_min, t_max=self.t_max, systems=self.systems
        )


@dataclass
class QueryResult:
    """One answer plus the serving metadata the response contract requires."""

    data: dict
    degraded: bool = False
    stale: bool = False
    partial: bool = False
    #: Per-system readable fraction (str keys) for degraded answers,
    #: ``1.0`` for complete ones, ``None`` when unknowable (stale).
    coverage: object = 1.0
    #: ``"hit"``, ``"miss"`` or ``"stale"``.
    cache: str = "miss"
    #: Breaker state observed when the query was served.
    breaker: str = "closed"
    generation: Optional[str] = None

    def status(self) -> str:
        if self.stale:
            return "stale"
        if self.degraded:
            return "degraded"
        if self.partial:
            return "partial"
        return "ok"


@dataclass
class StoreGateway:
    """Degradation-ladder access to one columnar store directory."""

    root: Path
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)
    cache: ResultCache = field(default_factory=ResultCache)
    batch_rows: int = DEFAULT_BATCH_ROWS
    #: Degradation-path counters for ``/v1/stats``.
    primary_reads: int = 0
    degraded_reads: int = 0
    stale_reads: int = 0
    failures: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # -- generation token -------------------------------------------------

    def generation(self) -> str:
        """Digest of manifest + quarantine ledger bytes.

        Raises :class:`StoreError` when the manifest is unreadable —
        the signal that even opening the store will fail.
        """
        digest = hashlib.sha256()
        try:
            digest.update((self.root / MANIFEST_NAME).read_bytes())
        except OSError as error:
            raise StoreError(
                f"store manifest unreadable: {error}"
            ) from error
        digest.update(b"\x00")
        ledger_path = self.root / QUARANTINE_DIR / LEDGER_NAME
        try:
            digest.update(ledger_path.read_bytes())
        except OSError:
            digest.update(b"-")
        return digest.hexdigest()[:16]

    # -- breaker bookkeeping (thread-safe) --------------------------------

    def _breaker_allow(self) -> bool:
        with self._lock:
            return self.breaker.allow()

    def _breaker_success(self) -> None:
        with self._lock:
            self.breaker.record_success()

    def _breaker_failure(self) -> None:
        with self._lock:
            self.breaker.record_failure()

    def breaker_state(self) -> str:
        with self._lock:
            return self.breaker.state()

    # -- ladder rungs ------------------------------------------------------

    def _scan(
        self, query: Query, deadline: Optional[Deadline], on_damage: str
    ):
        store = ColumnarStore(self.root, on_damage=on_damage)
        if query.kind == "report":
            # The paper report folds the summary's core plus its own
            # state through the same scan, ladder and cache (StoreReport
            # has the to_dict()/partial surface the callers rely on).
            from repro.report.streaming import run_store_report

            return store, run_store_report(
                store,
                batch_rows=self.batch_rows,
                deadline=deadline,
                on_deadline="partial",
            )
        return store, summarize_store(
            store,
            predicate=query.predicate(),
            batch_rows=self.batch_rows,
            deadline=deadline,
            on_deadline="partial",
        )

    def query(
        self, query: Query, deadline: Optional[Deadline] = None
    ) -> QueryResult:
        """Answer ``query`` by walking the degradation ladder.

        Never raises for store damage — that is absorbed into degraded
        or stale results.  Raises :class:`StoreUnavailable` only when
        all three rungs fail (no manifest *and* no cached answer).
        """
        key = query.key()
        primary_error: Optional[BaseException] = None
        try:
            generation = self.generation()
        except StoreError as error:
            primary_error = error
            generation = None
        if generation is not None:
            cached = self.cache.get(generation, key)
            if cached is not None:
                obs.metrics().counter("serve.cache_hits").add(1)
                return QueryResult(
                    data=cached.payload,
                    cache="hit",
                    breaker=self.breaker_state(),
                    generation=generation,
                )
            if self._breaker_allow():
                # Rung 1: primary strict read.
                try:
                    with obs.span("serve.query.primary", kind=query.kind):
                        _, summary = self._scan(query, deadline, "raise")
                except (StoreError, OSError) as error:
                    primary_error = error
                    self._breaker_failure()
                    self.failures += 1
                    obs.metrics().counter("serve.primary_failures").add(1)
                else:
                    self._breaker_success()
                    self.primary_reads += 1
                    data = summary.to_dict()
                    partial = summary.partial is not None
                    if not partial:
                        self.cache.put(generation, key, data)
                    return QueryResult(
                        data=data,
                        partial=partial,
                        breaker=self.breaker_state(),
                        generation=generation,
                    )
            # Rung 2: degraded read over healthy shards only.
            try:
                with obs.span("serve.query.degraded", kind=query.kind):
                    store, summary = self._scan(query, deadline, "skip")
            except (StoreError, OSError) as error:
                primary_error = error
            else:
                self.degraded_reads += 1
                obs.metrics().counter("serve.degraded_reads").add(1)
                coverage = {
                    str(system_id): fraction
                    for system_id, fraction in store.degraded.coverage().items()
                }
                return QueryResult(
                    data=summary.to_dict(),
                    degraded=bool(store.degraded),
                    partial=summary.partial is not None,
                    coverage=coverage if store.degraded else 1.0,
                    breaker=self.breaker_state(),
                    generation=generation,
                )
        # Rung 3: last-good stale answer.
        last = self.cache.last_good(key)
        if last is not None:
            self.stale_reads += 1
            obs.metrics().counter("serve.stale_reads").add(1)
            return QueryResult(
                data=last.payload,
                stale=True,
                coverage=None,
                cache="stale",
                breaker=self.breaker_state(),
                generation=last.generation,
            )
        raise StoreUnavailable(
            f"store at {self.root} unavailable and no cached result for "
            f"{key!r}: {primary_error}"
        )

    # -- cheap manifest-only views ----------------------------------------

    def systems(self) -> dict:
        """Per-system row counts straight from the manifest (no scan)."""
        store = ColumnarStore(self.root, on_damage="skip")
        by_system: dict = {}
        for shard in store.manifest.shards:
            system_id = shard.system_id
            by_system[system_id] = by_system.get(system_id, 0) + shard.rows
        return {
            "systems": [
                {"system": system_id, "rows": rows}
                for system_id, rows in sorted(by_system.items())
            ],
            "row_count": store.manifest.row_count,
        }

    def readiness(self) -> dict:
        """Open the store and report its healing state (for ``/readyz``)."""
        store = ColumnarStore(self.root, on_damage="skip")
        return store.info()["healing"]

    def to_dict(self) -> dict:
        """Counters for ``/v1/stats``."""
        return {
            "breaker": self.breaker_state(),
            "primary_reads": self.primary_reads,
            "degraded_reads": self.degraded_reads,
            "stale_reads": self.stale_reads,
            "failures": self.failures,
            "cache": self.cache.to_dict(),
        }
