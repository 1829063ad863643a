"""StoreGateway: the degradation ladder, breaker wiring, generations."""

from __future__ import annotations

import shutil

import pytest

from repro.report import run_store_report
from repro.resilience import CircuitBreaker
from repro.resilience.deadline import Deadline
from repro.serve import Query, StoreGateway, StoreUnavailable
from repro.store import ColumnarStore, store_from_trace, summarize_store
from repro.store.manifest import MANIFEST_NAME

DAMAGED_COLUMN = "00000-node_id.npy"


@pytest.fixture()
def store_dir(tmp_path, small_trace):
    root = tmp_path / "store"
    store_from_trace(small_trace, root, shard_rows=100)
    return root


def make_gateway(root, threshold=3, cooldown=60.0):
    clock = {"now": 0.0}
    gateway = StoreGateway(
        root=root,
        breaker=CircuitBreaker(
            failure_threshold=threshold,
            cooldown_seconds=cooldown,
            clock=lambda: clock["now"],
        ),
    )
    return gateway, clock


def ticking_deadline(budget=2.0):
    """A deadline whose clock advances one second per reading."""
    ticks = {"n": 0}

    def clock():
        ticks["n"] += 1
        return float(ticks["n"])

    return Deadline(budget, clock=clock)


class TestPrimaryPath:
    def test_result_matches_direct_summary(self, store_dir):
        gateway, _ = make_gateway(store_dir)
        result = gateway.query(Query.build())
        expected = summarize_store(ColumnarStore(store_dir)).to_dict()
        assert result.data == expected
        assert result.status() == "ok"
        assert not result.degraded and not result.stale and not result.partial
        assert result.coverage == 1.0
        assert result.cache == "miss"
        assert result.breaker == "closed"

    def test_second_query_hits_cache(self, store_dir):
        gateway, _ = make_gateway(store_dir)
        first = gateway.query(Query.build())
        second = gateway.query(Query.build())
        assert second.cache == "hit"
        assert second.data == first.data
        assert gateway.primary_reads == 1

    def test_filtered_query(self, store_dir, small_trace):
        gateway, _ = make_gateway(store_dir)
        query = Query.build(kind="analyze", systems=[13])
        result = gateway.query(query)
        expected = summarize_store(
            ColumnarStore(store_dir), predicate=query.predicate()
        ).to_dict()
        assert result.data == expected

    def test_partial_result_not_cached(self, store_dir):
        gateway, _ = make_gateway(store_dir)
        partial = gateway.query(Query.build(), deadline=ticking_deadline())
        assert partial.partial
        assert partial.status() == "partial"
        # The truncated answer must not poison the cache.
        complete = gateway.query(Query.build())
        assert complete.cache == "miss"
        assert not complete.partial


class TestReportQuery:
    def test_report_matches_direct_store_report(self, store_dir):
        gateway, _ = make_gateway(store_dir)
        result = gateway.query(Query.build(kind="report"))
        expected = run_store_report(ColumnarStore(store_dir)).to_dict()
        assert result.data == expected
        assert result.status() == "ok"
        assert result.cache == "miss"
        assert gateway.query(Query.build(kind="report")).cache == "hit"

    def test_partial_report_not_cached(self, store_dir):
        gateway, _ = make_gateway(store_dir)
        partial = gateway.query(
            Query.build(kind="report"), deadline=ticking_deadline()
        )
        assert partial.status() == "partial"
        assert partial.data["partial"]["reason"] == "deadline-exceeded"
        complete = gateway.query(Query.build(kind="report"))
        assert complete.cache == "miss"
        assert not complete.partial
        assert complete.data["partial"] is None


class TestDegradedPath:
    def test_damage_serves_degraded_with_coverage(self, store_dir):
        (store_dir / "shards" / DAMAGED_COLUMN).unlink()
        gateway, _ = make_gateway(store_dir)
        result = gateway.query(Query.build())
        assert result.status() == "degraded"
        assert result.degraded and not result.stale
        assert isinstance(result.coverage, dict)
        assert any(
            fraction < 1.0 for fraction in result.coverage.values()
        )
        assert gateway.degraded_reads == 1
        assert gateway.failures == 1

    def test_breaker_opens_after_repeated_failures(self, store_dir):
        (store_dir / "shards" / DAMAGED_COLUMN).unlink()
        gateway, _ = make_gateway(store_dir, threshold=2)
        gateway.query(Query.build())
        gateway.query(Query.build())
        assert gateway.breaker_state() == "open"
        # Open breaker: the primary rung is skipped entirely.
        before = gateway.failures
        result = gateway.query(Query.build())
        assert result.degraded
        assert result.breaker == "open"
        assert gateway.failures == before

    def test_breaker_recovers_after_repair(self, store_dir, tmp_path):
        backup = tmp_path / "backup.npy"
        shutil.copyfile(store_dir / "shards" / DAMAGED_COLUMN, backup)
        (store_dir / "shards" / DAMAGED_COLUMN).unlink()
        gateway, clock = make_gateway(store_dir, threshold=1, cooldown=30.0)
        gateway.query(Query.build())
        assert gateway.breaker_state() == "open"
        # Repair the store; once the cooldown admits a half-open probe
        # the primary read succeeds and the breaker closes.
        shutil.copyfile(backup, store_dir / "shards" / DAMAGED_COLUMN)
        clock["now"] = 31.0
        result = gateway.query(Query.build())
        assert result.status() == "ok"
        assert not result.degraded
        assert gateway.breaker_state() == "closed"


class TestStalePath:
    def test_stale_answer_when_store_gone(self, store_dir):
        gateway, _ = make_gateway(store_dir)
        warm = gateway.query(Query.build())
        (store_dir / MANIFEST_NAME).unlink()
        result = gateway.query(Query.build())
        assert result.status() == "stale"
        assert result.stale
        assert result.cache == "stale"
        assert result.coverage is None
        assert result.data == warm.data
        assert gateway.stale_reads == 1

    def test_unavailable_when_cold_and_gone(self, store_dir):
        gateway, _ = make_gateway(store_dir)
        (store_dir / MANIFEST_NAME).unlink()
        with pytest.raises(StoreUnavailable, match="no cached result"):
            gateway.query(Query.build())


class TestGeneration:
    def test_quarantine_changes_generation(self, store_dir, small_trace):
        from repro.store import scrub_store

        gateway, _ = make_gateway(store_dir)
        before = gateway.generation()
        (store_dir / "shards" / DAMAGED_COLUMN).unlink()
        scrub_store(store_dir)
        assert gateway.generation() != before

    def test_cache_missed_after_generation_change(self, store_dir):
        from repro.store import scrub_store

        gateway, _ = make_gateway(store_dir)
        gateway.query(Query.build())
        (store_dir / "shards" / DAMAGED_COLUMN).unlink()
        scrub_store(store_dir)
        result = gateway.query(Query.build())
        # Not a cache hit: the store changed, so the answer was
        # recomputed (degraded now that a shard is quarantined).
        assert result.cache != "hit"
        assert result.degraded


class TestManifestViews:
    def test_systems_listing(self, store_dir, small_trace):
        gateway, _ = make_gateway(store_dir)
        listing = gateway.systems()
        systems = {entry["system"] for entry in listing["systems"]}
        assert systems == {record.system_id for record in small_trace.records}
        assert listing["row_count"] == len(small_trace.records)
        assert sum(e["rows"] for e in listing["systems"]) == listing["row_count"]

    def test_readiness_reports_healing(self, store_dir):
        gateway, _ = make_gateway(store_dir)
        healing = gateway.readiness()
        assert healing["quarantined_shards"] == 0
        assert healing["affected_systems"] == []
