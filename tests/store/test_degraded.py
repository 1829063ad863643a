"""Degraded reads: skipping damaged shards with an honest report."""

from __future__ import annotations

import json
import shutil

import pytest

from repro.store import (
    ColumnarStore,
    StoreError,
    scrub_store,
    store_from_trace,
    summarize_store,
)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory, small_trace):
    root = tmp_path_factory.mktemp("degraded") / "pristine"
    store_from_trace(small_trace, root, shard_rows=100)
    return root


@pytest.fixture()
def damaged(tmp_path, pristine):
    """A store with one deleted column file and one truncated one."""
    root = tmp_path / "damaged"
    shutil.copytree(pristine, root)
    (root / "shards" / "00000-node_id.npy").unlink()
    victim = root / "shards" / "00002-start_time.npy"
    data = victim.read_bytes()
    victim.write_bytes(data[: len(data) // 2])
    return root


class TestRaiseMode:
    def test_default_raises_naming_the_shard(self, damaged):
        store = ColumnarStore(damaged)
        with pytest.raises(StoreError, match="shard 00000 is damaged"):
            list(store.iter_batches())

    def test_error_suggests_the_healing_path(self, damaged):
        with pytest.raises(StoreError, match="repro store scrub"):
            list(ColumnarStore(damaged).iter_records())

    def test_invalid_mode_rejected(self, pristine):
        with pytest.raises(ValueError, match="on_damage"):
            ColumnarStore(pristine, on_damage="ignore")


class TestSkipMode:
    def test_reads_complete_over_healthy_shards(self, damaged, small_trace):
        store = ColumnarStore(damaged, on_damage="skip")
        rows = sum(len(chunk) for chunk in store.iter_batches())
        report = store.degraded
        assert report
        assert sorted(report.shards_skipped) == ["00000", "00002"]
        assert rows + report.rows_skipped == store.manifest.row_count

    def test_rows_skipped_matches_manifest(self, damaged):
        store = ColumnarStore(damaged, on_damage="skip")
        list(store.iter_batches())
        by_name = {s.name: s.rows for s in store.manifest.shards}
        assert store.degraded.rows_skipped == (
            by_name["00000"] + by_name["00002"]
        )

    def test_skips_deduplicated_across_scans(self, damaged):
        store = ColumnarStore(damaged, on_damage="skip")
        list(store.iter_batches())
        list(store.iter_batches())
        assert sorted(store.degraded.shards_skipped) == ["00000", "00002"]

    def test_quarantined_shards_also_skip(self, damaged):
        scrub_store(damaged)
        store = ColumnarStore(damaged, on_damage="skip")
        list(store.iter_batches())
        report = store.degraded
        assert sorted(report.shards_skipped) == ["00000", "00002"]
        assert any("quarantined" in r for r in report.reasons.values())

    def test_coverage_per_system(self, damaged):
        store = ColumnarStore(damaged, on_damage="skip")
        list(store.iter_batches())
        coverage = store.degraded.coverage()
        # shard 00000 is system 2's, shard 00002 is system 13's: both
        # systems lose exactly their skipped shard's rows
        by_system = {}
        for shard in store.manifest.shards:
            system_id = shard.system_id
            total, lost = by_system.get(system_id, (0, 0))
            skipped = shard.name in store.degraded.shards_skipped
            by_system[system_id] = (
                total + shard.rows, lost + (shard.rows if skipped else 0)
            )
        for system_id, (total, lost) in by_system.items():
            assert coverage[system_id] == pytest.approx(
                (total - lost) / total
            )
        assert 0.0 < coverage[2] < 1.0
        assert 0.0 < coverage[13] < 1.0

    def test_report_is_jsonable_and_describes(self, damaged):
        store = ColumnarStore(damaged, on_damage="skip")
        list(store.iter_batches())
        payload = store.degraded.to_dict()
        json.dumps(payload)
        assert payload["shards_skipped"] == ["00000", "00002"]
        assert store.degraded.describe()

    def test_healthy_store_reports_nothing(self, pristine):
        store = ColumnarStore(pristine, on_damage="skip")
        list(store.iter_batches())
        assert not store.degraded
        assert store.degraded.rows_skipped == 0


class TestSummarizeDegraded:
    def test_summary_carries_the_degraded_report(self, damaged):
        store = ColumnarStore(damaged, on_damage="skip")
        summary = summarize_store(store)
        assert summary.degraded is not None
        assert (
            summary.rows + summary.degraded["rows_skipped"]
            == store.manifest.row_count
        )
        assert "DEGRADED" in summary.describe()

    def test_clean_summary_has_no_degraded_section(self, pristine):
        summary = summarize_store(ColumnarStore(pristine, on_damage="skip"))
        assert summary.degraded is None
        assert "DEGRADED" not in summary.describe()
