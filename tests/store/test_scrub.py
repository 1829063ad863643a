"""Scrub / quarantine / repair: the store's self-healing loop."""

from __future__ import annotations

import hashlib
import json
import shutil

import numpy as np
import pytest

from repro.store import (
    LEDGER_NAME,
    MANIFEST_NAME,
    PREV_MANIFEST_NAME,
    QUARANTINE_DIR,
    STAGING_DIR,
    ColumnarStore,
    load_ledger,
    repair_store,
    scrub_store,
    store_from_trace,
    verify_store,
)
from repro.synth import TraceGenerator


def _store_bytes(root):
    """Every file of a store as {relative path: bytes}."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def pristine(tmp_path_factory, small_trace):
    root = tmp_path_factory.mktemp("scrub") / "pristine"
    store_from_trace(small_trace, root, shard_rows=100)
    return root


@pytest.fixture()
def damaged(tmp_path, pristine):
    """A copy of the pristine store with three damage classes injected:
    a deleted column file, a bit-flipped data byte, and drifted
    manifest statistics."""
    root = tmp_path / "damaged"
    shutil.copytree(pristine, root)
    (root / "shards" / "00000-node_id.npy").unlink()
    victim = root / "shards" / "00001-root_cause.npy"
    data = bytearray(victim.read_bytes())
    data[-1] ^= 0x01
    victim.write_bytes(bytes(data))
    payload = json.loads((root / MANIFEST_NAME).read_text())
    payload["shards"][2]["stats"]["start_time"][0] -= 1.0
    (root / MANIFEST_NAME).write_text(json.dumps(payload))
    return root


class TestScrub:
    def test_clean_store_passes_through(self, tmp_path, pristine):
        root = tmp_path / "st"
        shutil.copytree(pristine, root)
        before = _store_bytes(root)
        report = scrub_store(root)
        assert report.ok
        assert report.healthy == report.checked == len(
            ColumnarStore(root).manifest.shards
        )
        assert not (root / QUARANTINE_DIR).exists()
        assert _store_bytes(root) == before

    def test_damage_classified_and_quarantined(self, damaged):
        report = scrub_store(damaged)
        assert not report.ok
        assert sorted(report.quarantined) == ["00000", "00001"]
        assert report.damage["missing-file"] == 1
        # the bit flip keeps a valid header, so only the deep checksum
        # pass sees it
        assert report.damage["checksum-mismatch"] == 1
        assert report.stat_drift == ["00002"]
        # quarantined files left shards/ and are ledgered
        assert not (damaged / "shards" / "00001-root_cause.npy").exists()
        assert (damaged / QUARANTINE_DIR / "00001-root_cause.npy").exists()
        ledger = load_ledger(damaged)
        assert set(ledger) == {"00000", "00001"}
        assert ledger["00000"]["damage"] == ["missing-file"]
        assert "00000-node_id.npy" in ledger["00000"]["missing"]

    def test_manifest_keeps_quarantined_shards(self, damaged):
        before = json.loads((damaged / MANIFEST_NAME).read_text())
        scrub_store(damaged)
        after = json.loads((damaged / MANIFEST_NAME).read_text())
        # the manifest is the logical truth: quarantine does not rewrite
        # it (its checksums are exactly what repair will prove against)
        assert after == before

    def test_fix_stats_recomputes_from_verified_data(self, damaged):
        report = scrub_store(damaged, fix_stats=True)
        assert report.repaired_stats == ["00002"]
        assert report.stat_drift == []
        payload = json.loads((damaged / MANIFEST_NAME).read_text())
        problems = [
            p for p in verify_store(damaged, deep=True) if "00002" in p
        ]
        assert problems == []
        # the previous manifest generation is kept for rollback
        assert (damaged / PREV_MANIFEST_NAME).exists()
        assert payload["row_count"] == sum(
            s["rows"] for s in payload["shards"]
        )

    def test_rerun_is_stable(self, damaged):
        first = scrub_store(damaged)
        second = scrub_store(damaged)
        assert sorted(second.quarantined) == sorted(first.quarantined)
        assert second.healthy == first.healthy
        assert load_ledger(damaged).keys() == {"00000", "00001"}

    def test_orphan_files_swept(self, tmp_path, pristine):
        root = tmp_path / "st"
        shutil.copytree(pristine, root)
        (root / "shards" / "99999-node_id.npy").write_bytes(b"junk")
        report = scrub_store(root)
        assert report.orphans == ["99999-node_id.npy"]
        assert not (root / "shards" / "99999-node_id.npy").exists()
        assert (root / QUARANTINE_DIR / "99999-node_id.npy").exists()

    def test_stale_staging_removed(self, tmp_path, pristine):
        root = tmp_path / "st"
        shutil.copytree(pristine, root)
        (root / STAGING_DIR).mkdir()
        (root / STAGING_DIR / "00007-node_id.npy").write_bytes(b"junk")
        report = scrub_store(root)
        assert report.staging_cleaned
        assert not (root / STAGING_DIR).exists()

    def test_report_shapes(self, damaged, capsys):
        report = scrub_store(damaged)
        payload = report.to_dict()
        json.dumps(payload)
        assert payload["ok"] is False
        assert "DAMAGED" in report.describe()


def _second_system(array):
    array[-1] = 13


def _swap_ends(array):
    array[[0, -1]] = array[[-1, 0]]


class TestLayoutChecks:
    """Shards the writer cannot cut, made by hand: one column of shard
    00001 (system 2) is re-saved, and the manifest's checksum and stats
    agree with the new bytes, so only a layout check can tell."""

    @pytest.mark.parametrize(
        "column, edit, kind, message",
        [
            (
                "system_id",
                _second_system,
                "multi-system",
                "spans multiple systems (2..13)",
            ),
            (
                "start_time",
                _swap_ends,
                "sort-violation",
                "rows are not sorted by (start_time, node_id)",
            ),
        ],
    )
    def test_reported_as_exactly_that_class(
        self, tmp_path, pristine, column, edit, kind, message
    ):
        root = tmp_path / "st"
        shutil.copytree(pristine, root)
        path = root / "shards" / f"00001-{column}.npy"
        array = np.load(path)
        edit(array)
        np.save(path, array)
        payload = json.loads((root / MANIFEST_NAME).read_text())
        shard = payload["shards"][1]
        assert shard["name"] == "00001"
        shard["checksums"][column] = hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        shard["stats"][column] = [array.min().item(), array.max().item()]
        (root / MANIFEST_NAME).write_text(json.dumps(payload))

        assert verify_store(root, deep=True) == [f"shard 00001: {message}"]
        report = scrub_store(root)
        assert report.quarantined == ["00001"]
        assert report.damage == {kind: 1}


class TestRepair:
    def test_roundtrip_is_byte_identical(self, damaged, pristine, small_trace):
        scrub_store(damaged, fix_stats=True)
        report = repair_store(damaged, small_trace)
        assert report.ok, report.failed
        assert sorted(report.repaired) == ["00000", "00001"]
        assert verify_store(damaged, deep=True) == []
        # healed tree == never-damaged tree, modulo the rollback manifest
        healed = _store_bytes(damaged)
        healed.pop(PREV_MANIFEST_NAME)
        assert healed == _store_bytes(pristine)
        # quarantine is gone entirely once the ledger empties
        assert not (damaged / QUARANTINE_DIR).exists()

    def test_repair_from_store_reference(self, damaged, pristine):
        scrub_store(damaged, fix_stats=True)
        report = repair_store(damaged, pristine)
        assert report.ok, report.failed
        assert verify_store(damaged, deep=True) == []

    def test_repair_without_prior_scrub(self, damaged, small_trace):
        # repair works standalone: it diagnoses what scrub would have
        report = repair_store(damaged, small_trace)
        assert sorted(report.repaired) == ["00000", "00001"]
        assert report.stats_fixed == ["00002"]
        assert verify_store(damaged, deep=True) == []

    def test_wrong_reference_refused(self, damaged):
        scrub_store(damaged)
        other = TraceGenerator(seed=99).generate([2, 13])
        report = repair_store(damaged, other)
        assert not report.ok
        assert set(report.failed) == {"00000", "00001"}
        assert all("sha256" in r or "row(s)" in r for r in report.failed.values())
        # failed shards stay quarantined and ledgered for the next try
        assert sorted(report.remaining) == ["00000", "00001"]
        assert (damaged / QUARANTINE_DIR / LEDGER_NAME).exists()

    def test_missing_checksum_refused(self, damaged, small_trace):
        scrub_store(damaged)
        payload = json.loads((damaged / MANIFEST_NAME).read_text())
        assert payload["shards"][0]["name"] == "00000"
        del payload["shards"][0]["checksums"]["node_id"]
        (damaged / MANIFEST_NAME).write_text(json.dumps(payload))
        report = repair_store(damaged, small_trace)
        assert "00000" in report.failed
        assert "cannot prove byte identity" in report.failed["00000"]
        assert "00001" in report.repaired

    def test_stale_ledger_entries_dropped(self, tmp_path, pristine, small_trace):
        root = tmp_path / "st"
        shutil.copytree(pristine, root)
        (root / "shards" / "99999-node_id.npy").write_bytes(b"junk")
        scrub_store(root)
        report = repair_store(root, small_trace)
        assert report.ok
        assert report.orphans_removed == ["99999-node_id.npy"]
        assert not (root / QUARANTINE_DIR).exists()
