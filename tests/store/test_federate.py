"""Federation: crash-safe append and merge of columnar stores."""

from __future__ import annotations

import json

import pytest

from repro.store import (
    MANIFEST_NAME,
    PREV_MANIFEST_NAME,
    STAGING_DIR,
    ColumnarStore,
    StoreError,
    StoreWriter,
    append_trace,
    merge_stores,
    store_from_trace,
    verify_store,
)
from repro.store.federate import _merged_systems
from repro.store.schema import batch_from_records
from repro.synth import TraceGenerator


def _store_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _record_set(root):
    return sorted(repr(r) for r in ColumnarStore(root).iter_records())


@pytest.fixture(scope="module")
def split(tmp_path_factory, small_trace):
    """The small trace split per system into two source stores."""
    base = tmp_path_factory.mktemp("federate")
    parts = {}
    for system_id in (2, 13):
        root = base / f"sys{system_id}"
        store_from_trace(
            small_trace.filter_systems([system_id]), root, shard_rows=100
        )
        parts[system_id] = root
    return parts


class TestAppend:
    def test_append_grows_the_store(self, tmp_path, split, small_trace):
        root = tmp_path / "st"
        sys2 = small_trace.filter_systems([2])
        sys13 = small_trace.filter_systems([13])
        store_from_trace(sys2, root, shard_rows=100)
        manifest = append_trace(root, sys13)
        assert manifest.row_count == len(small_trace)
        assert verify_store(root, deep=True) == []
        assert not (root / STAGING_DIR).exists()
        assert manifest.meta["appends"] == 1
        assert (root / PREV_MANIFEST_NAME).exists()

    def test_appended_records_all_read_back(self, tmp_path, split, small_trace):
        root = tmp_path / "st"
        store_from_trace(small_trace.filter_systems([2]), root, shard_rows=100)
        append_trace(root, small_trace.filter_systems([13]))
        expected = sorted(repr(r) for r in small_trace.records)
        assert _record_set(root) == expected

    def test_append_accepts_a_store_directory(self, tmp_path, split):
        root = tmp_path / "st"
        store_from_trace(
            ColumnarStore(split[2]).to_trace(), root, shard_rows=100
        )
        manifest = append_trace(root, split[13])
        assert manifest.row_count == len(ColumnarStore(split[2])) + len(
            ColumnarStore(split[13])
        )
        assert verify_store(root, deep=True) == []

    def test_shard_rows_defaults_to_largest_existing(self, tmp_path, small_trace):
        root = tmp_path / "st"
        store_from_trace(small_trace.filter_systems([2]), root, shard_rows=60)
        manifest = append_trace(root, small_trace.filter_systems([13]))
        new = [s for s in manifest.shards if s.system_id == 13]
        assert new and max(s.rows for s in new) <= 60

    def test_empty_source_is_a_no_op(self, tmp_path, small_trace):
        root = tmp_path / "st"
        store_from_trace(small_trace, root, shard_rows=100)
        before = _store_bytes(root)
        append_trace(root, small_trace.filter_systems([99]))
        assert _store_bytes(root) == before

    def test_window_extends(self, tmp_path, small_trace):
        root = tmp_path / "st"
        sys2 = small_trace.filter_systems([2])
        store_from_trace(sys2, root, shard_rows=100)
        manifest = append_trace(root, small_trace.filter_systems([13]))
        assert manifest.data_start == min(
            sys2.data_start, small_trace.data_start
        )
        assert manifest.data_end >= sys2.data_end


class TestMerge:
    def test_disjoint_merge_matches_single_import(
        self, tmp_path, split, small_trace
    ):
        reference = tmp_path / "reference"
        store_from_trace(small_trace, reference, shard_rows=100)
        merged = tmp_path / "merged"
        merge_stores(merged, [split[2], split[13]], shard_rows=100)
        # shard files are byte-identical to the single-pass import;
        # only the manifests' meta provenance differs
        ref = _store_bytes(reference)
        got = _store_bytes(merged)
        assert got.keys() == ref.keys()
        diff = {k for k in ref if ref[k] != got[k]}
        assert diff <= {MANIFEST_NAME}
        ref_manifest = json.loads(ref[MANIFEST_NAME])
        got_manifest = json.loads(got[MANIFEST_NAME])
        ref_manifest["meta"] = got_manifest["meta"] = {}
        assert got_manifest == ref_manifest
        assert verify_store(merged, deep=True) == []

    def test_merge_accepts_trace_files(self, tmp_path, split, small_trace):
        from repro.io import write_lanl_csv

        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_lanl_csv(small_trace.filter_systems([2]), a)
        write_lanl_csv(small_trace.filter_systems([13]), b)
        from_files = tmp_path / "from-files"
        from_stores = tmp_path / "from-stores"
        merge_stores(from_files, [str(a), str(b)], shard_rows=100)
        merge_stores(from_stores, [split[2], split[13]], shard_rows=100)
        files = _store_bytes(from_files)
        stores = _store_bytes(from_stores)
        assert {k: v for k, v in files.items() if k != MANIFEST_NAME} == {
            k: v for k, v in stores.items() if k != MANIFEST_NAME
        }

    def test_merge_refuses_existing_store(self, tmp_path, split, small_trace):
        out = tmp_path / "out"
        store_from_trace(small_trace, out, shard_rows=100)
        with pytest.raises(StoreError, match="store append"):
            merge_stores(out, [split[2], split[13]])

    def test_merge_refuses_mixed_record_id_modes(
        self, tmp_path, split, small_trace
    ):
        implicit = tmp_path / "implicit"
        writer = StoreWriter(
            implicit,
            systems=small_trace.systems,
            data_start=small_trace.data_start,
            data_end=small_trace.data_end,
            record_ids="implicit",
            shard_rows=100,
        )
        sys13 = small_trace.filter_systems([13])
        writer.append(batch_from_records(sys13.records))
        writer.finalize()
        with pytest.raises(StoreError, match="mixed record-id modes"):
            merge_stores(tmp_path / "out", [split[2], implicit])

    def test_merge_needs_a_source(self, tmp_path):
        with pytest.raises(StoreError, match="at least one source"):
            merge_stores(tmp_path / "out", [])

    def test_merged_systems_refuses_conflicts(self, small_trace):
        import dataclasses

        from repro.records.system import HardwareType

        systems = dict(small_trace.systems)
        other_type = (
            HardwareType.A
            if systems[2].hardware_type != HardwareType.A
            else HardwareType.B
        )
        conflicting = {
            2: dataclasses.replace(systems[2], hardware_type=other_type)
        }
        with pytest.raises(StoreError, match="defined differently"):
            _merged_systems(systems, conflicting)

    def test_degraded_source_merge_skips_damage(self, tmp_path, split):
        import shutil

        damaged = tmp_path / "damaged-source"
        shutil.copytree(split[2], damaged)
        victim = next((damaged / "shards").glob("*-node_id.npy"))
        victim.unlink()
        with pytest.raises(StoreError):
            merge_stores(tmp_path / "strict", [damaged, split[13]])
        source = ColumnarStore(damaged, on_damage="skip")
        manifest = merge_stores(
            tmp_path / "lenient", [source, split[13]], shard_rows=100
        )
        assert source.degraded
        assert manifest.row_count == (
            ColumnarStore(split[2]).manifest.row_count
            - source.degraded.rows_skipped
            + ColumnarStore(split[13]).manifest.row_count
        )
        assert verify_store(tmp_path / "lenient", deep=True) == []
