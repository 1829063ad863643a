"""StoreWriter / ColumnarStore mechanics: sharding, pushdown, verify."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.store import (
    ColumnarStore,
    MANIFEST_NAME,
    Manifest,
    Predicate,
    StoreError,
    StoreWriter,
    store_from_trace,
    summarize_store,
    verify_store,
)
from repro.store.schema import COLUMN_NAMES, batch_from_records
from repro.store.writer import column_file_name
from repro.synth import TraceGenerator


@pytest.fixture(scope="module")
def store_root(tmp_path_factory, small_trace):
    root = tmp_path_factory.mktemp("store") / "st"
    store_from_trace(small_trace, root, shard_rows=100)
    return root


class TestWriter:
    def test_rejects_bad_args(self, tmp_path):
        with pytest.raises(ValueError):
            StoreWriter(tmp_path / "a", shard_rows=0)
        with pytest.raises(ValueError):
            StoreWriter(tmp_path / "b", record_ids="auto")

    def test_append_requires_full_schema(self, tmp_path, small_trace):
        writer = StoreWriter(tmp_path / "st")
        batch = batch_from_records(small_trace.records[:5])
        partial = type(batch)({"start_time": batch["start_time"]})
        with pytest.raises(ValueError, match="missing columns"):
            writer.append(partial)

    def test_double_finalize_raises(self, tmp_path):
        writer = StoreWriter(tmp_path / "st")
        writer.finalize()
        with pytest.raises(RuntimeError):
            writer.finalize()

    def test_shards_respect_row_cap_and_single_system(self, store_root):
        store = ColumnarStore(store_root)
        assert len(store.manifest.shards) > 2  # 100-row cap forced splits
        for shard in store.manifest.shards:
            assert shard.rows <= 100
            lo, hi = shard.stats["system_id"]
            assert lo == hi

    def test_cuts_rows_of_any_systems_in_any_order(self, tmp_path, small_trace):
        # In trace order systems 2 and 13 interleave; reversed, every
        # row comes in the opposite order.  The writer cuts both into
        # the same single-system, sorted shards.
        columns = small_trace.columns
        keys = zip(
            columns["system_id"].tolist(),
            columns["start_time"].tolist(),
            columns["node_id"].tolist(),
        )
        assert len(set(keys)) == len(columns)  # no ties to keep in order
        reversed_rows = columns.take(np.arange(len(columns))[::-1])
        for name, rows in (("trace", columns), ("reversed", reversed_rows)):
            writer = StoreWriter(tmp_path / name, shard_rows=100)
            writer.append(rows)
            writer.finalize()
        root = tmp_path / "trace"
        assert verify_store(root, deep=True) == []
        manifest = Manifest.load(root / MANIFEST_NAME)
        assert [shard.system_id for shard in manifest.shards] == [2, 2, 13, 13]
        assert {
            p.name: p.read_bytes() for p in (root / "shards").glob("*.npy")
        } == {
            p.name: p.read_bytes()
            for p in (tmp_path / "reversed" / "shards").glob("*.npy")
        }

    def test_no_manifest_means_no_store(self, tmp_path, small_trace):
        writer = StoreWriter(tmp_path / "st")
        writer.append(batch_from_records(small_trace.records))
        # finalize() never called: the directory must not open as a store
        with pytest.raises(StoreError):
            ColumnarStore(tmp_path / "st")

    def test_rewrite_removes_stale_shards(self, tmp_path, small_trace):
        root = tmp_path / "st"
        store_from_trace(small_trace, root, shard_rows=50)
        first = {p.name for p in (root / "shards").glob("*.npy")}
        store_from_trace(small_trace, root, shard_rows=5000)
        second = {p.name for p in (root / "shards").glob("*.npy")}
        assert len(second) < len(first)
        manifest = Manifest.load(root / MANIFEST_NAME)
        expected = {
            column_file_name(shard.name, column)
            for shard in manifest.shards
            for column in COLUMN_NAMES
        }
        assert second == expected


class TestReader:
    def test_len_and_info(self, store_root, small_trace):
        store = ColumnarStore(store_root)
        assert len(store) == len(small_trace)
        info = store.info()
        assert info["rows"] == len(small_trace)
        assert info["record_ids"] == "explicit"
        assert info["bytes"] > 0
        json.dumps(info)  # info() must be JSON-able

    def test_schema_mismatch_refused(self, tmp_path, small_trace):
        root = tmp_path / "st"
        store_from_trace(small_trace, root)
        payload = json.loads((root / MANIFEST_NAME).read_text())
        payload["schema_sha256"] = "0" * 64
        (root / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="schema digest mismatch"):
            ColumnarStore(root)

    def test_iter_batches_projects_columns(self, store_root):
        store = ColumnarStore(store_root)
        for chunk in store.iter_batches(columns=("system_id",)):
            assert chunk.names == ("system_id",)
        with pytest.raises(KeyError):
            next(store.iter_batches(columns=("nope",)))
        with pytest.raises(ValueError):
            next(store.iter_batches(batch_rows=0))

    def test_iter_batches_bounded_chunks(self, store_root, small_trace):
        store = ColumnarStore(store_root)
        sizes = [len(c) for c in store.iter_batches(batch_rows=37)]
        assert max(sizes) <= 37
        assert sum(sizes) == len(small_trace)

    def test_predicate_filters_rows_and_prunes_shards(
        self, store_root, small_trace
    ):
        store = ColumnarStore(store_root)
        records = small_trace.records
        lo = records[len(records) // 4].start_time
        hi = records[3 * len(records) // 4].start_time
        predicate = Predicate.build(t_min=lo, t_max=hi, systems=[13])
        expected = [
            r for r in records
            if lo <= r.start_time < hi and r.system_id == 13
        ]
        total = sum(
            len(c) for c in store.iter_batches(predicate=predicate)
        )
        assert total == len(expected)
        assert store.scan.shards_pruned >= 1
        assert store.scan.rows_matched == len(expected)

    def test_explicit_ids_survive_filtering(self, store_root, small_trace):
        store = ColumnarStore(store_root)
        predicate = Predicate.build(systems=[2])
        got = list(store.iter_records(predicate))
        expected = [r for r in small_trace.records if r.system_id == 2]
        assert [g.record_id for g in got] == [
            e.record_id for e in expected
        ]

    def test_null_predicate_equals_no_predicate(self, store_root):
        store = ColumnarStore(store_root)
        a = [repr(r) for r in store.iter_records()]
        b = [repr(r) for r in store.iter_records(Predicate.build())]
        assert a == b

    def test_to_trace_carries_window_and_systems(
        self, store_root, small_trace
    ):
        trace = ColumnarStore(store_root).to_trace()
        assert trace.data_start == small_trace.data_start
        assert trace.data_end == small_trace.data_end
        assert set(trace.systems) == set(small_trace.systems)


class TestVerify:
    def test_clean_store_verifies(self, store_root):
        assert verify_store(store_root, deep=True) == []
        assert verify_store(store_root, deep=False) == []

    def test_missing_column_file_caught(self, tmp_path, small_trace):
        root = tmp_path / "st"
        store_from_trace(small_trace, root, shard_rows=100)
        victim = next((root / "shards").glob("*-node_id.npy"))
        victim.unlink()
        problems = verify_store(root, deep=False)
        assert any("missing" in p for p in problems)

    def test_truncated_column_file_caught_shallow(
        self, tmp_path, small_trace
    ):
        root = tmp_path / "st"
        store_from_trace(small_trace, root, shard_rows=100)
        victim = next((root / "shards").glob("*-start_time.npy"))
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) // 2])
        problems = verify_store(root, deep=False)
        assert problems, "truncation must not verify clean"

    def test_bitflip_caught_by_deep_checksum(self, tmp_path, small_trace):
        root = tmp_path / "st"
        store_from_trace(small_trace, root, shard_rows=100)
        victim = next((root / "shards").glob("*-root_cause.npy"))
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0x01  # damage a data byte, keeping shape and dtype
        victim.write_bytes(bytes(data))
        assert verify_store(root, deep=False) == []
        problems = verify_store(root, deep=True)
        assert any("sha256 mismatch" in p for p in problems)

    def test_deep_checks_scoped_per_shard(self, tmp_path, small_trace):
        # Regression: the deep pass used to key on the *global* problem
        # list, so any shallow finding on shard A suppressed the deep
        # checks (checksums, stats, sort) for every other shard.  With
        # one shard missing a file AND another bit-flipped, both must
        # be reported.
        root = tmp_path / "st"
        store_from_trace(small_trace, root, shard_rows=100)
        shards = sorted((root / "shards").glob("*-node_id.npy"))
        shards[0].unlink()
        victim = root / "shards" / "00001-root_cause.npy"
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0x01
        victim.write_bytes(bytes(data))
        problems = verify_store(root, deep=True)
        assert any("00000" in p and "missing" in p for p in problems)
        assert any(
            "00001" in p and "sha256 mismatch" in p for p in problems
        )

    def test_corrupt_manifest_is_a_single_problem(self, tmp_path):
        root = tmp_path / "st"
        root.mkdir()
        (root / MANIFEST_NAME).write_text("{not json")
        problems = verify_store(root)
        assert len(problems) == 1
        assert "corrupt manifest" in problems[0]

    def test_missing_manifest_reported(self, tmp_path):
        problems = verify_store(tmp_path)
        assert len(problems) == 1
        assert "not a columnar store" in problems[0]


class TestSummarize:
    def test_counts_match_trace(self, store_root, small_trace):
        summary = summarize_store(ColumnarStore(store_root))
        assert summary.rows == len(small_trace)
        assert summary.counts_by_cause == {
            cause.value: count
            for cause, count in small_trace.counts_by_cause().items()
            if count
        }
        downtime = small_trace.downtime_by_cause()
        for cause, seconds in summary.downtime_by_cause.items():
            expected = next(
                v for k, v in downtime.items() if k.value == cause
            )
            assert seconds == pytest.approx(expected, rel=1e-12)

    def test_summary_batch_size_invariance(self, store_root):
        store = ColumnarStore(store_root)
        a = summarize_store(store, batch_rows=7)
        b = summarize_store(store, batch_rows=10_000)
        assert a.counts_by_cause == b.counts_by_cause
        assert a.counts_by_system == b.counts_by_system
        assert a.rows == b.rows

    def test_filtered_summary_scan_counters(self, store_root):
        store = ColumnarStore(store_root)
        summary = summarize_store(
            store, predicate=Predicate.build(systems=[13])
        )
        assert set(summary.counts_by_system) == {13}
        assert summary.scan.shards_pruned >= 1
        assert summary.to_dict()["scan"]["shards_pruned"] >= 1
