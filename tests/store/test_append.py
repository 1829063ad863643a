"""An append is a merge: a grown store keeps the one-pass layout.

``append_trace`` cuts every system its rows touch again from the
stored and the new rows together, so whatever the append history, the
store's column files in manifest order are those of a one-pass import
of the concatenated parts.  These tests drive random histories against
the layout oracle and against ``merge_stores``, the refusals that come
before any write, the crash drills around the publish and the sweep, a
repair after an append, and a parallel scan an append lands in.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.store.federate as federate
from repro.faults.fsfaults import FsFaults, fsfaults_env
from repro.records.columns import sort_rows
from repro.records.system import HardwareType
from repro.records.trace import FailureTrace
from repro.store import (
    ColumnarStore,
    StoreError,
    StoreWriter,
    append_trace,
    merge_stores,
    repair_store,
    scrub_store,
    store_from_trace,
    verify_store,
)
from repro.store.manifest import load_ledger
from repro.store.schema import COLUMN_NAMES, ColumnBatch, concat_batches
from repro.synth import TraceGenerator
from tests.store.layout_oracle import (
    implicit_ids,
    manifest_order_files,
    oracle_files,
    oracle_shards,
    shard_files,
)

#: Below the 191 and 194 rows systems 2 and 13 have at seed 5.
SHARD_ROWS = 64


def _trace(columns: ColumnBatch, like: FailureTrace) -> FailureTrace:
    return FailureTrace.from_columns(
        sort_rows(columns),
        systems=like.systems,
        data_start=like.data_start,
        data_end=like.data_end,
    )


def _store_bytes(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _manifest_sans_names(root) -> dict:
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["meta"] = {}
    for shard in manifest["shards"]:
        shard["name"] = None
    return manifest


def _write(
    root, columns: ColumnBatch, like: FailureTrace, implicit: bool,
    shard_rows: int,
) -> None:
    """A one-pass write of ``columns``, with implicit or explicit ids."""
    if not implicit:
        store_from_trace(_trace(columns, like), root, shard_rows=shard_rows)
        return
    writer = StoreWriter(
        root,
        systems=like.systems,
        data_start=like.data_start,
        data_end=like.data_end,
        record_ids="implicit",
        shard_rows=shard_rows,
    )
    writer.append(implicit_ids(columns))
    writer.finalize()


@pytest.fixture(scope="module")
def tied(small_trace):
    """The small trace's columns plus a tied copy of every fifth row.

    A copy shares its original's system, ``start_time`` and
    ``node_id``, ends a minute later and carries a record id past every
    original; listed first, it stays ahead of its original.
    """
    columns = small_trace.columns
    picked = np.arange(0, len(columns), 5)
    copies = {name: columns[name][picked] for name in COLUMN_NAMES}
    copies["end_time"] = copies["end_time"] + 60.0
    copies["record_id"] = copies["record_id"] + 100_000
    return sort_rows(concat_batches([ColumnBatch(copies), columns]))


@pytest.fixture(scope="module")
def halves(small_trace):
    """The small trace's even and odd rows, both holding both systems."""
    columns = small_trace.columns
    rows = np.arange(len(columns))
    return (
        _trace(columns.take(rows % 2 == 0), small_trace),
        _trace(columns.take(rows % 2 == 1), small_trace),
    )


@settings(max_examples=20, deadline=None)
@given(
    parts=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    implicit=st.booleans(),
    shard_rows=st.integers(min_value=16, max_value=300) | st.just(100_000),
)
def test_random_append_histories(
    tmp_path_factory, small_trace, tied, parts, seed, implicit, shard_rows
):
    """Any split, appended part by part, gives the oracle's cut of the
    concatenated parts, a one-pass import's manifest (shard names and
    meta aside) and ``merge_stores``'s bytes."""
    base = tmp_path_factory.mktemp("history")
    owner = np.random.default_rng(seed).integers(0, parts, len(tied))
    pieces = [tied.take(owner == part) for part in range(parts)]
    concatenated = concat_batches(pieces)

    grown = base / "grown"
    _write(grown, pieces[0], small_trace, implicit, shard_rows)
    for piece in pieces[1:]:
        append_trace(grown, _trace(piece, small_trace), shard_rows=shard_rows)
    expected_rows = implicit_ids(concatenated) if implicit else concatenated
    expected = oracle_files(oracle_shards(expected_rows, shard_rows))
    assert manifest_order_files(grown) == expected
    assert len(shard_files(grown)) == len(expected)

    once = base / "once"
    _write(once, concatenated, small_trace, implicit, shard_rows)
    assert _manifest_sans_names(grown) == _manifest_sans_names(once)

    sources = []
    for index, piece in enumerate(pieces):
        sources.append(base / f"part-{index}")
        _write(sources[-1], piece, small_trace, implicit, shard_rows)
    merged = base / "merged"
    merge_stores(merged, sources, shard_rows=shard_rows)
    assert manifest_order_files(grown) == manifest_order_files(merged)


def test_default_shard_rows_keeps_one_shard_per_system(tmp_path):
    """Every system of a default-sized import fits one shard, so an
    append that grows a system past its largest shard keeps it whole."""
    trace = TraceGenerator(seed=1).generate([5, 19, 20])

    def odd20(record):
        return record.system_id == 20 and record.node_id % 2 == 1

    root = tmp_path / "st"
    store_from_trace(trace.filter(lambda record: not odd20(record)), root)
    before = ColumnarStore(root).manifest.shards
    assert [shard.rows for shard in before] == [2150, 2409, 4030]
    manifest = append_trace(root, trace.filter(odd20))
    assert [shard.rows for shard in manifest.shards] == [2150, 2409, 8149]


class TestRefusals:
    """An append that cannot merge cleanly writes nothing."""

    def test_conflicting_inventory(self, tmp_path, halves):
        first, second = halves
        root = tmp_path / "st"
        store_from_trace(first, root, shard_rows=SHARD_ROWS)
        before = _store_bytes(root)
        systems = dict(second.systems)
        systems[13] = dataclasses.replace(
            systems[13],
            hardware_type=(
                HardwareType.A
                if systems[13].hardware_type != HardwareType.A
                else HardwareType.B
            ),
        )
        conflicting = FailureTrace.from_columns(
            second.columns, systems=systems,
            data_start=second.data_start, data_end=second.data_end,
        )
        with pytest.raises(StoreError, match="defined differently"):
            append_trace(root, conflicting)
        assert _store_bytes(root) == before

    @pytest.mark.parametrize("damage", ["missing", "quarantined", "bit-rot"])
    def test_damaged_shard_in_a_touched_system(self, tmp_path, halves, damage):
        """Bit rot under a valid header included: a re-cut would publish
        it under fresh checksums, out of scrub's reach."""
        first, second = halves
        root = tmp_path / "st"
        store_from_trace(first, root, shard_rows=SHARD_ROWS)
        victim = ColumnarStore(root).manifest.shards[-1]
        assert victim.system_id == 13
        if damage == "bit-rot":
            path = root / "shards" / f"{victim.name}-root_cause.npy"
            data = bytearray(path.read_bytes())
            data[-1] ^= 0x01
            path.write_bytes(bytes(data))
        else:
            (root / "shards" / f"{victim.name}-node_id.npy").unlink()
        if damage == "quarantined":
            scrub_store(root)
        before = _store_bytes(root)
        with pytest.raises(StoreError, match=f"shard {victim.name}"):
            append_trace(root, second.filter_systems([13]))
        assert _store_bytes(root) == before

    def test_quarantined_shard_in_an_untouched_system(
        self, tmp_path, small_trace
    ):
        """It keeps its name and ledger entry, and repairs afterwards."""
        root = tmp_path / "st"
        store_from_trace(
            small_trace.filter_systems([2]), root, shard_rows=SHARD_ROWS
        )
        pristine = shard_files(root)
        victim = ColumnarStore(root).manifest.shards[1]
        (root / "shards" / f"{victim.name}-end_time.npy").unlink()
        scrub_store(root)
        manifest = append_trace(root, small_trace.filter_systems([13]))
        assert victim in manifest.shards
        assert victim.name in load_ledger(root)
        assert repair_store(root, small_trace).repaired == [victim.name]
        assert verify_store(root, deep=True) == []
        for name, payload in pristine.items():
            assert shard_files(root)[name] == payload


class TestRepairAfterAppend:
    """Even rows imported, odd rows appended, the last shard damaged."""

    @pytest.fixture
    def damaged(self, tmp_path, halves):
        first, second = halves
        root = tmp_path / "st"
        store_from_trace(first, root, shard_rows=SHARD_ROWS)
        append_trace(root, second, shard_rows=SHARD_ROWS)
        pristine = shard_files(root)
        last = ColumnarStore(root).manifest.shards[-1]
        (root / "shards" / f"{last.name}-node_id.npy").unlink()
        assert scrub_store(root).quarantined == [last.name]
        return root, last, pristine

    def test_heals_byte_identically_from_the_whole_trace(
        self, damaged, small_trace
    ):
        root, last, pristine = damaged
        report = repair_store(root, small_trace)
        assert report.repaired == [last.name] and report.ok
        assert shard_files(root) == pristine

    def test_the_appended_half_names_the_missing_rows(self, damaged, halves):
        root, last, _ = damaged
        report = repair_store(root, halves[1])
        assert report.failed == {
            last.name: "reference has only 97 row(s) for system 13, "
            "shard needs rows [192, 194)"
        }


def test_repair_names_a_two_run_system(tmp_path, small_trace):
    """A system handed to the writer in two calls holds two sorted runs,
    as an older version's append left it: repair says so and what
    rebuilds it, instead of blaming the reference."""
    columns = small_trace.filter_systems([13]).columns
    rows = np.arange(len(columns))
    root = tmp_path / "st"
    writer = StoreWriter(
        root,
        systems=small_trace.systems,
        data_start=small_trace.data_start,
        data_end=small_trace.data_end,
        record_ids="explicit",
        shard_rows=SHARD_ROWS,
    )
    writer.append(columns.take(rows % 2 == 0))
    writer.append(columns.take(rows % 2 == 1))
    shards = writer.finalize().shards
    assert [shard.rows for shard in shards] == [64, 33, 64, 33]
    (root / "shards" / f"{shards[0].name}-node_id.npy").unlink()
    report = repair_store(root, small_trace)
    reason = report.failed[shards[0].name]
    for phrase in ("more than one sorted run", "older version", "re-import"):
        assert phrase in reason


class TestCrashDrills:
    def test_enospc_at_publish_keeps_the_old_store(self, tmp_path, halves):
        first, second = halves
        clean = tmp_path / "clean"
        store_from_trace(first, clean, shard_rows=SHARD_ROWS)
        append_trace(clean, second, shard_rows=SHARD_ROWS)

        root = tmp_path / "st"
        store_from_trace(first, root, shard_rows=SHARD_ROWS)
        listed = ["manifest.json"] + [
            f"shards/{name}" for name in shard_files(root)
        ]
        before = {name: (root / name).read_bytes() for name in listed}
        spec = FsFaults(
            operator="enospc", state_dir=str(tmp_path / "state"),
            sites=("store.merge.manifest",),
        )
        with fsfaults_env(spec):
            with pytest.raises(OSError):
                append_trace(root, second, shard_rows=SHARD_ROWS)
            assert spec.injections() == 1
            assert {n: (root / n).read_bytes() for n in listed} == before
            assert verify_store(root, deep=True) == []
            append_trace(root, second, shard_rows=SHARD_ROWS)
        assert _store_bytes(root) == _store_bytes(clean)

    def test_stop_between_publish_and_sweep(
        self, tmp_path, halves, monkeypatch
    ):
        first, second = halves
        root = tmp_path / "st"
        store_from_trace(first, root, shard_rows=SHARD_ROWS)

        class Crash(Exception):
            pass

        def crash(*args, **kwargs):
            raise Crash

        with monkeypatch.context() as patch:
            patch.setattr(federate, "sweep_shards", crash)
            with pytest.raises(Crash):
                append_trace(
                    root, second.filter_systems([13]), shard_rows=SHARD_ROWS
                )
        assert verify_store(root, deep=True) == []
        listed = len(ColumnarStore(root).manifest.shards) * len(COLUMN_NAMES)
        assert len(shard_files(root)) > listed
        append_trace(root, second.filter_systems([2]), shard_rows=SHARD_ROWS)
        listed = len(ColumnarStore(root).manifest.shards) * len(COLUMN_NAMES)
        assert len(shard_files(root)) == listed
        assert verify_store(root, deep=True) == []
