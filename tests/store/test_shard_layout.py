"""Every write path lays a store's rows out as the layout oracle does.

Each test writes a store through one path — generation, import from a
trace or a file, a two-source merge, an append, a repair — and compares
every column file's bytes with :mod:`tests.store.layout_oracle`'s cut
of the same rows.  The input interleaves systems 2 and 13 in trace
order, holds tied rows (same system, ``start_time`` and ``node_id``)
whose record ids and end times differ and whose higher id comes first,
and uses a ``shard_rows`` below either system's row count, so a write
path that sorts on another key, loses the tie order, or splits
elsewhere changes some file.
"""

from __future__ import annotations

import dataclasses
import shutil

import numpy as np
import pytest

from repro.io import write_lanl_csv
from repro.records.trace import FailureTrace
from repro.store import (
    append_trace,
    merge_stores,
    repair_store,
    store_from_file,
    store_from_trace,
    verify_store,
)
from repro.store.schema import concat_batches
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


def _trace(records, like: FailureTrace) -> FailureTrace:
    return FailureTrace(
        records,
        systems=like.systems,
        data_start=like.data_start,
        data_end=like.data_end,
    )


@pytest.fixture(scope="module")
def tied_trace(small_trace):
    """The small trace plus a tied copy of every fifth record.

    A copy shares its original's system, ``start_time`` and
    ``node_id``, ends a minute later and carries a record id past every
    original; listed first, it stays ahead of its original in trace
    order.
    """
    originals = list(small_trace.records)
    copies = [
        dataclasses.replace(
            record,
            end_time=record.end_time + 60.0,
            record_id=record.record_id + 100_000,
        )
        for record in originals[::5]
    ]
    trace = _trace(copies + originals, small_trace)
    columns = trace.columns
    assert min(np.unique(columns["system_id"], return_counts=True)[1]) > (
        SHARD_ROWS
    )
    return trace


@pytest.fixture(scope="module")
def halves(tied_trace):
    """The tied trace's even and odd rows: each half holds both systems,
    and every tied copy sits in the other half from its original."""
    records = list(tied_trace.records)
    return (
        _trace(records[0::2], tied_trace),
        _trace(records[1::2], tied_trace),
    )


def _expected(columns) -> dict:
    return oracle_files(oracle_shards(columns, SHARD_ROWS))


def _damage(root) -> None:
    """Delete one column file and flip a data byte in another."""
    (root / "shards" / "00001-record_id.npy").unlink()
    victim = root / "shards" / "00004-start_time.npy"
    data = bytearray(victim.read_bytes())
    data[-1] ^= 0x01
    victim.write_bytes(bytes(data))


def test_generate_store(tmp_path, small_trace):
    root = tmp_path / "st"
    TraceGenerator(seed=5).generate_store(
        root, [13, 2], shard_rows=SHARD_ROWS
    )
    assert shard_files(root) == _expected(implicit_ids(small_trace.columns))


def test_store_from_trace(tmp_path, tied_trace):
    root = tmp_path / "st"
    store_from_trace(tied_trace, root, shard_rows=SHARD_ROWS)
    assert shard_files(root) == _expected(tied_trace.columns)


def test_store_from_file(tmp_path, tied_trace):
    path = tmp_path / "tied.csv"
    write_lanl_csv(tied_trace, path)
    root = tmp_path / "st"
    store_from_file(path, root, shard_rows=SHARD_ROWS)
    assert shard_files(root) == _expected(tied_trace.columns)


def test_merge_of_two_sources(tmp_path, halves):
    first, second = halves
    store_from_trace(first, tmp_path / "a", shard_rows=SHARD_ROWS)
    store_from_trace(second, tmp_path / "b", shard_rows=SHARD_ROWS)
    root = tmp_path / "merged"
    merge_stores(root, [tmp_path / "a", tmp_path / "b"], shard_rows=SHARD_ROWS)
    expected = _expected(concat_batches([first.columns, second.columns]))
    assert shard_files(root) == expected


def test_append_trace(tmp_path, halves):
    """An append re-cuts each system it touches: the grown store holds,
    in manifest order, the one-pass layout of both halves, and no other
    column file."""
    first, second = halves
    root = tmp_path / "st"
    store_from_trace(first, root, shard_rows=SHARD_ROWS)
    append_trace(root, second, shard_rows=SHARD_ROWS)
    expected = _expected(concat_batches([first.columns, second.columns]))
    assert manifest_order_files(root) == expected
    assert len(shard_files(root)) == len(expected)
    assert verify_store(root, deep=True) == []


def test_repair_store(tmp_path, tied_trace):
    root = tmp_path / "st"
    store_from_trace(tied_trace, root, shard_rows=SHARD_ROWS)
    _damage(root)
    report = repair_store(root, tied_trace)
    assert sorted(report.repaired) == ["00001", "00004"]
    assert shard_files(root) == _expected(tied_trace.columns)


def test_repair_of_an_implicit_id_store(tmp_path, small_trace):
    root = tmp_path / "st"
    TraceGenerator(seed=5).generate_store(
        root, [2, 13], shard_rows=SHARD_ROWS
    )
    pristine = tmp_path / "pristine"
    shutil.copytree(root, pristine)
    _damage(root)
    report = repair_store(root, small_trace)
    assert sorted(report.repaired) == ["00001", "00004"]
    assert shard_files(root) == shard_files(pristine)
    assert shard_files(root) == _expected(implicit_ids(small_trace.columns))
