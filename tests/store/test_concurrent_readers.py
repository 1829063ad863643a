"""Concurrent store readers: independent handles share nothing.

The serving layer scans one :class:`ColumnarStore` handle per request
from a thread pool; these tests pin the contract that makes that safe:
N threads iterating :meth:`iter_batches` on *independent* handles see
exactly the serial result, and per-handle scan/degraded state never
bleeds across handles.
"""

from __future__ import annotations

import shutil
import threading
import time

import numpy as np
import pytest

from repro.store import ColumnarStore, store_from_trace, summarize_store

N_THREADS = 6


@pytest.fixture(scope="module")
def pristine(tmp_path_factory, small_trace):
    root = tmp_path_factory.mktemp("concurrent") / "store"
    store_from_trace(small_trace, root, shard_rows=100)
    return root


@pytest.fixture()
def version2(tmp_path, pristine):
    """The store with every column file re-saved in ``.npy`` format 2.0."""
    root = tmp_path / "version2"
    shutil.copytree(pristine, root)
    for path in (root / "shards").glob("*.npy"):
        array = np.load(path)
        with open(path, "wb") as file:
            np.lib.format.write_array(file, array, version=(2, 0))
    return root


@pytest.fixture()
def damaged(tmp_path, pristine):
    root = tmp_path / "damaged"
    shutil.copytree(pristine, root)
    (root / "shards" / "00000-node_id.npy").unlink()
    return root


def _serial_batches(root, **kwargs):
    return [
        {name: chunk[name].tolist() for name in chunk.names}
        for chunk in ColumnarStore(root, **kwargs).iter_batches(batch_rows=64)
    ]


def _scan_in_threads(root, n_threads, **kwargs):
    """Each thread opens its own handle and collects its batches."""
    results = [None] * n_threads
    errors = []

    def work(index):
        try:
            results[index] = _serial_batches(root, **kwargs)
        except Exception as exc:  # noqa: BLE001 - surfaced via the test
            errors.append(f"{type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=work, args=(i,)) for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    return results


class TestConcurrentReaders:
    def test_threads_match_serial_batches(self, pristine):
        serial = _serial_batches(pristine)
        for result in _scan_in_threads(pristine, N_THREADS):
            assert repr(result) == repr(serial)

    def test_skip_handle_among_strict_readers(self, pristine):
        """One skip-mode reader beside strict ones sees the same rows."""
        serial = _serial_batches(pristine)
        results = [None] * N_THREADS
        errors = []

        def work(index):
            try:
                mode = "skip" if index == 0 else "raise"
                results[index] = _serial_batches(pristine, on_damage=mode)
            except Exception as exc:  # noqa: BLE001
                errors.append(f"{type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        for result in results:
            assert repr(result) == repr(serial)

    def test_no_cross_handle_state_bleed(self, damaged):
        """Scan stats and degraded accounting stay per-handle."""
        skip_handle = ColumnarStore(damaged, on_damage="skip")
        other = ColumnarStore(damaged, on_damage="skip")
        barrier = threading.Barrier(2)

        def scan(handle):
            barrier.wait()
            summarize_store(handle, batch_rows=64)

        threads = [
            threading.Thread(target=scan, args=(handle,))
            for handle in (skip_handle, other)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Both skipped the same damage, independently.
        assert skip_handle.degraded.shards_skipped == ["00000"]
        assert other.degraded.shards_skipped == ["00000"]
        assert (
            skip_handle.scan.rows_scanned == other.scan.rows_scanned
        )
        # A fresh strict handle on the same directory starts clean.
        fresh = ColumnarStore(damaged, on_damage="skip")
        assert not fresh.degraded
        assert fresh.scan.rows_scanned == 0

    def test_summaries_identical_across_threads(self, pristine):
        serial = summarize_store(ColumnarStore(pristine)).to_dict()
        outputs = [None] * N_THREADS
        errors = []

        def work(index):
            try:
                outputs[index] = summarize_store(
                    ColumnarStore(pristine)
                ).to_dict()
            except Exception as exc:  # noqa: BLE001
                errors.append(f"{type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        for output in outputs:
            assert repr(output) == repr(serial)

    def test_writer_store_parses_no_header(self, pristine, monkeypatch):
        """A column file laid out as the writer lays it out is mapped
        past its known header: no read path calls ``np.load``."""
        calls = []
        real_load = np.load

        def counting(*args, **kwargs):
            calls.append(args)
            return real_load(*args, **kwargs)

        monkeypatch.setattr(np, "load", counting)
        store = ColumnarStore(pristine)
        assert sum(len(chunk) for chunk in store.iter_batches()) == len(store)
        assert len(store.to_trace()) == len(store)
        summarize_store(store)
        assert calls == []

    def test_header_parses_never_overlap(
        self, pristine, version2, monkeypatch
    ):
        """``np.load`` parses ``.npy`` headers with ``ast.literal_eval``,
        which CPython 3.11 cannot run on two threads at once, so a store
        whose headers the reader must parse (format 2.0 here) has its
        column files opened one at a time — with the same answer."""
        want = summarize_store(ColumnarStore(pristine)).to_dict()
        real_load = np.load
        counter = threading.Lock()
        inside = peak = 0

        def probe(*args, **kwargs):
            nonlocal inside, peak
            with counter:
                inside += 1
                peak = max(peak, inside)
            try:
                time.sleep(0.001)
                return real_load(*args, **kwargs)
            finally:
                with counter:
                    inside -= 1

        monkeypatch.setattr(np, "load", probe)
        start = threading.Barrier(4)
        outputs = []
        errors = []

        def work():
            try:
                start.wait(timeout=30)
                outputs.append(
                    summarize_store(ColumnarStore(version2)).to_dict()
                )
            except Exception as exc:  # noqa: BLE001 - surfaced via the test
                errors.append(f"{type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert peak == 1
        assert [repr(output) for output in outputs] == [repr(want)] * 4
