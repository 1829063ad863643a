"""Equivalence suite: the generator agrees with the reference engine.

The column engine earns its keep only if it is *exactly* the model:
for a fixed seed, :meth:`TraceGenerator.generate` must produce the
record-for-record trace of the scalar reference engine
(``reference_engine.py``, the per-event loop the generator once ran as
its second engine), and serial vs. process-parallel execution must
agree too.  Timestamps are compared via ``repr()``, i.e. exact
IEEE-754 float equality, not a tolerance.
"""

from __future__ import annotations

import pytest

from repro.store import ColumnarStore
from repro.synth import GeneratorConfig, TraceGenerator

from tests.synth.reference_engine import reference_trace


def assert_traces_identical(a, b) -> None:
    """Record-for-record identity, with exact-float timestamps."""
    assert len(a) == len(b)
    for left, right in zip(a.records, b.records):
        assert repr(left.start_time) == repr(right.start_time)
        assert repr(left.end_time) == repr(right.end_time)
        assert left.record_id == right.record_id
        assert left.system_id == right.system_id
        assert left.node_id == right.node_id
        assert left.root_cause is right.root_cause
        assert left.low_level_cause is right.low_level_cause
        assert left.workload is right.workload


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_engines_identical_single_system(seed):
    generator = TraceGenerator(seed=seed)
    generated = generator.generate([20])
    assert len(generated) > 1000
    assert_traces_identical(generated, reference_trace(generator, [20]))


def test_engines_identical_burst_system():
    # System 19 clones early-era failures through the burst injector.
    generator = TraceGenerator(seed=5)
    assert_traces_identical(
        generator.generate([19]), reference_trace(generator, [19])
    )


def test_engines_identical_full_trace():
    """The flagship check: all 22 systems, exact floats."""
    generator = TraceGenerator(seed=1)
    generated = generator.generate()
    assert len(generated) > 20_000
    assert_traces_identical(generated, reference_trace(generator))


def test_parallel_identical_to_serial_full_trace():
    """workers=4 must be byte-identical to workers=1 over all systems."""
    generator = TraceGenerator(seed=1)
    serial = generator.generate(workers=1)
    parallel = generator.generate(workers=4)
    assert len(serial) > 20_000
    assert_traces_identical(serial, parallel)


def test_parallel_matches_reference_engine():
    generator = TraceGenerator(seed=2)
    parallel = generator.generate([2, 13, 20], workers=3)
    assert_traces_identical(parallel, reference_trace(generator, [2, 13, 20]))


def test_subset_generation_is_compositional():
    """A system's records are the same alone or within the full trace."""
    generator = TraceGenerator(seed=3)
    alone = generator.generate([20])
    full = generator.generate()
    full_20 = [r for r in full.records if r.system_id == 20]
    assert len(alone) == len(full_20)
    for left, right in zip(alone.records, full_20):
        assert repr(left.start_time) == repr(right.start_time)
        assert repr(left.end_time) == repr(right.end_time)
        assert left.node_id == right.node_id
        assert left.root_cause is right.root_cause


def test_requested_order_does_not_change_the_trace():
    generator = TraceGenerator(seed=4)
    assert_traces_identical(
        generator.generate([20, 2]), generator.generate([2, 20])
    )


def test_empty_selection_is_an_empty_trace():
    trace = TraceGenerator(seed=4).generate([])
    assert len(trace) == 0
    assert trace.columns["record_id"].dtype.str == "<i8"


def test_iter_records_matches_generate(tmp_path):
    # The columnar store is the out-of-core path: read back record by
    # record, it gives generate()'s rows, order and record IDs.

    generator = TraceGenerator(seed=4)
    generator.generate_store(tmp_path / "store", [2, 20])
    streamed = list(ColumnarStore(tmp_path / "store").iter_records())
    materialized = generator.generate([2, 20]).records
    assert len(streamed) == len(materialized)
    for left, right in zip(streamed, materialized):
        assert repr(left.start_time) == repr(right.start_time)
        assert repr(left.end_time) == repr(right.end_time)
        assert left.record_id == right.record_id
        assert left.node_id == right.node_id


def test_default_engine_config_knob(tmp_path):
    # One engine: the config has no engine knob, and neither the
    # journal identity, the run report nor a generated store names one.
    with pytest.raises(TypeError, match="default_engine"):
        GeneratorConfig(default_engine="scalar")
    generator = TraceGenerator(seed=6)
    assert "engine" not in generator.journal_meta()
    generator.generate_store(tmp_path / "store", [13])
    assert "engine" not in generator.last_run_report.meta
    assert "engine" not in ColumnarStore(tmp_path / "store").manifest.meta


def test_unknown_engine_rejected(tmp_path):
    generator = TraceGenerator(seed=0)
    with pytest.raises(TypeError, match="engine"):
        generator.generate([13], engine="scalar")
    with pytest.raises(TypeError, match="engine"):
        generator.generate_store(tmp_path / "store", [13], engine="scalar")


def test_invalid_workers_rejected():
    generator = TraceGenerator(seed=0)
    with pytest.raises(ValueError, match="workers"):
        generator.generate([13], workers=0)
