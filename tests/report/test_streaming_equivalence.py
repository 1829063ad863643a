"""Streaming report == in-memory report, on the full 22-system trace.

The store report folds chunks into the same
:class:`~repro.analysis.outofcore.PaperAccumulator` the in-memory
report folds its trace into as one chunk.  While every sample holds at
most :data:`~repro.stats.sketch.EXACT_LIMIT` values — true of the
whole 22-system trace — all ten sections must be *byte-identical* to
``run_paper_report(store.to_trace())``, whatever the chunk size or
shard layout, and a store grown by an append answers as the one-pass
import of the same rows does.

Past the limit, fig6, table2 and fig7 read medians, fits and CDFs off
the log-bucket histogram; with the limit patched to 0 they must agree
within the sketch's pinned relative error, with the same fit rankings.

The suite also proves the operational property that a blown deadline
yields an honestly-flagged partial report instead of a hang or a
crash.
"""

from __future__ import annotations

import json
import re

import pytest

import repro.stats.sketch as sketch_module
from repro.cli import main
from repro.records.record import FailureRecord, RootCause, Workload
from repro.records.trace import FailureTrace
from repro.report import run_paper_report, run_store_report
from repro.report.paper import SECTIONS
from repro.resilience.deadline import Deadline
from repro.stats.sketch import QUANTILE_RELATIVE_ERROR
from repro.store import ColumnarStore, StoreWriter, store_from_trace
from repro.store.analytics import summarize_store
from repro.store.federate import append_trace
from repro.store.reader import DEFAULT_BATCH_ROWS
from repro.synth import TraceGenerator

EPSILON_SECTIONS = ("fig6", "table2", "fig7")
#: Store reports that must all equal the in-memory one: default
#: chunks, and chunks that split every shard.
SCANS = ({}, {"batch_rows": 997})

# Pinned sketch resolution (64 buckets/decade): ~1.8% relative error.
# Printed values are also rounded, so allow one trailing-digit ULP.
QUANTILE_REL = QUANTILE_RELATIVE_ERROR * 2
_FLOAT = re.compile(r"-?\d+\.?\d*(?:[eE][+-]?\d+)?")


@pytest.fixture(scope="module")
def store(tmp_path_factory, full_trace):
    root = tmp_path_factory.mktemp("equivalence") / "store"
    store_from_trace(full_trace, root)
    return ColumnarStore(root)


def _two_run_store(root, trace, later) -> None:
    """Write ``trace`` with the rows ``later`` admits handed to the
    writer in a second call: the systems they share hold two sorted
    runs, the layout an append by an older version of this tool left."""
    writer = StoreWriter(
        root,
        systems=trace.systems,
        data_start=trace.data_start,
        data_end=trace.data_end,
        record_ids="explicit",
    )
    writer.append(trace.filter(lambda record: not later(record)).columns)
    writer.append(trace.filter(later).columns)
    writer.finalize()


def _odd20(record) -> bool:
    return record.system_id == 20 and record.node_id % 2 == 1


def _limited(limit):
    """Patch EXACT_LIMIT (read only by repro.stats.sketch)."""
    patch = pytest.MonkeyPatch()
    patch.setattr(sketch_module, "EXACT_LIMIT", limit)
    return patch


@pytest.fixture(scope="module")
def streaming(store):
    return run_store_report(store)


@pytest.fixture(scope="module")
def scans(store, streaming):
    return [streaming] + [run_store_report(store, **kw) for kw in SCANS[1:]]


@pytest.fixture(scope="module")
def sketched(store):
    """The store report with no sample held: the log-bucket path."""
    patch = _limited(0)
    try:
        return run_store_report(store)
    finally:
        patch.undo()


@pytest.fixture(scope="module")
def materialized(store):
    return run_paper_report(store.to_trace())


def _sections(report):
    return {section.name: section for section in report.sections}


def _outcomes(report):
    return [
        (section.name, section.status, section.text, section.error)
        for section in report.sections
    ]


class TestSectionParity:
    def test_same_sections_in_same_order(self, streaming, materialized):
        assert [s.name for s in streaming.report.sections] == [
            s.name for s in materialized.sections
        ]

    def test_all_sections_ok_on_curated_data(self, streaming, materialized):
        assert streaming.report.ok, streaming.report.diagnostics()
        assert materialized.ok, materialized.diagnostics()
        assert streaming.partial is None
        assert not streaming.report.sections[0].partial

    def test_approximate_sections_are_flagged(
        self, store, streaming, sketched, materialized
    ):
        for report in (streaming.report, materialized):
            assert not any(section.approximate for section in report.sections)
            assert "approximate" not in report.diagnostics()
        flagged = [s.name for s in sketched.report.sections if s.approximate]
        assert flagged == ["fig6", "table2", "fig7"]
        patch = _limited(0)
        try:
            in_memory = run_paper_report(store.to_trace())
        finally:
            patch.undo()
        assert [s.name for s in in_memory.sections if s.approximate] == flagged
        lines = sketched.report.diagnostics().splitlines()
        assert lines[6].startswith("fig6     ok (approximate:")
        assert lines[5] == "fig5     ok"
        payload = sketched.to_dict()["sections"]
        assert [s["name"] for s in payload if s["approximate"]] == flagged


class TestExactSections:
    @pytest.mark.parametrize("name", SECTIONS)
    def test_byte_identical(self, name, scans, materialized):
        want = _sections(materialized)[name]
        for kwargs, result in zip(SCANS, scans):
            got = _sections(result.report)[name]
            assert (got.status, got.text, got.error) == (
                want.status, want.text, want.error
            ), kwargs


class TestSketchedSections:
    @pytest.mark.parametrize("name", EPSILON_SECTIONS)
    def test_within_pinned_relative_error(self, name, sketched, materialized):
        got = _sections(sketched.report)[name].text
        want = _sections(materialized)[name].text
        got_lines = got.splitlines()
        want_lines = want.splitlines()
        assert len(got_lines) == len(want_lines)
        for got_line, want_line in zip(got_lines, want_lines):
            if "|" in want_line:
                # Plot body: digit glyphs mark curve points, and sketch
                # representatives may land one column over.  Compare
                # only the y-axis label left of the frame.
                got_line = got_line.split("|", 1)[0]
                want_line = want_line.split("|", 1)[0]
            got_floats = _FLOAT.findall(got_line)
            want_floats = _FLOAT.findall(want_line)
            assert len(got_floats) == len(want_floats), (
                f"{name}: line shape diverged:\n  {got_line}\n  {want_line}"
            )
            for got_token, want_token in zip(got_floats, want_floats):
                assert float(got_token) == pytest.approx(
                    float(want_token), rel=QUANTILE_REL, abs=1.5
                ), f"{name}: {got_token} vs {want_token} in:\n  {want_line}"

    @pytest.mark.parametrize("name", EPSILON_SECTIONS)
    def test_fit_rankings_identical(self, name, sketched, materialized):
        # The distribution-fit story (which model wins, per panel) is
        # the paper's conclusion; the sketch must not change it.
        def fit_lines(text):
            return [
                line.strip().split("(")[0]
                for line in text.splitlines()
                if re.match(
                    r"\s+(LogNormal|Weibull|Gamma|Exponential)\(", line
                )
            ]

        got = fit_lines(_sections(sketched.report)[name].text)
        want = fit_lines(_sections(materialized)[name].text)
        assert got == want
        if name != "table2":
            assert got, f"{name}: no fit lines found"


class TestNoMaterialization:
    def test_streaming_report_never_builds_a_trace(self, store, monkeypatch):
        def boom(self, *args, **kwargs):
            raise AssertionError("streaming report materialized a trace")

        monkeypatch.setattr(ColumnarStore, "to_trace", boom)
        result = run_store_report(store)
        assert result.report.ok, result.report.diagnostics()


class TestDeadlinePartial:
    def test_instant_deadline_yields_flagged_partial(self, store):
        result = run_store_report(
            store, deadline=Deadline(1e-9), on_deadline="partial"
        )
        assert result.partial is not None
        assert result.partial["reason"] == "deadline-exceeded"
        assert result.partial["rows_seen"] < result.partial["rows_total"]
        assert all(section.partial for section in result.report.sections)
        # The report still renders end to end: data-dependent sections
        # degrade, data-free ones (table3) stay ok, nothing crashes.
        assert _sections(result.report)["table3"].ok
        assert result.report.render()
        payload = result.to_dict()
        assert payload["partial"]["reason"] == "deadline-exceeded"
        assert all(section["partial"] for section in payload["sections"])

    def test_instant_deadline_raises_by_default(self, store):
        from repro.resilience.deadline import DeadlineExceeded

        with pytest.raises(DeadlineExceeded):
            run_store_report(store, deadline=Deadline(1e-9))


class TestInterleavedAppend:
    """A later run of shards holding earlier starts than the store
    before it.

    System 20's odd nodes are written after every other row, in a
    second sorted run, so the scan meets their start times out of time
    order.
    """

    @pytest.fixture(scope="class")
    def appended(self, tmp_path_factory):
        trace = TraceGenerator(seed=1).generate([5, 19, 20])
        root = tmp_path_factory.mktemp("interleaved") / "store"
        _two_run_store(root, trace, _odd20)
        assert ColumnarStore(root).verify(deep=True) == []
        return root

    def test_store_report_equals_trace_report(self, appended):
        store = ColumnarStore(appended)
        want = run_paper_report(store.to_trace())
        assert want.ok, want.diagnostics()
        for kwargs in SCANS:
            got = run_store_report(store, **kwargs)
            assert _outcomes(got.report) == _outcomes(want), kwargs

    def test_cli_report_renders(self, appended, capsys):
        assert main(["report", str(appended), "--artifact", "table1"]) == 0
        assert main(["report", str(appended)]) == 0
        assert "fig6     ok" in capsys.readouterr().out

    def test_past_the_limit_only_fig6_fails(self, appended, monkeypatch):
        monkeypatch.setattr(sketch_module, "EXACT_LIMIT", 100)
        store = ColumnarStore(appended)
        for kwargs in SCANS:
            report = run_store_report(store, **kwargs).report
            failed = [(section.name, section.status) for section in report.failed]
            assert failed == [("fig6", "failed")], kwargs
            assert "out of time order" in _sections(report)["fig6"].error


class TestEarliestWorkload:
    """Figure 3(b) takes each node's workload from its earliest row.

    A row in a second run of shards, an hour before compute node 48's
    first failure and labelled graphics, is the node's earliest but not
    its first scanned: the node must count as graphics, as it does in
    the trace.
    """

    NODE = 48

    @pytest.fixture(scope="class")
    def appended(self, tmp_path_factory):
        trace = TraceGenerator(seed=3).generate([20])
        root = tmp_path_factory.mktemp("earliest") / "store"
        first = min(
            record for record in trace.records if record.node_id == self.NODE
        )
        assert first.workload is Workload.COMPUTE
        earlier = first.start_time - 3600.0
        row = FailureRecord(
            start_time=earlier,
            end_time=earlier + 600.0,
            system_id=20,
            node_id=self.NODE,
            root_cause=RootCause.HARDWARE,
            workload=Workload.GRAPHICS,
        )
        grown = FailureTrace(
            list(trace.records) + [row],
            trace.systems,
            data_start=trace.data_start,
            data_end=trace.data_end,
        )
        _two_run_store(root, grown, lambda record: record == row)
        store = ColumnarStore(root)
        assert [shard.rows for shard in store.manifest.shards] == [
            len(trace), 1
        ]
        return store

    @pytest.mark.parametrize("kwargs", [{}, {"batch_rows": 997}])
    def test_store_fig3_equals_trace_fig3(self, appended, kwargs):
        want = _sections(run_paper_report(appended.to_trace()))["fig3"]
        got = _sections(run_store_report(appended, **kwargs).report)["fig3"]
        assert want.ok
        assert (got.status, got.text) == (want.status, want.text)


class TestAppendedEqualsImport:
    """An append re-cuts every system it touches, so a store grown by
    one holds the one-pass import's layout at the default
    ``shard_rows``: its summary and report bodies are the import's byte
    for byte, scan counters included, at any chunk size, within
    ``EXACT_LIMIT`` and past it."""

    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        trace = TraceGenerator(seed=1).generate([5, 19, 20])
        base = tmp_path_factory.mktemp("appended")
        store_from_trace(trace, base / "imported")
        grown = base / "grown"
        store_from_trace(trace.filter(lambda rec: not _odd20(rec)), grown)
        append_trace(grown, trace.filter(_odd20))
        return ColumnarStore(base / "imported"), ColumnarStore(grown)

    @pytest.mark.parametrize("limit", [sketch_module.EXACT_LIMIT, 100])
    def test_summary_and_report_bytes(self, stores, limit, monkeypatch):
        monkeypatch.setattr(sketch_module, "EXACT_LIMIT", limit)
        for batch_rows in (DEFAULT_BATCH_ROWS, 997):
            want, got = (
                json.dumps(
                    summarize_store(store, batch_rows=batch_rows).to_dict(),
                    sort_keys=True,
                )
                for store in stores
            )
            assert got == want, batch_rows
        for kwargs in SCANS:
            want, got = (
                json.dumps(run_store_report(store, **kwargs).to_dict())
                for store in stores
            )
            assert got == want, kwargs
