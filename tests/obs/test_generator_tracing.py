"""Observability threaded through generation, ingest and reporting.

The acceptance drill for the observability layer: a workers=4
supervised generation of all 22 systems under tracing must (a) stay
repr-identical to the uninstrumented serial run, (b) emit a merged
trace whose ``shard.attempt`` spans line up one-for-one with the
RunReport attempt history, and (c) validate against the trace schema.
"""

from __future__ import annotations

import warnings

import pytest

from repro import obs
from repro.obs.profile import build_span_tree, span_events
from repro.obs.schema import validate_events
from repro.resilience import RetryPolicy
from repro.synth import SupervisionConfig, TraceGenerator

from tests.synth.test_equivalence import assert_traces_identical

FAST = SupervisionConfig(
    policy=RetryPolicy(base_delay=0.01, max_delay=0.05, max_attempts=3)
)


def _traced_generate(tmp_path, seed, systems=None, workers=1,
                     supervision=None, run_id="test"):
    tracer = obs.Tracer(run_id=run_id)
    registry = obs.MetricsRegistry()
    generator = TraceGenerator(seed=seed)
    with obs.observing(tracer, registry, spool=tmp_path / "spool"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            trace = generator.generate(
                systems, workers=workers, supervision=supervision
            )
    return trace, tracer, registry, generator


class TestAcceptanceMergedTrace:
    def test_supervised_parallel_trace_matches_report_and_records(
        self, tmp_path, full_trace
    ):
        trace, tracer, registry, generator = _traced_generate(
            tmp_path, seed=1, workers=4, supervision=FAST,
            run_id="generate:seed=1",
        )
        # (a) Instrumentation must not alter a single record.
        assert_traces_identical(full_trace, trace)

        # (c) The merged event stream validates against the schema.
        events = tracer.to_events(registry)
        assert validate_events(events) == []

        # (b) shard.attempt spans == RunReport attempt history, one for
        # one, in sorted-shard order.
        report = generator.last_run_report
        assert report is not None and report.ok
        attempt_spans = [
            event for event in span_events(events)
            if event["name"] == "shard.attempt"
        ]
        expected = [
            {
                "shard": key,
                "attempt": entry.attempt,
                "outcome": entry.outcome,
            }
            for key in sorted(report.shards)
            for entry in report.shards[key].attempts
        ]
        assert len(expected) == 22
        got = [
            {
                "shard": event["attrs"]["shard"],
                "attempt": event["attrs"]["attempt"],
                "outcome": event["attrs"]["outcome"],
            }
            for event in attempt_spans
        ]
        assert got == expected

        # Attempt wall times recorded by the supervisor surface both in
        # the report and on the emitted spans.
        for event in attempt_spans:
            assert event["wall_s"] > 0

        # Worker streams were spooled and grafted under their attempts:
        # every successful attempt span owns a synth.system subtree.
        roots = build_span_tree(events)
        by_id = {
            node.event["id"]: node
            for root in roots
            for node in root.walk()
        }
        for event in attempt_spans:
            children = [c.name for c in by_id[event["id"]].children]
            assert children.count("synth.system") == 1, event["attrs"]

    def test_parallel_trace_is_deterministic_modulo_timing(self, tmp_path):
        def skeleton(events):
            return [
                (
                    event["id"], event["parent"], event["name"],
                    event["depth"], event["status"],
                    tuple(sorted(event["attrs"].items())),
                    tuple(sorted(event["counters"].items())),
                )
                for event in span_events(events)
            ]

        _, first, _, _ = _traced_generate(
            tmp_path / "a", seed=5, systems=[2, 13], workers=2,
            supervision=FAST,
        )
        _, second, _, _ = _traced_generate(
            tmp_path / "b", seed=5, systems=[2, 13], workers=2,
            supervision=FAST,
        )
        assert skeleton(first.to_events()) == skeleton(second.to_events())


class TestSerialTracing:
    def test_bare_serial_run_traces_and_stays_identical(
        self, tmp_path, small_trace
    ):
        trace, tracer, registry, generator = _traced_generate(
            tmp_path, seed=5, systems=[2, 13]
        )
        assert_traces_identical(small_trace, trace)
        events = tracer.to_events(registry)
        assert validate_events(events) == []
        names = {event["name"] for event in span_events(events)}
        # The bare serial path has no worker wrapper (synth.system is
        # the worker-process span), but the supervisor's spans, the
        # stage spans and the per-shard attempt spans are all there.
        assert {
            "generate", "generate.sort", "supervise", "shard.attempt",
            "synth.arrivals", "synth.marks",
        } <= names
        # One live attempt span per shard, under the supervisor, and the
        # stage spans nest under their shard's attempt span.
        roots = build_span_tree(events)
        supervise = [
            node for root in roots for node in root.walk()
            if node.name == "supervise"
        ]
        assert len(supervise) == 1
        attempts = [
            node for node in supervise[0].children
            if node.name == "shard.attempt"
        ]
        assert [node.event["attrs"] for node in attempts] == [
            {"shard": "system-2", "attempt": 1},
            {"shard": "system-13", "attempt": 1},
        ]
        for node in attempts:
            child_names = [child.name for child in node.children]
            assert child_names[0] == "synth.arrivals"
            assert "synth.marks" in child_names

    def test_generate_metrics_record_totals(self, tmp_path):
        trace, _, registry, _ = _traced_generate(
            tmp_path, seed=5, systems=[2, 13]
        )
        counters = registry.to_dict()["counter"]
        assert counters["generate.records"] == len(trace)
        assert counters["generate.systems"] == 2

    def test_disabled_run_records_nothing(self, small_trace):
        # No tracer installed: generation still works and the module
        # globals stay untouched (the no-op fast path).
        trace = TraceGenerator(seed=5).generate([2, 13])
        assert_traces_identical(small_trace, trace)
        assert not obs.enabled()


class TestIngestAndReportTracing:
    def test_ingest_rows_surface_as_metrics_and_span(self, tmp_path):
        from repro.io import IngestPolicy, ingest_trace

        header = (
            "record_id,system_id,node_id,start_time,end_time,"
            "workload,root_cause,low_level_cause\n"
        )
        rows = (
            "0,20,1,150000000.0,150003600.0,compute,hardware,memory\n"
            "1,20,2,160000000.0,160000060.0,compute,software,\n"
            "not,a,valid,row,at,all,x,y\n"
        )
        path = tmp_path / "trace.csv"
        path.write_text(header + rows)

        tracer = obs.Tracer()
        registry = obs.MetricsRegistry()
        with obs.observing(tracer, registry):
            result = ingest_trace(
                path, IngestPolicy(mode="lenient", max_error_rate=0.5)
            )
        assert result.report.rows_kept == 2
        counters = registry.to_dict()["counter"]
        assert counters["ingest.rows_read"] == 3
        assert counters["ingest.rows_kept"] == 2
        assert counters["ingest.rows_quarantined"] == 1
        ingest_span = next(
            event for event in tracer.events if event["name"] == "ingest"
        )
        assert ingest_span["counters"]["rows_kept"] == 2
        assert ingest_span["attrs"]["mode"] == "lenient"

    def test_report_sections_traced(self, small_trace):
        from repro.report.paper import run_paper_report

        tracer = obs.Tracer()
        with obs.observing(tracer):
            run_paper_report(small_trace)
        section_spans = [
            event for event in tracer.events
            if event["name"] == "report.section"
        ]
        assert len(section_spans) > 5
        outer = next(
            event for event in tracer.events if event["name"] == "report"
        )
        assert outer["attrs"]["sections"] == len(section_spans)


class TestOverheadGuard:
    def test_disabled_overhead_within_budget(self):
        from repro.benchmark import measure_obs_overhead

        result = measure_obs_overhead(systems=(2,))
        assert result["ok"], result
        assert result["overhead_fraction"] <= result["threshold"] == 0.02
        assert result["spans_per_generate"] > 0
        assert result["noop_span_cost_ns"] < 50_000  # sanity: sub-50us

    def test_null_span_is_shared_singleton(self):
        assert obs.span("a") is obs.span("b") is obs.NULL_SPAN
