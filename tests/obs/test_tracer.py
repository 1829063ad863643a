"""Tracer core: span nesting, deterministic ids, graft, spool."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.schema import validate_events


class TestSpanRecording:
    def test_nesting_and_ids_are_deterministic(self):
        tracer = obs.Tracer()
        with tracer.span("outer"):
            with tracer.span("child-a"):
                pass
            with tracer.span("child-b"):
                pass
        # Open order assigns ids; close order emits events.
        names = [event["name"] for event in tracer.events]
        assert names == ["child-a", "child-b", "outer"]
        by_name = {event["name"]: event for event in tracer.events}
        assert by_name["outer"]["id"] == "main:0"
        assert by_name["child-a"]["id"] == "main:1"
        assert by_name["child-b"]["id"] == "main:2"
        assert by_name["child-a"]["parent"] == "main:0"
        assert by_name["child-b"]["parent"] == "main:0"
        assert by_name["outer"]["parent"] is None
        assert by_name["outer"]["depth"] == 0
        assert by_name["child-a"]["depth"] == 1

    def test_attrs_and_counters_recorded(self):
        tracer = obs.Tracer()
        with tracer.span("work", system=2, engine="vectorized") as span:
            span.set("nodes", 49)
            span.add("records", 10)
            span.add("records", 5)
        event = tracer.events[0]
        assert event["attrs"] == {"system": 2, "engine": "vectorized", "nodes": 49}
        assert event["counters"] == {"records": 15}
        assert event["status"] == "ok"
        assert event["wall_s"] >= 0 and event["cpu_s"] >= 0

    def test_exception_closes_span_with_error_status(self):
        tracer = obs.Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        event = tracer.events[0]
        assert event["status"] == "error"
        assert event["error"] == "RuntimeError: boom"

    def test_out_of_order_close_raises(self):
        tracer = obs.Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            outer.__exit__(None, None, None)

    def test_open_spans_lists_stack(self):
        tracer = obs.Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                assert tracer.open_spans == ["a", "b"]
        assert tracer.open_spans == []

    def test_emit_records_premeasured_span(self):
        tracer = obs.Tracer()
        with tracer.span("parent"):
            span_id = tracer.emit(
                "attempt", wall_s=1.5, attrs={"shard": "system-2"}
            )
        assert span_id == "main:1"
        event = tracer.events[0]
        assert event["name"] == "attempt"
        assert event["wall_s"] == 1.5
        assert event["parent"] == "main:0"
        assert event["depth"] == 1

    def test_emit_with_error_marks_status(self):
        tracer = obs.Tracer()
        tracer.emit("attempt", error="ChaosError: injected")
        assert tracer.events[0]["status"] == "error"
        assert tracer.events[0]["error"] == "ChaosError: injected"


class TestGraft:
    def _worker_events(self, key):
        worker = obs.Tracer(stream=key)
        with worker.span("synth.system", system=2):
            with worker.span("synth.arrivals"):
                pass
        return worker.events

    def test_graft_reparents_roots_and_shifts_depth(self):
        parent = obs.Tracer()
        with parent.span("supervise"):
            span_id = parent.emit("shard.attempt", attrs={"shard": "system-2"})
            parent.graft(self._worker_events("system-2"), span_id)
        by_name = {event["name"]: event for event in parent.events}
        root = by_name["synth.system"]
        assert root["parent"] == span_id
        assert root["depth"] == by_name["shard.attempt"]["depth"] + 1
        child = by_name["synth.arrivals"]
        assert child["parent"] == root["id"]
        assert child["depth"] == root["depth"] + 1
        # The merged stream still validates: ids unique, depths consistent.
        assert validate_events(parent.to_events()) == []

    def test_graft_unknown_parent_raises(self):
        tracer = obs.Tracer()
        with pytest.raises(KeyError, match="unknown graft parent"):
            tracer.graft(self._worker_events("system-2"), "main:99")

    def test_graft_ignores_non_span_events(self):
        parent = obs.Tracer()
        span_id = parent.emit("shard.attempt")
        parent.graft(
            [{"type": "header", "kind": "repro-trace"}], span_id
        )
        assert len(parent.events) == 1


class TestOutput:
    def test_write_roundtrips_through_schema(self, tmp_path):
        tracer = obs.Tracer(run_id="test:seed=1")
        registry = obs.MetricsRegistry()
        registry.counter("records").add(7)
        with tracer.span("root"):
            pass
        path = tmp_path / "trace.jsonl"
        count = tracer.write(path, metrics=registry)
        lines = path.read_text().strip().split("\n")
        assert count == len(lines) == 3  # header + span + metric
        events = [json.loads(line) for line in lines]
        assert events[0]["kind"] == obs.TRACE_KIND
        assert events[0]["schema"] == obs.SCHEMA_VERSION
        assert events[0]["run_id"] == "test:seed=1"
        assert events[-1] == {
            "type": "metric", "kind": "counter", "name": "records", "value": 7,
        }
        assert validate_events(events) == []


class TestSpool:
    def test_spool_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs.SPOOL_ENV_VAR, str(tmp_path))
        worker = obs.Tracer(stream="system-2")
        with worker.span("synth.system"):
            pass
        path = obs.write_spool(worker, "system-2")
        assert path is not None and path.parent == tmp_path
        events = obs.load_spool_events("system-2")
        assert [event["name"] for event in events] == ["synth.system"]

    def test_spool_disarmed_is_noop(self, monkeypatch):
        monkeypatch.delenv(obs.SPOOL_ENV_VAR, raising=False)
        assert obs.write_spool(obs.Tracer(), "system-2") is None
        assert obs.load_spool_events("system-2") == []

    def test_retry_overwrites_spool(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs.SPOOL_ENV_VAR, str(tmp_path))
        first = obs.Tracer(stream="system-2")
        with first.span("attempt-1"):
            pass
        obs.write_spool(first, "system-2")
        second = obs.Tracer(stream="system-2")
        with second.span("attempt-2"):
            pass
        obs.write_spool(second, "system-2")
        assert [e["name"] for e in obs.load_spool_events("system-2")] == [
            "attempt-2"
        ]

    def test_spool_path_is_safe_and_collision_free(self, tmp_path):
        weird = obs.spool_path(tmp_path, "shard/../etc")
        assert weird.parent == tmp_path
        assert weird.name.endswith(".events.jsonl")
        other = obs.spool_path(tmp_path, "shard/./etc")
        assert weird != other  # same sanitized text, different digest


class TestActivation:
    def test_module_span_is_null_when_disabled(self):
        assert obs.span("anything") is obs.NULL_SPAN
        assert not obs.enabled()

    def test_null_span_supports_full_surface(self):
        with obs.span("off", key=1) as span:
            assert span.set("a", 1) is span
            assert span.add("b") is span

    def test_observing_installs_and_restores(self, tmp_path, monkeypatch):
        monkeypatch.delenv(obs.SPOOL_ENV_VAR, raising=False)
        tracer = obs.Tracer()
        registry = obs.MetricsRegistry()
        with obs.observing(tracer, registry, spool=tmp_path / "spool"):
            assert obs.enabled()
            assert obs.active_tracer() is tracer
            assert obs.spool_dir() == tmp_path / "spool"
            with obs.span("traced"):
                pass
            obs.metrics().counter("hits").add()
        assert not obs.enabled()
        assert obs.spool_dir() is None
        assert tracer.events[0]["name"] == "traced"
        assert registry.counter("hits").value == 1

    def test_disabled_metrics_are_discarded(self):
        registry = obs.metrics()
        registry.counter("lost").add(5)
        assert obs.metrics().counter("lost").value == 0

    def test_worker_tracing_noop_unless_armed(self, monkeypatch):
        monkeypatch.delenv(obs.SPOOL_ENV_VAR, raising=False)
        with obs.worker_tracing("system-2") as tracer:
            assert tracer is None

    def test_worker_tracing_spools_even_on_failure(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs.SPOOL_ENV_VAR, str(tmp_path))
        with pytest.raises(RuntimeError):
            with obs.worker_tracing("system-2"):
                with obs.span("synth.system"):
                    raise RuntimeError("chaos")
        events = obs.load_spool_events("system-2")
        assert len(events) == 1
        assert events[0]["status"] == "error"
