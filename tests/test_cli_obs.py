"""CLI surface of the observability layer.

``repro generate --trace/--metrics``, the ``repro profile``
subcommand, and the ``repro bench --obs-guard`` overhead gate.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.schema import validate_trace_file


class TestGenerateTracing:
    def test_trace_flag_writes_valid_jsonl(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        trace_path = tmp_path / "trace.jsonl"
        code = main([
            "generate", "--seed", "5", "--systems", "2,13",
            "--out", str(out), "--trace", str(trace_path),
        ])
        assert code == 0
        assert "wrote trace" in capsys.readouterr().out
        assert validate_trace_file(trace_path) == []
        events = [
            json.loads(line)
            for line in trace_path.read_text().strip().split("\n")
        ]
        assert events[0]["run_id"] == "generate:seed=5"
        names = {e["name"] for e in events if e["type"] == "span"}
        assert {"repro.generate", "generate", "io.write"} <= names

    def test_metrics_flag_prints_registry(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main([
            "generate", "--seed", "5", "--systems", "2",
            "--out", str(out), "--metrics",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "metrics:" in text
        assert "generate.records (counter):" in text

    def test_tracing_does_not_change_records(self, tmp_path):
        plain = tmp_path / "plain.csv"
        traced = tmp_path / "traced.csv"
        main(["generate", "--seed", "5", "--systems", "2,13",
              "--out", str(plain)])
        main(["generate", "--seed", "5", "--systems", "2,13",
              "--out", str(traced), "--trace", str(tmp_path / "t.jsonl"),
              "--metrics"])
        assert plain.read_text() == traced.read_text()

    def test_run_report_records_observability(self, tmp_path):
        run_dir = tmp_path / "run"
        trace_path = tmp_path / "trace.jsonl"
        code = main([
            "generate", "--seed", "5", "--systems", "2,13",
            "--out", str(tmp_path / "out.csv"),
            "--run-dir", str(run_dir), "--trace", str(trace_path),
        ])
        assert code == 0
        report = json.loads((run_dir / "run_report.json").read_text())
        meta = report["meta"]["observability"]
        assert meta["trace"] == str(trace_path)
        assert meta["spans"] > 0
        # Attempt wall times land in the report.
        for shard in report["shards"]:
            for attempt in shard["attempts"]:
                assert attempt["wall_s"] >= 0

    def test_parallel_trace_merges_worker_spans(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        code = main([
            "generate", "--seed", "5", "--systems", "2,13",
            "--out", str(tmp_path / "out.csv"), "--workers", "2",
            "--trace", str(trace_path),
        ])
        assert code == 0
        assert validate_trace_file(trace_path) == []
        events = [
            json.loads(line)
            for line in trace_path.read_text().strip().split("\n")
        ]
        spans = [e for e in events if e["type"] == "span"]
        streams = {e["id"].split(":")[0] for e in spans}
        assert "system-2" in streams and "system-13" in streams
        attempts = [e for e in spans if e["name"] == "shard.attempt"]
        assert [a["attrs"]["shard"] for a in attempts] == [
            "system-13", "system-2",
        ]


class TestProfile:
    def test_profile_runs_workload_and_prints_views(self, capsys):
        code = main(["profile", "--seed", "5", "--systems", "2"])
        assert code == 0
        text = capsys.readouterr().out
        assert "repro.profile" in text
        assert "span" in text and "wall" in text
        assert "calls" in text  # hotspot table header
        assert "metrics:" in text

    def test_profile_existing_trace_with_validation(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        main(["generate", "--seed", "5", "--systems", "2",
              "--out", str(tmp_path / "out.csv"), "--trace", str(trace_path)])
        capsys.readouterr()
        code = main(["profile", "--trace", str(trace_path), "--validate"])
        assert code == 0
        text = capsys.readouterr().out
        assert "schema OK" in text
        assert "repro.generate" in text

    def test_profile_validate_rejects_corrupt_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"type": "header", "kind": "repro-trace", "schema": 1}\n'
            '{"type": "span", "id": "main:0", "parent": "main:9", '
            '"name": "x", "depth": 3, "wall_s": 1.0, "cpu_s": 0.5, '
            '"status": "ok", "attrs": {}, "counters": {}}\n'
        )
        code = main(["profile", "--trace", str(bad), "--validate"])
        assert code == 1
        assert "INVALID" in capsys.readouterr().out

    def test_profile_writes_trace_out(self, tmp_path, capsys):
        out = tmp_path / "profile.jsonl"
        code = main(["profile", "--seed", "5", "--systems", "2",
                     "--out", str(out)])
        assert code == 0
        assert validate_trace_file(out) == []


class TestObsGuard:
    def test_obs_guard_passes(self, capsys):
        code = main(["bench", "--obs-guard", "--seed", "5"])
        assert code == 0
        text = capsys.readouterr().out
        assert "observability overhead guard" in text
        assert "REGRESSION" not in text

    def test_bench_without_a_guard_flag_runs_every_guard(self, capsys):
        code = main(["bench", "--seed", "5"])
        text = capsys.readouterr().out
        assert code == 0, text
        assert "observability overhead guard" in text
        assert "fs-faults overhead guard" in text
        assert "serve overhead guard" in text

    def test_bench_has_no_generator_suite(self):
        # The throughput suite and its gate live in
        # benchmarks/generator_gate.py.
        with pytest.raises(SystemExit):
            main(["bench", "--quick"])
