"""CLI robustness: error boundary, --verbose, supervised generate flags.

Every subcommand must exit nonzero with a one-line friendly error on an
uncaught exception (never a traceback); ``--verbose`` re-raises for
debugging.  The generate command's resilience surface — --run-dir,
--resume, --chaos — is drilled end to end through ``main()``.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestErrorBoundary:
    def test_missing_trace_file_is_one_line_error(self, capsys):
        code = main(["summary", "/nonexistent/trace.csv"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_error_names_exception_type(self, capsys):
        code = main(["report", "/nonexistent/trace.csv", "--artifact", "table2"])
        assert code == 1
        assert "FileNotFoundError" in capsys.readouterr().err

    def test_verbose_reraises(self):
        with pytest.raises(FileNotFoundError):
            main(["--verbose", "summary", "/nonexistent/trace.csv"])

    def test_verbose_after_subcommand(self):
        with pytest.raises(FileNotFoundError):
            main(["summary", "/nonexistent/trace.csv", "--verbose"])

    def test_unknown_system_id_friendly(self, capsys):
        code = main(["generate", "--systems", "2,99", "--out", "/dev/null"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "99" in err

    def test_negative_seed_is_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(
            ["generate", "--seed", "-1", "--systems", "20", "--out", str(out)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: ValueError: root_seed must be non-negative, got -1\n"
        )
        assert "wrote" not in captured.out
        assert not out.exists()


class TestSupervisedGenerateFlags:
    def test_resume_requires_run_dir(self):
        with pytest.raises(SystemExit, match="--run-dir"):
            main(["generate", "--resume", "--out", "/dev/null"])

    def test_run_dir_writes_journal_and_report(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        run_dir = tmp_path / "run"
        code = main(
            ["generate", "--seed", "5", "--systems", "2,13",
             "--run-dir", str(run_dir), "--out", str(out)]
        )
        assert code == 0
        assert (run_dir / "meta.json").exists()
        assert (run_dir / "journal.jsonl").exists()
        report = json.loads((run_dir / "run_report.json").read_text())
        assert report["summary"]["total"] == 2
        assert capsys.readouterr().out.count("run_report.json") == 1

    def test_resume_completes_without_regenerating(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        first = tmp_path / "first.csv"
        main(["generate", "--seed", "5", "--systems", "2,13",
              "--run-dir", str(run_dir), "--out", str(first)])
        capsys.readouterr()
        second = tmp_path / "second.csv"
        code = main(
            ["generate", "--seed", "5", "--systems", "2,13", "--resume",
             "--run-dir", str(run_dir), "--out", str(second)]
        )
        assert code == 0
        assert "resumed 2 shard(s)" in capsys.readouterr().out
        assert first.read_text() == second.read_text()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_max_attempts_is_the_only_attempt_limit(
        self, tmp_path, capsys, workers
    ):
        # Every shard fails every attempt: each is skipped after exactly
        # --max-attempts attempts, and the incomplete run exits 3.
        run_dir = tmp_path / "run"
        code = main(
            ["generate", "--seed", "5", "--systems", "2,13",
             "--workers", workers, "--max-attempts", "2",
             "--chaos", "flaky-shard:1000", "--run-dir", str(run_dir),
             "--out", str(tmp_path / "out.csv")]
        )
        assert code == 3
        report = json.loads((run_dir / "run_report.json").read_text())
        assert report["summary"]["skipped"] == report["summary"]["total"] == 2
        for shard in report["shards"]:
            assert shard["status"] == "skipped"
            assert [a["outcome"] for a in shard["attempts"]] == ["error"] * 2
        assert "2 skipped" in capsys.readouterr().out

    def test_resume_with_different_seed_refused(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        main(["generate", "--seed", "5", "--systems", "2",
              "--run-dir", str(run_dir), "--out", str(tmp_path / "a.csv")])
        code = main(
            ["generate", "--seed", "6", "--systems", "2", "--resume",
             "--run-dir", str(run_dir), "--out", str(tmp_path / "b.csv")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error: JournalError" in err
        assert "seed" in err

    def test_chaos_drill_output_identical_to_clean_run(self, tmp_path, capsys):
        clean = tmp_path / "clean.csv"
        main(["generate", "--seed", "5", "--systems", "2,13",
              "--out", str(clean)])
        chaotic = tmp_path / "chaotic.csv"
        run_dir = tmp_path / "run"
        code = main(
            ["generate", "--seed", "5", "--systems", "2,13", "--workers", "2",
             "--chaos", "kill-worker:1", "--run-dir", str(run_dir),
             "--out", str(chaotic)]
        )
        assert code == 0
        assert clean.read_text() == chaotic.read_text()
        report = json.loads((run_dir / "run_report.json").read_text())
        crashes = [
            attempt
            for shard in report["shards"]
            for attempt in shard["attempts"]
            if attempt["outcome"] == "crash"
        ]
        assert crashes, "the injected kill must be recorded in the report"

    def test_bad_chaos_spec_rejected(self, capsys):
        code = main(
            ["generate", "--systems", "2", "--chaos", "set-on-fire",
             "--out", "/dev/null"]
        )
        assert code == 1
        assert "error: ValueError" in capsys.readouterr().err

    def test_resume_refuses_a_run_dir_of_another_payload_layout(
        self, tmp_path, capsys
    ):
        # A run directory journaled with per-engine payloads
        # ("columns-v2", with an "engine" identity key) must fail the
        # identity check before any payload is unpickled.
        run_dir = tmp_path / "run"
        code = main(
            ["generate", "--seed", "5", "--systems", "2",
             "--run-dir", str(run_dir), "--out", str(tmp_path / "a.csv")]
        )
        assert code == 0
        meta = json.loads((run_dir / "meta.json").read_text())
        meta.update(payload="columns-v2", engine="vectorized")
        (run_dir / "meta.json").write_text(json.dumps(meta))
        for payload in (run_dir / "shards").glob("*.pkl"):
            payload.write_bytes(b"not a pickle")
        capsys.readouterr()
        code = main(
            ["generate", "--seed", "5", "--systems", "2", "--resume",
             "--run-dir", str(run_dir), "--out", str(tmp_path / "b.csv")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "JournalError" in err
        assert "run identity changed (fields: engine, payload)" in err
        assert not (tmp_path / "b.csv").exists()
