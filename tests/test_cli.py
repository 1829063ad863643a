"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.io import read_jsonl, read_lanl_csv, write_lanl_csv


@pytest.fixture(scope="module")
def trace_csv(tmp_path_factory):
    """A small trace written to disk once for the read-side commands."""
    from repro.synth import TraceGenerator

    path = tmp_path_factory.mktemp("cli") / "trace.csv"
    trace = TraceGenerator(seed=5).generate([2, 13])
    write_lanl_csv(trace, path)
    return str(path)


class TestGenerate:
    def test_csv_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(["generate", "--seed", "5", "--systems", "2,13", "--out", str(out)])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        loaded = read_lanl_csv(out)
        assert len(loaded) > 50
        assert {record.system_id for record in loaded} == {2, 13}

    def test_jsonl_format(self, tmp_path):
        out = tmp_path / "out.jsonl"
        code = main(["generate", "--seed", "5", "--systems", "2",
                     "--format", "jsonl", "--out", str(out)])
        assert code == 0
        assert len(read_jsonl(out)) > 10

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--seed", "9", "--systems", "13", "--out", str(a)])
        main(["generate", "--seed", "9", "--systems", "13", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestReadSideCommands:
    def test_summary(self, trace_csv, capsys):
        assert main(["summary", trace_csv]) == 0
        out = capsys.readouterr().out
        assert "records:" in out
        assert "root causes:" in out
        assert "TTR:" in out

    def test_report_table2(self, trace_csv, capsys):
        assert main(["report", trace_csv, "--artifact", "table2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_report_fig5(self, trace_csv, capsys):
        assert main(["report", trace_csv, "--artifact", "fig5"]) == 0
        assert "peak/trough" in capsys.readouterr().out

    def test_report_section_unavailable(self, trace_csv, capsys):
        # The trace has no system 20, so Figure 6 cannot render: like the
        # store path, the section says why and the command exits 1.
        assert main(["report", trace_csv, "--artifact", "fig6"]) == 1
        assert "[fig6 unavailable on this trace: " in capsys.readouterr().out

    def test_availability(self, trace_csv, capsys):
        assert main(["availability", trace_csv]) == 0
        out = capsys.readouterr().out
        assert "MTBF (h)" in out

    def test_validate_ok(self, trace_csv, capsys):
        assert main(["validate", trace_csv]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_validate_bad_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "system_id,node_id,start_time,end_time\n20,4000,1e8,1.1e8\n"
            "20,4001,1.0e8,1.2e8\n"
        )
        assert main(["validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_missing_trace_and_no_synthetic(self, trace_csv):
        with pytest.raises(SystemExit):
            main(["summary"])

    def test_schema(self, capsys):
        assert main(["schema"]) == 0
        assert "system_id" in capsys.readouterr().out


class TestOutliersAndCompare:
    def test_outliers_on_synthetic_system20(self, tmp_path, capsys):
        from repro.synth import TraceGenerator

        path = tmp_path / "s20.csv"
        write_lanl_csv(TraceGenerator(seed=1).generate([20]), path)
        assert main(["outliers", str(path), "--system", "20"]) == 0
        out = capsys.readouterr().out
        assert "Outlier nodes of system 20" in out
        assert "22" in out  # a graphics node is flagged

    def test_outliers_clean_system(self, trace_csv, capsys):
        assert main(["outliers", trace_csv, "--system", "13",
                     "--threshold", "0.9999"]) == 0
        out = capsys.readouterr().out
        assert "bulk model" in out

    def test_compare(self, tmp_path, capsys):
        from repro.synth import TraceGenerator

        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_lanl_csv(TraceGenerator(seed=1).generate([13]), a)
        write_lanl_csv(TraceGenerator(seed=2).generate([13]), b)
        assert main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "share[hardware]" in out
        assert "largest relative difference" in out

    def test_compare_gzipped_jsonl(self, tmp_path, capsys):
        paths = []
        for seed in ("1", "2"):
            path = tmp_path / f"seed{seed}.jsonl.gz"
            assert main(["generate", "--seed", seed, "--systems", "13",
                         "--format", "jsonl", "--out", str(path)]) == 0
            paths.append(str(path))
        capsys.readouterr()
        assert main(["compare", *paths]) == 0
        assert "largest relative difference" in capsys.readouterr().out


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_report_defaults_to_all_artifacts(self, trace_csv, capsys):
        # Exit 1: this 2-system trace cannot render the system-20
        # figures, and `--artifact all` reports success only when
        # every section is ok.  The report still renders end to end.
        assert main(["report", trace_csv]) == 1
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 3" in out
        assert "fig3     DEGRADED" in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
