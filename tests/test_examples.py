"""Smoke tests: every example script runs to completion.

Examples are the first thing a new user executes; these tests keep them
working as the API evolves.  Each example is run in-process (not via
subprocess) so coverage tools see it and failures produce readable
tracebacks.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXAMPLES = sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))


def run_example(name, argv, capsys):
    old_argv = sys.argv
    sys.argv = [name] + argv
    try:
        with pytest.raises(SystemExit) as excinfo:
            runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
        assert excinfo.value.code in (0, None), f"{name} exited {excinfo.value.code}"
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


def test_examples_directory_has_at_least_four():
    assert len(EXAMPLES) >= 4, EXAMPLES


def test_quickstart(capsys):
    out = run_example("quickstart.py", ["1"], capsys)
    assert "Root-cause breakdown" in out
    assert "lognormal" in out
    assert "decreasing" in out


def test_checkpoint_optimization(capsys):
    out = run_example("checkpoint_optimization.py", [], capsys)
    assert "Analytic comparison" in out
    assert "Trace replay" in out
    assert "efficiency=" in out


def test_reliability_scheduling(capsys):
    out = run_example("reliability_scheduling.py", [], capsys)
    assert "reliability-aware" in out
    assert "random" in out


def test_custom_cluster(capsys):
    out = run_example("custom_cluster.py", [], capsys)
    assert "Operational summary" in out
    assert "Checkpoint interval" in out


def test_full_paper_report_synthetic(capsys):
    out = run_example("full_paper_report.py", [], capsys)
    for artifact in ("Table 1", "Table 2", "Table 3", "Figure 1", "Figure 7"):
        assert artifact in out


def test_full_paper_report_from_csv(tmp_path, capsys):
    from repro.io import write_lanl_csv
    from repro.synth import TraceGenerator

    path = tmp_path / "t.csv"
    write_lanl_csv(TraceGenerator(seed=5).generate([20, 13]), path)
    out = run_example("full_paper_report.py", [str(path)], capsys)
    assert "Loading" in out
    assert "Figure 6" in out
